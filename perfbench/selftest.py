#!/usr/bin/env python3
"""Self-test of the benchmark, at smoke sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints a result line with
every metric BENCHMARK.json names and with its unit; that each correctness
gate passes on a good output and rejects a corrupted one; and that the
benchmark fails without printing a result where the sources are missing.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # pins the BLAS threads before numpy is imported

FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_result_lines(spec: dict):
    for workload in run.WORKLOAD_NAMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=170)
            what = f"{workload} --trace {trace}"
            result = last_json(proc.stdout)
            expect(proc.returncode == 0 and result is not None, f"{what}: exit 0 with a result")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: correct, nothing failed")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{what}: every {section} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{what}: numeric values")


def check_gates():
    from volflow import forms, generator
    from workloads import make

    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        wl = make("check", 3, "smoke", workdir)
        wl.build()
        good = wl.run()
        expect(wl.gate(good)[1] == 0, "check gate passes the battery")
        bad = dict(good)
        bad["lemmas"] = dataclasses.replace(good["lemmas"], passed=False)
        expect(wl.gate(bad)[1] == 1, "check gate rejects a failed suite")
        bad = dict(good)
        bad["poisson_trace"] = dataclasses.replace(good["poisson_trace"], tolerance=1e-11)
        expect(wl.gate(bad)[1] == 1, "check gate rejects a loosened tolerance")
        bad = dict(good)
        r = good["drift_analytic"]
        bad["drift_analytic"] = dataclasses.replace(r, max_residual=10 * r.tolerance)
        expect(wl.gate(bad)[1] == 1, "check gate rejects a residual above tolerance "
                                     "from a suite that reports a pass")
        bad = dict(good)
        del bad["volume_preservation"]
        expect(wl.gate(bad)[1] == 1, "check gate rejects a missing suite")

        wl = make("simulate", 3, "smoke", workdir)
        wl.build()
        good = wl.run()
        expect(wl.gate(good)[1] == 0, "simulate gate passes the run")
        with scaled_field(generator, 1.0 + 1e-6):
            bad = wl.run()
        expect(wl.gate(bad)[1] == 1, "simulate gate rejects a field scaled by 1 + 1e-6")
        expect(wl.gate(dict(good, rc=1))[1] == 1, "simulate gate rejects exit code 1")
        for key, value in (("failed", True), ("volume_det_max_abs_err", 2e-6),
                           ("dets_positive", False), ("symplectic", True),
                           ("lie_omega_max_abs", 0.5 + 2e-6)):
            bad = copy.deepcopy(good)
            bad["diag"][key] = value
            expect(wl.gate(bad)[1] == 1, f"simulate gate rejects {key} = {value!r}")

        wl = make("ensemble", 3, "smoke", workdir)
        wl.build()
        good = wl.run()
        expect(wl.gate(good)[1] == 0, "ensemble gate passes the batch")
        # a fresh workload built, run and gated under the corruption, as in a
        # fresh process running a wrong field
        for corrupt, what in ((scaled_field(generator, 1.0 + 1e-6), "a field scaled by 1 + 1e-6"),
                              (scaled_jet(forms, 1.0 + 1e-6), "jet partials scaled by 1 + 1e-6")):
            with corrupt:
                fresh = make("ensemble", 3, "smoke", workdir)
                fresh.build()
                rejected = fresh.gate(fresh.run())[1] == 1
            expect(rejected, f"ensemble gate rejects {what}")
        bad = dataclasses.replace(good, states=good.states.copy())
        bad.states[-1, 0, 0] = float("nan")
        expect(wl.gate(bad)[1] == 1, "ensemble gate rejects a non-finite point")
        bad = dataclasses.replace(good, states=good.states.copy())
        bad.states[-1, wl.checked[0], 0] += 1e-9
        expect(wl.gate(bad)[1] == 1, "ensemble gate rejects a checked point off by 1e-9")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@contextlib.contextmanager
def scaled_field(generator, factor: float):
    """Scale every generated-field evaluation by a factor while the block runs."""
    original = generator.GeneratedField.__call__
    generator.GeneratedField.__call__ = lambda self, x: original(self, x) * factor
    try:
        yield
    finally:
        generator.GeneratedField.__call__ = original


@contextlib.contextmanager
def scaled_jet(forms, factor: float):
    """Scale every partial of every 2-form jet by a factor while the block runs."""
    original = forms.TwoFormField.jet_at
    names = ("dQ_dq", "dQ_dp", "dA_dq", "dA_dp", "dP_dq", "dP_dp")

    def jet_at(self, x):
        jet = original(self, x)
        return dataclasses.replace(jet, **{k: getattr(jet, k) * factor for k in names})

    forms.TwoFormField.jet_at = jet_at
    try:
        yield
    finally:
        forms.TwoFormField.jet_at = original


def check_without_sources():
    """In a directory holding only BENCHMARK.json and the benchmark, no result."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, os.path.join(bare, "perfbench", "run.py"), "--workload",
               "check", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and last_json(proc.stdout) is None,
               "without sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.import_volflow()
    os.makedirs(run.OUT, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_result_lines(spec)
    check_gates()
    check_without_sources()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
