#!/usr/bin/env python3
"""The volflow benchmark: one workload in one fresh process, checked and timed.

    python3 perfbench/run.py --workload {check,simulate,ensemble} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from its `src`.
With --trace 0 the workload operation repeats until it has taken S seconds
(at least once) and the end-to-end metrics are its median wall time, the
median set-up time of separate fresh processes, and the peak resident
memory.  With --trace 1 a smoke-size run warms the caches, the operation
runs once untraced and once traced, and the per-layer metrics come from the
traced spans and from isolated, untraced per-call probes.  Every output is checked; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The run record and full span table go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads, pinned before numpy is imported (here or in a child).
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from spans import BATCH_CLASSES, EXTERIOR  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("check", "simulate", "ensemble")
SETUP_SAMPLES = {"full": 15, "smoke": 1}

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "forms.jet_at.calls": "count",
    "forms.jet_at.self_s": "s",
    "generator.field.calls": "count",
    "generator.field.self_s": "s",
    "dynamics.integrate.s": "s",
    "dynamics.field_evals_per_step": "calls/step",
    "systems.build_s": "s",
    **{f"exterior.{fn}.calls": "count" for fn in EXTERIOR},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.{kind}": unit for layer in ("forms.jet_at", "generator.field")
       for kind, unit in (("us_per_call.b1", "us"), ("us_per_call.bundle", "us"),
                          ("ns_per_pt.b10000", "ns"))},
    **{f"exterior.{fn}.us_per_call": "us" for fn in EXTERIOR},
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-child", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_volflow():
    """Import volflow from this checkout's src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "volflow", "__init__.py")):
        raise SystemExit(f"error: no volflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import volflow
    if not os.path.abspath(volflow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: volflow imported from {volflow.__file__}, not {SRC}")
    return volflow


def setup_seconds(args, workdir: str) -> float:
    """Set-up time of a fresh process: start, import, build systems, first field call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.time()
    proc = subprocess.run(cmd + ["--setup-child", repr(t0)], cwd=workdir,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_record(args, volflow) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = 0
    pkg = os.path.join(SRC, "volflow")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "cpu": cpu, "nproc": os.cpu_count(), "threads": THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "volflow": volflow.__version__,
        "commit": git_commit(), "src_volflow_lines": lines,
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, size: str, workdir: str):
    from workloads import make

    wl = make(args.workload, args.seed, size, workdir)
    wl.build()
    # set-up processes are spread over the run, one before each operation,
    # so that they and the operations see the same machine load
    times, setup, attempted, failed, messages = [], [], 0, 0, []
    while not times or sum(times) < args.seconds:
        if len(setup) < SETUP_SAMPLES[size]:
            setup.append(setup_seconds(args, workdir))
        t0 = time.perf_counter()
        out = wl.run()
        times.append(time.perf_counter() - t0)
        a, f, msgs = wl.gate(out)
        attempted, failed, messages = attempted + a, failed + f, messages + msgs
    while len(setup) < SETUP_SAMPLES[size]:
        setup.append(setup_seconds(args, workdir))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    print(f"{args.workload}: op_s samples " + ", ".join(f"{t:.4f}" for t in times)
          + "; setup_s samples " + ", ".join(f"{s:.4f}" for s in setup))
    detail = {"op_s_samples": times, "setup_s_samples": setup}
    return metrics, attempted, failed, messages, detail


def traced(args, size: str, workdir: str):
    from workloads import make
    from spans import Tracer, installed
    from probes import layer_probes

    wl = make(args.workload, args.seed, size, workdir)
    attempted, failed, messages = 0, 0, []

    def build_and_run():
        wl.build()
        return wl.run()

    # a smoke-size run first fills the package's caches (exterior-algebra
    # systems, omega powers), so the untraced and traced runs both start warm
    warm_dir = os.path.join(workdir, "warm")
    os.makedirs(warm_dir)
    warm = make(args.workload, args.seed, "smoke", warm_dir)
    warm.build()
    warm.run()

    t0 = time.perf_counter()
    out = build_and_run()
    untraced = time.perf_counter() - t0
    a, f, msgs = wl.gate(out)
    attempted, failed, messages = attempted + a, failed + f, messages + msgs

    tracer = Tracer()
    with installed(tracer):
        out = tracer.call("run", "", build_and_run)
    a, f, msgs = wl.gate(out)
    attempted, failed, messages = attempted + a, failed + f, messages + msgs

    wall = tracer.total_s("run")
    self_sum = tracer.self_sum_s()
    if not abs(self_sum - wall) <= 1e-9 * wall:
        messages.append(f"span self times add up to {self_sum!r} s, traced wall {wall!r} s")
    steps = wl.requested_steps(tracer)
    metrics = {
        "forms.jet_at.calls": tracer.calls("forms.jet_at"),
        "forms.jet_at.self_s": tracer.self_s("forms.jet_at"),
        "generator.field.calls": tracer.calls("generator.field"),
        "generator.field.self_s": tracer.self_s("generator.field"),
        "dynamics.integrate.s": tracer.total_s("dynamics.integrate"),
        "dynamics.field_evals_per_step": tracer.calls("generator.field") / steps,
        "systems.build_s": tracer.total_s("systems.build"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced,
    }
    for fn in EXTERIOR:
        metrics[f"exterior.{fn}.calls"] = tracer.calls(f"exterior.{fn}")
    metrics.update(layer_probes(wl.probe_system(), args.seed))

    # Spans only some workloads reach: reported here and in the record, not
    # as BENCHMARK.json metrics, because on the other workloads they read zero.
    detail = {
        "untraced_wall_s": untraced,
        "self_sum_s": self_sum,
        "requested_steps": steps,
        "layers": {
            "dynamics.flow_jacobian_dets.s": tracer.total_s("dynamics.flow_jacobian_dets"),
            "dynamics.monitor.self_s": tracer.self_s("dynamics.monitor"),
            "dynamics.divergence_at.s": tracer.total_s("dynamics.divergence_at"),
            "dynamics.lie_derivative_omega.s": tracer.total_s("dynamics.lie_derivative_omega"),
            "cli.simulate.self_s": tracer.self_s("cli.simulate"),
            **{f"exterior.{fn}.self_s": tracer.self_s(f"exterior.{fn}") for fn in EXTERIOR},
            **{f"verify.{suite}.s": tracer.total_s(f"verify.{suite}")
               for suite in sorted({n[len("verify."):] for n, _, _ in tracer.spans
                                    if n.startswith("verify.")})},
            **{f"{layer}.us_per_call.{batch}": tracer.self_s(layer, batch)
               / tracer.calls(layer, batch) * 1e6
               for layer in ("forms.jet_at", "generator.field")
               for batch in BATCH_CLASSES
               if tracer.calls(layer, batch)},
        },
        "spans": tracer.table(),
    }
    print(f"{args.workload}: traced wall {wall:.4f} s, untraced {untraced:.4f} s, "
          f"overhead {wall - untraced:.4f} s, span self times sum {self_sum:.4f} s")
    for name, value in detail["layers"].items():
        print(f"  {name:40s} {value:.6g}")
    return metrics, attempted, failed, messages, detail


def number(value):
    return value if isinstance(value, int) else float(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    volflow = import_volflow()
    size = "smoke" if args.smoke else "full"

    if args.setup_child is not None:
        from workloads import make

        make(args.workload, args.seed, size, os.getcwd()).build()
        print(repr(time.time() - args.setup_child))
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            metrics, attempted, failed, messages, detail = traced(args, size, workdir)
            units = PER_LAYER
        else:
            metrics, attempted, failed, messages, detail = measure(args, size, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in messages:
        print(f"GATE FAILED: {msg}")
    result = {
        "correct": not messages and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": number(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"record": run_record(args, volflow), "result": result,
              "gate_messages": messages, **detail}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
