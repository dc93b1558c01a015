"""The three benchmark workloads: what each builds, runs and checks.

Every workload drives volflow through its public functions only, in one
process, as a closed loop with one caller.  `build` makes the systems and
pays the first field call (which compiles the polynomial jet); `run` is the
timed operation; `gate` checks one output and returns
(attempted, failed, messages).  Inputs come from the seed alone.

Why these three:
- check: the acceptance battery `volflow check --n 2,3,4 --trials 100`.
  The only workload that exercises the exterior-algebra oracle and the
  verify suites; most of its time is the finite-difference flow bundle of
  the volume-preservation suite.
- simulate: `volflow simulate` on coupled oscillators, 10^4 steps.  Field
  evaluation at batch 1, where fixed per-call overhead dominates, and the
  same path integrated three times.  The oracle is unused.
- ensemble: one batched RK4 integration of 10^4 points.  The same field
  code used with wide batches, where the per-point monomial-table cost
  dominates; also the memory-heavy workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from typing import Dict, List, Tuple

import numpy as np

from volflow import cli, dynamics, exterior, systems, verify

# verify.TOLERANCES when the benchmark was defined.  Tolerances may be
# tightened but never loosened; a looser one fails the check gate.
TOLERANCES: Dict[str, float] = {
    "oracle_equivalence": 1e-10,
    "hamiltonian_reduction": 1e-12,
    "divergence_free": 1e-5,
    "volume_preservation": 1e-6,
    "symplectic_witness": 1e-6,
    "gauge_invariance": 1e-10,
    "observable_derivative": 1e-10,
    "poisson_trace": 1e-12,
    "trace_closed_form": 1e-10,
    "lemmas": 1e-12,
    "feng_shang": 1e-10,
    "harmonic_return": 1e-9,
    "drift_analytic": 1e-12,
    "decomposition": 1e-10,
}

# Full sizes are what a benchmark run measures; smoke sizes keep the self-test fast.
SIZES = {
    "full": {
        "check": {"n_list": (2, 3, 4), "trials": 100, "horizon": 10.0},
        "simulate": {"steps": 10_000, "sample_every": 100},
        "ensemble": {"points": 10_000, "steps": 20},
    },
    "smoke": {
        "check": {"n_list": (2, 3, 4), "trials": 2, "horizon": 0.05},
        "simulate": {"steps": 500, "sample_every": 50},
        "ensemble": {"points": 200, "steps": 5},
    },
}


class Check:
    """volflow's acceptance battery, `verify.run_all`, at the CLI defaults."""

    name = "check"

    def __init__(self, seed: int, size: Dict, workdir: str):
        self.seed = int(seed)
        self.n_list = tuple(size["n_list"])
        self.trials = int(size["trials"])
        self.horizon = float(size["horizon"])

    def build(self):
        self.systems = [systems.coupled_oscillators()] + [
            systems.random_alpha_system(n=n, seed=s)
            for n, s in verify.VOLUME_RANDOM_INSTANCES
        ]
        for sys_ in self.systems:
            sys_.field(sys_.default_x0)

    def run(self):
        return verify.run_all(n_list=self.n_list, trials=self.trials,
                              seed=self.seed, horizon=self.horizon)

    def gate(self, results) -> Tuple[int, int, List[str]]:
        messages = []
        for suite, tol in TOLERANCES.items():
            r = results.get(suite)
            if r is None:
                messages.append(f"{suite}: missing from the report")
            elif not r.passed:
                messages.append(f"{suite}: failed, residual {r.max_residual:.3e}")
            elif not r.max_residual <= tol:
                messages.append(f"{suite}: residual {r.max_residual:.3e} above {tol:g}")
            elif not r.tolerance <= tol:
                messages.append(f"{suite}: tolerance {r.tolerance:g} looser than {tol:g}")
        extra = sorted(set(results) - set(TOLERANCES))
        if extra:
            messages.append(f"unexpected suites: {', '.join(extra)}")
        return len(TOLERANCES), min(len(messages), len(TOLERANCES)), messages

    def requested_steps(self, tracer) -> int:
        """RK4 steps the battery's suites ask for (flow bundles and trajectories)."""
        return sum(steps for (name, parent), steps in tracer.steps.items()
                   if name in ("dynamics.integrate", "dynamics.flow_jacobian_dets")
                   and parent is not None and parent.startswith("verify."))

    def probe_system(self):
        return systems.random_alpha_system(n=3, seed=2)


class Simulate:
    """`volflow simulate` in-process on coupled oscillators from a seeded x0."""

    name = "simulate"
    DT = 1e-3
    X0 = np.array([1.0, 0.5, -0.2, 0.3])  # the system's default initial condition

    def __init__(self, seed: int, size: Dict, workdir: str):
        rng = np.random.default_rng(seed)
        self.x0 = self.X0 + 0.1 * rng.standard_normal(4)
        self.steps = int(size["steps"])
        self.sample_every = int(size["sample_every"])
        config = os.path.join(workdir, "simulate.json")
        self.csv = os.path.join(workdir, "trajectory.csv")
        self.diag = os.path.join(workdir, "diagnostics.json")
        with open(config, "w") as fh:
            json.dump({"system": {"name": "coupled-oscillators"}, "dt": self.DT,
                       "steps": self.steps, "sample_every": self.sample_every,
                       "x0": self.x0.tolist()}, fh)
        self.argv = ["simulate", "--config", config, "--out", self.csv,
                     "--diag", self.diag]
        self.spec = systems.LinearSystemSpec(systems.COUPLED_K)

    def build(self):
        self.system = systems.build_system("coupled-oscillators")
        self.system.field(self.x0)

    def run(self):
        for path in (self.csv, self.diag):
            if os.path.exists(path):
                os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv)
        out = {"rc": rc, "rows": None, "diag": None}
        if os.path.exists(self.csv):
            out["rows"] = np.loadtxt(self.csv, delimiter=",", skiprows=1, ndmin=2)
        if os.path.exists(self.diag):
            with open(self.diag) as fh:
                out["diag"] = json.load(fh)
        return out

    def gate(self, out) -> Tuple[int, int, List[str]]:
        messages = []
        if out["rc"] != 0:
            messages.append(f"exit code {out['rc']}")
        rows = out["rows"]
        expected_rows = self.steps // self.sample_every + 1
        if rows is None or rows.shape != (expected_rows, 5):
            shape = None if rows is None else rows.shape
            messages.append(f"trajectory shape {shape}, expected ({expected_rows}, 5)")
        else:
            worst = 0.0
            for t, *state in rows:
                ref = self.spec.flow(t, self.x0)
                err = np.max(np.abs(np.asarray(state) - ref)) / max(1.0, np.max(np.abs(ref)))
                worst = max(worst, float(err))
            if not worst <= 1e-9:
                messages.append(f"trajectory vs exact flow: relative error {worst:.3e} > 1e-9")
        diag = out["diag"]
        if diag is None:
            messages.append("no diagnostics written")
        else:
            if diag.get("failed") is not False:
                messages.append("diagnostics report a failed integration")
            vol = diag.get("volume_det_max_abs_err")
            if not (isinstance(vol, float) and vol <= 1e-6):
                messages.append(f"volume_det_max_abs_err {vol} > 1e-6")
            if diag.get("dets_positive") is not True:
                messages.append("dets_positive is not true")
            if diag.get("symplectic") is not False:
                messages.append("symplectic is not false")
            lie = diag.get("lie_omega_max_abs")
            if not (isinstance(lie, float) and abs(lie - 0.5) <= 1e-6):
                messages.append(f"lie_omega_max_abs {lie} is not 0.5 +- 1e-6")
        return 1, int(bool(messages)), messages

    def requested_steps(self, tracer) -> int:
        return self.steps

    def probe_system(self):
        return self.system


def oracle_field(alpha):
    """alpha's generated field at one point, by the dense exterior-algebra route.

    Solves nu_n(X) = n(n-1) d(alpha) ^ omega^(n-2) for X, as the oracle suite
    of the battery does.  The jet is assembled here from each component's own
    value and gradient, so neither `generator` nor the compiled jet of `forms`
    is on this path: a wrong field from either shows as a mismatch.
    """
    n = alpha.n
    comps = list(alpha.components())
    omega = exterior.omega_power(n, n - 2)

    def field(x):
        vals = {kind: np.zeros((n, n)) for kind in "QAP"}
        grads = {kind: np.zeros((n, n, 2 * n)) for kind in "QAP"}
        for kind, i, j, f in comps:
            vals[kind][i, j] = float(f.value(x))
            grads[kind][i, j] = f.gradient(x)
            if kind != "A":  # Q and P are stored above the diagonal only
                vals[kind][j, i] = -vals[kind][i, j]
                grads[kind][j, i] = -grads[kind][i, j]
        jet = exterior.PointwiseJet(
            n=n, Q=vals["Q"], A=vals["A"], P=vals["P"],
            **{f"d{kind}_d{var}": grads[kind][..., sl]
               for kind in "QAP" for var, sl in (("q", slice(None, n)), ("p", slice(n, None)))})
        target = float(n * (n - 1)) * exterior.wedge(exterior.d_at_point(jet), omega)
        return exterior.solve_nu_n(target, n)

    return field


class Ensemble:
    """One batched `dynamics.integrate` of seeded points around a random system's x0."""

    name = "ensemble"
    DT = 1e-2
    CHECKED = 3  # points compared against scipy and against their own unbatched run

    def __init__(self, seed: int, size: Dict, workdir: str):
        rng = np.random.default_rng(seed)
        points = int(size["points"])
        x0 = 0.1 * np.ones(6)  # random_alpha_system's default initial condition
        self.x0 = x0 + 0.05 * rng.standard_normal((points, 6))
        self.steps = int(size["steps"])
        self.checked = np.sort(rng.choice(points, self.CHECKED, replace=False))

    def build(self):
        self.system = systems.random_alpha_system(n=3, seed=2)
        self.system.field(self.x0[0])

    def run(self):
        return dynamics.integrate(self.system.field, self.x0, self.DT, self.steps,
                                  sample_every=self.steps)

    def references(self):
        """Final states of the checked points: scipy DOP853 on the oracle field,
        and the program's own unbatched integrate.  Computed afresh at every gate."""
        from scipy.integrate import solve_ivp  # not paid by the set-up processes

        field = oracle_field(self.system.alpha)
        t_end = self.DT * self.steps
        scipy_refs, single = [], []
        for i in self.checked:
            sol = solve_ivp(lambda t, y: field(y), (0.0, t_end), self.x0[i],
                            method="DOP853", rtol=1e-13, atol=1e-13)
            scipy_refs.append(sol.y[:, -1])
            single.append(dynamics.integrate(self.system.field, self.x0[i], self.DT,
                                             self.steps, sample_every=self.steps).final_state)
        return np.array(scipy_refs), np.array(single)

    def gate(self, traj) -> Tuple[int, int, List[str]]:
        messages = []
        final = traj.states[-1]
        if traj.failed or final.shape != self.x0.shape:
            messages.append(f"integration failed or returned shape {final.shape}")
        elif not np.isfinite(traj.states).all():
            messages.append("non-finite states")
        else:
            scipy_refs, single = self.references()
            got = final[self.checked]
            scale = np.maximum(1.0, np.max(np.abs(scipy_refs), axis=1))
            err = float(np.max(np.max(np.abs(got - scipy_refs), axis=1) / scale))
            if not err <= 1e-10:
                messages.append(f"checked points vs scipy DOP853 on the oracle field: "
                                f"{err:.3e} > 1e-10")
            err = float(np.max(np.abs(got - single)))
            if not err <= 1e-13:
                messages.append(f"checked points vs unbatched integrate: {err:.3e} > 1e-13")
        return 1, int(bool(messages)), messages

    def requested_steps(self, tracer) -> int:
        return self.steps

    def probe_system(self):
        return self.system


WORKLOADS = {cls.name: cls for cls in (Check, Simulate, Ensemble)}


def make(name: str, seed: int, size: str, workdir: str):
    return WORKLOADS[name](seed, SIZES[size][name], workdir)
