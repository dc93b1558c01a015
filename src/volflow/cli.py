"""Command-line front end: simulate, check, oracle.

`simulate` integrates a configured system and writes a trajectory CSV plus
a diagnostics JSON.  `check` runs the verification suites and writes a
report.  `oracle` compares the componentwise field formula against the
dense exterior-algebra solve at one point, for debugging.

Exit codes: 0 success, 1 verification/integration failure, 2 usage or
config errors.  All outputs are deterministic for a fixed seed and config
(no timestamps; JSON keys sorted; floats at 17 significant digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .forms import FieldEvaluationError, Polynomial, TwoFormField, hamiltonian_two_form
from .generator import _names, generate
from .dynamics import monitor
from .systems import _parameters, build_system, coupled_oscillators, random_two_form
from .verify import _oracle_solve, run_all

SYMPLECTIC_THRESHOLD = 1e-6

# The most steps `check --horizon / --dt` may ask of the volume suite: 100
# times the 10^4 of the defaults.
_MAX_CHECK_STEPS = 10**6

USAGE_ERROR = 2
FAILURE = 1


class ConfigError(ValueError):
    pass


def _seed_fallback(explicit: Optional[int], default: int) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("VOLFLOW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"VOLFLOW_SEED must be an integer, got {env!r}")
    return default


@dataclass
class RunConfig:
    """Validated simulate settings assembled from config file plus flags."""

    system_name: str
    system_params: Dict[str, object]
    dt: float
    steps: int
    sample_every: int = 1
    x0: Optional[List[float]] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    trajectory_path: str = "trajectory.csv"
    diagnostics_path: str = "diagnostics.json"

    def validate(self):
        if not 0 < self.dt < np.inf:
            raise ConfigError("dt must be finite and positive")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")

    @classmethod
    def from_sources(cls, config_data: Dict[str, object], args) -> "RunConfig":
        if not isinstance(config_data, dict):
            raise ConfigError("config root must be a JSON object")
        system = config_data.get("system", {})
        if isinstance(system, str):
            system = {"name": system}
        if not isinstance(system, dict) or "name" not in system:
            raise ConfigError("config.system must name a system")
        params = dict(system.get("params", {}))
        outputs = config_data.get("outputs", {})
        if not isinstance(outputs, dict):
            raise ConfigError("config.outputs must be an object")

        def pick(flag, key, fallback):
            if flag is not None:
                return flag
            return config_data.get(key, fallback)

        cfg = cls(
            system_name=str(system["name"]),
            system_params=params,
            dt=float(pick(args.dt, "dt", 1e-3)),
            steps=int(pick(args.steps, "steps", 1000)),
            sample_every=int(config_data.get("sample_every", 1)),
            x0=config_data.get("x0"),
            n=config_data.get("n"),
            seed=config_data.get("seed"),
            trajectory_path=str(args.out or outputs.get("trajectory", "trajectory.csv")),
            diagnostics_path=str(args.diag or outputs.get("diagnostics", "diagnostics.json")),
        )
        cfg.validate()
        return cfg


def _format_row(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def _write_trajectory_csv(path: str, times, states, n: int):
    header = "t," + ",".join(f"q{i + 1}" for i in range(n)) + "," + ",".join(
        f"p{i + 1}" for i in range(n)
    )
    lines = [header]
    for t, row in zip(times, states):
        lines.append(_format_row([t] + list(row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dump_json(path: str, payload: Dict[str, object]):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    try:
        config_data: Dict[str, object] = {}
        if args.config:
            with open(args.config) as fh:
                config_data = json.load(fh)
        cfg = RunConfig.from_sources(config_data, args)
        params, accepted = dict(cfg.system_params), _parameters(cfg.system_name)
        if "seed" in accepted:
            params.setdefault("seed", _seed_fallback(cfg.seed, 0))
        if cfg.n is not None and "n" in accepted:
            params.setdefault("n", int(cfg.n))
        system = build_system(cfg.system_name, **params)
        if cfg.n is not None and int(cfg.n) != system.n:
            raise ConfigError(f"config.n = {cfg.n} but system has n = {system.n}")
        x0 = system.default_x0 if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
        if x0.shape != (2 * system.n,):
            raise ConfigError(f"x0 must have length {2 * system.n}")
        if not np.isfinite(x0).all():
            raise ConfigError("x0 must be finite (NaN and Infinity are not allowed)")
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    observables = {}
    if system.hamiltonian is not None:
        observables["H"] = system.hamiltonian
    diag = monitor(system.field, x0, cfg.dt, cfg.steps,
                   sample_every=max(1, cfg.steps // 20), observables=observables,
                   trajectory_every=cfg.sample_every)
    traj = diag.trajectory
    _write_trajectory_csv(cfg.trajectory_path, traj.times, traj.states, system.n)

    diagnostics: Dict[str, object] = {
        "system": system.name,
        "n": system.n,
        "dt": cfg.dt,
        "steps": cfg.steps,
        "sample_every": cfg.sample_every,
        "failed": bool(traj.failed),
        "rows_written": int(traj.states.shape[0]),
        "field_evaluations": diag.field_evaluations,
    }
    if traj.failed:
        diagnostics["last_valid_time"] = float(traj.times[-1]) if traj.times.size else 0.0
        _dump_json(cfg.diagnostics_path, diagnostics)
        print(f"integration left the finite domain; partial trajectory in "
              f"{cfg.trajectory_path}", file=sys.stderr)
        return FAILURE

    lie_max = diag.max_lie_omega()
    diagnostics.update({
        "volume_det_max_abs_err": diag.max_volume_error(),
        "dets_positive": diag.dets_positive(),
        "divergence_max_abs": diag.max_divergence(),
        "lie_omega_max_abs": lie_max,
        "symplectic": bool(lie_max <= SYMPLECTIC_THRESHOLD),
        "diagnostic_samples": int(diag.times.size),
    })
    if diag.energy_samples is not None:
        diagnostics["energy_drift"] = diag.max_energy_drift()
    if system.invariants_expected:
        diagnostics["expected"] = system.invariants_expected
    _dump_json(cfg.diagnostics_path, diagnostics)
    print(f"wrote {cfg.trajectory_path} ({traj.states.shape[0]} rows) and "
          f"{cfg.diagnostics_path}")
    return 0


def cmd_check(args) -> int:
    try:
        n_list = tuple(int(tok) for tok in str(args.n).split(",") if tok.strip())
        if not n_list or any(n < 2 or n > 4 for n in n_list):
            raise ConfigError("--n must list integers in 2..4")
        seed = _seed_fallback(args.seed, 42)
        trials = int(args.trials)
        if trials < 0:
            raise ConfigError("--trials must be >= 0")
        if not (0 < args.dt < np.inf and 0 < args.horizon < np.inf):
            raise ConfigError("--dt and --horizon must be finite and positive")
        steps = args.horizon / args.dt
        if not (np.isfinite(steps) and 1 <= round(steps) <= _MAX_CHECK_STEPS):
            raise ConfigError("--horizon / --dt must round to a step count in "
                              f"1..{_MAX_CHECK_STEPS}, not {steps:g}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    results = run_all(n_list=n_list, trials=trials, seed=seed,
                      dt=args.dt, horizon=args.horizon)
    report: Dict[str, object] = {name: r.to_report() for name, r in results.items()}
    report["_meta"] = {"n": list(n_list), "trials": trials, "seed": seed}
    all_pass = all(r.passed or r.skipped for r in results.values())
    for name, r in sorted(results.items()):
        mark = "skip" if r.skipped else "pass" if r.passed else "FAIL"
        print(f"{mark}  {name:24s} max_residual {r.max_residual:.3e}  "
              f"tolerance {r.tolerance:.0e}")
    if not results:
        print("no suites run (trials = 0)")
    if args.report:
        _dump_json(args.report, report)
        print(f"report written to {args.report}")
    return 0 if all_pass else FAILURE


ORACLE_ALPHAS = ("zero", "unit-a12", "hamiltonian-p1", "coupled", "random")


def _oracle_alpha(name: str, n: int, seed: int) -> TwoFormField:
    if name == "zero":
        return TwoFormField(n)
    if name == "unit-a12":
        return TwoFormField(n, A={(0, 1): Polynomial.coordinate(2 * n, 0)})
    if name == "hamiltonian-p1":
        return hamiltonian_two_form(Polynomial.coordinate(2 * n, n), n)
    if name == "coupled":
        if n != 2:
            raise ConfigError("the coupled 2-form is defined for n = 2")
        return coupled_oscillators().alpha
    if name == "random":
        return random_two_form(n, np.random.default_rng(seed))
    raise ConfigError(f"unknown alpha {name!r}; choose from {', '.join(ORACLE_ALPHAS)}")


def cmd_oracle(args) -> int:
    try:
        point = np.array([float(tok) for tok in args.point.split(",")], dtype=float)
        if point.ndim != 1 or point.size % 2 or point.size < 4:
            raise ConfigError("--point must list 2n >= 4 comma-separated reals")
        if not np.isfinite(point).all():
            raise ConfigError("--point must be finite (NaN and Infinity are not allowed)")
        n = point.size // 2
        if args.n is not None and int(args.n) != n:
            raise ConfigError(f"--n {args.n} contradicts point of length {point.size}")
        seed = _seed_fallback(args.seed, 0)
        alpha = _oracle_alpha(args.alpha, n, seed)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            direct = generate(alpha)(point)
    except FieldEvaluationError as exc:
        print(f"error: {exc} at --point {args.point}", file=sys.stderr)
        return FAILURE
    solved, _ = _oracle_solve(alpha, point)
    residual = np.abs(direct - solved)
    print(f"alpha = {args.alpha}, n = {n}, point = {_format_row(point)}")
    print(f"{'component':>10s} {'formula':>24s} {'oracle solve':>24s} {'residual':>12s}")
    for lab, a, b, r in zip(_names(n), direct, solved, residual):
        print(f"{lab:>10s} {a:24.17g} {b:24.17g} {r:12.3e}")
    print(f"max residual: {float(residual.max()):.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volflow",
        description="Volume-preserving flows generated from 2-forms: simulate, "
                    "verify, and inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate a configured system")
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--dt", type=float, help="time step (overrides config)")
    sim.add_argument("--steps", type=int, help="number of steps (overrides config)")
    sim.add_argument("--out", help="trajectory CSV path (overrides config)")
    sim.add_argument("--diag", help="diagnostics JSON path (overrides config)")
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check", help="run the verification suites")
    chk.add_argument("--n", default="2,3", help="comma-separated n values in 2..4 (default 2,3)")
    chk.add_argument("--trials", type=int, default=100,
                     help="sampling effort (default 100; 0 runs nothing)")
    chk.add_argument("--seed", type=int, default=None,
                     help="seed (default: VOLFLOW_SEED or 42)")
    chk.add_argument("--report", help="write the JSON report here")
    chk.add_argument("--dt", type=float, default=1e-3,
                     help="integration step for the volume suite (default 1e-3)")
    chk.add_argument("--horizon", type=float, default=10.0,
                     help="integration horizon for the volume suite (default 10)")
    chk.set_defaults(func=cmd_check)

    orc = sub.add_parser("oracle", help="compare formula vs dense solve at a point")
    orc.add_argument("--alpha", required=True,
                     help=f"named 2-form: {', '.join(ORACLE_ALPHAS)}")
    orc.add_argument("--point", required=True,
                     help="comma-separated coordinates q1..qn,p1..pn")
    orc.add_argument("--n", type=int, default=None, help="cross-check dimension")
    orc.add_argument("--seed", type=int, default=None,
                     help="seed for --alpha random (default: VOLFLOW_SEED or 0)")
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (and on --help); fold both into a
        # plain return so main() is callable in-process
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
