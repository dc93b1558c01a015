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
from typing import Dict, NamedTuple, Optional

import numpy as np

from .forms import FieldEvaluationError, Polynomial, TwoFormField, hamiltonian_two_form
from .generator import _names, generate
from .dynamics import monitor
from .systems import (SystemInstance, _integer, _parameters, build_system,
                      coupled_oscillators, random_two_form)
from .verify import _oracle_solve, run_all

SYMPLECTIC_THRESHOLD = 1e-6

# The most steps `check --horizon / --dt` may ask of the volume suite: 100
# times the 10^4 of the defaults.
_MAX_CHECK_STEPS = 10**6

USAGE_ERROR = 2
FAILURE = 1


class ConfigError(ValueError):
    pass


# The keys a simulate config may hold: at its top level, in `system` and in
# `outputs`.  Any other key is a config error, so none is silently dropped.
CONFIG_KEYS = {
    "config": ("system", "dt", "steps", "sample_every", "x0", "n", "seed", "outputs"),
    "config.system": ("name", "params"),
    "config.outputs": ("trajectory", "diagnostics"),
}


def _object(where: str, value) -> dict:
    """value, a JSON object holding only the keys that CONFIG_KEYS[where] lists."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(value) - set(CONFIG_KEYS[where]))
    if unknown:
        raise ConfigError(f"{where} has an unknown key {unknown[0]!r}; "
                          f"known keys: {', '.join(CONFIG_KEYS[where])}")
    return value


def _is_number(value) -> bool:
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _output(name: str, path) -> str:
    """path, if a file can be written there: else a ConfigError naming `name`."""
    if not (isinstance(path, str) and path):
        raise ConfigError(f"{name} must be a file name, got {path!r}")
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"{name} must name a file in an existing directory, got {path!r}")
    return path


def _seed_fallback(explicit: Optional[int], default: int) -> int:
    name = "VOLFLOW_SEED" if explicit is None else "seed"
    seed = _integer(name, os.environ.get(name, default)) if explicit is None else explicit
    if seed < 0:  # numpy's generators refuse it
        raise ConfigError(f"{name} must be a non-negative integer, got {seed}")
    return seed


class _Run(NamedTuple):
    """A validated simulate run: what it integrates, how, and where it writes."""

    system: SystemInstance
    x0: np.ndarray
    dt: float
    steps: int
    sample_every: int
    trajectory_path: str
    diagnostics_path: str


def _read_run(args) -> _Run:
    """The run that `simulate`'s flags and config file describe.

    Each setting is taken once, from its flag, else the config, else its
    default, and checked where it is read: a bad one raises `ConfigError`
    or `ValueError` naming it.  A seed or n in `system.params` wins over
    the top-level one, and the seed the system takes passes `_seed_fallback`.
    """
    config: Dict[str, object] = {}
    if args.config:
        with open(args.config) as fh:
            config = _object("config", json.load(fh))
    system = config.get("system", {})
    system = _object("config.system", {"name": system} if isinstance(system, str) else system)
    name, params = system.get("name"), system.get("params", {})
    if not isinstance(name, str):
        raise ConfigError("config.system must name a system")
    if not isinstance(params, dict):
        raise ConfigError("config.system.params must be a JSON object")
    outputs = _object("config.outputs", config.get("outputs", {}))
    dt = config.get("dt", 1e-3) if args.dt is None else args.dt
    if not _is_number(dt):
        raise ConfigError(f"dt must be a number, got {dt!r}")
    if not 0 < float(dt) < np.inf:
        raise ConfigError("dt must be finite and positive")
    x0 = config.get("x0")
    if not (x0 is None or isinstance(x0, list) and all(map(_is_number, x0))):
        raise ConfigError(f"x0 must be a list of numbers, got {x0!r}")
    steps = _integer("steps", config.get("steps", 1000) if args.steps is None else args.steps)
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    sample_every = _integer("sample_every", config.get("sample_every", 1))
    if sample_every < 1:
        raise ConfigError("sample_every must be >= 1")
    n, seed = (None if config.get(key) is None else _integer(key, config[key])
               for key in ("n", "seed"))
    paths = (_output("config.outputs.trajectory",
                     args.out or outputs.get("trajectory", "trajectory.csv")),
             _output("config.outputs.diagnostics",
                     args.diag or outputs.get("diagnostics", "diagnostics.json")))
    params, accepted = dict(params), _parameters(name)
    if "seed" in accepted:
        seed = _integer("seed", params["seed"]) if "seed" in params else seed
        params["seed"] = _seed_fallback(seed, 0)
    if n is not None and "n" in accepted:
        params.setdefault("n", n)
    try:
        built = build_system(name, **params)
    except TypeError as exc:  # a parameter of a type its builder cannot take
        raise ConfigError(f"config.system.params: {exc}")
    if n is not None and n != built.n:
        raise ConfigError(f"config.n = {n} but system has n = {built.n}")
    x0 = built.default_x0 if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (2 * built.n,):
        raise ConfigError(f"x0 must have length {2 * built.n}")
    if not np.isfinite(x0).all():
        raise ConfigError("x0 must be finite (NaN and Infinity are not allowed)")
    return _Run(built, x0, float(dt), steps, sample_every, *paths)


def _format_row(values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values)


def _write_trajectory_csv(path: str, times, states, n: int):
    lines = [",".join(["t"] + _names(n, ""))]
    lines += [_format_row([t] + list(row)) for t, row in zip(times, states)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dump_json(path: str, payload: Dict[str, object]):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    try:
        run = _read_run(args)
    # OverflowError: an integer too large for a float, as dt or in x0
    except (ConfigError, ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    H = run.system.hamiltonian
    observables = {} if H is None else {"H": H}
    diag = monitor(run.system.field, run.x0, run.dt, run.steps,
                   sample_every=max(1, run.steps // 20), observables=observables,
                   trajectory_every=run.sample_every)
    traj = diag.trajectory
    _write_trajectory_csv(run.trajectory_path, traj.times, traj.states, run.system.n)

    diagnostics: Dict[str, object] = {
        "system": run.system.name,
        "n": run.system.n,
        "dt": run.dt,
        "steps": run.steps,
        "sample_every": run.sample_every,
        "failed": bool(traj.failed),
        "rows_written": int(traj.states.shape[0]),
        "field_evaluations": diag.field_evaluations,
    }
    if traj.failed:
        diagnostics["last_valid_time"] = float(traj.times[-1]) if traj.times.size else 0.0
        _dump_json(run.diagnostics_path, diagnostics)
        print(f"integration left the finite domain; partial trajectory in "
              f"{run.trajectory_path}", file=sys.stderr)
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
    if run.system.invariants_expected:
        diagnostics["expected"] = run.system.invariants_expected
    _dump_json(run.diagnostics_path, diagnostics)
    print(f"wrote {run.trajectory_path} ({traj.states.shape[0]} rows) and "
          f"{run.diagnostics_path}")
    return 0


def cmd_check(args) -> int:
    try:
        n_list = tuple(int(tok) for tok in str(args.n).split(",") if tok.strip())
        if not n_list or any(n < 2 or n > 4 for n in n_list):
            raise ConfigError("--n must list integers in 2..4")
        seed = _seed_fallback(args.seed, 42)
        if args.trials < 0:
            raise ConfigError("--trials must be >= 0")
        if not (0 < args.dt < np.inf and 0 < args.horizon < np.inf):
            raise ConfigError("--dt and --horizon must be finite and positive")
        steps = args.horizon / args.dt
        if not (np.isfinite(steps) and 1 <= round(steps) <= _MAX_CHECK_STEPS):
            raise ConfigError("--horizon / --dt must round to a step count in "
                              f"1..{_MAX_CHECK_STEPS}, not {steps:g}")
        if args.report:
            _output("--report", args.report)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    results = run_all(n_list=n_list, trials=args.trials, seed=seed,
                      dt=args.dt, horizon=args.horizon)
    report: Dict[str, object] = {name: r.to_report() for name, r in results.items()}
    report["_meta"] = {"n": list(n_list), "trials": args.trials, "seed": seed}
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
