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
from .systems import (_integer, _parameters, build_system, coupled_oscillators,
                      random_two_form)
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


def _seed_fallback(explicit: Optional[int], default: int) -> int:
    name, seed = "seed", explicit
    if seed is None:
        name, seed = "VOLFLOW_SEED", os.environ.get("VOLFLOW_SEED", default)
        try:
            seed = int(seed)
        except ValueError:
            raise ConfigError(f"VOLFLOW_SEED must be an integer, got {seed!r}")
    if seed < 0:  # numpy's generators refuse it
        raise ConfigError(f"{name} must be a non-negative integer, got {seed}")
    return int(seed)


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
        def pick(flag, key, fallback):
            if flag is not None:
                return flag
            return config_data.get(key, fallback)

        _object("config", config_data)
        system = config_data.get("system", {})
        if isinstance(system, str):
            system = {"name": system}
        _object("config.system", system)
        if not isinstance(system.get("name"), str):
            raise ConfigError("config.system must name a system")
        params = system.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("config.system.params must be a JSON object")
        outputs = _object("config.outputs", config_data.get("outputs", {}))
        dt, x0 = pick(args.dt, "dt", 1e-3), config_data.get("x0")
        if not _is_number(dt):
            raise ConfigError(f"dt must be a number, got {dt!r}")
        if not (x0 is None or isinstance(x0, list) and all(map(_is_number, x0))):
            raise ConfigError(f"x0 must be a list of numbers, got {x0!r}")

        def optional_integer(key):
            value = config_data.get(key)
            return None if value is None else _integer(key, value)

        def path(flag, key, fallback):
            value = flag or outputs.get(key, fallback)
            if not (isinstance(value, str) and value):
                raise ConfigError(f"config.outputs.{key} must be a file name, got {value!r}")
            return value

        cfg = cls(
            system_name=system["name"],
            system_params=dict(params),
            dt=float(dt),
            steps=_integer("steps", pick(args.steps, "steps", 1000)),
            sample_every=_integer("sample_every", config_data.get("sample_every", 1)),
            x0=x0,
            n=optional_integer("n"),
            seed=optional_integer("seed"),
            trajectory_path=path(args.out, "trajectory", "trajectory.csv"),
            diagnostics_path=path(args.diag, "diagnostics", "diagnostics.json"),
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
            params.setdefault("n", cfg.n)
        try:
            system = build_system(cfg.system_name, **params)
        except TypeError as exc:  # a parameter of a type its builder cannot take
            raise ConfigError(f"config.system.params: {exc}")
        if cfg.n is not None and cfg.n != system.n:
            raise ConfigError(f"config.n = {cfg.n} but system has n = {system.n}")
        x0 = system.default_x0 if cfg.x0 is None else np.asarray(cfg.x0, dtype=float)
        if x0.shape != (2 * system.n,):
            raise ConfigError(f"x0 must have length {2 * system.n}")
        if not np.isfinite(x0).all():
            raise ConfigError("x0 must be finite (NaN and Infinity are not allowed)")
    # OverflowError: an integer too large for a float, as dt or in x0
    except (ConfigError, ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
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
