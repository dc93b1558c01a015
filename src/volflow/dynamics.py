"""Flow integration and flow-level diagnostics.

Integration is classical fixed-step RK4, batched over leading axes; a
batch wider than `generator._CHUNK` points is stepped and evaluated in
slices of at most that many points, so its temporaries stay small.  Flow
Jacobians come from RK4 on the variational equation: the path is stepped
on the unchecked field, and every 64 steps one batched DX at their stage
points gives the step Jacobians.  DX is exact for a field with an exact
tangent (from the compiled [X | DX] map of a polynomial field) and taken
by central differences of X for any other.  Diagnostics quantify what the
generated fields promise: vanishing divergence, unit flow-Jacobian
determinant, the Lie derivative of the symplectic form, and the
observable-derivative identity relating df/dt along the flow to an
exterior product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .exterior import KForm, omega_power, wedge, d_at_point, trace_of
from .forms import (
    FieldEvaluationError,
    ScalarField,
    TwoFormField,
    _fd_jacobian,
    as_points,
)
from .generator import GeneratedField, _in_chunks, _symplectic_matrix, generate

__all__ = [
    "Trajectory",
    "integrate",
    "flow_jacobian_dets",
    "divergence_at",
    "lie_derivative_omega",
    "poisson_bracket",
    "gradient_one_form",
    "check_dotf",
    "poisson_trace_residual",
    "FlowDiagnostics",
    "monitor",
]


@dataclass
class Trajectory:
    """Sampled states of one or more integrated curves.

    `states` has shape (num_samples, ..., 2n) matching the batch shape of
    the initial condition.  If the integration produced non-finite values,
    `failed` is True and samples stop at `last_valid_index`.  `dt` records
    the step that produced it.
    """

    times: np.ndarray
    states: np.ndarray
    failed: bool = False
    last_valid_index: Optional[int] = None
    dt: Optional[float] = None

    @property
    def n(self) -> int:
        return self.states.shape[-1] // 2

    @property
    def final_state(self) -> np.ndarray:
        idx = self.last_valid_index if self.failed else -1
        return self.states[idx]

    def q(self) -> np.ndarray:
        return self.states[..., : self.n]

    def p(self) -> np.ndarray:
        return self.states[..., self.n :]


def _rk4_step(field: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step from x."""
    k1 = field(x)
    k2 = field(x + 0.5 * dt * k1)
    k3 = field(x + 0.5 * dt * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _initial_state(field, x0, dt: float, steps: int, *intervals: int) -> np.ndarray:
    """A copy of x0 as points, once the step arguments are checked."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if any(every < 1 for every in intervals):
        raise ValueError("sample_every must be >= 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    return as_points(x0, 2 * getattr(field, "n", 0) or None).copy()


def _sample_times(dt: float, steps: int, every: int) -> np.ndarray:
    """Times of step 0 and of every `every`-th step."""
    return np.array([dt * k for k in range(0, steps + 1, every)])


def integrate(field, x0, dt: float, steps: int, sample_every: int = 1) -> Trajectory:
    """Integrate xdot = field(x) with fixed-step RK4.

    Samples are recorded at step 0 and every `sample_every`-th step.  A
    batch wider than `generator._CHUNK` points takes each whole RK4 step a
    slice of points at a time (`generator._in_chunks`), so no temporary
    grows with the batch.  If a field call raises, or a step produces a
    non-finite state, in any slice, the whole trajectory is truncated at
    the last finite sample and marked failed rather than raising.
    """
    x = _initial_state(field, x0, dt, steps, sample_every)
    dt = float(dt)
    times = _sample_times(dt, steps, sample_every)
    states = np.empty((times.size,) + x.shape)
    states[0] = x
    write = 1
    failed = False
    step = partial(_rk4_step, field, dt=dt)

    for k in range(1, steps + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = _in_chunks(step, x, x.shape[-1])
        except (FieldEvaluationError, FloatingPointError, OverflowError):
            failed = True
            break
        if not np.isfinite(x).all():
            failed = True
            break
        if (k % sample_every) == 0:
            states[write] = x
            write += 1

    if failed:
        return Trajectory(times[:write], states[:write], failed=True,
                          last_valid_index=write - 1, dt=dt)
    return Trajectory(times, states, dt=dt)


# Steps whose Jacobians one batched DX call takes: enough to spread numpy's
# per-call cost at batch 1, few enough to keep the stage stack small.
_BLOCK = 64


def _dx_source(field) -> Tuple[Callable, Callable]:
    """The unchecked X of `field` and its DX source for the step Jacobians.

    The DX source maps (k, 2n) points to (k, 2n, 2n) Jacobians: the
    compiled [X | DX] map when the field has an exact tangent, NaN where a
    row is not finite; otherwise central differences of X.
    """
    if not isinstance(field, GeneratedField):
        return field, partial(_fd_dx, field)
    X = field._eval_fn
    if field.exact_tangent:
        return X, partial(_exact_dx, field.tangent_map())
    return X, partial(_fd_dx, X)


def _exact_dx(tangent_map, pts: np.ndarray) -> np.ndarray:
    rows = tangent_map(pts)
    rows[~np.isfinite(rows).all(axis=1)] = np.nan
    dim = pts.shape[-1]
    return rows[:, dim:].reshape(-1, dim, dim)


def _fd_dx(X, pts: np.ndarray) -> np.ndarray:
    try:
        return _fd_jacobian(X, pts)
    except (FieldEvaluationError, FloatingPointError, OverflowError):
        # NaN at each point where X raises
        if len(pts) > 1:
            return np.concatenate([_fd_dx(X, p[None]) for p in pts])
        return np.full((1,) + pts.shape[-1:] * 2, np.nan)


def _rk4_block(X, dx, x: np.ndarray, dt: float,
               steps: int) -> Tuple[np.ndarray, np.ndarray]:
    """Up to `steps` RK4 steps from x, and their Jacobians.

    The steps run on the unchecked field X, recording each stage point, and
    stop after the first non-finite state; a stage whose call raised is NaN.
    One call of the DX source `dx` (see `_dx_source`) on the stage points
    then gives every DX, and each step Jacobian S is RK4 on the variational
    equation (x, V)' = (X(x), DX(x) V) from (x, I), all steps at once: with
    DX_i at stage i, dk_1 = DX_1, dk_2 = DX_2 (I + dt/2 dk_1),
    dk_3 = DX_3 (I + dt/2 dk_2), dk_4 = DX_4 (I + dt dk_3) and
    S = I + dt/6 (dk_1 + 2 dk_2 + 2 dk_3 + dk_4).

    Returns the (b, 2n) states after each step and their (b, 2n, 2n) S.
    A DX that is not finite at a stage makes its step's S non-finite.
    """
    stages = []

    def stage(y):
        stages.append(y)
        try:
            return X(y)
        except (FieldEvaluationError, FloatingPointError, OverflowError):
            return np.full(y.shape, np.nan)

    xs = []
    for _ in range(steps):
        x = _rk4_step(stage, x, dt)
        xs.append(x)
        if not np.isfinite(x).all():
            break
    dim = x.shape[0]
    D = dx(np.array(stages)).reshape(-1, 4, dim, dim)  # the four stages of each step
    eye = np.eye(dim)
    dk2 = D[:, 1] @ (eye + 0.5 * dt * D[:, 0])
    dk3 = D[:, 2] @ (eye + 0.5 * dt * dk2)
    dk4 = D[:, 3] @ (eye + dt * dk3)
    S = eye + (dt / 6.0) * (D[:, 0] + 2.0 * dk2 + 2.0 * dk3 + dk4)
    return np.array(xs).reshape(-1, dim), S


class _Pass(NamedTuple):
    trajectory: Trajectory
    times: np.ndarray
    states: np.ndarray
    dets: np.ndarray
    jacobians: np.ndarray
    calls: int


def _one_pass(field, x0, dt: float, steps: int, sample_every: int,
              trajectory_every: int) -> _Pass:
    """Integrate one point once with RK4, carrying each step's Jacobian S.

    The steps run in blocks of `_BLOCK` through `_rk4_block`, with DX from
    the source that `_dx_source` chooses once for the field.  Stepping keeps
    every g-th state, g = gcd(`sample_every`, `trajectory_every`), and every
    step's det S.  Afterwards the trajectory (every `trajectory_every` steps)
    and the samples (every `sample_every` steps) are taken from those
    states, the flow-Jacobian determinants are one `cumprod` of the det S
    (the chain rule), and one call of the DX source gives DX at the sample
    states and at the last state.  `calls` counts the field calls that
    stepped the path, four per completed step.  A non-finite state or step
    Jacobian ends the pass, marked failed: the trajectory keeps the steps
    before it.  A last state whose DX is not finite also marks the pass
    failed, and its sample is dropped.
    """
    x = _initial_state(field, x0, dt, steps, sample_every, trajectory_every)
    if x.ndim != 1:
        raise ValueError("expected a single initial point")
    dt = float(dt)
    g = math.gcd(sample_every, trajectory_every)
    kept, step_dets = [x[None, :]], [np.ones(1)]
    done, failed = 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        X, dx = _dx_source(field)
        while done < steps and not failed:
            xs, S = _rk4_block(X, dx, x, dt, min(_BLOCK, steps - done))
            good = np.isfinite(xs).all(axis=1) & np.isfinite(S).all(axis=(1, 2))
            v = len(xs) if good.all() else int(np.argmin(good))  # valid steps
            kept.append(xs[:v][(done + 1 + np.arange(v)) % g == 0])
            step_dets.append(np.linalg.det(S[:v]))
            done += v
            failed = v < len(xs)
            x = xs[v - 1] if v else x
        states = np.concatenate(kept)
        samples = states[:: sample_every // g]
        DX = dx(np.concatenate([samples, x[None, :]]))
    sampled = np.isfinite(DX[-1]).all()
    failed = failed or not sampled
    n_traj = done // trajectory_every + 1
    n_samples = (done if sampled else max(done - 1, 0)) // sample_every + 1
    trajectory = Trajectory(_sample_times(dt, steps, trajectory_every)[:n_traj],
                            states[:: trajectory_every // g], failed=failed,
                            last_valid_index=n_traj - 1 if failed else None, dt=dt)
    dets = np.cumprod(np.concatenate(step_dets))[::sample_every]
    return _Pass(trajectory, _sample_times(dt, steps, sample_every)[:n_samples],
                 samples[:n_samples], dets[:n_samples], DX[:n_samples], 4 * done)


def flow_jacobian_dets(field, x0, dt: float, steps: int,
                       sample_every: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """det of the flow map's Jacobian at each sample time.

    Chain rule: the determinant over [0, T] is the product of one-step
    determinants det dPhi_dt(x_k) along the trajectory, each the RK4 step
    of the variational equation (see `_rk4_block`).  Its DX is exact for a
    field with an exact tangent and taken by central differences of X
    otherwise (see `_dx_source`).  Returns (times, dets); volume
    preservation means dets close to one.  Raises FloatingPointError if
    the flow or its Jacobian leaves the finite domain.
    """
    result = _one_pass(field, x0, dt, steps, sample_every, max(steps, 1))
    if result.trajectory.failed:
        raise FloatingPointError("the flow or its Jacobian left the finite domain")
    return result.times, result.dets


def divergence_at(field, x) -> np.ndarray:
    """Divergence of the field by central differences, step scaled per coordinate."""
    return np.trace(_fd_jacobian(field, as_points(x)), axis1=-2, axis2=-1)


def _lie_omega_matrix(J: np.ndarray, n: int) -> np.ndarray:
    """J^T W + W J, W the matrix of omega, for Jacobians J of shape (..., 2n, 2n)."""
    W = _symplectic_matrix(n).T
    return np.swapaxes(J, -1, -2) @ W + W @ J


def lie_derivative_omega(field, x) -> KForm:
    """L_X omega at x as a 2-form, from the finite-difference Jacobian of X.

    For the constant-coefficient symplectic form, (L_X omega)(u, v) =
    u^T (J^T W + W J) v with W the matrix of omega and J = dX/dx.  A
    Hamiltonian field gives zero; the antisymmetric part of a linear
    system shows up as a q-q block.
    """
    pts = as_points(x)
    n = pts.shape[-1] // 2
    L = _lie_omega_matrix(_fd_jacobian(field, pts), n)
    coeffs = {}
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            if L[a, b] != 0.0:
                coeffs[(a, b)] = L[a, b]
    return KForm(2 * n, 2, coeffs)


def poisson_bracket(f: ScalarField, g: ScalarField, x):
    """{f, g}(x) = sum_i (df/dq^i dg/dp_i - df/dp_i dg/dq^i) at x.

    Batched points give batched brackets.  Exact when the operands carry
    exact gradients (polynomials); finite-difference otherwise.
    """
    pts = as_points(x)
    n = pts.shape[-1] // 2
    gf = f.gradient(pts)
    gg = g.gradient(pts)
    out = np.einsum("...i,...i->...", gf[..., :n], gg[..., n:]) - np.einsum(
        "...i,...i->...", gf[..., n:], gg[..., :n]
    )
    return float(out) if out.ndim == 0 else out


def gradient_one_form(grad: np.ndarray) -> KForm:
    """The 1-form df from a gradient vector (df = sum_a (df/dx^a) dx^a)."""
    grad = np.asarray(grad, dtype=float)
    if grad.ndim != 1:
        raise ValueError("expected a single gradient vector")
    return KForm(grad.shape[0], 1, {(a,): v for a, v in enumerate(grad) if v != 0.0})


def check_dotf(alpha: TwoFormField, f: ScalarField, x) -> float:
    """Residual |fdot - n(n-1) [d(alpha) ^ df ^ omega^{n-2}] / omega^n| at x.

    fdot is df contracted with the generated field of alpha; the right
    side is the coefficient of the volume form in the exterior product,
    computed through the dense oracle.  Along any integral curve these
    agree, so the return value is a direct check of the derivative-of-
    observable identity.
    """
    n = alpha.n
    pts = as_points(x, 2 * n)
    if pts.ndim != 1:
        raise ValueError("expected a single point")
    X = generate(alpha)
    lhs = float(np.dot(X(pts), f.gradient(pts)))
    full = tuple(range(2 * n))
    rhs_form = wedge(
        wedge(d_at_point(alpha.jet_at(pts)), gradient_one_form(f.gradient(pts))),
        omega_power(n, n - 2),
    )
    rhs = n * (n - 1) * rhs_form.coeffs.get(full, 0.0) / omega_power(n, n).coeffs[full]
    return abs(lhs - rhs)


def poisson_trace_residual(f: ScalarField, g: ScalarField, x) -> float:
    """Residual of {f, g} = tr(dg ^ df) at x (trace paired against omega)."""
    pts = as_points(x)
    if pts.ndim != 1:
        raise ValueError("expected a single point")
    n = pts.shape[-1] // 2
    bracket = float(poisson_bracket(f, g, pts))
    form = wedge(gradient_one_form(g.gradient(pts)), gradient_one_form(f.gradient(pts)))
    tr = trace_of(form, n)
    return abs(bracket - tr)


@dataclass
class FlowDiagnostics:
    """Per-sample health measurements of an integrated flow.

    `volume_dets` are flow-Jacobian determinants at the sample times (a
    volume-preserving flow keeps them at one, and always positive);
    `divergence_samples` is the field divergence along the trajectory;
    `energy_samples` tracks the observable named "H" when present;
    `identity_residuals` holds named residual series, e.g. the max
    coefficient of the Lie derivative of the symplectic form.
    `trajectory` is the integrated curve at its own cadence, and
    `field_evaluations` counts the field calls that stepped it, four per
    step; the batched calls that take DX are not counted.
    """

    times: np.ndarray
    states: np.ndarray
    volume_dets: np.ndarray
    divergence_samples: np.ndarray
    energy_samples: Optional[np.ndarray]
    observable_series: Dict[str, np.ndarray]
    identity_residuals: Dict[str, np.ndarray]
    failed: bool
    trajectory: Trajectory
    field_evaluations: int

    def max_volume_error(self) -> float:
        if self.volume_dets.size == 0:
            return float("nan")
        return float(np.max(np.abs(self.volume_dets - 1.0)))

    def dets_positive(self) -> bool:
        return bool(np.all(self.volume_dets > 0.0))

    def max_divergence(self) -> float:
        if self.divergence_samples.size == 0:
            return float("nan")
        return float(np.max(np.abs(self.divergence_samples)))

    def max_energy_drift(self) -> float:
        if self.energy_samples is None or self.energy_samples.size == 0:
            return 0.0
        return float(np.max(np.abs(self.energy_samples - self.energy_samples[0])))

    def max_lie_omega(self) -> float:
        series = self.identity_residuals.get("lie_omega_max_abs")
        if series is None or series.size == 0:
            return float("nan")
        return float(np.max(series))


def monitor(field, x0, dt: float, steps: int, sample_every: int = 100,
            observables: Optional[Dict[str, ScalarField]] = None,
            trajectory_every: Optional[int] = None) -> FlowDiagnostics:
    """Integrate once and collect volume, divergence, observable, and identity series.

    The trajectory is recorded every `trajectory_every` steps (default:
    `sample_every`) and the diagnostics every `sample_every` steps, both
    from the same integration.  The determinants, div X = tr DX and
    L_X omega = DX^T W + W DX all come from the DX source that the step
    Jacobians use (see `flow_jacobian_dets`), called once at the samples
    after stepping: exact for a field with an exact tangent, by central
    differences of X otherwise.  The observable named "H" doubles as the
    energy series.  The identity series "lie_omega_max_abs" records the
    largest coefficient of L_X omega at each sample; it stays at zero iff
    the field is symplectic.  A run that leaves the finite domain returns
    failed=True, its trajectory cut at the last finite sample, and empty
    diagnostic series.
    """
    every = sample_every if trajectory_every is None else trajectory_every
    run = _one_pass(field, x0, dt, steps, sample_every, every)
    if run.trajectory.failed:
        empty = np.zeros(0)
        return FlowDiagnostics(run.times, run.states, empty, empty, None, {}, {},
                               True, run.trajectory, run.calls)
    jacs = run.jacobians
    div = np.trace(jacs, axis1=-2, axis2=-1)
    lie = np.abs(_lie_omega_matrix(jacs, jacs.shape[-1] // 2)).max(axis=(-2, -1))
    observables = observables or {}
    series = {name: np.asarray(f.value(run.states), dtype=float)
              for name, f in observables.items()}
    residuals = {"lie_omega_max_abs": lie}
    return FlowDiagnostics(run.times, run.states, run.dets, div, series.get("H"),
                           series, residuals, False, run.trajectory, run.calls)
