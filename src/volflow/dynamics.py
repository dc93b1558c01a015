"""Flow integration and flow-level diagnostics.

Integration is classical fixed-step RK4, batched over leading axes, in one
loop under one rule: a field call that raises gives a NaN stage, and every
64 steps the first state that is not finite cuts the path.  Each pass steps
on one X (`_stepping_x`): one point of a compiled polynomial field on a
power table the pass owns, anything else on the field as given.  DX comes
from one source (`_dx_source`): the compiled [X | DX] map of a field with
an exact tangent, central differences of X otherwise.  Along a path, one DX
call per block gives the step Jacobians (RK4 on the variational equation),
and div X = tr DX and L_X omega = DX^T W + W DX at the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, Optional, Tuple

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
    the initial condition, one row at each of the `times`.  If the
    integration produced non-finite values, `failed` is True and the rows
    stop at the last finite sample.  `dt` records the step that produced it.
    """

    times: np.ndarray
    states: np.ndarray
    failed: bool = False
    dt: Optional[float] = None

    @property
    def n(self) -> int:
        return self.states.shape[-1] // 2

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def q(self) -> np.ndarray:
        return self.states[..., : self.n]

    def p(self) -> np.ndarray:
        return self.states[..., self.n :]


@dataclass
class FlowDiagnostics:
    """Per-sample health measurements of one integrated flow.

    At each of the sample `times`, at the sampled `states`: `volume_dets`,
    the flow-Jacobian determinant (a volume-preserving flow keeps it at
    one, and always positive); `divergence_samples`, div X = tr DX;
    `lie_omega_samples`, the largest coefficient of L_X omega = DX^T W +
    W DX (zero iff the field is symplectic); and `observable_series`, each
    monitored observable by name, "H" being the energy.  `trajectory` is
    the integrated curve at its own cadence; it is `failed` if the run left
    the finite domain.  `field_evaluations` counts the field calls that
    stepped it, four per step; the batched calls that take DX are not
    counted.
    """

    times: np.ndarray
    states: np.ndarray
    volume_dets: np.ndarray
    divergence_samples: np.ndarray
    lie_omega_samples: np.ndarray
    observable_series: Dict[str, np.ndarray]
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
        energy = self.observable_series.get("H")
        if energy is None or energy.size == 0:
            return 0.0
        return float(np.max(np.abs(energy - energy[0])))

    def max_lie_omega(self) -> float:
        if self.lie_omega_samples.size == 0:
            return float("nan")
        return float(np.max(self.lie_omega_samples))


def _rk4_step(field: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step from x, x + dt/6 (k1 + 2 k2 + 2 k3 + k4): the one RK4
    formula, taken by `_rk4_steps`.

    2 k is taken as k + k, which is exact like 2.0 * k and costs less.  It
    is never doubled in place: a field may return an array its caller
    still holds.
    """
    h = 0.5 * dt
    k1 = field(x)
    k2 = field(x + h * k1)
    k3 = field(x + h * k2)
    k4 = field(x + dt * k3)
    return x + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)


def _rk4_steps(X, x: np.ndarray, dt: float, steps: int, every: int, out: np.ndarray,
               stages: Optional[list] = None) -> Tuple[np.ndarray, int]:
    """Up to `steps` RK4 steps on X from x, the one RK4 loop; returns the
    last state and the number of steps taken.  The state after each step
    that `every` divides goes to the next row of `out`, and each stage point
    to `stages` if given.  A stage whose call raised is NaN.  The loop stops
    after the first block of `_BLOCK` steps that ends in a state that is not
    finite; as such a state stays so, the first one lies in that block.  A
    batch wider than `generator._CHUNK` points steps a slice at a time.
    """
    def stage(y):
        if stages is not None:
            stages.append(y)
        try:
            return X(y)
        except (FieldEvaluationError, FloatingPointError, OverflowError):
            return np.full(y.shape, np.nan)

    step, row, k = partial(_rk4_step, stage, dt=dt), 0, 0
    for k in range(1, steps + 1):
        x = _in_chunks(step, x, x.shape[-1])
        if k % every == 0:
            out[row] = x
            row += 1
        if k % _BLOCK == 0 and not np.isfinite(x).all():
            break
    return x, k


def _initial_state(field, x0, dt: float, steps: int, *intervals: int) -> np.ndarray:
    """A copy of x0 as finite points, once the step arguments are checked."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if any(every < 1 for every in intervals):
        raise ValueError("sample_every must be >= 1")
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = as_points(x0, 2 * getattr(field, "n", 0) or None)
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    return x.copy()


def _sample_times(dt: float, steps: int, every: int) -> np.ndarray:
    """Times of step 0 and of every `every`-th step."""
    return np.array([dt * k for k in range(0, steps + 1, every)])


# Steps per block: each block tests finiteness once, and in `_one_pass` takes
# its DX in one call, which spreads numpy's per-call cost at batch 1.
_BLOCK = 64


def integrate(field, x0, dt: float, steps: int, sample_every: int = 1) -> Trajectory:
    """Integrate xdot = field(x) with fixed-step RK4.

    Samples are recorded at step 0 and every `sample_every`-th step.  The
    steps run on `_stepping_x` through `_rk4_steps`, as `monitor`'s do: a
    stage that raises is NaN, and the first state not finite at any point
    truncates the trajectory at the last finite sample, marked failed.
    """
    x = _initial_state(field, x0, dt, steps, sample_every)
    dt = float(dt)
    times = _sample_times(dt, steps, sample_every)
    states = np.empty((times.size,) + x.shape)
    states[0] = x
    x = states[0]  # so that no state is held beside the samples while stepping
    with np.errstate(over="ignore", invalid="ignore"):
        x, done = _rk4_steps(_stepping_x(field, x), x, dt, steps, sample_every, states[1:])
    if np.isfinite(x).all():
        return Trajectory(times, states, dt=dt)
    kept = states[:done // sample_every + 1]  # its finite rows come first
    write = np.count_nonzero(np.isfinite(kept.reshape(len(kept), -1)).all(axis=1))
    return Trajectory(times[:write], states[:write], failed=True, dt=dt)


def _stepping_x(field, x: np.ndarray) -> Callable:
    """The X one pass steps x on: at a single point of a compiled polynomial
    field, a one-point evaluator of its map (`point_fn`), unchecked and on a
    power table this pass owns; otherwise the field exactly as given."""
    point_fn = getattr(getattr(field, "_eval_fn", None), "point_fn", None)
    return point_fn() if point_fn and x.ndim == 1 else field


def _dx_source(field) -> Callable:
    """The one DX source of `field`, mapping (k, 2n) points to (k, 2n, 2n)
    Jacobians: the compiled [X | DX] map when the field has an exact
    tangent, NaN where a row is not finite; otherwise central differences
    of the unchecked X, NaN where X raises."""
    if not isinstance(field, GeneratedField):
        return partial(_fd_dx, field)
    if field.exact_tangent:
        return partial(_exact_dx, field.tangent_map())
    return partial(_fd_dx, field._eval_fn)


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


def _rk4_block(X, dx, x: np.ndarray, dt: float, steps: int,
               dx_at_x: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`steps` RK4 steps from x, their Jacobians, and DX at their states.

    One call of the DX source `dx` (see `_dx_source`) at the stage points
    and the last state gives every DX; `dx_at_x`, DX at x if the caller
    holds it (the last DX of the block before), spares that call the first
    stage point.  Each step Jacobian S is RK4 on the
    variational equation (x, V)' = (X(x), DX(x) V) from (x, I), all steps
    at once: with DX_i at stage i, dk_1 = DX_1, dk_2 = DX_2 (I + dt/2 dk_1),
    dk_3 = DX_3 (I + dt/2 dk_2), dk_4 = DX_4 (I + dt dk_3) and
    S = I + dt/6 (dk_1 + 2 dk_2 + 2 dk_3 + dk_4); a DX that is not finite
    makes its step's S non-finite.  Returns the (b, 2n) states after each
    step, their (b, 2n, 2n) S, and the (b + 1, 2n, 2n) DX at x and at each
    of those states: stage 1 of each step, then the last state.
    """
    stages, dim = [], x.shape[0]
    xs = np.empty((steps, dim))
    stages.append(_rk4_steps(X, x, dt, steps, 1, xs, stages)[0])
    D = (dx(np.array(stages)) if dx_at_x is None
         else np.concatenate([dx_at_x[None], dx(np.array(stages[1:]))]))
    Dk = D[:-1].reshape(-1, 4, dim, dim)  # the four stages of each step
    eye = np.eye(dim)
    dk2 = Dk[:, 1] @ (eye + 0.5 * dt * Dk[:, 0])
    dk3 = Dk[:, 2] @ (eye + 0.5 * dt * dk2)
    dk4 = Dk[:, 3] @ (eye + dt * dk3)
    S = eye + (dt / 6.0) * (Dk[:, 0] + 2.0 * dk2 + 2.0 * dk3 + dk4)
    return xs, S, D[::4]


def _one_pass(field, x0, dt: float, steps: int, sample_every: int,
              trajectory_every: int) -> FlowDiagnostics:
    """Integrate one point once with RK4 on `_stepping_x`, in blocks of
    `_BLOCK` steps through `_rk4_block` (0 steps run one empty block), and
    return what the pass measured, with no observable series.

    Stepping keeps every g-th state, g = gcd(`sample_every`,
    `trajectory_every`), every step's det S, and at each sample state
    div X = tr DX and max |DX^T W + W DX| from the DX its block took; a
    block after the first takes DX at its first state from the block before,
    which took it at its last.  The
    trajectory and the samples are then taken from the kept states, and the
    flow-Jacobian determinants are one `cumprod` of the det S (the chain
    rule).  `field_evaluations` counts the field calls that stepped the
    path, four per completed step.  The first non-finite state or S ends
    the pass, marked failed: the trajectory keeps the steps before it, the
    series keep the samples before it, and the block's later steps are
    dropped, uncounted.  A last state whose DX is not finite also fails the
    pass, and its sample is dropped.
    """
    x = _initial_state(field, x0, dt, steps, sample_every, trajectory_every)
    if x.ndim != 1:
        raise ValueError("expected a single initial point")
    dt = float(dt)
    g = math.gcd(sample_every, trajectory_every)
    kept, step_dets = [x[None, :]], [np.ones(1)]
    div, lie = [np.zeros(0)], [np.zeros(0)]
    done, last, DX = 0, False, [None]
    with np.errstate(over="ignore", invalid="ignore"):
        X, dx = _stepping_x(field, x), _dx_source(field)
        while not last:
            xs, S, DX = _rk4_block(X, dx, x, dt, min(_BLOCK, steps - done), DX[-1])
            good = np.isfinite(xs).all(axis=1) & np.isfinite(S).all(axis=(1, 2))
            v = len(xs) if good.all() else int(np.argmin(good))  # valid steps
            kept.append(xs[:v][(done + 1 + np.arange(v)) % g == 0])
            step_dets.append(np.linalg.det(S[:v]))
            last = v < len(xs) or done + v == steps
            sampled = not last or np.isfinite(DX[v]).all()
            # DX[j] is at state done + j; DX[v] is sampled only where the pass ends
            first, end = -done % sample_every, v + (last and sampled)
            if first < end:
                J = DX[first:end:sample_every]
                div.append(np.trace(J, axis1=-2, axis2=-1))
                lie.append(np.abs(_lie_omega_matrix(J, len(x) // 2)).max(axis=(-2, -1)))
            done += v
            x = xs[v - 1] if v else x
        dets = np.cumprod(np.concatenate(step_dets))[::sample_every]  # inf if it overflows
    failed = v < len(xs) or not sampled
    states = np.concatenate(kept)
    n_traj = done // trajectory_every + 1
    n_samples = (done if sampled else max(done - 1, 0)) // sample_every + 1
    trajectory = Trajectory(_sample_times(dt, steps, trajectory_every)[:n_traj],
                            states[:: trajectory_every // g], failed=failed, dt=dt)
    return FlowDiagnostics(_sample_times(dt, steps, sample_every)[:n_samples],
                           states[:: sample_every // g][:n_samples], dets[:n_samples],
                           np.concatenate(div), np.concatenate(lie), {}, trajectory, 4 * done)


def flow_jacobian_dets(field, x0, dt: float, steps: int,
                       sample_every: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """det of the flow map's Jacobian at each sample time.

    Chain rule: the determinant over [0, T] is the product of one-step
    determinants det dPhi_dt(x_k) along the trajectory, each the RK4 step
    of the variational equation with DX from `_dx_source` (see
    `_rk4_block`).  Returns (times, dets); volume preservation means dets
    close to one.  Raises FloatingPointError if the flow or its Jacobian
    leaves the finite domain.
    """
    result = _one_pass(field, x0, dt, steps, sample_every, max(steps, 1))
    if result.trajectory.failed:
        raise FloatingPointError("the flow or its Jacobian left the finite domain")
    return result.times, result.volume_dets


def _dx_at(field, x) -> np.ndarray:
    """DX of the field at the points x, shape (..., 2n, 2n), from `_dx_source`."""
    pts = as_points(x)
    dim = pts.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        return _dx_source(field)(pts.reshape(-1, dim)).reshape(pts.shape + (dim,))


def divergence_at(field, x) -> np.ndarray:
    """Divergence tr DX of the field at x, with DX from the source `monitor`
    uses (see `_dx_source`); NaN where DX is not finite."""
    return np.trace(_dx_at(field, x), axis1=-2, axis2=-1)


def _lie_omega_matrix(J: np.ndarray, n: int) -> np.ndarray:
    """J^T W + W J, W the matrix of omega, for Jacobians J of shape (..., 2n, 2n)."""
    W = _symplectic_matrix(n).T
    return np.swapaxes(J, -1, -2) @ W + W @ J


def lie_derivative_omega(field, x) -> KForm:
    """L_X omega at one point x as a 2-form.

    For the constant-coefficient symplectic form, (L_X omega)(u, v) =
    u^T (DX^T W + W DX) v with W the matrix of omega, DX from the source
    `monitor` uses (see `_dx_source`); every coefficient is NaN where DX is
    not finite.  A Hamiltonian field gives zero; the antisymmetric part of
    a linear system shows up as a q-q block.
    """
    J = _dx_at(field, x)
    n = J.shape[-1] // 2
    L = _lie_omega_matrix(J, n)
    # KForm drops the zero coefficients
    return KForm(2 * n, 2, {(a, b): L[a, b]
                            for a in range(2 * n) for b in range(a + 1, 2 * n)})


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


def monitor(field, x0, dt: float, steps: int, sample_every: int = 100,
            observables: Optional[Dict[str, ScalarField]] = None,
            trajectory_every: Optional[int] = None) -> FlowDiagnostics:
    """Integrate once and collect the volume, divergence, L_X omega and
    observable series.

    The trajectory is recorded every `trajectory_every` steps (default:
    `sample_every`) and the diagnostics every `sample_every` steps, both
    from the same integration.  The determinants, div X = tr DX and
    L_X omega = DX^T W + W DX all come from the DX that `_one_pass`'s
    blocks take for the step Jacobians, none after stepping: exact for a
    field with an exact tangent, by central differences of X otherwise.
    A run that leaves the finite domain returns its trajectory failed, cut
    at the last finite sample, with empty diagnostic and observable series.
    """
    every = sample_every if trajectory_every is None else trajectory_every
    run = _one_pass(field, x0, dt, steps, sample_every, every)
    if run.trajectory.failed:
        empty = np.zeros(0)
        return replace(run, volume_dets=empty, divergence_samples=empty,
                       lie_omega_samples=empty)
    return replace(run, observable_series={
        name: np.asarray(f.value(run.states), dtype=float)
        for name, f in (observables or {}).items()})
