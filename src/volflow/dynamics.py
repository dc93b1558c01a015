"""Flow integration and flow-level diagnostics.

Integration is classical fixed-step RK4, batched over leading axes.  Flow
Jacobians are exact for a field with an exact tangent (a compiled
polynomial field): each step carries the RK4 tangent map, from the
compiled [X | DX] map.  Any other field steps a bundle of displaced initial
conditions and takes central differences.  Diagnostics quantify what the
generated fields promise:
vanishing divergence, unit flow-Jacobian determinant, the Lie derivative
of the symplectic form, and the observable-derivative identity relating
df/dt along the flow to an exterior product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .exterior import KForm, omega_power, wedge, d_at_point, trace_of
from .forms import (
    FD_STEP,
    FieldEvaluationError,
    ScalarField,
    TwoFormField,
    as_points,
)
from .generator import GeneratedField, generate

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
    `failed` is True and samples stop at `last_valid_index`.  `dt` and
    `field` record how the trajectory was produced.
    """

    times: np.ndarray
    states: np.ndarray
    failed: bool = False
    last_valid_index: Optional[int] = None
    dt: Optional[float] = None
    field: Optional[object] = None

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

    Samples are recorded at step 0 and every `sample_every`-th step.  If a
    step produces a non-finite state the trajectory is truncated at the
    last finite sample and marked failed rather than raising.
    """
    x = _initial_state(field, x0, dt, steps, sample_every)
    dt = float(dt)
    times = _sample_times(dt, steps, sample_every)
    states = np.empty((times.size,) + x.shape)
    states[0] = x
    write = 1
    failed = False

    for k in range(1, steps + 1):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x = _rk4_step(field, x, dt)
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
                          last_valid_index=write - 1, dt=dt, field=field)
    return Trajectory(times, states, dt=dt, field=field)


def _tangent_step(tangent: Callable, x: np.ndarray, dt: float, X1: np.ndarray,
                  DX1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One RK4 step from x and its exact Jacobian S.

    `tangent(y)` returns (X(y), DX(y)) at one point, and X1, DX1 are their
    values at x.  The stages are those of RK4 on the variational equation
    (x, V)' = (X(x), DX(x) V) from (x, I): dk_1 = DX(x),
    dk_2 = DX(y_2)(I + dt/2 dk_1), dk_3 = DX(y_3)(I + dt/2 dk_2),
    dk_4 = DX(y_4)(I + dt dk_3), and S = I + dt/6 (dk_1 + 2 dk_2 + 2 dk_3 + dk_4).
    """
    eye = np.eye(x.shape[0])
    X2, DX2 = tangent(x + 0.5 * dt * X1)
    dk2 = DX2 @ (eye + 0.5 * dt * DX1)
    X3, DX3 = tangent(x + 0.5 * dt * X2)
    dk3 = DX3 @ (eye + 0.5 * dt * dk2)
    X4, DX4 = tangent(x + dt * X3)
    dk4 = DX4 @ (eye + dt * dk3)
    return (x + (dt / 6.0) * (X1 + 2.0 * X2 + 2.0 * X3 + X4),
            eye + (dt / 6.0) * (DX1 + 2.0 * dk2 + 2.0 * dk3 + dk4))


def _bundle_step(field, x: np.ndarray, dt: float, h: float) -> Tuple[np.ndarray, np.ndarray]:
    """One RK4 step from x and its Jacobian S by central differences.

    The bundle is x and x +- h (1 + |x_b|) e_b, stepped together; its
    centre row is the step itself, and column b of S comes from the pair
    displaced along b.  Re-centring at every step keeps each factor well
    conditioned even when trajectories separate exponentially.
    """
    dim = x.shape[0]
    hvec = h * (1.0 + np.abs(x))
    bundle = np.concatenate(
        [x[None, :], x[None, :] + np.diag(hvec), x[None, :] - np.diag(hvec)]
    )
    stepped = _rk4_step(field, bundle, dt)
    return stepped[0], (stepped[1 : 1 + dim] - stepped[1 + dim :]).T / (2.0 * hvec)


class _Pass(NamedTuple):
    trajectory: Trajectory
    times: np.ndarray
    states: np.ndarray
    dets: np.ndarray
    jacobians: Optional[np.ndarray]
    calls: int


def _one_pass(field, x0, dt: float, steps: int, sample_every: int,
              trajectory_every: int, h: float) -> _Pass:
    """Integrate one point once with RK4, carrying each step's Jacobian S.

    A field with an exact tangent steps through `_tangent_step`, any other
    field through `_bundle_step`.  Records the trajectory every
    `trajectory_every` steps and, every `sample_every` steps, the state,
    the flow-Jacobian determinant (by the chain rule, the running product
    of det S) and, on the exact path, DX at the state.  `calls` counts the
    field or tangent calls of the completed steps.  A non-finite state,
    step Jacobian or field value ends the pass, marked failed, with every
    series cut at its last sample that has all of its values.
    """
    x = _initial_state(field, x0, dt, steps, sample_every, trajectory_every)
    if x.ndim != 1:
        raise ValueError("expected a single initial point")
    dt = float(dt)
    dim = x.shape[0]
    exact = isinstance(field, GeneratedField) and field.exact_tangent
    if exact:
        tangent_map = field.tangent_map()

        def tangent(y):
            out = tangent_map(y)
            return out[:dim], out[dim:].reshape(dim, dim)
    traj_times = _sample_times(dt, steps, trajectory_every)
    times = _sample_times(dt, steps, sample_every)
    traj = np.empty((traj_times.size, dim))
    states = np.empty((times.size, dim))
    dets = np.empty(times.size)
    jacs = np.empty((times.size, dim, dim)) if exact else None
    traj[0] = states[0] = x
    dets[0] = running = 1.0
    n_traj = n_samples = 1
    calls = 0
    failed = False
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if exact:  # the first stage at x0
                X1, DX1 = tangent(x)
                jacs[0] = DX1
                calls = 1
            for k in range(1, steps + 1):
                if exact:
                    x, S = _tangent_step(tangent, x, dt, X1, DX1)
                else:
                    x, S = _bundle_step(field, x, dt, h)
                if not (np.isfinite(x).all() and np.isfinite(S).all()):
                    failed = True
                    break
                running *= float(np.linalg.det(S))
                if k % trajectory_every == 0:
                    traj[n_traj] = x
                    n_traj += 1
                if exact:  # the next step's first stage, and DX at x
                    X1, DX1 = tangent(x)
                calls += 4
                if k % sample_every == 0:
                    states[n_samples] = x
                    dets[n_samples] = running
                    if exact:
                        jacs[n_samples] = DX1
                    n_samples += 1
        except (FieldEvaluationError, FloatingPointError, OverflowError):
            failed = True
    trajectory = Trajectory(traj_times[:n_traj], traj[:n_traj], failed=failed,
                            last_valid_index=n_traj - 1 if failed else None,
                            dt=dt, field=field)
    return _Pass(trajectory, times[:n_samples], states[:n_samples],
                 dets[:n_samples], None if jacs is None else jacs[:n_samples], calls)


def flow_jacobian_dets(field, x0, dt: float, steps: int, sample_every: int = 1,
                       h: float = 1e-5) -> Tuple[np.ndarray, np.ndarray]:
    """det of the flow map's Jacobian at each sample time.

    Chain rule: the determinant over [0, T] is the product of one-step
    determinants det dPhi_dt(x_k) along the trajectory.  Each factor is
    exact for a field with an exact tangent (see `_tangent_step`) and taken
    by central differences with per-coordinate step h * (1 + |x_a|)
    otherwise (see `_bundle_step`).  Returns (times, dets); volume
    preservation means dets close to one.  Raises FloatingPointError if
    the flow or its Jacobian leaves the finite domain.
    """
    result = _one_pass(field, x0, dt, steps, sample_every, max(steps, 1), h)
    if result.trajectory.failed:
        raise FloatingPointError("the flow or its Jacobian left the finite domain")
    return result.times, result.dets


def divergence_at(field, x, h: float = FD_STEP) -> np.ndarray:
    """Divergence of the field by central differences, step scaled per coordinate."""
    pts = as_points(x)
    dim = pts.shape[-1]
    div = np.zeros(pts.shape[:-1])
    for a in range(dim):
        ha = h * (1.0 + np.abs(pts[..., a]))
        plus = pts.copy()
        minus = pts.copy()
        plus[..., a] = pts[..., a] + ha
        minus[..., a] = pts[..., a] - ha
        div = div + (field(plus)[..., a] - field(minus)[..., a]) / (2.0 * ha)
    return div


def _field_jacobian(field, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """J[a, b] = dX^a/dx^b by central differences with scaled step."""
    dim = x.shape[-1]
    cols = []
    for b in range(dim):
        hb = h * (1.0 + abs(float(x[b])))
        plus = x.copy()
        minus = x.copy()
        plus[b] += hb
        minus[b] -= hb
        cols.append((field(plus) - field(minus)) / (2.0 * hb))
    return np.stack(cols, axis=-1)


def _lie_omega_matrix(J: np.ndarray, n: int) -> np.ndarray:
    """J^T W + W J, W the matrix of omega, for Jacobians J of shape (..., 2n, 2n)."""
    W = np.zeros((2 * n, 2 * n))
    for i in range(n):
        W[n + i, i] = 1.0
        W[i, n + i] = -1.0
    return np.swapaxes(J, -1, -2) @ W + W @ J


def lie_derivative_omega(field, x, n: Optional[int] = None, h: float = FD_STEP) -> KForm:
    """L_X omega at x as a 2-form, from the finite-difference Jacobian of X.

    For the constant-coefficient symplectic form, (L_X omega)(u, v) =
    u^T (J^T W + W J) v with W the matrix of omega and J = dX/dx.  A
    Hamiltonian field gives zero; the antisymmetric part of a linear
    system shows up as a q-q block.
    """
    pts = as_points(x)
    if n is None:
        n = pts.shape[-1] // 2
    L = _lie_omega_matrix(_field_jacobian(field, pts, h), n)
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
    `field_evaluations` counts the field or tangent calls that produced it
    all.
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
            jacobian_h: float = 1e-5,
            trajectory_every: Optional[int] = None) -> FlowDiagnostics:
    """Integrate once and collect volume, divergence, observable, and identity series.

    The trajectory is recorded every `trajectory_every` steps (default:
    `sample_every`) and the diagnostics every `sample_every` steps, both
    from the same integration.  The determinants, div X = tr DX and
    L_X omega = DX^T W + W DX are exact for a field with an exact tangent;
    any other field gets the finite-difference bundle (step `jacobian_h`)
    and a finite-difference DX at the samples.  The observable named "H"
    doubles as the energy series.  The identity series "lie_omega_max_abs"
    records the largest coefficient of L_X omega at each sample; it stays
    at zero iff the field is symplectic.  A run that leaves the finite
    domain returns failed=True, its trajectory cut at the last finite
    sample, and empty diagnostic series.
    """
    every = sample_every if trajectory_every is None else trajectory_every
    run = _one_pass(field, x0, dt, steps, sample_every, every, jacobian_h)
    calls = run.calls
    if run.trajectory.failed:
        empty = np.zeros(0)
        return FlowDiagnostics(run.times, run.states, empty, empty, None, {}, {},
                               True, run.trajectory, calls)
    jacs = run.jacobians
    dim = run.states.shape[-1]
    if jacs is None:  # no exact tangent: DX by central differences at the samples
        jacs = np.array([_field_jacobian(field, state) for state in run.states])
        calls += 2 * dim * len(run.states)
    div = np.trace(jacs, axis1=-2, axis2=-1)
    lie = np.abs(_lie_omega_matrix(jacs, dim // 2)).max(axis=(-2, -1))
    observables = observables or {}
    series = {name: np.asarray(f.value(run.states), dtype=float)
              for name, f in observables.items()}
    residuals = {"lie_omega_max_abs": lie}
    return FlowDiagnostics(run.times, run.states, run.dets, div, series.get("H"),
                           series, residuals, False, run.trajectory, calls)
