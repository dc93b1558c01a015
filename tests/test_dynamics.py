"""Flow integration, volume tracking, and the pointwise identity checks."""

import sys
import threading
import warnings

import numpy as np
import pytest

from volflow import (
    FieldEvaluationError,
    GeneratedField,
    KForm,
    Polynomial,
    TwoFormField,
    check_dotf,
    divergence_at,
    flow_jacobian_dets,
    generate,
    gradient_one_form,
    hamiltonian_field,
    hamiltonian_two_form,
    integrate,
    lie_derivative_omega,
    monitor,
    poisson_bracket,
    poisson_trace_residual,
    poly_variables,
    trace_of,
    wedge,
)
from volflow import dynamics, generator
from volflow.dynamics import _BLOCK, _dx_source, _one_pass, _rk4_block, _stepping_x
from volflow.systems import (
    COUPLED_K,
    LinearSystemSpec,
    coupled_oscillators,
    drift_system,
    harmonic_oscillator,
    random_alpha_system,
)


def _zero_field(n=2):
    return GeneratedField(n, lambda pts: np.zeros_like(pts), kind="zero")


def _rotation_field():
    """n = 1 harmonic oscillator: qdot = p, pdot = -q."""
    def eval_fn(pts):
        return np.stack([pts[..., 1], -pts[..., 0]], axis=-1)
    return GeneratedField(1, eval_fn, kind="test")


# ------------------------------------------------------------------- integrate


def test_integrate_zero_field_holds_still():
    x0 = np.array([1.0, -2.0, 3.0, 0.5])
    traj = integrate(_zero_field(), x0, dt=0.1, steps=10)
    assert traj.states.shape == (11, 4)
    assert np.all(traj.states == x0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert not traj.failed
    assert traj.dt == 0.1
    assert traj.n == 2
    assert np.array_equal(traj.final_state, x0)
    assert traj.q().shape == (11, 2) and traj.p().shape == (11, 2)


def test_integrate_sampling_row_count():
    traj = integrate(_zero_field(), np.zeros(4), dt=0.1, steps=10, sample_every=3)
    # rows: t=0 plus steps 3, 6, 9
    assert traj.states.shape[0] == 10 // 3 + 1
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9])


def test_integrate_rk4_convergence_order():
    # global error should shrink ~16x when dt halves
    x0 = np.array([1.0, 0.0])
    field = _rotation_field()
    exact = np.array([np.cos(1.0), -np.sin(1.0)])
    errs = []
    for steps in (50, 100):
        traj = integrate(field, x0, dt=1.0 / steps, steps=steps)
        errs.append(np.max(np.abs(traj.final_state - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_integrate_matches_harmonic_analytic():
    sys = harmonic_oscillator(n=2)
    traj = integrate(sys.field, sys.default_x0, dt=1e-3, steps=1000)
    want = sys.analytic(traj.times[-1], sys.default_x0)
    assert np.max(np.abs(traj.final_state - want)) < 1e-10


def test_integrate_truncates_on_blowup():
    # qdot = 0, pdot = p^2 style growth: finite-time escape to overflow
    def eval_fn(pts):
        return np.stack([np.zeros(pts.shape[:-1]), pts[..., 1] ** 2], axis=-1)
    field = GeneratedField(1, eval_fn, kind="test")
    traj = integrate(field, np.array([0.0, 1.0]), dt=0.5, steps=100)
    assert traj.failed
    assert traj.states.shape[0] < 101
    assert np.all(np.isfinite(traj.states))
    assert np.array_equal(traj.final_state, traj.states[-1])  # the last finite sample
    assert np.all(np.diff(traj.times) > 0)


def test_a_wide_batch_steps_in_slices_as_one_batch(monkeypatch):
    """A batch wider than `_CHUNK` points is stepped a slice at a time, bit
    for bit as one batch, and a point in the last slice that blows up cuts
    the whole batch where its own run is cut."""
    sys_, chunk = random_alpha_system(n=3, seed=2), generator._CHUNK
    dt, steps, last = 1e-2, 8, chunk + 3
    good = sys_.default_x0 + 0.05 * np.random.default_rng(7).standard_normal((chunk + 5, 6))
    bad = good.copy()
    bad[last] = 1e3
    sliced, cut = [integrate(sys_.field, x, dt, steps) for x in (good, bad)]
    alone = integrate(sys_.field, bad[last], dt, steps)
    monkeypatch.setattr(generator, "_CHUNK", 10 * len(good))  # one slice
    whole, whole_cut = [integrate(sys_.field, x, dt, steps) for x in (good, bad)]

    assert not sliced.failed and np.array_equal(sliced.states, whole.states)
    assert alone.failed and len(alone.states) == 5  # cut at step 5
    assert cut.failed and len(cut.states) == len(alone.states)
    assert np.array_equal(cut.times, alone.times)
    assert np.array_equal(cut.states, whole_cut.states)
    assert np.array_equal(cut.states[:, :last], sliced.states[:5, :last])
    # its own run steps at batch 1, through BLAS's vector routine
    assert np.allclose(cut.states[:, last], alone.states, rtol=1e-12, atol=0.0)


def test_integrate_validates_arguments():
    with pytest.raises(ValueError):
        integrate(_zero_field(), np.zeros(4), dt=0.0, steps=5)
    with pytest.raises(ValueError):
        integrate(_zero_field(), np.zeros(4), dt=0.1, steps=-1)
    with pytest.raises(ValueError):
        integrate(_zero_field(), np.zeros(4), dt=0.1, steps=5, sample_every=0)
    # steps = 0 is legal: just the initial sample
    traj = integrate(_zero_field(), np.zeros(4), dt=0.1, steps=0)
    assert traj.states.shape == (1, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_x0_is_refused(bad):
    # no entry point steps from a point that is not finite, nor returns it as
    # a valid sample, also with no steps to take; a batch is refused whole
    sys_ = coupled_oscillators()
    x0 = sys_.default_x0.copy()
    x0[0] = bad
    batch = np.stack([sys_.default_x0, x0])
    for steps in (0, 10):
        for run in (integrate, monitor, flow_jacobian_dets):
            with pytest.raises(ValueError, match="x0 must be finite"):
                run(sys_.field, x0, 1e-3, steps)
        with pytest.raises(ValueError, match="x0 must be finite"):
            integrate(sys_.field, batch, 1e-3, steps)


def test_one_failure_rule_across_blocks_and_cadences():
    # H = -q p^2 from (1, 1) at dt 0.015: step 69, in the second block, is
    # the first state that is not finite; every cadence (200: a block with no
    # sample), `monitor` and a wide batch whose last slice holds that point
    # are cut just before it
    q, p = poly_variables(1)
    X = hamiltonian_field(-(q[0] * p[0] * p[0]), 1)
    x0, dt, steps = np.array([1.0, 1.0]), 0.015, 200
    assert _BLOCK < 69 < 2 * _BLOCK
    width, bad = generator._CHUNK + 6, generator._CHUNK + 3
    good = np.stack([np.ones(width), np.linspace(0.1, 0.5, width)], axis=-1)
    pts = good.copy()
    pts[bad] = x0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        every = integrate(X, x0, dt, steps)
        cut = {k: integrate(X, x0, dt, steps, sample_every=k) for k in (5, 7, 64, 200)}
        diag = monitor(X, x0, dt, steps, trajectory_every=1)
        wide = integrate(X, pts, dt, steps, sample_every=5)
        fine = integrate(X, good, dt, 70, sample_every=5)  # before p = 0.5 blows up
        calls = []
        integrate(lambda y: calls.append(y) or X(y), x0, dt, 10_000)
    assert len(calls) == 4 * 2 * _BLOCK  # stepping ends with the block that failed
    assert every.failed and len(every.states) == 69
    assert np.isfinite(every.states).all()
    for k, last in zip((5, 7, 64, 200), (13, 9, 1, 0)):
        assert cut[k].failed and len(cut[k].states) == last + 1
        assert np.array_equal(cut[k].states, every.states[::k])
        assert np.array_equal(cut[k].times, every.times[::k])
    assert diag.trajectory.failed and len(diag.trajectory.states) == 69
    assert diag.field_evaluations == 272
    assert np.array_equal(diag.trajectory.states, every.states)
    assert wide.failed and len(wide.states) == 14
    assert not fine.failed
    assert np.array_equal(wide.states[:, :bad], fine.states[:14, :bad])
    assert np.allclose(wide.states[:, bad], cut[5].states, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------ volume jacobians


def _final_det(field, x0, dt, steps):
    return flow_jacobian_dets(field, x0, dt=dt, steps=steps)[1][-1]


def test_flow_det_zero_field_is_exactly_one_at_origin():
    assert _final_det(_zero_field(), np.zeros(4), dt=0.1, steps=5) == 1.0


def test_flow_det_steps_zero_is_one():
    assert _final_det(_zero_field(), np.ones(4), dt=0.1, steps=0) == 1.0


def test_flow_det_rotation_is_one():
    det = _final_det(_rotation_field(), np.array([1.0, 0.3]), dt=1e-2, steps=628)
    assert abs(det - 1.0) < 1e-9


def test_flow_det_of_linear_contraction():
    # qdot = -q, pdot = -p has det exp(-2n t), a known non-preserving case
    def eval_fn(pts):
        return -pts
    field = GeneratedField(1, eval_fn, kind="test")
    t = 0.5
    det = _final_det(field, np.array([1.0, 1.0]), dt=1e-3, steps=500)
    assert det == pytest.approx(np.exp(-2 * t), rel=1e-6)


def test_flow_dets_series_for_coupled_system():
    sys = coupled_oscillators()
    times, dets = flow_jacobian_dets(sys.field, sys.default_x0, dt=1e-2,
                                     steps=100, sample_every=20)
    assert times.shape == dets.shape == (6,)
    assert dets[0] == 1.0
    assert np.max(np.abs(dets - 1.0)) < 1e-8


def _rk4_step_and_jacobian(X, x, dt):
    """One `integrate` step from x, and its Jacobian by central differences of
    that step over the bundle x +- 1e-5 (1 + |x_b|) e_b."""
    dim = x.shape[0]
    h = 1e-5 * (1.0 + np.abs(x))
    bundle = np.concatenate([x + np.diag(h), x - np.diag(h)])
    stepped = integrate(X, bundle, dt, 1).states[-1]
    return integrate(X, x, dt, 1).states[-1], (stepped[:dim] - stepped[dim:]).T / (2.0 * h)


def test_tangent_step_jacobian_matches_bundle():
    rng = np.random.default_rng(21)
    for n, seed in [(2, 1), (3, 2), (4, 3)]:
        X = random_alpha_system(n=n, seed=seed).field
        for _ in range(3):
            x = 0.5 * rng.normal(size=2 * n)
            xs, S, _ = _rk4_block(_stepping_x(X, x), _dx_source(X), x, 1e-2, 1)
            exact_x, exact_S = xs[0], S[0]
            fd_x, fd_S = _rk4_step_and_jacobian(X, x, 1e-2)
            assert np.max(np.abs(exact_x - fd_x) / (1.0 + np.abs(fd_x))) <= 1e-14
            assert np.max(np.abs(exact_S - fd_S) / (1.0 + np.abs(fd_S))) <= 1e-7


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tangent_step_is_rk4_of_the_variational_equation(n):
    # one classical RK4 step of (x, V)' = (X(x), DX(x) V) from (x, I), written
    # out on the flat state through the public tangent only
    X = random_alpha_system(n=n, seed=n).field
    dim, dt = 2 * n, 1e-2

    def variational(z):
        value, jac = X.tangent(z[:dim])
        return np.concatenate([value, (jac @ z[dim:].reshape(dim, dim)).ravel()])

    rng = np.random.default_rng(40 + n)
    for _ in range(3):
        x = 0.5 * rng.normal(size=dim)
        z = np.concatenate([x, np.eye(dim).ravel()])
        k1 = variational(z)
        k2 = variational(z + 0.5 * dt * k1)
        k3 = variational(z + 0.5 * dt * k2)
        k4 = variational(z + dt * k3)
        want = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs, S, DX = _rk4_block(_stepping_x(X, x), _dx_source(X), x, dt, 1)
        got = np.concatenate([xs[0], S[0].ravel()])
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-15
        # the block takes DX at its states, x and the state after the step
        run = _one_pass(X, x, dt, 1, 1, 1)
        assert np.array_equal(run.states, [x, xs[0]])
        jacs = X.tangent(run.states)[1]
        assert np.max(np.abs(DX - jacs)) <= 1e-15 * (1.0 + np.abs(jacs).max())
        assert np.array_equal(run.divergence_samples, np.trace(DX, axis1=1, axis2=2))


def test_flow_dets_across_block_boundaries():
    # the step Jacobians are taken in blocks of _BLOCK steps; the samples
    # must not depend on where the blocks end
    X = random_alpha_system(n=3, seed=2).field
    x0 = random_alpha_system(n=3, seed=2).default_x0
    steps = 3 * _BLOCK + 5
    every_step = flow_jacobian_dets(X, x0, dt=1e-2, steps=steps, sample_every=1)
    times, dets = flow_jacobian_dets(X, x0, dt=1e-2, steps=steps, sample_every=7)
    assert times.shape == (steps // 7 + 1,)
    assert np.array_equal(times, every_step[0][::7])
    assert np.max(np.abs(dets - every_step[1][::7]) / np.abs(dets)) <= 1e-15
    assert np.max(np.abs(every_step[1] - 1.0)) <= 1e-8


def test_a_pass_takes_dx_once_at_each_point(monkeypatch):
    """A block after the first takes DX at its first state from the block
    before, so a pass asks its DX source for 4 points per step and one
    more, at the last state, however the steps fall into blocks."""
    sys = random_alpha_system(n=3, seed=2)
    steps, points, source = 3 * _BLOCK + 5, [], dynamics._dx_source

    def counting(field):
        dx = source(field)

        def counted(pts):
            points.append(len(pts))
            return dx(pts)

        return counted

    monkeypatch.setattr(dynamics, "_dx_source", counting)
    run = _one_pass(sys.field, sys.default_x0, 1e-2, steps, 1, 1)
    assert not run.trajectory.failed and run.field_evaluations == 4 * steps
    assert points == [4 * _BLOCK + 1, 4 * _BLOCK, 4 * _BLOCK, 4 * 5]


@pytest.mark.parametrize("case", ["finite", "last-dx-overflows"])
def test_one_pass_rows_do_not_depend_on_the_cadences(case):
    # stepping keeps every gcd(sample_every, trajectory_every)-th state, and
    # the rows are taken from those after stepping: each must be the
    # every-step run's row at the same step
    if case == "finite":
        sys = random_alpha_system(3, 2)
        X, x0, dt, steps = sys.field, sys.default_x0, 1e-2, 3 * _BLOCK + 5
    else:
        # the field of test_monitor_drops_a_sample_whose_jacobian_overflows,
        # stopped at step 80, whose state is finite but its DX is not
        q, p = poly_variables(3)
        H = p[0] * q[1] * q[1] + (q[1] * q[1] + p[1] * p[1]) * 0.5 + q[2] * q[0] ** 300 * 1e-300
        X, x0, dt, steps = hamiltonian_field(H, 3), np.array([-9.4, 0, 0, 0, 1.0, 0]), 0.5, 80
    failed = case != "finite"
    full = _one_pass(X, x0, dt, steps, 1, 1)
    assert full.trajectory.failed == failed
    assert (len(full.trajectory.states), len(full.states)) == (steps + 1, steps + 1 - failed)
    for sample_every, trajectory_every in [(6, 4), (5, 7), (1, 1)]:
        run = _one_pass(X, x0, dt, steps, sample_every, trajectory_every)
        assert run.trajectory.failed == failed
        traj, every = run.trajectory, full.trajectory
        assert np.array_equal(traj.times, every.times[::trajectory_every])
        assert np.array_equal(traj.states, every.states[::trajectory_every])
        for got, want in [(run.times, full.times), (run.states, full.states),
                          (run.volume_dets, full.volume_dets),
                          (run.divergence_samples, full.divergence_samples),
                          (run.lie_omega_samples, full.lie_omega_samples)]:
            assert np.array_equal(got, want[::sample_every])
        assert run.field_evaluations == 4 * steps


def test_flow_dets_exact_for_coupled_system():
    sys = coupled_oscillators()
    assert sys.field.exact_tangent
    times, dets = flow_jacobian_dets(sys.field, sys.default_x0, dt=1e-3,
                                     steps=2000, sample_every=100)
    assert times.shape == dets.shape == (21,)
    assert np.max(np.abs(dets - 1.0)) <= 1e-12


def test_flow_dets_raise_on_blowup():
    def eval_fn(pts):
        return np.stack([np.zeros(pts.shape[:-1]), pts[..., 1] ** 2], axis=-1)
    field = GeneratedField(1, eval_fn, kind="test")
    with pytest.raises(FloatingPointError):
        with np.errstate(over="ignore", invalid="ignore"):
            flow_jacobian_dets(field, np.array([0.0, 1.0]), dt=0.5, steps=100)


def test_flow_dets_that_overflow_read_inf_without_a_warning():
    # RK4 at dt = 50 keeps the coupled flow finite, but the product of its
    # step determinants passes the largest float; filterwarnings=error would
    # turn numpy's overflow warning into a failure
    sys = coupled_oscillators()
    _, dets = flow_jacobian_dets(sys.field, sys.default_x0, dt=50.0, steps=50)
    assert np.isfinite(dets[:20]).all() and np.isposinf(dets[-1])


# ------------------------------------------------------------------ divergence


def test_divergence_of_generated_fields_vanishes():
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): q[0] * p[1]},
        A={(0, 0): p[0] * q[1], (1, 0): q[0] ** 2},
        P={(0, 1): p[1] * p[0]},
    )
    X = generate(alpha)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(20, 4))
    div = divergence_at(X, pts)
    assert div.shape == (20,)
    assert np.max(np.abs(div)) < 1e-6


def test_divergence_detects_sources():
    def eval_fn(pts):
        return pts  # div = 2n
    field = GeneratedField(2, eval_fn, kind="test")
    assert divergence_at(field, np.zeros(4)) == pytest.approx(4.0, abs=1e-8)


# ------------------------------------------------- Lie derivative of the 2-form


def test_lie_omega_zero_for_hamiltonian_flow():
    q, p = poly_variables(2)
    H = p[0] * p[0] * 0.5 + q[0] * q[0] * 0.5 + q[0] * p[1]
    X = hamiltonian_field(H, 2)
    L = lie_derivative_omega(X, np.array([0.4, -0.2, 0.7, 0.1]))
    assert L.max_abs() < 1e-6


def test_lie_omega_coupled_pattern():
    # the coupled system is volume- but not symplectic-preserving: the only
    # surviving component is 2 a_12 on dq^1^dq^2
    sys = coupled_oscillators()
    L = lie_derivative_omega(sys.field, np.array([0.4, -0.2, 0.7, 0.1]))
    want = KForm(4, 2, {(0, 1): 0.5})
    assert (L - want).max_abs() < 1e-6


def test_lie_omega_drift_pattern():
    a = np.array([[0.0, 0.25], [-0.25, 0.0]])
    sys = drift_system(a)
    L = lie_derivative_omega(sys.field, np.array([1.0, 0.5, 0.2, -0.3]))
    want = KForm(4, 2, {(0, 1): 2 * 0.25})
    assert (L - want).max_abs() < 1e-6


# --------------------------------------------------------------------- Poisson


def test_poisson_canonical_relations():
    q, p = poly_variables(2)
    x = np.array([0.3, 1.4, -0.6, 0.2])
    assert poisson_bracket(q[0], p[0], x) == pytest.approx(1.0)
    assert poisson_bracket(q[0], p[1], x) == pytest.approx(0.0)
    assert poisson_bracket(q[0], q[1], x) == pytest.approx(0.0)
    assert poisson_bracket(p[0], q[0], x) == pytest.approx(-1.0)


def test_poisson_antisymmetry_and_leibniz():
    q, p = poly_variables(2)
    f = q[0] * p[1] + q[1] * q[1]
    g = p[0] * p[0] * 0.5 + q[1] * p[0]
    h = q[0] + p[1] * q[1]
    x = np.array([0.7, -0.3, 0.2, 0.9])
    assert poisson_bracket(f, f, x) == pytest.approx(0.0, abs=1e-12)
    assert poisson_bracket(f, g, x) == pytest.approx(-poisson_bracket(g, f, x))
    lhs = poisson_bracket(f, g * h, x)
    rhs = poisson_bracket(f, g, x) * h.value(x) + g.value(x) * poisson_bracket(f, h, x)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_poisson_batched():
    q, p = poly_variables(2)
    pts = np.random.default_rng(1).normal(size=(7, 4))
    vals = poisson_bracket(q[0], p[0], pts)
    assert vals.shape == (7,)
    assert np.allclose(vals, 1.0)


def test_poisson_equals_wedge_trace():
    q, p = poly_variables(2)
    f = q[0] * p[1] + q[1]
    g = p[0] * q[0] - p[1] * p[1]
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = rng.normal(size=4)
        assert poisson_trace_residual(f, g, x) < 1e-12
        df = gradient_one_form(f.gradient(x))
        dg = gradient_one_form(g.gradient(x))
        want = trace_of(wedge(dg, df), 2)
        assert poisson_bracket(f, g, x) == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------- observable identity


def test_check_dotf_constant_observable():
    q, p = poly_variables(2)
    alpha = TwoFormField(2, A={(0, 1): q[0] * p[0]})
    c = Polynomial.constant(4, 3.0)
    assert check_dotf(alpha, c, np.array([0.2, 0.4, 0.6, 0.8])) < 1e-14


def test_check_dotf_random_small():
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): p[0]},
        A={(0, 0): q[1], (0, 1): q[0] * q[0], (1, 1): p[1] * q[0]},
        P={(0, 1): q[1] * p[1]},
    )
    f = q[0] * q[0] * p[1] + q[1]
    rng = np.random.default_rng(15)
    for _ in range(5):
        assert check_dotf(alpha, f, rng.normal(size=4)) < 1e-10


def test_check_dotf_hamiltonian_case_is_poisson():
    # for alpha = H omega/(n-1), fdot equals {f, H}
    q, p = poly_variables(2)
    H = p[0] * p[0] * 0.5 + q[0] * q[1]
    alpha = hamiltonian_two_form(H, 2)
    f = q[0] * p[0] + q[1]
    X = generate(alpha)
    rng = np.random.default_rng(16)
    for _ in range(4):
        x = rng.normal(size=4)
        fdot = float(np.sum(f.gradient(x) * X(x)))
        assert fdot == pytest.approx(poisson_bracket(f, H, x), abs=1e-10)
        assert check_dotf(alpha, f, x) < 1e-10


# --------------------------------------------------------------------- monitor


def test_monitor_zero_field():
    diag = monitor(_zero_field(), np.ones(4), dt=0.1, steps=20, sample_every=5)
    assert not diag.trajectory.failed
    # dets come from finite differences, so only ~1e-10 even for a frozen flow
    assert diag.max_volume_error() < 1e-9
    assert diag.dets_positive()
    assert diag.max_divergence() < 1e-12
    assert diag.max_lie_omega() < 1e-12
    assert diag.times.shape == (5,)


def test_monitor_energy_and_observables():
    sys = harmonic_oscillator(n=2)
    q, _ = poly_variables(2)
    diag = monitor(sys.field, sys.default_x0, dt=1e-2, steps=200,
                   sample_every=50, observables={"H": sys.hamiltonian, "q1": q[0]})
    assert "H" in diag.observable_series and "q1" in diag.observable_series
    assert diag.observable_series["H"].shape == diag.times.shape
    assert diag.max_energy_drift() < 1e-10
    assert diag.max_lie_omega() < 1e-5
    assert diag.lie_omega_samples.shape == diag.times.shape


def test_monitor_coupled_energy_not_conserved():
    sys = coupled_oscillators()
    diag = monitor(sys.field, sys.default_x0, dt=1e-2, steps=300,
                   sample_every=100, observables={"H": sys.hamiltonian})
    assert diag.max_volume_error() < 1e-8
    assert diag.max_divergence() < 1e-5
    # energy genuinely drifts for the non-symplectic coupling
    assert diag.max_energy_drift() > 1e-3
    assert diag.max_lie_omega() > 0.4


def test_monitor_failed_run():
    def eval_fn(pts):
        return np.stack([np.zeros(pts.shape[:-1]), pts[..., 1] ** 2], axis=-1)
    field = GeneratedField(1, eval_fn, kind="test")
    diag = monitor(field, np.array([0.0, 1.0]), dt=0.5, steps=100, sample_every=10)
    assert diag.trajectory.failed


def test_monitor_reports_bundle_overflow():
    # the path stays finite (q = 0, p grows by dt per step), but exp(1e8 q)
    # overflows at the points displaced in q for the central-difference DX
    def eval_fn(pts):
        return np.stack([np.zeros(pts.shape[:-1]), np.exp(1e8 * pts[..., 0])], axis=-1)
    field = GeneratedField(1, eval_fn, kind="test")
    x0 = np.zeros(2)
    assert not integrate(field, x0, dt=0.1, steps=10).failed
    diag = monitor(field, x0, dt=0.1, steps=10, sample_every=5)
    assert diag.trajectory.failed
    assert len(diag.trajectory.states) == 1
    assert np.array_equal(diag.trajectory.states, x0[None, :])
    assert np.array_equal(diag.trajectory.times, [0.0])


def test_monitor_cuts_where_a_raising_field_raises():
    # qdot = 1, pdot = 0, and a call that reaches q >= 0.5 raises: the last
    # stage of step 5 does, and so does the batch of stage points that the
    # block's DX is taken on, but steps 1 to 4 and their samples are kept
    def eval_fn(pts):
        if (pts[..., 0] >= 0.5).any():
            raise FieldEvaluationError("qdot1")
        return np.stack([np.ones(pts.shape[:-1]), np.zeros(pts.shape[:-1])], axis=-1)
    field = GeneratedField(1, eval_fn, kind="test")
    x0 = np.zeros(2)
    traj = integrate(field, x0, dt=0.1, steps=20)
    diag = monitor(field, x0, dt=0.1, steps=20, sample_every=2, trajectory_every=1)
    assert diag.trajectory.failed and traj.failed
    assert len(diag.trajectory.states) == len(traj.states) == 5
    assert np.array_equal(diag.trajectory.states, traj.states)
    assert np.array_equal(diag.states, traj.states[::2])
    assert diag.field_evaluations == 4 * 4


def _overflowing_dx_field(c, moving):
    # pdot_2 = 20 c q1^19, whose derivative in q1 overflows first; `moving`
    # adds P^12 = q2, so that qdot^1 = 1 carries q1 into the overflow
    A = {(0, 1): Polynomial(4, {(20, 0, 0, 0): c})}
    P = {(0, 1): Polynomial(4, {(0, 1, 0, 0): 1.0})} if moving else None
    return generate(TwoFormField(2, A=A, P=P))


def test_monitor_overflowing_jacobian_at_x0():
    X = _overflowing_dx_field(1e306, moving=False)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.isfinite(X(x0)).all()  # pdot_2 = 2e307
    diag = monitor(X, x0, 1e-3, 50, sample_every=10, trajectory_every=5)
    assert diag.trajectory.failed
    assert len(diag.trajectory.states) == 1 and len(diag.states) == 1
    assert np.array_equal(diag.trajectory.final_state, x0)
    with pytest.raises(FloatingPointError):
        flow_jacobian_dets(X, x0, 1e-3, 50, sample_every=10)


def test_monitor_takes_central_differences_when_a_tangent_coefficient_overflows():
    # d^2/dq1^2 of A = 1e306 q1^20 has coefficient 3.8e308, which the compiled
    # [X | DX] map cannot hold; at q1 = 0.85 the entry dpdot_2/dq^1 is 2.0e307
    X = _overflowing_dx_field(1e306, moving=False)
    assert not X.exact_tangent
    steps = 100
    diag = monitor(X, np.array([0.85, 0.0, 0.0, 0.0]), 1e-3, steps, sample_every=10)
    assert not diag.trajectory.failed
    assert diag.field_evaluations == 4 * steps
    assert diag.max_volume_error() == 0.0


def test_monitor_overflowing_jacobian_after_first_block():
    # the first non-finite step Jacobian is at step 88, in the second block
    X = _overflowing_dx_field(1e300, moving=True)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    diag = monitor(X, x0, 1e-2, 200, sample_every=10, trajectory_every=5)
    assert diag.trajectory.failed
    assert (len(diag.trajectory.states), len(diag.states)) == (18, 9)
    assert diag.trajectory.times[-1] == pytest.approx(0.85)
    every = monitor(X, x0, 1e-2, 200, sample_every=1, trajectory_every=1)
    assert (len(every.trajectory.states), len(every.states)) == (88, 88)
    assert np.array_equal(every.trajectory.states[::5], diag.trajectory.states)
    with pytest.raises(FloatingPointError):
        flow_jacobian_dets(X, x0, 1e-2, 200, sample_every=10)


def test_monitor_drops_a_sample_whose_jacobian_overflows():
    # q1' = q2^2 with (q2, p2) rotating; the table entry q1^300 overflows at
    # the state after step 80 but at none of that step's other stages, so the
    # trajectory keeps step 80 and the samples end at step 79
    q, p = poly_variables(3)
    H = p[0] * q[1] * q[1] + (q[1] * q[1] + p[1] * p[1]) * 0.5 + q[2] * q[0] ** 300 * 1e-300
    X = hamiltonian_field(H, 3)
    x0 = np.array([-9.4, 0.0, 0.0, 0.0, 1.0, 0.0])
    every = monitor(X, x0, 0.5, 200, sample_every=1, trajectory_every=1)
    assert every.trajectory.failed
    assert (len(every.trajectory.states), len(every.states)) == (81, 80)
    diag = monitor(X, x0, 0.5, 200, sample_every=10, trajectory_every=5)
    assert (len(diag.trajectory.states), len(diag.states)) == (17, 8)


def test_a_polynomial_state_that_overflows_mid_block():
    # H = -q p^2: q' = -2 q p, p' = p^2, so p = 1/(1 - t) from (1, 1); step
    # 36 overflows to NaN inside the first block, which steps on through NaN,
    # and the pass is cut after step 35
    q, p = poly_variables(1)
    X = hamiltonian_field(-(q[0] * p[0] * p[0]), 1)
    x0, dt, steps = np.array([1.0, 1.0]), 0.03, 200
    assert 36 < _BLOCK
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diag = monitor(X, x0, dt, steps, sample_every=5, trajectory_every=1)
        traj = integrate(X, x0, dt, steps)
        with pytest.raises(FloatingPointError):
            flow_jacobian_dets(X, x0, dt, steps)
    assert diag.trajectory.failed
    assert len(diag.trajectory.states) == 36
    assert diag.field_evaluations == 4 * 35
    assert len(diag.states) == len(diag.times) == 8
    assert traj.failed and len(traj.states) == 36
    assert np.array_equal(diag.trajectory.states, traj.states)
    assert np.isfinite(traj.states).all()


def test_one_field_steps_from_four_threads_as_from_one():
    """A compiled field holds no state that a pass writes: two `monitor` and
    two one-point `integrate` passes share one field, from two x0s, in four
    threads that switch every microsecond, and each gives the result of its
    single-thread run."""
    field = random_alpha_system(3, 2).field
    dt, steps = 1e-3, 5000

    def run(pass_kind, x0):
        if pass_kind == "monitor":
            diag = monitor(field, x0, dt, steps, sample_every=10, trajectory_every=1)
            return diag.trajectory.states, diag.volume_dets, diag.divergence_samples
        return (integrate(field, x0, dt, steps).states,)

    jobs = [(kind, np.full(6, x)) for kind in ("monitor", "integrate") for x in (0.1, -0.2)]
    want = [run(*job) for job in jobs]
    got = [None] * len(jobs)

    def worker(i):
        got[i] = run(*jobs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for job, g, w in zip(jobs, got, want):
        assert g is not None and all(map(np.array_equal, g, w)), job[0]


@pytest.mark.parametrize("sys", [coupled_oscillators(), random_alpha_system(3, 2)],
                         ids=["coupled", "random-n3"])
def test_monitor_trajectory_is_integrate(sys):
    x0 = sys.default_x0
    diag = monitor(sys.field, x0, dt=1e-3, steps=1000, sample_every=250,
                   trajectory_every=10)
    traj = integrate(sys.field, x0, dt=1e-3, steps=1000, sample_every=10)
    assert not diag.trajectory.failed
    assert np.array_equal(diag.trajectory.times, traj.times)
    assert np.array_equal(diag.trajectory.states, traj.states)
    assert np.array_equal(diag.states, diag.trajectory.states[::25])
    # the four X-map calls of each step; the batched [X | DX] calls are not counted
    assert diag.field_evaluations == 4 * 1000


def test_monitor_exact_for_polynomial_hamiltonian():
    q, p = poly_variables(2)
    H = (p[0] * p[0] + p[1] * p[1]) * 0.5 + (q[0] ** 4 + q[1] ** 4) * 0.25 + q[0] * q[1] * 0.1
    X = hamiltonian_field(H, 2)
    assert X.exact_tangent
    diag = monitor(X, np.array([1.0, -0.5, 0.0, 0.3]), dt=1e-3, steps=2000,
                   sample_every=500, observables={"H": H})
    assert diag.field_evaluations == 4 * 2000
    assert diag.max_volume_error() <= 1e-12
    assert diag.max_divergence() <= 1e-14
    assert diag.max_lie_omega() <= 1e-12
    assert diag.max_energy_drift() < 1e-9


def test_monitor_exact_lie_and_divergence_for_coupled_system():
    sys = coupled_oscillators()
    diag = monitor(sys.field, sys.default_x0, dt=1e-3, steps=2000, sample_every=500)
    assert np.all(diag.divergence_samples == 0.0)
    assert np.max(np.abs(diag.lie_omega_samples - 0.5)) <= 1e-12
    assert diag.max_volume_error() <= 1e-12


@pytest.mark.parametrize("build", [coupled_oscillators, lambda: random_alpha_system(3, 2)])
@pytest.mark.parametrize("steps", [0, 3 * _BLOCK + 5])
def test_monitor_diagnostics_are_the_tangent_at_the_samples(build, steps):
    # every sample's DX is the one its block took at stage 1 (or at the last
    # state), so each series equals the exact tangent taken in one batch
    sys = build()
    diag = monitor(sys.field, sys.default_x0, dt=1e-2, steps=steps, sample_every=1)
    assert not diag.trajectory.failed and len(diag.states) == steps + 1
    jacs = sys.field.tangent(diag.states)[1]
    n = sys.field.n
    W = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    lie = np.abs(np.swapaxes(jacs, 1, 2) @ W + W @ jacs).max(axis=(1, 2))
    assert np.array_equal(diag.divergence_samples, np.trace(jacs, axis1=1, axis2=2))
    assert np.array_equal(diag.lie_omega_samples, lie)


def test_pointwise_diagnostics_are_nan_where_the_exact_dx_is_not():
    # q1^300 overflows at q1 = 20, so the compiled [X | DX] row is not finite
    q, p = poly_variables(2)
    X = hamiltonian_field(p[0] * p[0] * 0.5 + q[0] ** 300 * 1e-300, 2)
    assert X.exact_tangent
    good, bad = np.array([0.5, 0.0, 0.1, 0.0]), np.array([20.0, 0.0, 0.0, 0.0])
    div = divergence_at(X, np.stack([good, bad]))
    assert div[0] == 0.0 and np.isnan(div[1])
    assert lie_derivative_omega(X, good).max_abs() == 0.0
    L = lie_derivative_omega(X, bad)
    assert L.coeffs and all(np.isnan(c) for c in L.coeffs.values())


def test_monitor_same_linear_flow_on_both_dx_sources():
    # one linear flow, stepped on the compiled field with its exact DX and on
    # the direct field with DX by central differences (exact for a linear X)
    exact = coupled_oscillators()
    direct = LinearSystemSpec(COUPLED_K).direct_field()
    assert exact.field.exact_tangent and not direct.exact_tangent
    steps = 2000
    runs = [monitor(field, exact.default_x0, dt=1e-3, steps=steps, sample_every=100,
                    trajectory_every=10) for field in (exact.field, direct)]
    assert np.array_equal(runs[0].trajectory.states, runs[1].trajectory.states)
    assert np.array_equal(runs[0].states, runs[1].states)
    assert np.max(np.abs(runs[0].volume_dets - runs[1].volume_dets)) <= 1e-12
    lie = [run.lie_omega_samples for run in runs]
    assert np.max(np.abs(lie[0] - lie[1])) <= 1e-10
    for run in runs:
        assert not run.trajectory.failed
        assert run.field_evaluations == 4 * steps
