"""Prebuilt systems: linear algebra splits, analytic flows, random instances."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volflow
from volflow import (
    COUPLED_K,
    DRIFT_SIGN,
    LinearSystemSpec,
    build_system,
    coupled_oscillators,
    drift_system,
    generate,
    harmonic_oscillator,
    integrate,
    linear_system,
    poly_variables,
    random_alpha_system,
    random_one_form,
    random_two_form,
    trace_field,
    zero_system,
)
from volflow.systems import SYSTEM_BUILDERS, random_polynomial


# ------------------------------------------------------------- LinearSystemSpec


def test_spec_symmetric_antisymmetric_split():
    k = np.array([[1.0, 3.0], [-1.0, 2.0]])
    spec = LinearSystemSpec(k)
    assert np.allclose(spec.s, [[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(spec.a, [[0.0, 2.0], [-2.0, 0.0]])
    assert np.allclose(spec.s + spec.a, k)
    with pytest.raises(ValueError):
        LinearSystemSpec(np.ones((2, 3)))


def test_spec_hamiltonian_value():
    # H = |p|^2/2 + q.s q/2
    spec = LinearSystemSpec(COUPLED_K)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    q, p = x[:2], x[2:]
    want = 0.5 * p @ p + 0.5 * q @ spec.s @ q
    assert spec.hamiltonian().value(x) == pytest.approx(want)


def test_spec_first_order_matrix_and_flow():
    k = np.diag([4.0, 9.0])
    spec = LinearSystemSpec(k)
    M = spec.first_order_matrix()
    assert np.allclose(M[:2, 2:], np.eye(2))
    assert np.allclose(M[2:, :2], -k)
    assert np.allclose(M[:2, :2], 0.0) and np.allclose(M[2:, 2:], 0.0)
    x0 = np.array([1.0, 0.0, 0.0, 3.0])
    t = 0.7
    got = spec.flow(t, x0)
    want = np.array([np.cos(2 * t), np.sin(3 * t), -2 * np.sin(2 * t), 3 * np.cos(3 * t)])
    assert np.max(np.abs(got - want)) < 1e-12


def test_import_leaves_scipy_unloaded():
    # scipy is only needed by LinearSystemSpec.flow, which imports it itself
    src = os.path.dirname(os.path.dirname(volflow.__file__))
    code = f"import sys; sys.path.insert(0, {src!r}); import volflow; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_spec_direct_field_equations():
    spec = LinearSystemSpec(COUPLED_K)
    X = spec.direct_field()
    x = np.array([1.0, -2.0, 0.5, 0.25])
    got = X(x)
    assert np.allclose(got[:2], x[2:])
    assert np.allclose(got[2:], -COUPLED_K @ x[:2])


def test_two_form_route_matches_direct_route():
    rng = np.random.default_rng(23)
    for _ in range(3):
        k = rng.normal(size=(2, 2))
        sys = linear_system(k)
        direct = LinearSystemSpec(k).direct_field()
        for _ in range(4):
            x = rng.normal(size=4)
            assert np.max(np.abs(sys.field(x) - direct(x))) < 1e-10


def test_linear_system_flags():
    sym = linear_system(np.diag([1.0, 2.0]))
    assert sym.invariants_expected.get("symplectic") is True
    skew = linear_system(COUPLED_K)
    assert skew.invariants_expected.get("symplectic") is False
    assert skew.invariants_expected.get("volume") is True


# ------------------------------------------------------------ harmonic and coupled


def test_harmonic_analytic_closed_form():
    sys = harmonic_oscillator(n=2, omega_freqs=(1.0, 2.0))
    x0 = np.array([1.0, 0.5, 0.0, -1.0])
    t = 0.9
    got = sys.analytic(t, x0)
    w = np.array([1.0, 2.0])
    want_q = x0[:2] * np.cos(w * t) + x0[2:] / w * np.sin(w * t)
    want_p = x0[2:] * np.cos(w * t) - w * x0[:2] * np.sin(w * t)
    assert np.max(np.abs(got - np.concatenate([want_q, want_p]))) < 1e-12


def test_harmonic_integration_matches_analytic():
    sys = harmonic_oscillator(n=2)
    traj = integrate(sys.field, sys.default_x0, dt=1e-3, steps=500)
    want = sys.analytic(0.5, sys.default_x0)
    assert np.max(np.abs(traj.final_state - want)) < 1e-11


def test_harmonic_n1_direct_route():
    sys = harmonic_oscillator(n=1)
    assert sys.alpha is None
    assert sys.n == 1
    traj = integrate(sys.field, np.array([1.0, 0.0]), dt=1e-3, steps=1000)
    want = sys.analytic(1.0, np.array([1.0, 0.0]))
    assert np.max(np.abs(traj.final_state - want)) < 1e-11


def test_harmonic_rejects_bad_frequencies():
    with pytest.raises(ValueError):
        harmonic_oscillator(n=2, omega_freqs=(1.0,))
    with pytest.raises(ValueError):
        harmonic_oscillator(n=2, omega_freqs=(1.0, 0.0))


def test_coupled_oscillator_matrix_and_growth():
    sys = coupled_oscillators()
    assert np.allclose(COUPLED_K, [[-1.0, 1.0], [0.5, -0.5]])
    spec = LinearSystemSpec(COUPLED_K)
    assert spec.a[0, 1] == pytest.approx(0.25)
    assert spec.s[0, 1] == pytest.approx(0.75)
    # the first-order matrix has eigenvalues {0, 0, +/- sqrt(1.5)};
    # trajectories grow but the flow determinant stays 1
    traj = integrate(sys.field, sys.default_x0, dt=1e-2, steps=500)
    assert np.linalg.norm(traj.final_state) > 10 * np.linalg.norm(sys.default_x0)
    M = spec.first_order_matrix()
    ev = np.sort(np.abs(np.linalg.eigvals(M)))
    assert ev[:2] == pytest.approx([0.0, 0.0], abs=1e-9)
    assert ev[2:] == pytest.approx([np.sqrt(1.5)] * 2, abs=1e-9)


def test_coupled_flow_matches_expm():
    sys = coupled_oscillators()
    spec = LinearSystemSpec(COUPLED_K)
    traj = integrate(sys.field, sys.default_x0, dt=1e-3, steps=2000)
    want = spec.flow(2.0, sys.default_x0)
    assert np.max(np.abs(traj.final_state - want)) < 1e-9


# ----------------------------------------------------------------- drift system


def test_drift_rejects_bad_coupling():
    with pytest.raises(ValueError):
        drift_system(np.array([[0.0, 1.0], [1.0, 0.0]]))  # not antisymmetric
    with pytest.raises(ValueError):
        drift_system(np.ones((2, 3)))


def test_drift_positions_frozen_and_momentum_linear():
    a = np.array([[0.0, 0.25], [-0.25, 0.0]])
    sys = drift_system(a)
    x0 = sys.default_x0
    assert np.allclose(x0, [1.0, 0.0, 0.0, 0.0])
    traj = integrate(sys.field, x0, dt=1e-3, steps=2000)
    # q never moves; p grows linearly with the documented sign
    assert np.max(np.abs(traj.q() - x0[:2])) < 1e-12
    want_p = DRIFT_SIGN * 2.0 * (a @ x0[:2])
    assert np.max(np.abs(traj.final_state[2:] - want_p)) < 1e-12
    assert traj.final_state[3] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(traj.final_state - sys.analytic(2.0, x0))) < 1e-12


def test_drift_alpha_has_no_position_components():
    # A = P = 0 forces qdot = 0 for any state
    a = np.array([[0.0, -0.7], [0.7, 0.0]])
    sys = drift_system(a, q0=np.array([0.3, -0.4]))
    rng = np.random.default_rng(31)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.max(np.abs(sys.field(x)[:2])) < 1e-14


# --------------------------------------------------------------- random factories


def test_random_polynomial_budget_and_determinism():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    f = random_polynomial(4, rng1, degree=3, max_terms=4, scale=0.5)
    g = random_polynomial(4, rng2, degree=3, max_terms=4, scale=0.5)
    assert f.terms() == g.terms()
    assert len(f.terms()) <= 4
    assert all(sum(e) <= 3 for e in f.terms())


def test_random_two_form_traceless_option():
    rng = np.random.default_rng(11)
    alpha = random_two_form(3, rng, traceless=True)
    pts = np.random.default_rng(1).normal(size=(10, 6))
    for x in pts:
        assert trace_field(alpha).value(x) == pytest.approx(0.0, abs=1e-12)


def test_random_one_form_shapes():
    rng = np.random.default_rng(12)
    beta = random_one_form(2, rng)
    assert beta.n == 2
    assert len(beta.dq_parts) == 2 and len(beta.dp_parts) == 2


def test_random_alpha_system_determinism():
    s1 = random_alpha_system(n=2, seed=5)
    s2 = random_alpha_system(n=2, seed=5)
    s3 = random_alpha_system(n=2, seed=6)
    pts = np.random.default_rng(0).normal(size=(5, 4))
    assert np.array_equal(s1.field(pts), s2.field(pts))
    assert not np.array_equal(s1.field(pts), s3.field(pts))
    assert np.allclose(s1.default_x0, 0.1)


# ------------------------------------------------------------------- registry


def test_build_system_registry():
    assert set(SYSTEM_BUILDERS) == {
        "harmonic", "coupled-oscillators", "linear", "drift", "random-alpha", "zero"}
    sys = build_system("harmonic", n=2)
    assert sys.n == 2
    drift = build_system("drift", n=2, coupling=0.5)
    assert drift.field(drift.default_x0)[3] != 0.0
    rnd = build_system("random-alpha", n=2, seed=3)
    assert rnd.n == 2
    with pytest.raises(ValueError):
        build_system("no-such-system")
    # a misspelt or foreign parameter is refused by name, not ignored
    for name, params, bad in (("random-alpha", {"n": 2, "sed": 3}, "sed"),
                              ("zero", {"m": 2}, "m"),
                              ("coupled-oscillators", {"n": 2}, "n")):
        with pytest.raises(ValueError, match=repr(bad)):
            build_system(name, **params)


def test_built_systems_have_exact_tangent():
    # at n = 1 there is no 2-form: harmonic and linear take the Hamiltonian
    # field of their polynomial H, and the 2-form systems refuse n = 1
    for n in (1, 2):
        params = {"harmonic": {"n": n}, "coupled-oscillators": {},
                  "linear": {"k": np.triu(np.ones((n, n))) + np.eye(n)},
                  "drift": {"n": n}, "random-alpha": {"n": n, "seed": 1}, "zero": {"n": n}}
        assert set(params) == set(SYSTEM_BUILDERS)
        for name, kw in params.items():
            if n == 1 and name in ("drift", "random-alpha", "zero"):
                with pytest.raises(ValueError):
                    build_system(name, **kw)
                continue
            sys = build_system(name, **kw)
            assert sys.field.exact_tangent, name


def test_linear_n1_is_the_direct_field():
    sys = linear_system([[2.5]])
    direct = LinearSystemSpec(np.array([[2.5]])).direct_field()
    x = np.random.default_rng(4).normal(size=(6, 2))
    assert np.array_equal(sys.field(x), direct(x))
    value, jac = sys.field.tangent(x[0])
    assert np.array_equal(jac, [[0.0, 1.0], [-2.5, 0.0]])


def test_zero_system_is_static():
    sys = zero_system(2)
    x = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.allclose(sys.field(x), 0.0)
    assert np.array_equal(sys.analytic(5.0, x), x)


def test_build_linear_requires_matrix():
    with pytest.raises(ValueError):
        build_system("linear")
    sys = build_system("linear", k=[[2.0, 0.0], [0.0, 3.0]])
    assert sys.invariants_expected.get("symplectic") is True


# ------------------------------------------------------------------- properties


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_linear_two_routes_agree_property(data):
    vals = data.draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=4, max_size=4))
    k = np.array(vals).reshape(2, 2)
    pt_vals = data.draw(st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=4, max_size=4))
    x = np.array(pt_vals)
    sys = linear_system(k)
    direct = LinearSystemSpec(k).direct_field()
    assert np.max(np.abs(sys.field(x) - direct(x))) < 1e-9
