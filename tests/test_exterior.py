"""Exterior-algebra core: cross-checked against the dense tensor reference."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volflow import (
    KForm,
    PointwiseJet,
    basis_one_form,
    contract,
    d_at_point,
    dp_form,
    dq_form,
    nu_k,
    omega,
    omega_power,
    solve_nu_n,
    trace_of,
    two_form_from_components,
    verify_lemma1,
    verify_lemma2,
    verify_wedge_identities,
    wedge,
)

from reference import (
    contract_tensor,
    kform_from_tensor,
    max_coeff_diff,
    random_kform,
    tensor_from_kform,
    wedge_tensor,
)


# ---------------------------------------------------------------- KForm basics


def test_keys_must_be_strictly_increasing():
    KForm(4, 2, {(0, 2): 1.0})
    with pytest.raises(ValueError):
        KForm(4, 2, {(2, 0): 1.0})
    with pytest.raises(ValueError):
        KForm(4, 2, {(1, 1): 1.0})
    with pytest.raises(ValueError):
        KForm(4, 2, {(0, 4): 1.0})
    with pytest.raises(ValueError):
        KForm(4, 2, {(0,): 1.0})
    with pytest.raises(ValueError):
        KForm(2, 3)


def test_coeff_reorders_with_sign():
    f = KForm(4, 2, {(0, 2): 2.5})
    assert f.coeff((0, 2)) == 2.5
    assert f.coeff((2, 0)) == -2.5
    assert f.coeff((1, 1)) == 0.0
    assert f.coeff((1, 3)) == 0.0


def test_arithmetic_and_norms():
    a = KForm(4, 1, {(0,): 1.0, (2,): -2.0})
    b = KForm(4, 1, {(2,): 2.0, (3,): 4.0})
    s = a + b
    assert s.coeffs == {(0,): 1.0, (3,): 4.0}
    assert (a - a).is_zero()
    assert (-a).coeff((2,)) == 2.0
    assert (a * 2.0).coeff((0,)) == 2.0
    assert a.scaled(0.0).coeffs == {}
    assert a.norm() == pytest.approx(math.sqrt(5.0))
    assert a.max_abs() == 2.0
    with pytest.raises(ValueError):
        a + KForm(4, 2)
    with pytest.raises(ValueError):
        a + KForm(6, 1)


# ------------------------------------------------------------ wedge vs tensor


def test_wedge_of_basis_one_forms():
    d0 = basis_one_form(4, 0)
    d2 = basis_one_form(4, 2)
    assert wedge(d0, d2).coeffs == {(0, 2): 1.0}
    assert wedge(d2, d0).coeffs == {(0, 2): -1.0}
    assert wedge(d0, d0).coeffs == {}


def test_wedge_rejects_mismatches():
    with pytest.raises(ValueError):
        wedge(KForm(4, 1, {(0,): 1.0}), KForm(6, 1, {(0,): 1.0}))
    with pytest.raises(ValueError):
        wedge(KForm(4, 3, {(0, 1, 2): 1.0}), KForm(4, 2, {(0, 1): 1.0}))


def test_wedge_with_scalar_form():
    two = KForm.constant(4, 2.0)
    f = KForm(4, 2, {(0, 3): 1.5})
    assert wedge(two, f).coeffs == {(0, 3): 3.0}
    assert wedge(f, two).coeffs == {(0, 3): 3.0}


@pytest.mark.parametrize("dim,p,q", [(4, 1, 1), (4, 1, 2), (4, 2, 2), (6, 1, 2), (6, 2, 2), (6, 2, 3)])
def test_wedge_matches_dense_reference(dim, p, q):
    rng = np.random.default_rng(100 * dim + 10 * p + q)
    for _ in range(5):
        a = random_kform(dim, p, rng)
        b = random_kform(dim, q, rng)
        got = wedge(a, b)
        want = kform_from_tensor(
            wedge_tensor(tensor_from_kform(a), p, tensor_from_kform(b), q), dim, p + q
        )
        assert max_coeff_diff(got, want) < 1e-12


def test_wedge_graded_anticommutation():
    rng = np.random.default_rng(3)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        a = random_kform(6, p, rng)
        b = random_kform(6, q, rng)
        lhs = wedge(a, b)
        rhs = wedge(b, a) * ((-1.0) ** (p * q))
        assert max_coeff_diff(lhs, rhs) < 1e-12


def test_wedge_associativity():
    rng = np.random.default_rng(4)
    a = random_kform(6, 1, rng)
    b = random_kform(6, 2, rng)
    c = random_kform(6, 2, rng)
    assert max_coeff_diff(wedge(wedge(a, b), c), wedge(a, wedge(b, c))) < 1e-12


# -------------------------------------------------------- omega and its powers


def test_omega_coefficients():
    # omega = sum_i dp_i ^ dq^i = -sum_i dq^i ^ dp_i
    w = omega(2)
    assert w.coeffs == {(0, 2): -1.0, (1, 3): -1.0}
    w3 = omega(3)
    assert w3.coeffs == {(0, 3): -1.0, (1, 4): -1.0, (2, 5): -1.0}
    assert omega(1).coeffs == {(0, 1): -1.0}


def test_omega_power_matches_repeated_wedge():
    for n in (2, 3, 4):
        w = omega(n)
        acc = KForm.constant(2 * n, 1.0)
        for k in range(n + 1):
            assert max_coeff_diff(omega_power(n, k), acc) == 0.0
            if k < n:
                acc = wedge(acc, w)


def test_top_power_is_signed_factorial():
    # omega^n = n! dp_1^dq^1^..^dp_n^dq^n; sorting the factors into
    # dq^1..dq^n dp_1..dp_n costs n(n+1)/2 transpositions
    for n in (1, 2, 3, 4):
        top = omega_power(n, n)
        full = tuple(range(2 * n))
        sign = (-1.0) ** (n * (n + 1) // 2)
        assert top.coeffs == {full: sign * math.factorial(n)}


def test_omega_power_range_checked():
    with pytest.raises(ValueError):
        omega_power(2, 3)
    with pytest.raises(ValueError):
        omega_power(2, -1)
    with pytest.raises(ValueError):
        omega(0)


def test_omega_power_cache_returns_fresh_copies():
    a = omega_power(2, 2)
    a.coeffs[(0, 1, 2, 3)] = 99.0
    assert omega_power(2, 2).coeffs[(0, 1, 2, 3)] == -2.0


# ------------------------------------------------------------------ contract


def test_contract_one_form_is_pairing():
    f = KForm(4, 1, {(0,): 2.0, (3,): -1.0})
    x = np.array([1.0, 5.0, 7.0, 2.0])
    got = contract(x, f)
    assert got.degree == 0
    assert got.coeffs.get((), 0.0) == pytest.approx(0.0)  # 2*1 - 1*2


def test_contract_matches_dense_reference():
    rng = np.random.default_rng(11)
    for dim, deg in [(4, 2), (4, 3), (6, 2), (6, 4)]:
        a = random_kform(dim, deg, rng)
        x = rng.normal(size=dim)
        got = contract(x, a)
        want = kform_from_tensor(contract_tensor(x, tensor_from_kform(a)), dim, deg - 1)
        assert max_coeff_diff(got, want) < 1e-12


def test_contract_is_antiderivation():
    rng = np.random.default_rng(12)
    for p, q in [(1, 1), (1, 2), (2, 2)]:
        a = random_kform(6, p, rng)
        b = random_kform(6, q, rng)
        x = rng.normal(size=6)
        lhs = contract(x, wedge(a, b))
        rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b)) * ((-1.0) ** p)
        assert max_coeff_diff(lhs, rhs) < 1e-12


def test_contract_rejects_bad_input():
    with pytest.raises(ValueError):
        contract(np.zeros(4), KForm.constant(4, 1.0))
    with pytest.raises(ValueError):
        contract(np.zeros(3), KForm(4, 1, {(0,): 1.0}))


def test_double_contraction_vanishes():
    rng = np.random.default_rng(13)
    a = random_kform(6, 3, rng)
    x = rng.normal(size=6)
    assert contract(x, contract(x, a)).is_zero()


# ----------------------------------------------------------- nu_k / solve_nu_n


def test_nu_k_is_signed_contraction():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        x = rng.normal(size=2 * n)
        for k in range(1, n + 1):
            want = contract(x, omega_power(n, k)) * (-1.0)
            assert max_coeff_diff(nu_k(x, n, k), want) < 1e-12
    with pytest.raises(ValueError):
        nu_k(np.zeros(4), 2, 0)
    with pytest.raises(ValueError):
        nu_k(np.zeros(4), 2, 3)


def test_solve_nu_n_roundtrip():
    rng = np.random.default_rng(22)
    for n in (2, 3, 4):
        for _ in range(5):
            x = rng.normal(size=2 * n)
            back = solve_nu_n(nu_k(x, n, n), n)
            assert np.max(np.abs(back - x)) < 1e-10


def test_solve_nu_n_hand_example():
    # omega^2 = -2 dq1^dq2^dp1^dp2.  Contracting e_p2 into the last slot
    # picks up (-1)^3, so i_{e_p2} omega^2 = +2 dq1^dq2^dp1 and the signed
    # map gives nu_2(e_p2) = -2 on the sorted triple (0, 1, 2).
    target = nu_k(np.array([0.0, 0.0, 0.0, 1.0]), 2, 2)
    assert target.coeffs == {(0, 1, 2): -2.0}
    x = solve_nu_n(target, 2)
    assert np.allclose(x, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_solve_nu_n_rejects_wrong_degree():
    with pytest.raises(ValueError):
        solve_nu_n(KForm(4, 2, {(0, 1): 1.0}), 2)


# ------------------------------------------------------------------ d_at_point


def _jet_single_a_entry(n, i, j, dvals):
    """Jet of alpha = A^i_j dp_i ^ dq^j with constant component partials."""
    zero2 = np.zeros((n, n))
    zero3 = np.zeros((n, n, n))
    dA_dq = np.zeros((n, n, n))
    dA_dp = np.zeros((n, n, n))
    for k, (vq, vp) in enumerate(dvals):
        dA_dq[i, j, k] = vq
        dA_dp[i, j, k] = vp
    return PointwiseJet(
        n=n, Q=zero2.copy(), A=zero2.copy(), P=zero2.copy(),
        dQ_dq=zero3.copy(), dQ_dp=zero3.copy(),
        dA_dq=dA_dq, dA_dp=dA_dp,
        dP_dq=zero3.copy(), dP_dp=zero3.copy(),
    )


def test_d_of_witness_two_form():
    # alpha = q^1 dp_1 ^ dq^2: d alpha = dq^1 ^ dp_1 ^ dq^2, whose sorted
    # coefficient on (0, 1, 2) is -1.
    jet = _jet_single_a_entry(2, 0, 1, [(1.0, 0.0), (0.0, 0.0)])
    got = d_at_point(jet)
    assert got.dim == 4 and got.degree == 3
    assert got.coeffs == {(0, 1, 2): -1.0}


def test_d_of_constant_form_is_zero():
    n = 3
    zero3 = np.zeros((n, n, n))
    q = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    jet = PointwiseJet(
        n=n, Q=q, A=np.arange(9.0).reshape(3, 3), P=q * 0.3,
        dQ_dq=zero3, dQ_dp=zero3, dA_dq=zero3, dA_dp=zero3,
        dP_dq=zero3, dP_dp=zero3,
    )
    assert d_at_point(jet).is_zero()


def test_jet_validation():
    n = 2
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])  # not antisymmetric
    zero3 = np.zeros((n, n, n))
    jet = PointwiseJet(
        n=n, Q=bad, A=np.zeros((n, n)), P=np.zeros((n, n)),
        dQ_dq=zero3, dQ_dp=zero3, dA_dq=zero3, dA_dp=zero3,
        dP_dq=zero3, dP_dp=zero3,
    )
    with pytest.raises(ValueError):
        jet.validate()


# ---------------------------------------------------- component form and trace


def test_two_form_from_components_layout():
    n = 2
    Q = np.array([[0.0, 3.0], [-3.0, 0.0]])
    A = np.array([[1.0, 2.0], [4.0, 5.0]])
    P = np.array([[0.0, -7.0], [7.0, 0.0]])
    f = two_form_from_components(Q, A, P)
    # Q_12 dq1^dq2; A^i_j dp_i^dq^j lands on (j, n+i) with sign -A
    assert f.coeff((0, 1)) == 3.0
    assert f.coeff((0, 2)) == -1.0  # A^1_1 dp_1^dq^1 = -A^1_1 dq^1^dp_1
    assert f.coeff((1, 2)) == -2.0  # A^1_2
    assert f.coeff((0, 3)) == -4.0  # A^2_1
    assert f.coeff((1, 3)) == -5.0
    assert f.coeff((2, 3)) == -7.0
    with pytest.raises(ValueError):
        two_form_from_components(A, A, P)


def test_trace_of_omega_is_n():
    for n in (2, 3, 4):
        assert trace_of(omega(n), n) == pytest.approx(n)


def test_trace_picks_out_a_diagonal():
    # tr(dp_1 ^ dq^1) = 1 and the Q/P blocks contribute nothing
    f = KForm(4, 2, {(0, 2): -1.0})
    assert trace_of(f, 2) == pytest.approx(1.0)
    assert trace_of(KForm(4, 2, {(0, 1): 5.0}), 2) == pytest.approx(0.0)
    assert trace_of(KForm(4, 2, {(2, 3): 5.0}), 2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        trace_of(KForm(4, 1, {(0,): 1.0}), 2)


def test_trace_of_component_form_is_a_trace():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        raw_q = rng.normal(size=(n, n))
        raw_p = rng.normal(size=(n, n))
        Q = raw_q - raw_q.T
        P = raw_p - raw_p.T
        A = rng.normal(size=(n, n))
        f = two_form_from_components(Q, A, P)
        assert trace_of(f, n) == pytest.approx(np.trace(A), abs=1e-12)


# ----------------------------------------------------------- injectivity suite


def test_lemma1_reports():
    for n, k in [(2, 1), (2, 2), (3, 2), (4, 3)]:
        rep = verify_lemma1(n, k, trials=20)
        assert rep.passed
        assert rep.sigma_min > 0
        assert rep.zero_maps_to_zero
        assert rep.min_norm_ratio > 0
    with pytest.raises(ValueError):
        verify_lemma1(2, 0, trials=5)
    with pytest.raises(ValueError):
        verify_lemma1(2, 3, trials=5)


def test_lemma2_reports():
    rep = verify_lemma2(3, 1, trials=20)
    assert rep.passed
    assert rep.iota_max_residual is not None and rep.iota_max_residual < 1e-12
    rep4 = verify_lemma2(4, 1, trials=10)
    assert rep4.passed
    assert rep4.iota_max_residual is None  # only computed at k = n-2
    with pytest.raises(ValueError):
        verify_lemma2(2, 1, trials=5)
    with pytest.raises(ValueError):
        verify_lemma2(3, 2, trials=5)


def test_wedge_identity_report():
    for n in (2, 3):
        rep = verify_wedge_identities(n)
        assert rep.passed
        assert rep.max_residual < 1e-12
    with pytest.raises(ValueError):
        verify_wedge_identities(1)


# ------------------------------------------------------------------ properties


def _kform_strategy(dim, degree):
    keys = list(itertools.combinations(range(dim), degree))
    return st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=len(keys), max_size=len(keys),
    ).map(lambda vals: KForm(dim, degree, dict(zip(keys, vals))))


@settings(max_examples=25, deadline=None)
@given(a=_kform_strategy(4, 1), b=_kform_strategy(4, 1), c=_kform_strategy(4, 1))
def test_wedge_bilinear_property(a, b, c):
    lhs = wedge(a + b, c)
    rhs = wedge(a, c) + wedge(b, c)
    assert max_coeff_diff(lhs, rhs) < 1e-9


@settings(max_examples=25, deadline=None)
@given(a=_kform_strategy(6, 2), data=st.data())
def test_contract_linear_in_vector_property(a, data):
    vals = data.draw(st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=12, max_size=12,
    ))
    x = np.array(vals[:6])
    y = np.array(vals[6:])
    lhs = contract(x + y, a)
    rhs = contract(x, a) + contract(y, a)
    assert max_coeff_diff(lhs, rhs) < 1e-9


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_nu_n_injective_property(data):
    n = data.draw(st.sampled_from([2, 3]))
    vals = data.draw(st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2 * n, max_size=2 * n,
    ))
    x = np.array(vals)
    back = solve_nu_n(nu_k(x, n, n), n)
    assert np.max(np.abs(back - x)) < 1e-8
