"""Scalar fields, polynomials, and 2-form fields."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volflow import (
    FieldEvaluationError,
    OneFormField,
    Polynomial,
    ScalarField,
    TwoFormField,
    d_at_point,
    gauge_shift,
    hamiltonian_two_form,
    poly_variables,
    trace_field,
    traceless_part,
)
from volflow import forms
from volflow.forms import _fd_jacobian, _merge_rows, as_points
from volflow.systems import random_alpha_system, random_polynomial, random_two_form


# ------------------------------------------------------------------ as_points


def test_as_points_accepts_state_and_arrays():
    assert as_points([[1.0, 2.0], [3.0, 4.0]], dim=2).shape == (2, 2)
    with pytest.raises(ValueError):
        as_points([1.0, 2.0, 3.0], dim=4)


# ------------------------------------------------------------------ Polynomial


def test_polynomial_evaluation_and_gradient():
    # f = 2 q1^2 p1 - 3 q2  on R^4
    f = Polynomial(4, {(2, 0, 1, 0): 2.0, (0, 1, 0, 0): -3.0})
    x = np.array([1.5, -2.0, 0.5, 1.0])
    assert f.value(x) == pytest.approx(2 * 1.5**2 * 0.5 + 6.0)
    grad = f.gradient(x)
    assert grad == pytest.approx([4 * 1.5 * 0.5, -3.0, 2 * 1.5**2, 0.0])


def test_polynomial_batched_value_shape():
    f = Polynomial.coordinate(4, 2)
    pts = np.zeros((5, 3, 4))
    pts[..., 2] = 7.0
    assert f.value(pts).shape == (5, 3)
    assert np.all(f.value(pts) == 7.0)
    assert f.gradient(pts).shape == (5, 3, 4)


def test_polynomial_gradient_is_its_partials():
    # each entry is the partial's own value, bit for bit
    rng = np.random.default_rng(13)
    polys = [Polynomial.zero(4), Polynomial.constant(4, 2.5)]
    polys += [random_polynomial(dim, rng) for dim in (2, 4, 6, 8) for _ in range(5)]
    for f in polys:
        for shape in [(), (5,), (2, 3)]:
            x = rng.normal(size=shape + (f.dim,))
            got = f.gradient(x)
            assert got.shape == x.shape
            for i in range(f.dim):
                assert np.array_equal(got[..., i], f.partial(i).value(x))


def test_polynomial_gradient_overflow_stays_in_its_entry():
    # (q1)^8 overflows at q1 = 1e50; that must not turn the p1 entry into
    # NaN (0 * inf), and nothing but the power overflow warns
    f = Polynomial(2, {(8, 0): 1.0, (0, 1): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message="overflow encountered in power")
        assert np.array_equal(f.gradient([1e50, 1.0]), [np.inf, 1.0])
        got = f.gradient(np.array([[1e50, 1.0], [1.0, 2.0]]))
    assert np.array_equal(got, [[np.inf, 1.0], [8.0, 1.0]])


def test_polynomial_normalization_merges_terms():
    f = Polynomial(2, ([(1, 0), (1, 0), (0, 1)], [2.0, 3.0, 0.0]))
    assert f.terms() == {(1, 0): 5.0}


def test_polynomial_arithmetic_exactness():
    x0 = Polynomial.coordinate(2, 0)
    x1 = Polynomial.coordinate(2, 1)
    g = (x0 + x1) * (x0 - x1)  # x0^2 - x1^2
    assert g.terms() == {(2, 0): 1.0, (0, 2): -1.0}
    h = (x0 + 1.0) ** 3
    assert h.terms() == {(3, 0): 1.0, (2, 0): 3.0, (1, 0): 3.0, (0, 0): 1.0}
    assert (g - g).terms() == {}
    assert (-x0).terms() == {(1, 0): -1.0}
    assert (x0 * 2.0).terms() == {(1, 0): 2.0}
    with pytest.raises(ValueError):
        x0 ** -1
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1.0})


def test_polynomial_partial_is_exact_and_cached():
    f = Polynomial(2, {(3, 1): 2.0})
    fx = f.partial(0)
    assert fx.terms() == {(2, 1): 6.0}
    assert f.partial(0) is fx  # cached object
    assert f.partial(1).terms() == {(3, 0): 2.0}
    assert f.partial(0).partial(1).terms() == {(2, 0): 6.0}


def _merge_reference(exps, coeffs, cols, width):
    """`_merge_rows` by a dict: distinct rows in sorted tuple order, each
    column's coefficients summed in input order, all-zero rows dropped."""
    sums = {}
    for row, c, col in zip(exps, coeffs, np.broadcast_to(cols, len(coeffs))):
        acc = sums.setdefault(tuple(int(e) for e in row), [0.0] * width)
        acc[col] += float(c)
    rows = sorted(r for r, acc in sums.items() if any(v != 0.0 for v in acc))
    return (np.array(rows, dtype=np.int64).reshape(-1, exps.shape[1]),
            np.array([sums[r] for r in rows], dtype=float).reshape(-1, width))


_BIG = 2 ** 40


@pytest.mark.parametrize("exps, coeffs, cols, width", [
    pytest.param([[1, 0], [0, 2], [1, 0], [0, 0], [0, 2]],
                 [2.0, -1.0, 3.0, 0.5, 4.0], 0, 1, id="duplicates"),
    pytest.param([[2, 1], [0, 1], [2, 1], [2, 1], [1, 1]],
                 [1.0, 5.0, 1e16, -1e16, -2.0], 0, 1, id="cancel-in-input-order"),
    pytest.param([[1, 2], [0, 1], [1, 2], [0, 1]],
                 [1.5, -2.0, -1.5, 2.0], 0, 1, id="all-cancel"),
    pytest.param(np.zeros((0, 3)), [], 0, 1, id="empty"),
    pytest.param([[0, 1, 1], [2, 0, 0], [0, 1, 1], [2, 0, 0], [0, 0, 1]],
                 [1.0, 2.0, 3.0, -2.0, 4.0], [0, 2, 1, 2, 0], 3, id="columns"),
    pytest.param([[_BIG, 0], [0, 2 * _BIG], [_BIG, 0], [3, 2 ** 62], [_BIG, 1]],
                 [1.0, 2.0, 0.25, -1.0, 5.0], 0, 1, id="exponents-over-2^40"),
])
def test_merge_rows_matches_a_dict_reference(exps, coeffs, cols, width):
    exps = np.asarray(exps, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=float)
    basis, C = _merge_rows(exps, coeffs, cols, width)
    want_basis, want_C = _merge_reference(exps, coeffs, cols, width)
    assert basis.dtype == np.int64
    assert np.array_equal(basis, want_basis)
    assert np.array_equal(C, want_C)


def test_normal_form_operations_match_the_merge():
    # -p, p * 0.0 and p * 1e-300 keep p's rows without a merge; the
    # 1e-300 coefficient underflows to 0.0 in the last one and is dropped
    p = Polynomial(3, ([(0, 2, 1), (1, 0, 0), (0, 0, 3)], [1e-300, 2.0, -3.0]))
    for got, factor in ((-p, -1.0), (p * 0.0, 0.0), (p * 1e-300, 1e-300)):
        want = Polynomial(3, (p._exps, factor * p._coeffs))
        assert np.array_equal(got._exps, want._exps)
        assert np.array_equal(got._coeffs, want._coeffs)
    assert (p * 1e-300).terms() == {(0, 0, 3): -3e-300, (1, 0, 0): 2e-300}
    assert (p * 0.0).terms() == {}


def test_poly_variables():
    q, p = poly_variables(3)
    x = np.arange(6.0)
    for i in range(3):
        assert q[i].value(x) == x[i]
        assert p[i].value(x) == x[3 + i]


# ----------------------------------------------------------------- ScalarField


def _fd_residual(f, pts):
    """Max of |gradient - central differences| / (1 + |gradient|) over pts."""
    analytic = f.gradient(pts)
    return np.max(np.abs(analytic - _fd_jacobian(f.value, pts)) / (1.0 + np.abs(analytic)))


def test_scalar_field_fd_gradient():
    f = ScalarField(lambda x: np.sin(x[..., 0]) * x[..., 1])
    pts = np.array([[0.3, 2.0], [1.1, -0.5]])
    assert _fd_residual(f, pts) < 1e-8


def test_scalar_field_arithmetic_product_rule():
    f = ScalarField(lambda x: np.sin(x[..., 0]),
                    gradient_fn=lambda x: np.stack(
                        [np.cos(x[..., 0]), np.zeros(x.shape[:-1])], axis=-1))
    g = Polynomial(2, {(0, 2): 1.0})
    pts = np.array([[0.7, 1.3], [-0.2, 0.4]])
    for combo in (f + g, f * g, f - g, -f, f + 2.0, 3.0 - f, f * 0.5):
        assert _fd_residual(combo, pts) < 1e-8
    x = pts[0]
    assert (f * g).value(x) == pytest.approx(np.sin(0.7) * 1.3**2)
    assert (f + g).value(x) == pytest.approx(np.sin(0.7) + 1.3**2)


# ----------------------------------------------------------------- TwoFormField


def _component(alpha, kind, i, j):
    """alpha's stored component (kind, i, j), or None."""
    return next((f for k, a, b, f in alpha.components() if (k, a, b) == (kind, i, j)), None)


def _poly_alpha(n=2):
    """alpha with one component of each kind, all polynomial."""
    q, p = poly_variables(n)
    return TwoFormField(
        n,
        Q={(0, 1): q[0] * p[1]},
        A={(0, 1): q[0], (1, 1): p[0] * p[0]},
        P={(0, 1): q[1] + p[0]},
    )


def test_two_form_storage_rules():
    q, _ = poly_variables(2)
    with pytest.raises(ValueError):
        TwoFormField(2, Q={(1, 0): q[0]})
    with pytest.raises(ValueError):
        TwoFormField(2, P={(1, 1): q[0]})
    with pytest.raises(ValueError):
        TwoFormField(1)
    with pytest.raises(ValueError):
        TwoFormField(2, A={(0, 2): q[0]})


def test_entry_accessors_fold_signs():
    alpha = _poly_alpha()
    x = np.array([2.0, 3.0, 5.0, 7.0])
    assert alpha.A_entry(0, 1).value(x) == pytest.approx(2.0)
    assert alpha.A_entry(1, 0) is None


def test_components_iterator_sorted():
    alpha = _poly_alpha()
    comps = list(alpha.components())
    assert [(kind, i, j) for kind, i, j, _ in comps] == [
        ("Q", 0, 1), ("A", 0, 1), ("A", 1, 1), ("P", 0, 1)]


def test_two_form_arithmetic():
    alpha = _poly_alpha()
    x = np.array([0.5, -1.0, 2.0, 0.25])
    double = alpha + alpha
    assert (_component(double, "Q", 0, 1).value(x)
            == pytest.approx(2 * _component(alpha, "Q", 0, 1).value(x)))
    zero = alpha - alpha
    assert trace_field(zero).value(x) == pytest.approx(0.0)
    neg = -alpha
    assert neg.A_entry(1, 1).value(x) == pytest.approx(-alpha.A_entry(1, 1).value(x))
    scaled = alpha * 3.0
    assert (_component(scaled, "P", 0, 1).value(x)
            == pytest.approx(3 * _component(alpha, "P", 0, 1).value(x)))
    with pytest.raises(ValueError):
        alpha + _poly_alpha(3)


# ------------------------------------------------------------------------ jets


def _lambda_twin(alpha: TwoFormField) -> TwoFormField:
    """Rebuild alpha with plain ScalarFields, whose partials are finite differences."""
    def wrap(poly):
        return ScalarField(lambda xx, p=poly: p.value(xx))

    n = alpha.n
    return TwoFormField(
        n,
        Q={k: wrap(v) for k, v in alpha._Q.items()},
        A={k: wrap(v) for k, v in alpha._A.items()},
        P={k: wrap(v) for k, v in alpha._P.items()},
    )


def test_jet_polynomial_matches_callable_twin():
    # exact polynomial partials against the finite-difference partials of
    # the same components wrapped as plain callables
    alpha = _poly_alpha()
    twin = _lambda_twin(alpha)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.normal(size=4)
        ja = alpha.jet_at(x)
        jb = twin.jet_at(x)
        for name in ("Q", "A", "P", "dQ_dq", "dQ_dp", "dA_dq", "dA_dp", "dP_dq", "dP_dp"):
            va, vb = getattr(ja, name), getattr(jb, name)
            assert np.max(np.abs(va - vb)) < 1e-8, name


def test_jet_partials_match_exact_derivatives():
    alpha = _poly_alpha()
    x = np.array([1.2, -0.7, 0.3, 2.0])
    jet = alpha.jet_at(x)
    jet.validate()
    # dA^1_2/dq^1 should be d(q1)/dq1 = 1; dQ_12/dp_2 = q1
    assert jet.dA_dq[0, 1, 0] == pytest.approx(1.0)
    assert jet.dQ_dp[0, 1, 1] == pytest.approx(1.2)
    assert jet.dQ_dp[1, 0, 1] == pytest.approx(-1.2)
    assert jet.dA_dp[1, 1, 0] == pytest.approx(2 * 0.3)
    assert jet.Q[0, 1] == pytest.approx(1.2 * 2.0)
    assert jet.A[1, 1] == pytest.approx(0.3**2)
    assert jet.P[0, 1] == pytest.approx(-0.7 + 0.3)


def test_jet_batched_shapes():
    alpha = _poly_alpha()
    pts = np.random.default_rng(0).normal(size=(6, 4))
    jet = alpha.jet_at(pts)
    assert jet.Q.shape == (6, 2, 2)
    assert jet.dA_dp.shape == (6, 2, 2, 2)
    single = alpha.jet_at(pts[0])
    assert np.max(np.abs(jet.A[0] - single.A)) < 1e-14


def test_jet_reports_offending_component_generic():
    nanfield = ScalarField(lambda x: np.where(x[..., 0] > 0, np.nan, 1.0))
    alpha = TwoFormField(2, A={(0, 1): nanfield})
    with pytest.raises(FieldEvaluationError) as info:
        alpha.jet_at(np.array([1.0, 0.0, 0.0, 0.0]))
    assert "A" in str(info.value)


def test_jet_overflow_polynomial():
    huge = Polynomial(4, {(8, 0, 0, 0): 1e300})
    alpha = TwoFormField(2, A={(0, 0): huge})
    with pytest.raises(FieldEvaluationError):
        with np.errstate(over="ignore", invalid="ignore"):
            alpha.jet_at(np.array([1e5, 0.0, 0.0, 0.0]))


def test_jet_overflow_raises_without_a_warning():
    # no errstate here: the overflow is the jet's to handle, and the error
    # names the overflowing component, not the finite one before it
    q, _ = poly_variables(2)
    huge = Polynomial(4, {(8, 0, 0, 0): 1e300})
    A = {(0, 0): q[0] * q[0], (1, 1): huge}
    # P comes after A in components() order
    for alpha in (TwoFormField(2, A=A), TwoFormField(2, A=A, P={(0, 1): huge})):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FieldEvaluationError) as info:
                alpha.jet_at(np.array([1e5, 0.0, 0.0, 0.0]))
        assert info.value.component == "A[1,1]"


def _jet_cases(n):
    """2-forms on R^{2n}: random ones with a component whose terms all
    cancel, a constant one and one of degree 5 in q^1; the empty form; and
    one mixing `Polynomial` and generic `ScalarField` components."""
    rng = np.random.default_rng(40 + n)
    dim = 2 * n
    q, p = poly_variables(n)
    cancelled = q[0] * p[1] - p[1] * q[0]
    assert cancelled._exps.shape[0] == 0
    special = TwoFormField(n, Q={(0, 1): cancelled},
                           A={(0, 0): Polynomial.constant(dim, -2.5),
                              (1, 0): q[0] ** 5 * 0.3 + p[0] * q[0] ** 2},
                           P={(0, n - 1): random_polynomial(dim, rng)})
    wrapped = random_polynomial(dim, rng)
    generic = ScalarField(lambda x, f=wrapped: f.value(x), wrapped.gradient)
    fd = ScalarField(lambda x: np.sin(x[..., 0]) * x[..., -1])
    mixed = TwoFormField(n, Q={(0, 1): generic}, A={(1, 1): q[1] * p[0], (0, 1): fd},
                         P={(0, 1): random_polynomial(dim, rng)})
    return [random_two_form(n, rng), special, TwoFormField(n), mixed]


def _route_jet(alpha, pts):
    """Each component's value and partials, by `value` and `partial(i).value`
    for a `Polynomial` (scales: the same sums of |term|) and by `value` and
    `gradient` for any other field."""
    n, dim = alpha.n, 2 * alpha.n
    want = {name: np.zeros(pts.shape[:-1] + (n, n, 1 + dim)) for name in "QAP"}
    scale = {name: np.zeros(pts.shape[:-1] + (n, n, 1 + dim)) for name in "QAP"}
    for kind, i, j, f in alpha.components():
        if isinstance(f, Polynomial):
            slots = [f] + [f.partial(b) for b in range(dim)]
            vals = [g.value(pts) for g in slots]
            sizes = [Polynomial(dim, (g._exps, np.abs(g._coeffs))).value(np.abs(pts))
                     for g in slots]
        else:
            vals = [f.value(pts)] + list(np.moveaxis(f.gradient(pts), -1, 0))
            sizes = [np.abs(v) for v in vals]
        want[kind][..., i, j, :] = np.stack(vals, axis=-1)
        scale[kind][..., i, j, :] = np.stack(sizes, axis=-1)
    return want, scale


@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_pass_jet_matches_the_partials_route(n, shape):
    for case, alpha in enumerate(_jet_cases(n)):
        x = np.random.default_rng(case).standard_normal(shape + (2 * n,))
        jet = alpha.jet_at(x)
        want, scale = _route_jet(alpha, x)
        for name in "QAP":
            got = np.concatenate([getattr(jet, name)[..., None],
                                  getattr(jet, f"d{name}_dq"),
                                  getattr(jet, f"d{name}_dp")], axis=-1)
            assert got.shape == shape + (n, n, 1 + 2 * n)
            if name != "A":
                # only i < j is stored; the reflection is the negative
                assert np.array_equal(got, -np.swapaxes(got, -3, -2)), (case, name)
                upper = np.triu(np.ones((n, n), dtype=bool), 1)
                got, want[name], scale[name] = (
                    a[..., upper, :] for a in (got, want[name], scale[name]))
            err = np.abs(got - want[name])
            assert np.all(err <= 1e-13 * np.maximum(scale[name], 1e-300)), (case, name)


def test_jet_of_a_wide_batch_is_sliced_row_for_row(monkeypatch):
    """A batch wider than `_JET_BLOCK` points is taken a block at a time,
    and every row is the one an unsliced call gives, and a single-point
    call, bit for bit."""
    alpha = random_alpha_system(3, 2).alpha
    block = forms._JET_BLOCK
    x = 0.5 * np.random.default_rng(3).standard_normal((2 * block + 3, 6))
    sliced = alpha.jet_at(x)
    monkeypatch.setattr(forms, "_JET_BLOCK", 10 * len(x))
    whole = alpha.jet_at(x)
    names = ("Q", "A", "P", "dQ_dq", "dQ_dp", "dA_dq", "dA_dp", "dP_dq", "dP_dp")
    for name in names:
        assert np.array_equal(getattr(sliced, name), getattr(whole, name)), name
    for b in (0, block + 1, len(x) - 1):
        one = alpha.jet_at(x[b])
        for name in names:
            assert np.array_equal(getattr(one, name), getattr(sliced, name)[b]), name


def test_a_wide_jet_allocates_one_block_of_temporaries():
    """What a jet allocates beyond its output does not grow with the batch
    (4x from 4 to 16 blocks when unsliced)."""
    alpha = random_alpha_system(3, 2).alpha
    extra = []
    for count in (4 * forms._JET_BLOCK, 16 * forms._JET_BLOCK):
        x = np.random.default_rng(0).standard_normal((count, 6))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            jet = alpha.jet_at(x)
            out = count * 3 * 3 * 3 * 7 * 8  # Q, A and P with their 6 partials
            extra.append(tracemalloc.get_traced_memory()[1] - before - out)
        finally:
            tracemalloc.stop()
        assert jet.dP_dp.shape == (count, 3, 3, 3)
    assert 0 < extra[1] <= 1.05 * extra[0], extra


# ----------------------------------------------------- constructors and traces


def test_hamiltonian_two_form_layout():
    q, p = poly_variables(3)
    H = p[0] * p[0] + q[2]
    alpha = hamiltonian_two_form(H, 3)
    x = np.arange(6.0) * 0.1
    hval = H.value(x)
    for i in range(3):
        assert alpha.A_entry(i, i).value(x) == pytest.approx(hval / 2.0)
    assert {kind for kind, *_ in alpha.components()} == {"A"}  # no Q, no P
    assert trace_field(alpha).value(x) == pytest.approx(3.0 * hval / 2.0)
    with pytest.raises(ValueError):
        hamiltonian_two_form(H, 1)
    with pytest.raises(TypeError):
        hamiltonian_two_form(lambda x: x, 2)


def test_trace_field_value_and_gradient():
    alpha = _poly_alpha()
    x = np.array([1.0, 2.0, 0.5, -0.3])
    assert trace_field(alpha).value(x) == pytest.approx(0.5**2)  # only A (1,1) is diagonal
    tf = trace_field(alpha)
    pts = np.array([x, 2 * x])
    assert np.allclose(tf.value(pts), [0.25, 1.0])
    assert _fd_residual(tf, pts) < 1e-8


def test_traceless_part_trace_identity():
    # trace of the remainder is -tr(alpha)/(n-1), not zero
    alpha = _poly_alpha()
    rest = traceless_part(alpha)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.normal(size=4)
        assert trace_field(rest).value(x) == pytest.approx(-trace_field(alpha).value(x),
                                                           abs=1e-12)
    beta = _poly_alpha(3)
    rest3 = traceless_part(beta)
    x6 = rng.normal(size=6)
    assert trace_field(rest3).value(x6) == pytest.approx(-trace_field(beta).value(x6) / 2.0,
                                                         abs=1e-12)


# ----------------------------------------------------------------- gauge shift


def test_gauge_shift_hand_example():
    # beta = (q2 p1) dq^1 adds dq(q2 p1)^dq^1: Q_12 -= p1, A^1_1 += q2
    q, p = poly_variables(2)
    zero = TwoFormField(2)
    shifted = gauge_shift(zero, OneFormField.from_components(2, dq={0: q[1] * p[0]}))
    x = np.array([3.0, 5.0, 7.0, 11.0])
    assert _component(shifted, "Q", 0, 1).value(x) == pytest.approx(-7.0)
    assert shifted.A_entry(0, 0).value(x) == pytest.approx(5.0)
    assert _component(shifted, "P", 0, 1) is None


def test_gauge_shift_is_closed():
    # d(alpha + d beta) = d alpha, exactness of the added piece
    alpha = _poly_alpha()
    q, p = poly_variables(2)
    beta = OneFormField.from_components(
        2,
        dq={0: q[1] * p[0], 1: p[1] * p[1]},
        dp={0: q[0] * q[1], 1: q[0] + p[0]},
    )
    shifted = gauge_shift(alpha, beta)
    rng = np.random.default_rng(17)
    for _ in range(4):
        x = rng.normal(size=4)
        da = d_at_point(alpha.jet_at(x))
        ds = d_at_point(shifted.jet_at(x))
        assert (da - ds).max_abs() < 1e-10


def test_one_form_component_validation():
    q, _ = poly_variables(2)
    with pytest.raises(ValueError):
        OneFormField.from_components(2, dq={5: q[0]})


# ------------------------------------------------------------------ properties


@st.composite
def _small_poly(draw, dim):
    nterms = draw(st.integers(min_value=1, max_value=3))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(dim))
        terms[exps] = draw(st.floats(min_value=-3, max_value=3, allow_nan=False))
    return Polynomial(dim, terms)


@settings(max_examples=20, deadline=None)
@given(f=_small_poly(4), g=_small_poly(4), data=st.data())
def test_polynomial_product_rule_property(f, g, data):
    vals = data.draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=4, max_size=4))
    x = np.array(vals)
    prod = f * g
    for i in range(4):
        want = f.partial(i).value(x) * g.value(x) + f.value(x) * g.partial(i).value(x)
        assert prod.partial(i).value(x) == pytest.approx(want, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(f=_small_poly(4))
def test_polynomial_gradient_matches_fd_property(f):
    pts = np.array([[0.3, -0.6, 0.9, 0.2]])
    assert _fd_residual(f, pts) < 1e-6
