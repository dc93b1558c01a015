"""Vector-field generation from 2-forms and the block-tensor route."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volflow import (
    FieldEvaluationError,
    GeneratedField,
    Polynomial,
    ScalarField,
    TwoFormField,
    decompose,
    feng_shang_field,
    feng_shang_from_alpha,
    generate,
    hamiltonian_field,
    hamiltonian_two_form,
    integrate,
    monitor,
    nu_k,
    poly_variables,
    random_two_form,
    solve_nu_n,
    wedge,
    omega_power,
    d_at_point,
)
from volflow import generator
from volflow.forms import _fd_jacobian, _merge_rows
from volflow.dynamics import _BLOCK
from volflow.generator import _CHUNK, _MonomialMap, _check_finite, _field_terms
from volflow.systems import coupled_oscillators, random_alpha_system, random_polynomial
from volflow.verify import _exact_divergence


def _witness_alpha():
    """alpha = q^1 dp_1 ^ dq^2, whose generated field is d/dp_2."""
    q, _ = poly_variables(2)
    return TwoFormField(2, A={(0, 1): q[0]})


# ----------------------------------------------------------- the signed witness


def test_generate_witness_field():
    X = generate(_witness_alpha())
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.allclose(X(x), [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_generate_agrees_with_dense_solve():
    # X must reproduce n(n-1) d(alpha) ^ omega^{n-2} through the signed
    # contraction, independently of the einsum shortcuts
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): q[0] * q[1]},
        A={(0, 0): p[1], (0, 1): q[0] * p[0], (1, 0): q[1]},
        P={(0, 1): p[0] * p[1]},
    )
    X = generate(alpha)
    rng = np.random.default_rng(1)
    n = 2
    for _ in range(5):
        x = rng.normal(size=4)
        target = d_at_point(alpha.jet_at(x)) * float(n * (n - 1))
        assert np.max(np.abs(X(x) - solve_nu_n(target, n))) < 1e-10


def test_generate_three_dof():
    q, p = poly_variables(3)
    alpha = TwoFormField(3, A={(0, 2): q[1] * p[2], (2, 1): q[0]},
                         Q={(1, 2): p[0]}, P={(0, 1): q[2] * q[2]})
    X = generate(alpha)
    n = 3
    rng = np.random.default_rng(2)
    for _ in range(3):
        x = rng.normal(size=6)
        dalpha = d_at_point(alpha.jet_at(x))
        target = wedge(dalpha, omega_power(n, n - 2)) * float(n * (n - 1))
        assert np.max(np.abs(X(x) - solve_nu_n(target, n))) < 1e-10


def test_generated_nu_matches_construction():
    # nu_n(X) = n(n-1) d(alpha)^omega^{n-2} as forms
    alpha = _witness_alpha()
    X = generate(alpha)
    x = np.array([0.3, -0.8, 0.2, 0.9])
    lhs = nu_k(X(x), 2, 2)
    rhs = d_at_point(alpha.jet_at(x)) * 2.0
    assert (lhs - rhs).max_abs() < 1e-12


# ------------------------------------------------------- compiled polynomial map


def _formula(alpha, x):
    """The generating formula over the component jet, written out in full."""
    jet = alpha.jet_at(x)
    qdot = (
        np.einsum("...ijj->...i", jet.dP_dq)
        + np.einsum("...jji->...i", jet.dA_dp)
        - np.einsum("...ijj->...i", jet.dA_dp)
    )
    pdot = (
        np.einsum("...ijj->...i", jet.dQ_dp)
        - np.einsum("...jji->...i", jet.dA_dq)
        + np.einsum("...jij->...i", jet.dA_dq)
    )
    return np.concatenate([qdot, pdot], axis=-1)


def _count_jet_calls(alpha, monkeypatch):
    calls = []
    jet_at = alpha.jet_at
    monkeypatch.setattr(alpha, "jet_at", lambda x: calls.append(1) or jet_at(x))
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compiled_field_matches_formula(n, monkeypatch):
    rng = np.random.default_rng(20 + n)
    for trial in range(6):
        alpha = random_two_form(n, rng, traceless=bool(trial % 2))
        calls = _count_jet_calls(alpha, monkeypatch)
        X = generate(alpha)
        for shape in [(), (5,), (2, 3)]:
            x = rng.normal(size=shape + (2 * n,))
            before = len(calls)
            got = X(x)
            assert len(calls) == before  # the polynomial map never builds the jet
            want = _formula(alpha, x)
            assert got.shape == x.shape
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-13


def test_zero_two_form_generates_zeros():
    for n in (2, 3):
        X = generate(TwoFormField(n))
        for shape in [(), (4,), (2, 3)]:
            x = np.ones(shape + (2 * n,))
            out = X(x)
            assert out.shape == x.shape
            assert not out.any()


def test_mixed_components_match_formula(monkeypatch):
    q, p = poly_variables(2)
    wavy = ScalarField(
        lambda x: np.sin(x[..., 0]) * x[..., 3],
        lambda x: np.stack([np.cos(x[..., 0]) * x[..., 3], 0 * x[..., 0],
                            0 * x[..., 0], np.sin(x[..., 0])], axis=-1),
    )
    alpha = TwoFormField(2, Q={(0, 1): q[1] * p[0]}, A={(0, 1): wavy, (1, 1): p[0] * p[0]})
    calls = _count_jet_calls(alpha, monkeypatch)
    X = generate(alpha)
    assert not X.exact_tangent
    rng = np.random.default_rng(7)
    for shape in [(), (5,), (2, 3)]:
        x = rng.normal(size=shape + (4,))
        before = len(calls)
        got = X(x)
        assert len(calls) == before  # the field never builds the jet
        want = _formula(alpha, x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-13


def _wavy_hamiltonian():
    """H = sin(q^1) p_2 + q^2 p_1^2 on n = 2, with an exact gradient."""
    return ScalarField(
        lambda x: np.sin(x[..., 0]) * x[..., 3] + x[..., 1] * x[..., 2] ** 2,
        lambda x: np.stack([np.cos(x[..., 0]) * x[..., 3], x[..., 2] ** 2,
                            2.0 * x[..., 1] * x[..., 2], np.sin(x[..., 0])], axis=-1),
    )


def test_generic_hamiltonian_field_is_the_gradient_formula():
    H = _wavy_hamiltonian()
    X = hamiltonian_field(H, 2)
    assert not X.exact_tangent and X.kind == "hamiltonian"
    rng = np.random.default_rng(8)
    for shape in [(), (5,), (2, 3)]:
        x = rng.normal(size=shape + (4,))
        g = H.gradient(x)
        assert np.array_equal(X(x), np.concatenate([g[..., 2:], -g[..., :2]], axis=-1))


def test_generic_field_overflow_is_reported():
    # pdot_2 = -dH/dq^2 = -p_1^2 overflows at p_1 = 1e200; qdot stays finite
    X = hamiltonian_field(_wavy_hamiltonian(), 2)
    x = np.array([0.0, 0.0, 1e200, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FieldEvaluationError) as info:
            X(x)
    assert info.value.component == "pdot2"
    assert integrate(X, x, 1e-3, 5).failed


def test_compiled_field_overflow_is_reported():
    huge = Polynomial(4, {(8, 0, 0, 0): 1e300})
    x = np.array([1e5, 0.0, 0.0, 0.0])
    # in A[0,0] a function of q^1 alone cancels out of X: the field is exactly 0
    assert not generate(TwoFormField(2, A={(0, 0): huge}))(x).any()
    X = generate(TwoFormField(2, A={(0, 1): huge}))  # pdot_2 = 8e300 (q^1)^7
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FieldEvaluationError) as info:
            X(x)
    assert info.value.component == "pdot2"
    assert integrate(X, x, 1e-3, 5).failed


# ------------------------------------------------ X = sum of M_f grad f, by pairs


def _symplectic(n):
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:], J[n:, :n] = np.eye(n), -np.eye(n)
    return J


def test_field_is_the_sum_of_m_f_grad_f():
    rng = np.random.default_rng(12)
    q, p = poly_variables(2)
    alphas = [random_two_form(n, rng) for n in (2, 3, 4) for _ in range(4)]
    alphas.append(hamiltonian_two_form(random_polynomial(6, rng), 3))  # one shared f
    alphas.append(TwoFormField(2, Q={(0, 1): q[1] * p[0]},  # a non-polynomial component
                               A={(0, 1): _wavy_hamiltonian(), (1, 1): p[0] * p[0]}))
    for alpha in alphas:
        dim = 2 * alpha.n
        pairs = _field_terms(alpha)
        stored = {id(f): f for *_, f in alpha.components()}
        assert sorted(id(f) for f, _ in pairs) == sorted(stored)
        x = rng.normal(size=(6, dim))
        want = np.zeros_like(x)
        for f, M in pairs:
            assert M.shape == (dim, dim) and M.any()
            assert np.array_equal(M, -M.T) and np.array_equal(M, np.round(M))
            want += f.gradient(x) @ M.T
        got = generate(alpha)(x)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12
    # the Hamiltonian 2-form H omega/(n-1): one pair (H/(n-1), (n-1) J)
    (f, M), = _field_terms(alphas[-2])
    assert f is alphas[-2].A_entry(0, 0) and np.array_equal(M, 2.0 * _symplectic(3))


def test_hamiltonian_field_is_the_single_pair_h_j(monkeypatch):
    built, real = [], generator._field
    monkeypatch.setattr(generator, "_field",
                        lambda n, pairs, kind: built.append(pairs) or real(n, pairs, kind))
    rng = np.random.default_rng(13)
    for n, H in [(1, random_polynomial(2, rng)), (2, random_polynomial(4, rng)),
                 (3, random_polynomial(6, rng)), (2, _wavy_hamiltonian())]:
        hamiltonian_field(H, n)
        (f, M), = built.pop()
        assert f is H and np.array_equal(M, _symplectic(n))


# ------------------------------------------------------------ the exact tangent


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tangent_matches_finite_differences(n):
    rng = np.random.default_rng(60 + n)
    for _ in range(3):
        X = generate(random_two_form(n, rng))
        assert X.exact_tangent
        for shape in [(), (4,)]:
            x = 0.5 * rng.normal(size=shape + (2 * n,))
            value, jac = X.tangent(x)
            assert jac.shape == shape + (2 * n, 2 * n)
            want = X(x)
            assert np.max(np.abs(value - want) / (1.0 + np.abs(want))) <= 1e-13
            for i in np.ndindex(shape):
                fd = _fd_jacobian(X, x[i])
                assert np.max(np.abs(jac[i] - fd) / (1.0 + np.abs(fd))) <= 1e-7


def test_tangent_is_compiled_on_first_use():
    X = generate(random_two_form(2, np.random.default_rng(3)))
    assert X._eval_fn._tangent_map is None  # generate pays only for X
    X(np.zeros(4))
    # integrate steps on X alone, at one point and in a batch
    integrate(X, np.full(4, 0.1), 1e-2, 3)
    integrate(X, np.full((5, 4), 0.1), 1e-2, 3)
    assert X._eval_fn._tangent_map is None
    X.tangent(np.zeros(4))
    compiled = X._eval_fn._tangent_map
    assert compiled is not None and compiled.C.shape[1] == 4 + 16
    X.tangent(np.ones(4))
    assert X._eval_fn._tangent_map is compiled


def test_exact_divergence_certificate():
    # div X = sum_a dX^a/dx^a is identically zero: every coefficient of the
    # compiled polynomial vanishes to roundoff
    rng = np.random.default_rng(61)
    worst = 0.0
    for trial in range(200):
        n = 2 + trial % 3
        worst = max(worst, _exact_divergence(generate(random_two_form(n, rng))))
    assert worst <= 1e-14


def test_non_polynomial_fields_have_no_exact_tangent():
    q, p = poly_variables(2)
    wavy = ScalarField(lambda x: np.sin(x[..., 0]))
    X = generate(TwoFormField(2, A={(0, 1): wavy, (1, 1): p[0] * q[1]}))
    H = hamiltonian_field(wavy + p[0] * p[0], 2)
    F = feng_shang_field(feng_shang_from_alpha(_witness_alpha()))
    for field in (X, H, F):
        assert not field.exact_tangent
        with pytest.raises(TypeError):
            field.tangent(np.zeros(4))


def test_overflowed_tangent_coefficient_means_no_exact_tangent():
    # d^2/dq1^2 of A = 1e306 q1^20 has coefficient 3.8e308, which overflows
    # when the [X | DX] map is compiled; X itself (pdot_2 = 2e307 q1^19) is fine
    A = {(0, 1): Polynomial(4, {(20, 0, 0, 0): 1e306})}
    x = np.array([0.85, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        X = generate(TwoFormField(2, A=A))
        assert not X.exact_tangent
        for call in (lambda: X.tangent(x), X.tangent_map):
            with pytest.raises(TypeError):
                call()
        assert np.isfinite(X(x)).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_field_of_a_polynomial_has_exact_tangent(n):
    rng = np.random.default_rng(70 + n)
    for _ in range(3):
        H = random_polynomial(2 * n, rng)
        X = hamiltonian_field(H, n)
        assert X.exact_tangent and X.kind == "hamiltonian"
        x = rng.normal(size=(5, 2 * n))
        g = H.gradient(x)
        want = np.concatenate([g[..., n:], -g[..., :n]], axis=-1)
        value, jac = X.tangent(x)
        assert np.max(np.abs(value - want) / (1.0 + np.abs(want))) <= 1e-13
        assert np.max(np.abs(X(x) - want) / (1.0 + np.abs(want))) <= 1e-13
        for i in range(5):
            fd = _fd_jacobian(X, x[i])
            assert np.max(np.abs(jac[i] - fd) / (1.0 + np.abs(fd))) <= 1e-7
        assert np.max(np.abs(np.trace(jac, axis1=-2, axis2=-1))) <= 1e-14


def _kernel_cases():
    """2-forms whose compiled maps reach what random_two_form (degree <= 3,
    so at most 2 non-unit factors per monomial) does not."""
    q, p = poly_variables(3)  # dim 6 exceeds every width below
    four = q[0] * q[1] * p[0] * p[1]  # its first partials have 3 non-unit factors
    return {
        "four-coordinates": TwoFormField(3, A={(0, 1): four + 3.0 * q[0]},
                                         Q={(0, 1): four * p[0] - 0.5 * p[2]}),
        # in A[0,0] a function of (q^1, p_1) alone: its trace terms cancel it
        "cancelled": TwoFormField(3, A={(0, 0): q[0] * p[0] + q[0] * q[0]}),
        "degree-0": TwoFormField(3, Q={(0, 1): 2.0 * p[0] - q[1] + 0.5}),
    }


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_monomial_kernel_batches_and_terms(case):
    alpha = _kernel_cases()[case]
    dim = 2 * alpha.n
    X = generate(alpha)
    first = [(a, M[a, d], f.partial(d))
             for f, M in _field_terms(alpha) for a, d in zip(*np.nonzero(M))]
    second = [(dim + a * dim + b, sign, g.partial(b))
              for a, sign, g in first for b in range(dim)]
    compiled = {"X": (X._eval_fn, first), "tangent": (X.tangent_map(), first + second)}
    if case == "cancelled":
        assert X._eval_fn.C.shape[0] == 0
    if case == "degree-0":
        assert X._eval_fn.deg == 0 and X.tangent_map().deg == 0
    if case == "four-coordinates":
        assert X._eval_fn.factors.shape[0] == 4  # dQ_12/dp_1 = 2 q^1 q^2 p_1 p_2
    rng = np.random.default_rng(90)
    for name, (fmap, terms) in compiled.items():
        for shape in [(), (7,), (2, 3)]:
            x = rng.normal(size=shape + (dim,))
            got = fmap(x)
            want = np.zeros(shape + (fmap.C.shape[1],))
            for col, sign, g in terms:
                want[..., col] += sign * g.value(x)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want)), initial=0.0) <= 1e-13
            for i in np.ndindex(shape):
                assert np.array_equal(got[i], fmap(x[i])), (name, shape, i)


def _reference_table_product(fmap, pts):
    """The table product written out per call, the reference for the fixed
    plan: it works out the power rows from `deg` and gathers the factor
    rows of `factors` on every call, then takes `@`."""
    x = pts.T
    dim = x.shape[0]
    table = np.empty(((fmap.deg + 1) * dim,) + x.shape[1:])
    table[:dim] = 1.0
    for e in range(1, fmap.deg + 1):
        np.multiply(table[(e - 1) * dim:e * dim], x, out=table[e * dim:(e + 1) * dim])
    monos = table[fmap.factors[0]]
    for col in fmap.factors[1:]:
        monos *= table[col]
    return monos.T @ fmap.C


def _plan_cases():
    fields = {"coupled": coupled_oscillators().field,
              "random-n3": random_alpha_system(3, 2).field}
    fields.update((name, generate(alpha)) for name, alpha in _kernel_cases().items())
    return fields


@pytest.mark.parametrize("case", sorted(_plan_cases()))
def test_the_evaluation_plan_keeps_every_bit(case):
    """The plan fixed at compile time evaluates X and [X | DX] bit for bit
    as the per-call table product does: at single points (a BLAS vector
    product), at 2-D batches and at a 3-D batch (where `np.dot` and `@`
    round differently)."""
    field = _plan_cases()[case]
    rng = np.random.default_rng(14)
    for fmap in (field._eval_fn, field.tangent_map()):
        for shape in [(), (), (), (2,), (9,), (3, 5)]:
            x = rng.normal(size=shape + (2 * field.n,))
            got = fmap(x)
            assert got.shape == shape + (fmap.C.shape[1],)
            assert np.array_equal(got, _reference_table_product(fmap, x)), (case, shape)


@pytest.mark.parametrize("case", ["coupled", "random-n3"])
def test_one_path_steps_the_reference_rk4_bit_for_bit(case):
    """`monitor` and `integrate` step one point as a plain loop of
    x + (dt/6)(k1 + 2.0 k2 + 2.0 k3 + k4) on the reference table product,
    across three blocks of `_BLOCK` steps and a partial one."""
    field = _plan_cases()[case]
    x, dt, steps = np.full(2 * field.n, 0.3), 1e-2, 3 * _BLOCK + 5
    fmap = field._eval_fn
    want = [x]
    for _ in range(steps):
        k1 = _reference_table_product(fmap, x)
        k2 = _reference_table_product(fmap, x + 0.5 * dt * k1)
        k3 = _reference_table_product(fmap, x + 0.5 * dt * k2)
        k4 = _reference_table_product(fmap, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        want.append(x)
    diag = monitor(field, want[0], dt, steps, sample_every=steps, trajectory_every=1)
    assert not diag.failed
    assert np.array_equal(diag.trajectory.states, want)
    assert np.array_equal(integrate(field, want[0], dt, steps).states, want)


def _point_cases():
    """Fields whose compiled maps span the one-point table's layouts: no
    power rows beyond the unit ones, only power 1, several higher powers,
    and four non-unit factors per monomial."""
    q, p = poly_variables(2)
    kernel = _kernel_cases()
    return {
        "degree-0": generate(kernel["degree-0"]),
        "degree-1": coupled_oscillators().field,
        "degree-4": generate(TwoFormField(2, A={(0, 1): q[0] ** 4 * p[1] - 0.5 * q[1] ** 4},
                                          P={(0, 1): p[0] ** 3 + q[0] * q[1]})),
        "four-coordinates": generate(kernel["four-coordinates"]),
    }


@pytest.mark.parametrize("case", sorted(_point_cases()))
def test_one_point_calls_keep_every_bit(case):
    """A one-point evaluator (`point_fn`) runs on a power table of its own:
    each of its calls is `array_equal` to the per-call table product,
    whatever was called before it (a point or a batch, on the map or on
    another evaluator of it), and a result stays as it is after later calls."""
    field = _point_cases()[case]
    X, T = field._eval_fn, field.tangent_map()
    layout = {"degree-0": (X.deg == T.deg == 0), "degree-1": (X.deg == T.deg == 1),
              "degree-4": (X.deg == T.deg == 4), "four-coordinates": (X.factors.shape[0] >= 3)}
    assert layout[case]
    rng = np.random.default_rng(17)
    dim = 2 * field.n
    for fmap in (X, T):
        one, other = fmap.point_fn(), fmap.point_fn()
        first, second = rng.normal(size=(2, dim))
        a, b = one(first), other(second)
        kept = a.copy(), b.copy()
        assert np.array_equal(a, _reference_table_product(fmap, first)), case
        assert np.array_equal(b, _reference_table_product(fmap, second)), case
        assert np.array_equal(fmap(first), a), case
        batch = rng.normal(size=(5, dim))
        for calls in ((batch, first, second), (second, batch, first)):
            for x in calls:
                want = _reference_table_product(fmap, x)
                assert np.array_equal(fmap(x), want), case
                if x.ndim == 1:
                    assert np.array_equal(one(x), want) and np.array_equal(other(x), want), case
        assert np.array_equal(a, kept[0]) and np.array_equal(b, kept[1]), case
        for bad in (np.nan, np.inf, -np.inf):
            x = first.copy()
            x[dim - 1] = bad
            with np.errstate(over="ignore", invalid="ignore"):
                want = _reference_table_product(fmap, x)
                assert np.array_equal(fmap(x), want, equal_nan=True), (case, bad)
                assert np.array_equal(one(x), want, equal_nan=True), (case, bad)
                # the evaluator's table holds no trace of the non-finite point
                assert np.array_equal(one(first), a), case


@pytest.mark.parametrize("shape", [(2 * _CHUNK + 3,), (2, _CHUNK + 1), (_CHUNK + 1,)])
def test_wide_batches_evaluate_in_slices_as_one_call(shape):
    """A batch wider than `_CHUNK` points is evaluated a slice at a time:
    every row is the one a single table product over the whole batch gives,
    bit for bit.  (A call at one point takes BLAS's vector routine, which
    may round the last bit differently; no slice is one point.)"""
    field = random_alpha_system(n=3, seed=2).field
    x = 0.1 + np.random.default_rng(11).standard_normal(shape + (6,))
    for fmap in (field._eval_fn, field.tangent_map()):
        got = fmap(x)
        assert got.shape == shape + (fmap.C.shape[1],)
        assert np.array_equal(got, fmap._table_product(x))


def test_a_wide_call_allocates_one_slice_of_temporaries():
    """What one call allocates beyond its output does not grow with the
    batch (4x from 4 * _CHUNK to 16 * _CHUNK points when unsliced)."""
    field = random_alpha_system(n=3, seed=2).field
    for fmap in (field._eval_fn, field.tangent_map()):
        extra = []
        for count in (4 * _CHUNK, 16 * _CHUNK):
            x = np.random.default_rng(0).standard_normal((count, 6))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = fmap(x)
                extra.append(tracemalloc.get_traced_memory()[1] - before - out.nbytes)
            finally:
                tracemalloc.stop()
        assert 0 < extra[1] <= 1.05 * extra[0], extra


def _terms_rows(dim, terms):
    """The stacked (exps, coeffs, cols) rows of terms (column, c, g): output
    `column` gains c * g for a float c and a `Polynomial` g."""
    exps = np.vstack([np.zeros((0, dim), dtype=np.int64)] + [g._exps for _, _, g in terms])
    coeffs = np.concatenate([np.zeros(0)] + [c * g._coeffs for _, c, g in terms])
    cols = np.concatenate([np.zeros(0, dtype=np.intp)]
                          + [np.full(g._coeffs.shape, col) for col, _, g in terms])
    return exps, coeffs, cols


def _terms_map(dim, terms, names):
    return _MonomialMap(dim, *_terms_rows(dim, terms), names)


def test_monomial_map_finite_check():
    one = Polynomial.constant(2, 1.0)
    q, p = Polynomial.coordinate(2, 0), Polynomial.coordinate(2, 1)
    # columns a and b are finite at 1e308 each, so their sum overflows
    big = _terms_map(2, [(0, 1.0, one * 1e308), (1, 1.0, one * 1e308), (2, 1.0, q)],
                     ["a", "b", "c"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _check_finite(big(np.array([2.0, 0.0])), big.names)
        assert np.array_equal(out, [1e308, 1e308, 2.0])
    # column b is 1e308 (q - p): +inf, then -inf; a NaN coordinate makes
    # every column NaN, so the first is named
    bad = _terms_map(2, [(0, 1.0, one), (1, 1.0, (q - p) * 1e308), (2, 1.0, one)],
                     ["a", "b", "c"])
    for x, name in (([10.0, 0.0], "b"), ([0.0, 10.0], "b"), ([np.nan, 0.0], "a")):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FieldEvaluationError) as info:
                _check_finite(bad(np.array(x)), bad.names)
        assert info.value.component == name


def test_a_monomial_map_differentiates_its_own_columns():
    """`tangent_map` of a map built straight from terms, whose exponents 3
    and 5 are no power of two: its X columns are the map's own call, and its
    DX columns are the terms' exact partials and the central differences."""
    q, p = poly_variables(2)
    terms = [(0, 1.5, q[0] ** 3 * p[1] ** 5 - 0.25 * q[1] ** 5),
             (1, -0.75, q[1] ** 3 * p[0] + 3.0 * q[0] ** 5 * q[1]),
             (2, 2.0, p[0] ** 5 * p[1] ** 3 + q[0]), (0, 0.5, p[0] ** 3 * q[1] ** 3)]
    fmap = _terms_map(4, terms, ["a", "b", "c"])
    T = fmap.tangent_map()
    assert T.names[:3] == ["a", "b", "c"] and T.names[3 + 4 + 2] == "db/dp1"
    assert fmap.tangent_map() is T
    rng = np.random.default_rng(25)
    for shape in [(), (7,), (2, 3)]:
        x = 0.6 * rng.normal(size=shape + (4,))
        got = T(x)
        assert got.shape == shape + (3 + 3 * 4,)
        assert np.array_equal(got[..., :3], fmap(x))
        want = np.zeros(shape + (3, 4))
        for col, c, g in terms:
            for b in range(4):
                want[..., col, b] += c * g.partial(b).value(x)
        dx = got[..., 3:].reshape(shape + (3, 4))
        assert np.max(np.abs(dx - want) / (1.0 + np.abs(want))) <= 1e-13
        for i in np.ndindex(shape):
            fd = _fd_jacobian(fmap, x[i])
            assert np.max(np.abs(dx[i] - fd) / (1.0 + np.abs(fd))) <= 1e-7


def _partials_route(pairs, dim):
    """The X terms as `generate` built them before it lowered all the
    components' rows in one pass: one `Polynomial.partial` per nonzero
    entry (a, d) of each M_f, scaled by M_f[a, d]."""
    return [(a, M[a, d], f.partial(d)) for f, M in pairs for a, d in zip(*np.nonzero(M))]


def _second_partials_route(pairs, dim):
    """The [X | DX] map built from the source pairs, as `generate` built it
    before the map differentiated itself: the first partial terms of X, and
    each one's partials as the DX terms."""
    first = _partials_route(pairs, dim)
    second = [(dim + a * dim + b, m, g.partial(b)) for a, m, g in first for b in range(dim)]
    return _terms_map(dim, first + second, [""] * (dim + dim * dim))


def test_the_x_map_is_the_partials_route_bit_for_bit():
    """The X map's rows, lowered in one pass, merge to the basis, C and
    factors that one `partial` per (f, a, d) entry gives: plain and
    traceless 2-forms at n = 2, 3, 4, and H omega/(n-1), whose components
    are all one polynomial.  Dense low-degree forms make many terms meet in
    one coefficient, whose sum then depends on the order of the rows."""
    rng = np.random.default_rng(27)
    alphas = [random_two_form(n, rng, traceless=traceless, **dense)
              for n in (2, 3, 4) for traceless in (False, True) for _ in range(10)
              for dense in ({}, {"degree": 2, "max_terms": 12})]
    alphas += [hamiltonian_two_form(random_polynomial(2 * n, rng), n) for n in (2, 3, 4)]
    alphas.append(random_alpha_system(3, 2, degree=6).alpha)
    for alpha in alphas:
        dim, pairs = 2 * alpha.n, _field_terms(alpha)
        X = generate(alpha)._eval_fn
        basis, C = _merge_rows(*_terms_rows(dim, _partials_route(pairs, dim)), dim)
        assert np.array_equal(X.basis, basis) and np.array_equal(X.C, C)
        want = _terms_map(dim, _partials_route(pairs, dim), X.names)
        assert np.array_equal(X.factors, want.factors)


def test_the_tangent_map_is_the_second_partials_route_bit_for_bit():
    rng = np.random.default_rng(26)
    cases = [(generate(alpha), _field_terms(alpha))
             for alpha in [random_two_form(n, rng) for n in (2, 3, 4) for _ in range(20)]]
    for n in (1, 2, 3):
        for _ in range(5):
            H = random_polynomial(2 * n, rng)
            cases.append((hamiltonian_field(H, n), [(H, _symplectic(n))]))
    alpha = random_alpha_system(3, 2, degree=6).alpha
    cases.append((generate(alpha), _field_terms(alpha)))
    for field, pairs in cases:
        T, want = field.tangent_map(), _second_partials_route(pairs, 2 * field.n)
        assert np.array_equal(T.basis, want.basis) and np.array_equal(T.C, want.C)


def test_two_threads_compile_the_tangent_map_once(monkeypatch):
    """The first thread to ask compiles the tangent map; a second one that
    asks meanwhile waits for it, and both get the one compiled map."""
    fmap = generate(random_two_form(2, np.random.default_rng(28)))._eval_fn
    compile_tangent, builds = _MonomialMap._compile_tangent, []
    started, release = threading.Event(), threading.Event()

    def slow(self):
        builds.append(self)
        started.set()
        release.wait(timeout=60)
        return compile_tangent(self)

    monkeypatch.setattr(_MonomialMap, "_compile_tangent", slow)
    got = []
    threads = [threading.Thread(target=lambda: got.append(fmap.tangent_map())) for _ in range(2)]
    threads[0].start()
    assert started.wait(timeout=60)
    threads[1].start()
    threads[1].join(timeout=0.5)  # it waits for the first thread's compile
    release.set()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(builds) == 1 and len(got) == 2 and got[0] is got[1] is fmap.tangent_map()


def test_tangent_overflow_names_the_entry():
    huge = Polynomial(4, {(8, 0, 0, 0): 1e300})
    X = generate(TwoFormField(2, A={(0, 1): huge}))  # pdot_2 = 8e300 (q^1)^7
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FieldEvaluationError) as info:
            X.tangent(np.array([1e5, 0.0, 0.0, 0.0]))
    assert info.value.component == "pdot2"
    assert monitor(X, np.array([1e5, 0.0, 0.0, 0.0]), 1e-3, 5).failed


# -------------------------------------------------------------- field mechanics


def test_generated_field_shapes_and_state():
    X = generate(_witness_alpha())
    pts = np.zeros((3, 5, 4))
    assert X(pts).shape == (3, 5, 4)
    v = X(np.array([1.0, 2.0, 0.0, 0.0]))
    assert np.allclose(v[:2], 0.0)
    assert np.allclose(v[2:], [0.0, 1.0])
    assert X.kind == "from-two-form"
    with pytest.raises(ValueError):
        X(np.zeros(3))


def test_custom_field_is_checked_where_it_is_called():
    # pdot1 = inf once q1 >= 0.5: the call names the component, and integrate
    # cuts at the same row as on the raw, unchecked function
    def eval_fn(pts):
        return np.stack([np.ones(pts.shape[:-1]),
                         np.where(pts[..., 0] >= 0.5, np.inf, 0.0)], axis=-1)

    X = GeneratedField(1, eval_fn, kind="custom")
    with pytest.raises(FieldEvaluationError) as info:
        X(np.array([0.6, 0.0]))
    assert info.value.component == "pdot1"
    checked = integrate(X, np.zeros(2), dt=0.1, steps=20)
    with np.errstate(invalid="ignore"):
        raw = integrate(eval_fn, np.zeros(2), dt=0.1, steps=20)
    assert checked.failed and raw.failed
    assert checked.last_valid_index == raw.last_valid_index == 4
    assert np.array_equal(checked.states, raw.states)


# ------------------------------------------------------------- Hamiltonian case


def test_hamiltonian_field_equations():
    # H = (p1^2 + q1^2)/2 on n=1: qdot = p, pdot = -q
    q, p = poly_variables(1)
    H = (p[0] * p[0] + q[0] * q[0]) * 0.5
    X = hamiltonian_field(H, 1)
    assert np.allclose(X(np.array([2.0, 3.0])), [3.0, -2.0])
    assert X.kind == "hamiltonian"


def test_hamiltonian_reduction_through_two_form():
    # generate(H omega/(n-1)) must equal the canonical Hamiltonian field
    q, p = poly_variables(2)
    H = p[0] * p[0] * 0.5 + q[0] * q[1] + q[1] * q[1] * 1.5
    direct = hamiltonian_field(H, 2)
    via_form = generate(hamiltonian_two_form(H, 2))
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.max(np.abs(direct(x) - via_form(x))) < 1e-12


# ---------------------------------------------------------------- decomposition


def test_decompose_parts_sum_to_whole():
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): p[0] * q[1]},
        A={(0, 0): q[0] * q[0], (1, 1): p[1], (0, 1): q[1]},
        P={(0, 1): q[0] + p[1]},
    )
    ham, rest = decompose(alpha)
    total = generate(alpha)
    assert ham.kind == "hamiltonian"
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.max(np.abs(ham(x) + rest(x) - total(x))) < 1e-10


def test_decompose_of_traceless_form_is_pure_remainder():
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): q[0]},
        A={(0, 1): p[1], (1, 0): q[1] * p[0], (0, 0): q[0], (1, 1): -q[0]},
        P={(0, 1): p[0]},
    )
    ham, rest = decompose(alpha)
    x = np.array([0.7, -0.1, 0.4, 0.6])
    assert np.max(np.abs(ham(x))) < 1e-12
    assert np.max(np.abs(rest(x) - generate(alpha)(x))) < 1e-12


def test_decompose_normalization_on_hamiltonian_form():
    # alpha = H omega/(n-1) at n=2 has trace 2H, so the split is
    # X_alpha = X_{2H} + rest with rest = -X_H
    q, p = poly_variables(2)
    H = q[0] * p[1] + p[0] * p[0]
    alpha = hamiltonian_two_form(H, 2)
    ham, rest = decompose(alpha)
    x = np.array([0.7, -0.1, 0.4, 0.6])
    xh = hamiltonian_field(H, 2)(x)
    assert np.max(np.abs(ham(x) - 2.0 * xh)) < 1e-12
    assert np.max(np.abs(rest(x) + xh)) < 1e-12


# ------------------------------------------------------------ block-tensor route


def test_feng_shang_block_layout():
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): q[0]},
        A={(0, 1): p[1], (1, 1): q[1]},
        P={(0, 1): p[0]},
    )
    tensor = feng_shang_from_alpha(alpha)
    x = np.array([2.0, 3.0, 5.0, 7.0])
    T = tensor.tensor(x)
    assert T.shape == (4, 4)
    # layout [[P, -A], [A^T, Q]]
    P_block = np.array([[0.0, 5.0], [-5.0, 0.0]])
    A_block = np.array([[0.0, 7.0], [0.0, 3.0]])
    Q_block = np.array([[0.0, 2.0], [-2.0, 0.0]])
    assert np.allclose(T[:2, :2], P_block)
    assert np.allclose(T[:2, 2:], -A_block)
    assert np.allclose(T[2:, :2], A_block.T)
    assert np.allclose(T[2:, 2:], Q_block)
    assert tensor.check_antisymmetry(x) < 1e-12
    parts = tensor.partials(x)
    assert parts.shape == (4, 4, 4)
    # d T[0,3] / d p2 = d(-A^1_2)/dp_2 = -1
    assert parts[0, 3, 3] == pytest.approx(-1.0)


def test_feng_shang_agrees_when_trace_constant():
    # divergence-form field sum_j d T[i,j]/dx^j equals the generated field
    # whenever tr A is constant
    q, p = poly_variables(2)
    alpha = TwoFormField(
        2,
        Q={(0, 1): q[1] * p[0]},
        A={(0, 1): q[0] * q[0], (1, 0): p[1]},
        P={(0, 1): q[0] * p[1]},
    )
    X = generate(alpha)
    Y = feng_shang_field(feng_shang_from_alpha(alpha))
    assert Y.kind == "feng-shang"
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.max(np.abs(X(x) - Y(x))) < 1e-10


def test_feng_shang_differs_for_nonconstant_trace():
    # alpha = H omega/(n-1) with H = p_1: generate gives d/dq^1, the block
    # tensor gives -d/dq^1, a frozen discrepancy of size 2
    _, p = poly_variables(2)
    alpha = hamiltonian_two_form(p[0], 2)
    X = generate(alpha)
    Y = feng_shang_field(feng_shang_from_alpha(alpha))
    x = np.array([0.2, 0.4, 0.6, 0.8])
    assert np.allclose(X(x), [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(Y(x), [-1.0, 0.0, 0.0, 0.0], atol=1e-8)
    assert np.max(np.abs(X(x) - Y(x))) == pytest.approx(2.0, abs=1e-8)


# ------------------------------------------------------------------- properties


@st.composite
def _random_alpha(draw, n=2):
    q, p = poly_variables(n)
    base = [q[0], p[0], q[0] * p[1], Polynomial.constant(2 * n, 1.0), q[1] * q[1]]
    def pick():
        f = draw(st.sampled_from(base))
        c = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
        return f * c
    return TwoFormField(
        n,
        Q={(0, 1): pick()},
        A={(0, 0): pick(), (0, 1): pick(), (1, 0): pick(), (1, 1): pick()},
        P={(0, 1): pick()},
    )


@settings(max_examples=15, deadline=None)
@given(a=_random_alpha(), b=_random_alpha(), data=st.data())
def test_generate_is_linear_property(a, b, data):
    vals = data.draw(st.lists(
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        min_size=4, max_size=4))
    x = np.array(vals)
    lhs = generate(a + b)(x)
    rhs = generate(a)(x) + generate(b)(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
