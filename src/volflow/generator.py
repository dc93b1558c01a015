"""Vector fields generated from 2-forms.

The central map takes a 2-form alpha = (1/2) Q_ij dq^i^dq^j + A^i_j dp_i^dq^j
+ (1/2) P^ij dp_i^dp_j to X = sum of M_f grad f over its components f, each
M_f a constant antisymmetric matrix (`_field_terms`).  In coordinates,

    qdot^i = dP^ij/dq^j + d(tr A)/dp_i - dA^i_j/dp_j
    pdot_i = dQ_ij/dp_j - d(tr A)/dq^i + dA^j_i/dq^j

(sums over repeated j; tr A = A^j_j).  Hessians are symmetric, so div X = 0
and the flows preserve phase-space volume.  Hamilton's X = J grad H is the
case alpha = H omega/(n-1), whose one component H/(n-1) has M = (n-1) J.
A polynomial X is compiled into a `_MonomialMap`, which differentiates itself.
"""

from __future__ import annotations

import threading
from typing import Callable, Tuple

import numpy as np

from .forms import (
    FieldEvaluationError,
    Polynomial,
    ScalarField,
    TwoFormField,
    _merge_rows,
    as_points,
    trace_field,
    traceless_part,
)

__all__ = [
    "GeneratedField",
    "generate",
    "hamiltonian_field",
    "decompose",
    "feng_shang_tensor",
    "feng_shang_field",
]


class GeneratedField:
    """A vector field on R^{2n}, evaluated batched as shape (..., 2n).

    `kind` records how the field was built ("from-two-form", "hamiltonian",
    "feng-shang").  Calling the object evaluates it, checked: a non-finite
    output raises `FieldEvaluationError` naming its component (qdot1..pdotn).
    """

    def __init__(self, n: int, eval_fn: Callable, kind: str):
        self.n = int(n)
        self._eval_fn = eval_fn
        self.kind = kind
        self._names = _names(self.n)

    def __call__(self, x) -> np.ndarray:
        pts = as_points(x, 2 * self.n)
        out = np.asarray(self._eval_fn(pts), dtype=float)
        if out.shape != pts.shape:
            raise ValueError(
                f"field evaluation returned shape {out.shape}, expected {pts.shape}"
            )
        return _check_finite(out, self._names, self._eval_fn, pts)

    @property
    def exact_tangent(self) -> bool:
        """True when `tangent` is available: the field was compiled from
        `Polynomial`s (a 2-form's components, or a Hamiltonian) and its
        compiled [X | DX] map, which this compiles, has finite coefficients."""
        return hasattr(self._eval_fn, "tangent_map") and self._eval_fn.tangent_map().finite

    def tangent_map(self) -> Callable[[np.ndarray], np.ndarray]:
        """The compiled map x -> [X | DX] on (..., 2n) points, column
        2n + 2n a + b holding dX^a/dx^b; compiled on the first call, and
        unchecked: a non-finite entry is returned as it is.  A field without
        an exact tangent raises `TypeError`."""
        if not self.exact_tangent:
            raise TypeError(f"a {self.kind!r} field has no exact tangent")
        return self._eval_fn.tangent_map()

    def tangent(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """(X(x), DX(x)) with DX[..., a, b] = dX^a/dx^b, exact, from one
        monomial table."""
        pts = as_points(x, 2 * self.n)
        tangent_map, dim = self.tangent_map(), 2 * self.n
        out = _check_finite(tangent_map(pts), tangent_map.names, tangent_map, pts)
        return out[..., :dim], out[..., dim:].reshape(pts.shape[:-1] + (dim, dim))


def generate(alpha: TwoFormField) -> GeneratedField:
    """The volume-preserving field generated by the 2-form alpha.

    When every component is a `Polynomial`, X is a polynomial too: it is
    compiled here, once, into a monomial basis and a coefficient matrix,
    and the field has an exact `tangent`.  Any other component makes each
    call take the components' gradients (see `_field`).
    """
    return _field(alpha.n, _field_terms(alpha), "from-two-form")


def _names(n: int, dot: str = "dot"):
    """The field's output names in coordinate order (dot="": the coordinates')."""
    return [f"q{dot}{i + 1}" for i in range(n)] + [f"p{dot}{i + 1}" for i in range(n)]


def _check_finite(out: np.ndarray, names, fn=None, pts=None) -> np.ndarray:
    """out, or a `FieldEvaluationError` naming its first non-finite column:
    when out is the `_MonomialMap` fn at pts, the first whose own terms are
    not finite (`own_sums`), as inf * 0 in m(pts) @ C is NaN in every column."""
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out)
        if isinstance(fn, _MonomialMap):
            own = ~np.isfinite(fn.own_sums(pts))
            bad = own if own.any() else bad
        raise FieldEvaluationError(names[np.argwhere(bad)[0, -1]])
    return out


def _field(n: int, pairs, kind: str) -> GeneratedField:
    """The field X = sum of M_f grad f over `pairs` (f, M_f).

    When every f is a `Polynomial` on R^{2n} it is compiled into one
    `_MonomialMap`, X^a gaining M_f[a, d] * df/dx^d: the rows of every f
    are stacked once, and `np.nonzero` over the stacked M_f gives each
    (pair, a, d) entry, lowered in one pass (`_lowered`).  Otherwise each
    call takes each f's gradient once and adds only M_f's nonzero entries,
    so an overflowing partial (inf * 0 would be NaN) reaches only its
    components.
    """
    dim = 2 * n
    if all(isinstance(f, Polynomial) and f.dim == dim for f, _ in pairs):
        exps = np.concatenate([np.zeros((0, dim), dtype=np.int64)] + [f._exps for f, _ in pairs])
        coeffs = np.concatenate([np.zeros(0)] + [f._coeffs for f, _ in pairs])
        Ms = np.array([M for _, M in pairs]).reshape(-1, dim, dim)
        pair, a, d = np.nonzero(Ms)
        exps, coeffs, entry = _lowered(exps, coeffs, [len(f._coeffs) for f, _ in pairs],
                                       pair, d, Ms[pair, a, d])
        return GeneratedField(n, _MonomialMap(dim, exps, coeffs, a[entry], _names(n)), kind)

    def eval_fn(pts):
        out = np.zeros(pts.shape)
        for f, M in pairs:
            grad = np.asarray(f.gradient(pts), dtype=float)
            for a, d in zip(*np.nonzero(M)):
                out[..., a] += M[a, d] * grad[..., d]
        return out

    return GeneratedField(n, eval_fn, kind)


def _symplectic_matrix(n: int) -> np.ndarray:
    """J with J[:n, n:] = I and J[n:, :n] = -I: Hamilton's X = J grad H."""
    J, i = np.zeros((2 * n, 2 * n)), np.arange(n)
    J[i, n + i], J[n + i, i] = 1.0, -1.0
    return J


def _field_terms(alpha: TwoFormField):
    """The pairs (f, M_f) with X = sum of M_f grad f, one per distinct component.

    Coordinates are (q^1..q^n, p_1..p_n).  A slot (a, d) of f adds
    M_f[a, d] += 1 and M_f[d, a] -= 1: Q_ij at (p_i, p_j), P^ij at (q^i, q^j),
    A^i_j at (p_j, q^i); a diagonal A^i_i also adds J, its trace term.  Pairs
    are keyed by the object, so `hamiltonian_two_form`'s shared H/(n-1) is
    one pair with M = (n-1) J.
    """
    n = alpha.n
    pairs = {}
    for kind, i, j, f in alpha.components():
        a, d = {"Q": (n + i, n + j), "P": (i, j), "A": (n + j, i)}[kind]
        M = pairs.setdefault(id(f), (f, np.zeros((2 * n, 2 * n))))[1]
        M[a, d] += 1.0
        M[d, a] -= 1.0
        if kind == "A" and i == j:
            M += _symplectic_matrix(n)
    return list(pairs.values())


# Points that one call evaluates or steps at once: `_in_chunks` takes a wider
# batch a slice at a time, so no temporary grows with the batch.
_CHUNK = 1024


def _in_chunks(fn: Callable, pts: np.ndarray, width: int) -> np.ndarray:
    """The pointwise fn on (..., k) points, as (..., width).

    A single point or at most `_CHUNK` points go to fn as they are.  A wider
    batch is flattened to (N, k) and fn runs on consecutive slices of equal
    size, give or take one point, each written into one (N, width) output.
    A slice is at most `_CHUNK` points wide and never a single point, whose
    matrix product takes another BLAS routine: each row is then the one a
    single call on the whole batch gives, bit for bit.
    """
    if pts.ndim < 2 or pts.size <= _CHUNK * pts.shape[-1]:
        return fn(pts)
    flat = pts.reshape(-1, pts.shape[-1])
    out = np.empty((len(flat), width))
    count = -(-len(flat) // _CHUNK)
    edges = [len(flat) * i // count for i in range(count + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        out[start:stop] = fn(flat[start:stop])
    return out.reshape(pts.shape[:-1] + (width,))


def _lowered(exps: np.ndarray, coeffs: np.ndarray, sizes, group: np.ndarray,
             d: np.ndarray, factor: np.ndarray):
    """The partials of stacked polynomials, scaled, as stacked rows.

    (exps, coeffs) stacks polynomials in normal form, `sizes` rows each.
    Entry j differentiates polynomial `group[j]` along x^d, d = `d[j]`: it
    takes that polynomial's rows with E_d > 0, in order, lowers E_d by one
    and gives each the coefficient (c * E_d) * `factor[j]` (inf where it
    overflows), as `Polynomial.partial` and a scalar product would.
    Returns (exps, coeffs, entry) of every entry's rows, entries in order.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    counts, starts = sizes[group], np.cumsum(sizes) - sizes
    entry = np.repeat(np.arange(len(group)), counts)
    # each entry's rows: its polynomial's first row, then on in order
    rows = np.arange(len(entry)) + np.repeat(starts[group] - (np.cumsum(counts) - counts), counts)
    power = exps[rows, d[entry]]
    keep = power > 0
    entry, rows, power = entry[keep], rows[keep], power[keep]
    lowered = exps[rows]
    lowered[np.arange(len(rows)), d[entry]] -= 1
    with np.errstate(over="ignore"):
        return lowered, coeffs[rows] * power * factor[entry], entry


class _MonomialMap:
    """Y(x) = m(x) @ C on R^2n, m the monomials of one basis, C one column per output.

    The map is given as stacked rows: exponent row `exps[r]` with
    coefficient `coeffs[r]` in output column `cols[r]`.  They are merged in
    order into an (m, dim) exponent `basis` and an (m, len(names))
    coefficient matrix C; `finite` records, once, whether every coefficient
    is finite.  `tangent_map` differentiates each column of C on `basis`
    exactly: DY is the derivative of the map that runs.

    Evaluation is points-major: on x = pts.T, coordinates first, a call
    fills the ((deg + 1) * dim, ...) power table whose row e * dim + d is
    x_d^e, so row d < dim is x_d^0 = 1.  `factors` is a (width, m) table of
    such row indices: column k lists the non-unit factors x_d^e (e > 0) of
    monomial k in coordinate order, padded with row 0, and width is the
    largest count of non-unit factors in any monomial (at least 1).  The
    monomial table m(x) is the product of the gathered rows, and m(x).T @ C
    puts the outputs back in point order.  Multiplying by the padding 1.0 is
    exact and the non-unit factors are multiplied in coordinate order, so
    each monomial is exactly the coordinate-order product of all its powers.

    The evaluation plan is fixed here, once: the power table's row count,
    the (lo, mid, hi) row spans that fill power e from power e - 1, and the
    first row of `factors`, which the gather starts from, apart from the
    list of the others.  A call runs that plan and does no other work, on
    tables of its own at most `_CHUNK` points wide (`_in_chunks` slices a
    wider batch), so the map is immutable once built, its tangent map aside,
    which is compiled once, under a lock, on the first call that asks.
    `point_fn` gives a one-point evaluator that owns its power table.
    """

    def __init__(self, dim: int, exps: np.ndarray, coeffs: np.ndarray, cols, names):
        # monomials whose terms all cancel are dropped
        basis, self.C = _merge_rows(exps, coeffs, cols, len(names))
        self.finite = bool(np.isfinite(self.C).all())
        self.deg = int(basis.max(initial=0))
        # each row's power-table indices e * dim + d, the non-unit ones
        # moved to the front in coordinate order, the rest pointing at row 0
        nonunit = basis > 0
        flat = np.where(nonunit, basis * dim + np.arange(dim), 0)
        order = np.argsort(~nonunit, axis=1, kind="stable")
        width = max(int(nonunit.sum(axis=1).max(initial=0)), 1)
        self.factors = np.take_along_axis(flat, order, axis=1)[:, :width].T
        self.basis, self.names = basis, names
        self._rows = (self.deg + 1) * dim
        self._spans = [((e - 1) * dim, e * dim, (e + 1) * dim)
                       for e in range(1, self.deg + 1)]
        self._first, self._rest = self.factors[0], list(self.factors[1:])
        self._tangent_map, self._tangent_lock = None, threading.Lock()

    def tangent_map(self) -> "_MonomialMap":
        """The [Y | DY] map of the k outputs, column k + c * dim + b holding
        dY^c/dx^b (inf where a coefficient overflows); compiled once, by
        whichever thread asks first, while the others wait for it."""
        if self._tangent_map is None:
            with self._tangent_lock:
                if self._tangent_map is None:
                    self._tangent_map = self._compile_tangent()
        return self._tangent_map

    def _compile_tangent(self) -> "_MonomialMap":
        """Y's rows, column c taking the basis rows where C[:, c] is nonzero,
        then each column's partial along each x^b, lowered in one pass."""
        dim, k = self.basis.shape[1], len(self.names)
        col, row = np.nonzero(self.C.T)
        exps, coeffs = self.basis[row], self.C[row, col]
        dexps, dcoeffs, entry = _lowered(exps, coeffs, np.bincount(col, minlength=k),
                                         np.repeat(np.arange(k), dim),
                                         np.tile(np.arange(dim), k), np.ones(k * dim))
        names = self.names + [f"d{y}/d{x}" for y in self.names for x in _names(dim // 2, "")]
        return _MonomialMap(dim, np.concatenate([exps, dexps]), np.concatenate([coeffs, dcoeffs]),
                            np.concatenate([col, k + entry]), names)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """m(pts) @ C, unchecked: a non-finite entry is returned as it is."""
        return _in_chunks(self._table_product, pts, self.C.shape[1])

    def point_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """x -> m(x) @ C at one (dim,) point, bit for bit the call's result,
        on a power table this evaluator owns: its unit rows are set and its
        power views fixed here, which spares numpy's fixed cost per call.
        Each call copies x into the power-1 rows, fills the higher powers in
        place and returns a fresh array; evaluators of one map share nothing."""
        dim = self._rows // (self.deg + 1)
        # the table has a power-1 span even at degree 0
        table = np.ones((max(self.deg, 1) + 1) * dim)
        power1 = table[dim:2 * dim]
        spans = [(table[lo:mid], table[mid:hi]) for lo, mid, hi in self._spans[1:]]
        first, rest, C = self._first, self._rest, self.C

        def at_point(x: np.ndarray) -> np.ndarray:
            power1[...] = x
            for lower, higher in spans:
                np.multiply(lower, power1, out=higher)
            monos = table[first]
            for rows in rest:
                monos *= table[rows]
            return monos.dot(C)

        return at_point

    def own_sums(self, pts: np.ndarray) -> np.ndarray:
        """m(pts) @ C, each column summed over its own terms only (those of
        nonzero coefficient), so a non-finite monomial reaches only its own
        columns; silent, as the call that failed has warned already."""
        with np.errstate(all="ignore"):
            monos = self._monomials(pts)
            return np.stack([monos[c != 0].T @ c[c != 0] for c in self.C.T], axis=-1)

    def _table_product(self, pts: np.ndarray) -> np.ndarray:
        return self._monomials(pts).T @ self.C

    def _monomials(self, pts: np.ndarray) -> np.ndarray:
        """m(pts), the basis on the first axis: (m,) + pts.T.shape[1:]."""
        x = pts.T
        table = np.empty((self._rows,) + x.shape[1:])
        table[:x.shape[0]] = 1.0
        for lo, mid, hi in self._spans:
            np.multiply(table[lo:mid], x, out=table[mid:hi])
        monos = table[self._first]
        for rows in self._rest:
            monos *= table[rows]
        return monos


def hamiltonian_field(H: ScalarField, n: int) -> GeneratedField:
    """The Hamiltonian field X = J grad H, the single pair (H, J).

    A `Polynomial` H is compiled like a polynomial 2-form, so the field has
    an exact `tangent`; any other H is differentiated at every call.
    """
    return _field(n, [(H, _symplectic_matrix(n))], "hamiltonian")


def decompose(alpha: TwoFormField) -> Tuple[GeneratedField, GeneratedField]:
    """Split generate(alpha) into a Hamiltonian part and a remainder.

    Returns (X_H, X_rest) where X_H is the Hamiltonian field of tr(alpha)
    and X_rest = generate(alpha - (tr(alpha)/(n-1)) omega).  Their sum is
    the generated field of alpha.
    """
    H = trace_field(alpha)
    return hamiltonian_field(H, alpha.n), generate(traceless_part(alpha))


def feng_shang_tensor(alpha: TwoFormField, x) -> np.ndarray:
    """The antisymmetric block tensor a^{ij} = [[P, -A], [A^T, Q]] of the
    2-form alpha at the (..., 2n) points x, with its first partials.

    Blocks are indexed so that a^{ij} pairs with coordinates ordered
    (q, p): the qq block is P, the qp block is -A, the pq block is A^T,
    and the pp block is Q.  Returns one (..., 2n, 2n, 1 + 2n) array, built
    from alpha's jet at x: the values a^{ij} on [..., 0] and the partials
    da^{ij}/dx^k on [..., 1 + k].
    """
    n, pts = alpha.n, as_points(x, 2 * alpha.n)
    jet = alpha.jet_at(pts)
    Q, A, P = (np.concatenate([getattr(jet, k)[..., None], getattr(jet, f"d{k}_dq"),
                               getattr(jet, f"d{k}_dp")], axis=-1) for k in "QAP")
    out = np.zeros(pts.shape[:-1] + (2 * n, 2 * n, 1 + 2 * n))
    out[..., :n, :n, :] = P
    out[..., :n, n:, :] = -A
    out[..., n:, :n, :] = np.swapaxes(A, -3, -2)
    out[..., n:, n:, :] = Q
    return out


def feng_shang_field(alpha: TwoFormField) -> GeneratedField:
    """The divergence field X^i = da^{ij}/dx^j of alpha's block tensor
    (`feng_shang_tensor`), of kind "feng-shang".

    It agrees with generate(alpha) exactly when tr A is constant, so that
    the trace terms d(tr A)/dq and d(tr A)/dp vanish, and differs otherwise.
    """

    def eval_fn(pts):
        return np.einsum("...ijj->...i", feng_shang_tensor(alpha, pts)[..., 1:])

    return GeneratedField(alpha.n, eval_fn, "feng-shang")
