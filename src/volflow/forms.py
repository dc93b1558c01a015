"""Scalar fields, 1-forms, and 2-form fields on R^{2n} phase space.

Points are ordered (q^1, ..., q^n, p_1, ..., p_n).  Field callables receive
plain float arrays of shape (..., 2n) and must broadcast over the leading
axes; `PhaseState` is accepted at every public entry point and converted.

Two kinds of scalar field coexist.  `Polynomial` carries exact derivatives
of every order, which matters for gauge shifts (whose output components
contain second partials of the supplied 1-form).  The generic `ScalarField`
wraps arbitrary callables and falls back to central finite differences when
no gradient is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .exterior import PointwiseJet

__all__ = [
    "FD_STEP",
    "FieldEvaluationError",
    "PhaseState",
    "as_points",
    "ScalarField",
    "Polynomial",
    "poly_variables",
    "OneFormField",
    "TwoFormField",
    "hamiltonian_two_form",
    "linear_system_two_form",
    "trace_field",
    "traceless_part",
    "gauge_shift",
    "check_gradient",
]

# Relative step for central finite differences: h = FD_STEP * (1 + |coordinate|).
FD_STEP = 1e-5


class FieldEvaluationError(RuntimeError):
    """A field component produced a non-finite value."""

    def __init__(self, component: str, message: Optional[str] = None):
        self.component = component
        super().__init__(message or f"non-finite evaluation in component {component}")


@dataclass(frozen=True)
class PhaseState:
    """A point (q, p) of phase space; components must be finite."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if not (np.isfinite(q).all() and np.isfinite(p).all()):
            raise ValueError("phase-space points must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_array(cls, arr) -> "PhaseState":
        arr = np.asarray(arr, dtype=float)
        if arr.ndim != 1 or arr.shape[0] % 2:
            raise ValueError("expected a flat array of even length")
        n = arr.shape[0] // 2
        return cls(arr[:n], arr[n:])


def as_points(x, dim: Optional[int] = None) -> np.ndarray:
    """Convert a PhaseState or array-like to a float array of shape (..., 2n)."""
    if isinstance(x, PhaseState):
        pts = x.as_array()
    else:
        pts = np.asarray(x, dtype=float)
    if dim is not None and (pts.ndim == 0 or pts.shape[-1] != dim):
        raise ValueError(f"expected points with last axis {dim}, got shape {pts.shape}")
    return pts


def _fd_jacobian(fn: Callable, pts: np.ndarray) -> np.ndarray:
    """d fn/dx^b stacked on a new last axis, by central differences with step
    h = FD_STEP * (1 + |x_b|): the gradient of a scalar fn, and of a field
    the Jacobian J[..., a, b] = dX^a/dx^b."""
    cols = []
    for b in range(pts.shape[-1]):
        h = FD_STEP * (1.0 + np.abs(pts[..., b]))
        plus = pts.copy()
        minus = pts.copy()
        plus[..., b] += h
        minus[..., b] -= h
        diff = np.asarray(fn(plus) - fn(minus))
        cols.append(diff / (2.0 * (h if diff.ndim <= h.ndim else h[..., None])))
    return np.stack(cols, axis=-1)


class ScalarField:
    """A real function of phase points with a (possibly finite-difference) gradient.

    Parameters
    ----------
    value_fn : callable
        Maps float arrays of shape (..., 2n) to values of shape (...,).
    gradient_fn : callable, optional
        Maps (..., 2n) points to (..., 2n) gradients.  When omitted, the
        gradient is taken by central differences with step
        ``FD_STEP * (1 + |x_i|)`` per coordinate.
    """

    def __init__(self, value_fn: Callable, gradient_fn: Optional[Callable] = None):
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn

    def value(self, x):
        return self._value_fn(as_points(x))

    def gradient(self, x) -> np.ndarray:
        pts = as_points(x)
        if self._gradient_fn is not None:
            return np.asarray(self._gradient_fn(pts), dtype=float)
        return _fd_jacobian(self._value_fn, pts)

    def partial(self, i: int) -> "ScalarField":
        """The i-th first partial as a field (finite-difference gradient)."""
        return ScalarField(lambda pts, _i=i: self.gradient(pts)[..., _i])

    # -- arithmetic (sum/product rules on the gradients) ---------------------

    def __add__(self, other):
        other = _as_field(other)
        return ScalarField(
            lambda pts: self.value(pts) + other.value(pts),
            lambda pts: self.gradient(pts) + other.gradient(pts),
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_field(other))

    def __rsub__(self, other):
        return _as_field(other) + (-self)

    def __neg__(self):
        return ScalarField(
            lambda pts: -self.value(pts),
            lambda pts: -self.gradient(pts),
        )

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(
                lambda pts: self.value(pts) * other.value(pts),
                lambda pts: self.gradient(pts) * np.asarray(other.value(pts))[..., None]
                + np.asarray(self.value(pts))[..., None] * other.gradient(pts),
            )
        factor = float(other)
        return ScalarField(
            lambda pts: factor * self.value(pts),
            lambda pts: factor * self.gradient(pts),
        )

    __rmul__ = __mul__


def _as_field(obj) -> ScalarField:
    if isinstance(obj, ScalarField):
        return obj
    value = float(obj)
    return ScalarField(
        lambda pts: np.full(pts.shape[:-1], value),
        lambda pts: np.zeros(pts.shape),
    )


class Polynomial(ScalarField):
    """A polynomial in the 2n coordinates with exact derivatives of all orders.

    Terms are stored as an (m, dim) integer exponent array and an (m,)
    coefficient array.  All arithmetic stays within the class, so gradients
    and repeated partials are exact.
    """

    def __init__(self, dim: int, terms):
        self.dim = int(dim)
        if isinstance(terms, dict):
            if terms:
                exps = np.array([tuple(k) for k in terms.keys()], dtype=np.int64)
                coeffs = np.array([float(v) for v in terms.values()])
            else:
                exps = np.zeros((0, dim), dtype=np.int64)
                coeffs = np.zeros(0)
        else:
            exps, coeffs = terms
            exps = np.asarray(exps, dtype=np.int64).reshape(-1, dim)
            coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if exps.shape[1] != dim:
            raise ValueError("exponent tuples must have one entry per coordinate")
        if np.any(exps < 0):
            raise ValueError("exponents must be non-negative")
        # duplicate rows merged, zero coefficients dropped, rows sorted lexically
        self._exps, C = _merge_rows(exps, coeffs, 0, 1)
        self._coeffs = C[:, 0]
        self._partials: Dict[int, "Polynomial"] = {}

    # -- evaluation ----------------------------------------------------------

    def value(self, x):
        pts = as_points(x, self.dim)
        if self._exps.shape[0] == 0:
            return np.zeros(pts.shape[:-1])
        monos = np.prod(pts[..., None, :] ** self._exps, axis=-1)
        return monos @ self._coeffs

    def gradient(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        return np.stack([self.partial(i).value(pts) for i in range(self.dim)], axis=-1)

    def partial(self, i: int) -> "Polynomial":
        if not 0 <= i < self.dim:
            raise ValueError(f"coordinate index {i} out of range")
        if i not in self._partials:
            keep = self._exps[:, i] > 0
            exps = self._exps[keep]
            coeffs = self._coeffs[keep] * exps[:, i]
            exps[:, i] -= 1
            # Lowering one exponent of every kept row leaves the rows
            # distinct and lexically sorted.
            self._partials[i] = Polynomial._normal(self.dim, exps, coeffs)
        return self._partials[i]

    @classmethod
    def _normal(cls, dim: int, exps: np.ndarray, coeffs: np.ndarray) -> "Polynomial":
        """The polynomial of rows already in normal form, without a merge.

        `exps` must be distinct int64 rows in lexical order, as `_merge_rows`
        leaves them; only the rows whose coefficient is zero are dropped
        (NaN and inf rows are kept, as the merge keeps them).  A caller may
        skip the merge when it keeps a normal polynomial's rows, or lowers
        one exponent of rows that all have it positive: `partial`, `-p` and
        `p * scalar` (where a product that underflows to 0.0 drops its row).
        """
        if np.count_nonzero(coeffs) < coeffs.shape[0]:
            keep = coeffs != 0.0
            exps, coeffs = exps[keep], coeffs[keep]
        out = cls.__new__(cls)
        out.dim, out._exps, out._coeffs, out._partials = dim, exps, coeffs, {}
        return out

    # -- exact arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Polynomial) and other.dim == self.dim:
            return Polynomial(
                self.dim,
                (np.vstack([self._exps, other._exps]),
                 np.concatenate([self._coeffs, other._coeffs])),
            )
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return self + Polynomial.constant(self.dim, float(other))
        return super().__add__(other)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._normal(self.dim, self._exps, -self._coeffs)

    def __sub__(self, other):
        if isinstance(other, (Polynomial, int, float)):
            return self + (-other if isinstance(other, Polynomial)
                           else Polynomial.constant(self.dim, -float(other)))
        return super().__sub__(other)

    def __mul__(self, other):
        if isinstance(other, Polynomial) and other.dim == self.dim:
            if self._exps.shape[0] == 0 or other._exps.shape[0] == 0:
                return Polynomial.zero(self.dim)
            exps = (self._exps[:, None, :] + other._exps[None, :, :]).reshape(-1, self.dim)
            coeffs = (self._coeffs[:, None] * other._coeffs[None, :]).reshape(-1)
            return Polynomial(self.dim, (exps, coeffs))
        if isinstance(other, (int, float)) and not isinstance(other, bool):
            return Polynomial._normal(self.dim, self._exps, float(other) * self._coeffs)
        return super().__mul__(other)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are supported")
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(k):
            out = out * self
        return out

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: float) -> "Polynomial":
        return cls(dim, {tuple([0] * dim): float(value)})

    @classmethod
    def coordinate(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"coordinate index {index} out of range")
        exp = [0] * dim
        exp[index] = 1
        return cls(dim, {tuple(exp): 1.0})

    def terms(self) -> Dict[Tuple[int, ...], float]:
        return {tuple(int(e) for e in row): float(c)
                for row, c in zip(self._exps, self._coeffs)}

    def __repr__(self):
        return f"Polynomial(dim={self.dim}, terms={self.terms()!r})"


def _merge_rows(exps: np.ndarray, coeffs: np.ndarray, cols, width: int):
    """Sum the coefficients that share an exponent row and an output column.

    Returns (basis, C): basis holds the distinct rows of `exps` in lexical
    order and C[k, c] the sum of the `coeffs` whose row is basis[k] and
    whose column (`cols`, one per coefficient, or one int for all) is c.
    Rows of C that are all zero are dropped, with their basis rows.

    One stable lexsort of the rows, first coordinate the primary key, puts
    equal rows next to each other; a row that differs from its predecessor
    starts a new basis row, and the running count of those starts is each
    row's index in the basis.  That is the lexical basis and the inverse of
    `np.unique(exps, axis=0, return_inverse=True)`, for any int64 exponent,
    and `np.add.at` sums each basis row's coefficients in input order, so C
    is bit for bit the same as well.  Zero-width rows are all equal.
    """
    order = (np.lexsort(exps.T[::-1]) if exps.shape[1]
             else np.arange(exps.shape[0]))
    ordered = exps[order]
    new = np.ones(order.shape[0], dtype=bool)
    (ordered[1:] != ordered[:-1]).any(axis=1, out=new[1:])
    inverse = np.empty_like(order)
    inverse[order] = new.cumsum() - 1
    basis = ordered[new]
    C = np.zeros((basis.shape[0], width))
    np.add.at(C, (inverse, cols), coeffs)
    keep = (C != 0.0).any(axis=1)
    return basis[keep], C[keep]


def poly_variables(n: int):
    """Coordinate polynomials (q_list, p_list) on the 2n-dimensional space."""
    dim = 2 * n
    q = [Polynomial.coordinate(dim, i) for i in range(n)]
    p = [Polynomial.coordinate(dim, n + i) for i in range(n)]
    return q, p


@dataclass(frozen=True)
class OneFormField:
    """A 1-form b_i dq^i + c^i dp_i with ScalarField components (None = zero)."""

    n: int
    dq_parts: Tuple[Optional[ScalarField], ...]
    dp_parts: Tuple[Optional[ScalarField], ...]

    def __post_init__(self):
        if len(self.dq_parts) != self.n or len(self.dp_parts) != self.n:
            raise ValueError("component tuples must have length n")

    @classmethod
    def from_components(cls, n: int, dq: Optional[Dict[int, ScalarField]] = None,
                        dp: Optional[Dict[int, ScalarField]] = None) -> "OneFormField":
        dq = dq or {}
        dp = dp or {}
        for label, comps in (("dq", dq), ("dp", dp)):
            for i in comps:
                if not 0 <= i < n:
                    raise ValueError(f"{label} index {i} out of range for n={n}")
        return cls(
            n,
            tuple(dq.get(i) for i in range(n)),
            tuple(dp.get(i) for i in range(n)),
        )


class TwoFormField:
    """A 2-form field (1/2) Q_ij dq^i^dq^j + A^i_j dp_i^dq^j + (1/2) P^ij dp_i^dp_j.

    Q and P are stored for i < j only (the antisymmetric reflection is
    implied); A is stored for any (i, j).  Components are ScalarFields;
    missing components are zero.  Requires n >= 2.
    """

    def __init__(self, n: int,
                 Q: Optional[Dict[Tuple[int, int], ScalarField]] = None,
                 A: Optional[Dict[Tuple[int, int], ScalarField]] = None,
                 P: Optional[Dict[Tuple[int, int], ScalarField]] = None):
        if n < 2:
            raise ValueError("2-form fields require n >= 2")
        self.n = int(n)
        self._Q = self._check_upper("Q", Q)
        self._A = self._check_any("A", A)
        self._P = self._check_upper("P", P)

    def _check_upper(self, name, comps):
        out = {}
        for (i, j), f in (comps or {}).items():
            if not (0 <= i < j < self.n):
                raise ValueError(
                    f"{name}[{i},{j}]: store only the strict upper triangle "
                    f"(0 <= i < j < {self.n}); the reflection is implied"
                )
            if not isinstance(f, ScalarField):
                raise TypeError(f"{name}[{i},{j}] must be a ScalarField")
            out[(i, j)] = f
        return out

    def _check_any(self, name, comps):
        out = {}
        for (i, j), f in (comps or {}).items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"{name}[{i},{j}] out of range for n={self.n}")
            if not isinstance(f, ScalarField):
                raise TypeError(f"{name}[{i},{j}] must be a ScalarField")
            out[(i, j)] = f
        return out

    # -- component access ------------------------------------------------------

    def Q_entry(self, i: int, j: int) -> Optional[ScalarField]:
        if i == j:
            return None
        if i < j:
            return self._Q.get((i, j))
        f = self._Q.get((j, i))
        return None if f is None else -f

    def A_entry(self, i: int, j: int) -> Optional[ScalarField]:
        return self._A.get((i, j))

    def P_entry(self, i: int, j: int) -> Optional[ScalarField]:
        if i == j:
            return None
        if i < j:
            return self._P.get((i, j))
        f = self._P.get((j, i))
        return None if f is None else -f

    def components(self):
        """Iterate (kind, i, j, field) over stored components."""
        for (i, j), f in sorted(self._Q.items()):
            yield ("Q", i, j, f)
        for (i, j), f in sorted(self._A.items()):
            yield ("A", i, j, f)
        for (i, j), f in sorted(self._P.items()):
            yield ("P", i, j, f)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "TwoFormField") -> "TwoFormField":
        if not isinstance(other, TwoFormField) or other.n != self.n:
            raise ValueError("can only add 2-form fields on the same space")

        def merge(a, b):
            out = dict(a)
            for key, f in b.items():
                out[key] = f if key not in out else out[key] + f
            return out

        return TwoFormField(self.n, Q=merge(self._Q, other._Q),
                            A=merge(self._A, other._A), P=merge(self._P, other._P))

    def __mul__(self, factor: float) -> "TwoFormField":
        factor = float(factor)
        scale = lambda comps: {k: f * factor for k, f in comps.items()}
        return TwoFormField(self.n, Q=scale(self._Q), A=scale(self._A), P=scale(self._P))

    __rmul__ = __mul__

    def __neg__(self) -> "TwoFormField":
        return self * -1.0

    def __sub__(self, other: "TwoFormField") -> "TwoFormField":
        return self + (other * -1.0)

    # -- jets ----------------------------------------------------------------------

    def jet_at(self, x) -> PointwiseJet:
        """Component values and first partials at x (batched points allowed)."""
        pts = as_points(x, 2 * self.n)
        n = self.n
        batch = pts.shape[:-1]
        arrays = {
            name: np.zeros(batch + (n, n)) for name in ("Q", "A", "P")
        }
        darrays = {
            name: np.zeros(batch + (n, n, n))
            for name in ("dQ_dq", "dQ_dp", "dA_dq", "dA_dp", "dP_dq", "dP_dp")
        }
        for kind, i, j, f in self.components():
            v = np.asarray(f.value(pts), dtype=float)
            g = np.asarray(f.gradient(pts), dtype=float)
            if not (np.isfinite(v).all() and np.isfinite(g).all()):
                raise FieldEvaluationError(f"{kind}[{i},{j}]")
            arrays[kind][..., i, j] = v
            darrays[f"d{kind}_dq"][..., i, j, :] = g[..., :n]
            darrays[f"d{kind}_dp"][..., i, j, :] = g[..., n:]
            if kind in ("Q", "P"):
                arrays[kind][..., j, i] = -v
                darrays[f"d{kind}_dq"][..., j, i, :] = -g[..., :n]
                darrays[f"d{kind}_dp"][..., j, i, :] = -g[..., n:]
        return PointwiseJet(n=n, **arrays, **darrays)


def hamiltonian_two_form(H: ScalarField, n: int) -> TwoFormField:
    """The 2-form H omega / (n - 1), whose generated field is Hamiltonian.

    Component form: A^i_j = H delta^i_j / (n - 1), Q = P = 0.  Requires
    n >= 2 (the n = 1 Hamiltonian route goes through the generator module
    directly).
    """
    if n < 2:
        raise ValueError("the construction requires n >= 2")
    if not isinstance(H, ScalarField):
        raise TypeError("H must be a ScalarField")
    scaled = H * (1.0 / (n - 1))
    return TwoFormField(n, A={(i, i): scaled for i in range(n)})


def linear_system_two_form(spec) -> TwoFormField:
    """Generating 2-form of a linear second-order system q-ddot = -k q.

    H omega/(n-1) plus the antisymmetric correction
    Q_ij = -a_ij p_k q^k, where s and a are the symmetric and antisymmetric
    parts of k and H = (p.p)/2 + (s q.q)/2.
    """
    n = spec.n
    if n < 2:
        raise ValueError("the 2-form route requires n >= 2; use the direct field for n = 1")
    return hamiltonian_two_form(spec.hamiltonian(), n) + _antisymmetric_two_form(spec.a)


def _antisymmetric_two_form(a: np.ndarray) -> TwoFormField:
    """The 2-form Q_ij = -a_ij p_k q^k of an antisymmetric (n, n) matrix a."""
    n = a.shape[0]
    q, p = poly_variables(n)
    pq = sum((p[k] * q[k] for k in range(n)), Polynomial.zero(2 * n))
    return TwoFormField(n, Q={(i, j): pq * (-a[i, j]) for i in range(n)
                              for j in range(i + 1, n) if a[i, j] != 0.0})


def trace_field(alpha: TwoFormField) -> ScalarField:
    """tr(alpha) = A^i_i as a scalar field, the coefficient pairing alpha
    with omega^{n-1}; its value at x is `trace_field(alpha).value(x)`."""
    diag = [alpha.A_entry(i, i) for i in range(alpha.n)]
    diag = [f for f in diag if f is not None]
    if not diag:
        return Polynomial.zero(2 * alpha.n)
    total = diag[0]
    for f in diag[1:]:
        total = total + f
    return total

def traceless_part(alpha: TwoFormField) -> TwoFormField:
    """alpha - (tr(alpha)/(n-1)) omega, the non-Hamiltonian remainder.

    Note the result is not literally trace-free: its trace is
    -tr(alpha)/(n-1).  The subtraction is exactly the one whose generated
    field complements the Hamiltonian part of the decomposition, so it is
    kept as is rather than renormalized.
    """
    n = alpha.n
    correction = trace_field(alpha) * (1.0 / (n - 1))
    A = dict(alpha._A)
    for i in range(n):
        if (i, i) in A:
            A[(i, i)] = A[(i, i)] - correction
        else:
            A[(i, i)] = correction * -1.0
    return TwoFormField(n, Q=dict(alpha._Q), A=A, P=dict(alpha._P))


def gauge_shift(alpha: TwoFormField, beta: OneFormField) -> TwoFormField:
    """alpha + d(beta): shift by an exact (hence closed) 2-form.

    With beta = b_j dq^j + c^j dp_j the added components are
    Q_ij += db_j/dq^i - db_i/dq^j, A^i_j += db_j/dp_i - dc^i/dq^j,
    P^ij += dc^j/dp_i - dc^i/dp_j.  The generated vector field is unchanged
    by any such shift.
    """
    n = alpha.n
    if beta.n != n:
        raise ValueError("alpha and beta must live on the same space")
    b, c = beta.dq_parts, beta.dp_parts

    def d_dq(f, k):
        return None if f is None else f.partial(k)

    def d_dp(f, k):
        return None if f is None else f.partial(n + k)

    def combine(plus, minus):
        if plus is None and minus is None:
            return None
        if plus is None:
            return -minus
        if minus is None:
            return plus
        return plus - minus

    Q_add, A_add, P_add = {}, {}, {}
    for i in range(n):
        for j in range(n):
            if i < j:
                qa = combine(d_dq(b[j], i), d_dq(b[i], j))
                if qa is not None:
                    Q_add[(i, j)] = qa
                pa = combine(d_dp(c[j], i), d_dp(c[i], j))
                if pa is not None:
                    P_add[(i, j)] = pa
            aa = combine(d_dp(b[j], i), d_dq(c[i], j))
            if aa is not None:
                A_add[(i, j)] = aa
    return alpha + TwoFormField(n, Q=Q_add, A=A_add, P=P_add)


def check_gradient(field: ScalarField, points, tol: float = 1e-6) -> float:
    """Max scaled residual between the analytic and finite-difference gradient.

    Residuals are |analytic - fd| / (1 + |analytic|) componentwise; the
    return value is the max over the supplied points.
    """
    pts = as_points(points)
    analytic = field.gradient(pts)
    fd = _fd_jacobian(field.value, pts)
    scaled = np.abs(analytic - fd) / (1.0 + np.abs(analytic))
    return float(np.max(scaled))
