"""Dense exterior algebra on the phase-space fiber, used as a brute-force oracle.

Every k-form here is a constant form on the fiber over one point of R^{2n},
stored as an explicit map from strictly increasing index tuples to
coefficients.  Operations (wedge, interior product, the top-degree solve)
work directly on that representation with no shortcuts, so this module can
independently check the coordinate formulas implemented elsewhere in the
package.  Nothing in here evaluates fields; jets are consumed as plain
arrays of numbers.

Coordinate convention: the fiber has dimension 2n with basis covectors
ordered (dq^1, ..., dq^n, dp_1, ..., dp_n), so index i in 0..n-1 is dq^{i+1}
and index n+i is dp_{i+1}.  The symplectic form is omega = sum_i dp_i ^ dq^i
and the volume form is omega^n / n!.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "COEFF_TOL",
    "KForm",
    "PointwiseJet",
    "basis_one_form",
    "dq_form",
    "dp_form",
    "wedge",
    "omega",
    "omega_power",
    "contract",
    "nu_k",
    "solve_nu_n",
    "d_at_point",
    "trace_of",
    "two_form_from_components",
    "Lemma1Report",
    "Lemma2Report",
    "WedgeIdentityReport",
    "verify_lemma1",
    "verify_lemma2",
    "verify_wedge_identities",
]

# Coefficient-wise equality tolerance for forms.
COEFF_TOL = 1e-12

Index = Tuple[int, ...]


def _canonical(indices: Iterable[int]) -> Tuple[int, Optional[Index]]:
    """Sort indices, returning (parity sign, tuple) or (0, None) on repeats."""
    idx = list(indices)
    sign = 1
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return 0, None
    return sign, tuple(idx)


def _merge_signed(left: Index, right: Index) -> Tuple[int, Optional[Index]]:
    """Merge two strictly increasing tuples, tracking the shuffle parity."""
    out = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return 0, None
        if left[i] < right[j]:
            out.append(left[i])
            i += 1
        else:
            # right[j] crosses the len(left)-i remaining left factors
            if (len(left) - i) % 2:
                sign = -sign
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


class KForm:
    """A constant k-form on the 2n-dimensional fiber.

    Coefficients are stored over strictly increasing index tuples; the form
    is sum_I c_I dx^{i_1} ^ ... ^ dx^{i_k} over those tuples.  Zero
    coefficients may be stored or pruned; `is_zero` compares them with the
    absolute tolerance ``COEFF_TOL``.  Instances are treated as immutable.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: Optional[Dict[Index, float]] = None):
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dimension {dim}")
        self.dim = int(dim)
        self.degree = int(degree)
        clean: Dict[Index, float] = {}
        if coeffs:
            for key, val in coeffs.items():
                key = tuple(int(i) for i in key)
                if len(key) != degree:
                    raise ValueError(f"index tuple {key} has length != degree {degree}")
                if any(not 0 <= i < dim for i in key):
                    raise ValueError(f"index tuple {key} out of range for dimension {dim}")
                if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
                    raise ValueError(f"index tuple {key} is not strictly increasing")
                val = float(val)
                if val != 0.0:
                    clean[key] = clean.get(key, 0.0) + val
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, value: float) -> "KForm":
        """Degree-0 form (a scalar); omega^0 is KForm.constant(dim, 1.0)."""
        return cls(dim, 0, {(): float(value)})

    # -- accessors ---------------------------------------------------------

    def coeff(self, indices: Iterable[int]) -> float:
        """Coefficient for an index tuple in any order (0 on repeats)."""
        sign, key = _canonical(indices)
        if key is None:
            return 0.0
        return sign * self.coeffs.get(key, 0.0)

    def terms(self):
        """Iterate (indices, coefficient) sorted by index tuple."""
        return sorted(self.coeffs.items())

    def norm(self) -> float:
        if not self.coeffs:
            return 0.0
        return float(np.sqrt(sum(c * c for c in self.coeffs.values())))

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def is_zero(self, tol: float = COEFF_TOL) -> bool:
        return self.max_abs() <= tol

    # -- linear structure ----------------------------------------------------

    def scaled(self, factor: float) -> "KForm":
        return KForm(self.dim, self.degree, {k: factor * c for k, c in self.coeffs.items()})

    def __neg__(self) -> "KForm":
        return self.scaled(-1.0)

    def __mul__(self, factor: float) -> "KForm":
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def __add__(self, other: "KForm") -> "KForm":
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("can only add forms of equal dimension and degree")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return KForm(self.dim, self.degree, out)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scaled(-1.0)

    # -- display -------------------------------------------------------------

    def _basis_name(self, idx: int) -> str:
        n = self.dim // 2
        return f"dq{idx + 1}" if idx < n else f"dp{idx - n + 1}"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for key, c in self.terms():
            mono = "^".join(self._basis_name(i) for i in key) if key else "1"
            parts.append(f"{c:+.6g} {mono}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"KForm(dim={self.dim}, degree={self.degree}, {dict(self.terms())!r})"


# -- basis forms and omega ---------------------------------------------------


def basis_one_form(dim: int, index: int) -> KForm:
    """The covector dx^index."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    return KForm(dim, 1, {(index,): 1.0})


def dq_form(n: int, i: int) -> KForm:
    """dq^{i+1} on the 2n-dimensional fiber (0-based i)."""
    if not 0 <= i < n:
        raise ValueError(f"q index {i} out of range for n={n}")
    return basis_one_form(2 * n, i)


def dp_form(n: int, i: int) -> KForm:
    """dp_{i+1} on the 2n-dimensional fiber (0-based i)."""
    if not 0 <= i < n:
        raise ValueError(f"p index {i} out of range for n={n}")
    return basis_one_form(2 * n, n + i)


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.degree + b.degree > a.dim:
        raise ValueError(
            f"degree overflow: {a.degree} + {b.degree} exceeds dimension {a.dim}"
        )
    out: Dict[Index, float] = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            sign, key = _merge_signed(ka, kb)
            if key is None:
                continue
            out[key] = out.get(key, 0.0) + sign * ca * cb
    return KForm(a.dim, a.degree + b.degree, out)


def omega(n: int) -> KForm:
    """The symplectic form omega = sum_i dp_i ^ dq^i on the 2n fiber."""
    if n < 1:
        raise ValueError("n must be at least 1")
    # dp_i ^ dq^i = -(dq^i ^ dp_i), so the canonical coefficient is -1
    return KForm(2 * n, 2, {(i, n + i): -1.0 for i in range(n)})


@lru_cache(maxsize=None)
def _omega_power_cached(n: int, k: int) -> KForm:
    if k == 0:
        return KForm.constant(2 * n, 1.0)
    return wedge(_omega_power_cached(n, k - 1), omega(n))


def omega_power(n: int, k: int) -> KForm:
    """omega^k for 0 <= k <= n, with omega^0 the constant 1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= k <= n:
        raise ValueError(f"power {k} out of range 0..{n}")
    base = _omega_power_cached(n, k)
    return KForm(base.dim, base.degree, dict(base.coeffs))


def contract(x: np.ndarray, a: KForm) -> KForm:
    """Interior product i_x a of a fiber vector with a form of degree >= 1.

    The vector is ordered (X^{q^1}, ..., X^{q^n}, X^{p_1}, ..., X^{p_n}).
    """
    if a.degree < 1:
        raise ValueError("cannot contract a degree-0 form")
    x = np.asarray(x, dtype=float)
    if x.shape != (a.dim,):
        raise ValueError(f"vector shape {x.shape} does not match dimension {a.dim}")
    out: Dict[Index, float] = {}
    for key, c in a.coeffs.items():
        for pos, idx in enumerate(key):
            xv = x[idx]
            if xv == 0.0:
                continue
            sub = key[:pos] + key[pos + 1 :]
            sign = -1.0 if pos % 2 else 1.0
            out[sub] = out.get(sub, 0.0) + sign * xv * c
    return KForm(a.dim, a.degree - 1, out)


def nu_k(x: np.ndarray, n: int, k: int) -> KForm:
    """nu_k(x) = -i_x(omega^k), a (2k-1)-form; injective in x for 1 <= k <= n."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    return contract(x, omega_power(n, k)).scaled(-1.0)


@lru_cache(maxsize=None)
def _nu_n_system(n: int):
    """Basis tuples of degree 2n-1, their rows and the matrix of nu_n over them."""
    return _matrix_of([nu_k(e, n, n) for e in np.eye(2 * n)])


def _matrix_of(images):
    """The matrix of a linear map from the forms it sends the basis to.

    Rows are the sorted union of the images' index tuples and column c holds
    the coefficients of images[c].  Returns (row tuples, their row numbers,
    matrix).
    """
    keys = sorted({key for image in images for key in image.coeffs})
    row = {key: r for r, key in enumerate(keys)}
    mat = np.zeros((len(keys), len(images)))
    for c, image in enumerate(images):
        for key, val in image.coeffs.items():
            mat[row[key], c] = val
    return keys, row, mat


def solve_nu_n(target: KForm, n: int) -> np.ndarray:
    """Invert nu_n: return the unique fiber vector x with nu_n(x) = target."""
    dim = 2 * n
    if target.dim != dim or target.degree != dim - 1:
        raise ValueError(
            f"target must be a degree-{dim - 1} form on dimension {dim}, "
            f"got degree {target.degree} on dimension {target.dim}"
        )
    _, row, mat = _nu_n_system(n)
    rhs = np.zeros(dim)
    for key, c in target.coeffs.items():
        rhs[row[key]] = c
    return np.linalg.solve(mat, rhs)


# -- pointwise jets and the exterior derivative -------------------------------


@dataclass(frozen=True)
class PointwiseJet:
    """Values and first partials of a 2-form's components at one point.

    Component arrays are (n, n); partial arrays are (n, n, n) indexed
    [i, j, k] = d(component_ij)/d(q^k or p_k).  Q and P are antisymmetric in
    (i, j), as are all their partials.  Built by the field modules, consumed
    here so the oracle never touches field-evaluation code.
    """

    n: int
    Q: np.ndarray
    A: np.ndarray
    P: np.ndarray
    dQ_dq: np.ndarray
    dQ_dp: np.ndarray
    dA_dq: np.ndarray
    dA_dp: np.ndarray
    dP_dq: np.ndarray
    dP_dp: np.ndarray

    def validate(self, tol: float = 1e-9) -> None:
        n = self.n
        if n < 2:
            raise ValueError("jets require n >= 2")
        for name in ("Q", "A", "P"):
            if getattr(self, name).shape != (n, n):
                raise ValueError(f"{name} must have shape ({n}, {n})")
        for name in ("dQ_dq", "dQ_dp", "dA_dq", "dA_dp", "dP_dq", "dP_dp"):
            if getattr(self, name).shape != (n, n, n):
                raise ValueError(f"{name} must have shape ({n}, {n}, {n})")
        for name in ("Q", "P", "dQ_dq", "dQ_dp", "dP_dq", "dP_dp"):
            arr = getattr(self, name)
            skew = arr + np.swapaxes(arr, 0, 1)
            if np.max(np.abs(skew)) > tol:
                raise ValueError(f"{name} violates antisymmetry in its component indices")


def d_at_point(jet: PointwiseJet) -> KForm:
    """Exterior derivative of the 2-form at the jet's base point, as a 3-form.

    Expands d of (1/2) Q_ij dq^i^dq^j + A^i_j dp_i^dq^j + (1/2) P^ij dp_i^dp_j
    term by term from the supplied partials; no field code is invoked.
    """
    jet.validate()
    n = jet.n
    dim = 2 * n
    out: Dict[Index, float] = {}

    def add(i0: int, i1: int, i2: int, val: float) -> None:
        if val == 0.0:
            return
        sign, key = _canonical((i0, i1, i2))
        if key is None:
            return
        out[key] = out.get(key, 0.0) + sign * val

    for i in range(n):
        for j in range(n):
            for k in range(n):
                add(k, i, j, 0.5 * jet.dQ_dq[i, j, k])          # dq^k ^ dq^i ^ dq^j
                add(n + k, i, j, 0.5 * jet.dQ_dp[i, j, k])      # dp_k ^ dq^i ^ dq^j
                add(k, n + i, j, jet.dA_dq[i, j, k])            # dq^k ^ dp_i ^ dq^j
                add(n + k, n + i, j, jet.dA_dp[i, j, k])        # dp_k ^ dp_i ^ dq^j
                add(k, n + i, n + j, 0.5 * jet.dP_dq[i, j, k])  # dq^k ^ dp_i ^ dp_j
                add(n + k, n + i, n + j, 0.5 * jet.dP_dp[i, j, k])
    return KForm(dim, 3, out)


def two_form_from_components(Q: np.ndarray, A: np.ndarray, P: np.ndarray) -> KForm:
    """The degree-2 form with the given component values at one point."""
    Q = np.asarray(Q, dtype=float)
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or A.shape != (n, n) or P.shape != (n, n):
        raise ValueError("component matrices must all be (n, n)")
    for name, arr in (("Q", Q), ("P", P)):
        if np.max(np.abs(arr + arr.T)) > 1e-9:
            raise ValueError(f"{name} must be antisymmetric")
    out: Dict[Index, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if Q[i, j] != 0.0:
                out[(i, j)] = out.get((i, j), 0.0) + Q[i, j]
            if P[i, j] != 0.0:
                out[(n + i, n + j)] = out.get((n + i, n + j), 0.0) + P[i, j]
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0.0:
                # dp_i ^ dq^j = -(dq^j ^ dp_i)
                key = (j, n + i)
                out[key] = out.get(key, 0.0) - A[i, j]
    return KForm(2 * n, 2, out)


def trace_of(beta: KForm, n: int) -> float:
    """Trace of a 2-form via beta ^ omega^{n-1} = (tr beta / n) omega^n."""
    if beta.degree != 2 or beta.dim != 2 * n:
        raise ValueError("trace_of expects a 2-form on the 2n fiber")
    top = wedge(beta, omega_power(n, n - 1))
    full = tuple(range(2 * n))
    omega_n = omega_power(n, n).coeffs[full]
    return n * top.coeffs.get(full, 0.0) / omega_n


# -- brute-force lemma suites -------------------------------------------------


@dataclass(frozen=True)
class Lemma1Report:
    """Injectivity evidence for x -> nu_k(x) at fixed (n, k)."""

    n: int
    k: int
    trials: int
    min_norm_ratio: float
    sigma_min: float
    zero_maps_to_zero: bool
    passed: bool


@dataclass(frozen=True)
class Lemma2Report:
    """Injectivity evidence for a -> a ^ omega^k on 2-forms, k <= n-2."""

    n: int
    k: int
    trials: int
    min_norm_ratio: float
    sigma_min: float
    zero_maps_to_zero: bool
    iota_max_residual: Optional[float]
    passed: bool


@dataclass(frozen=True)
class WedgeIdentityReport:
    """Residuals of the two contraction identities used in the derivation."""

    n: int
    max_residual: float
    passed: bool


_RATIO_FLOOR = 1e-9


def verify_lemma1(n: int, k: int, trials: int, rng=None) -> Lemma1Report:
    """Check that nu_k is injective: random nonzero vectors map to nonzero forms.

    Also computes the exact smallest singular value of the linear map over
    the coefficient basis, which certifies injectivity independently of the
    sampled trials.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if rng is None:
        rng = np.random.default_rng(0)
    dim = 2 * n
    keys, _, mat = _matrix_of([nu_k(e, n, k) for e in np.eye(dim)])
    sigma_min = float(np.linalg.svd(mat, compute_uv=False)[-1]) if keys else 0.0

    zero_ok = nu_k(np.zeros(dim), n, k).is_zero(0.0)
    min_ratio = float("inf")
    for _ in range(trials):
        x = rng.uniform(-1.0, 1.0, dim)
        while np.linalg.norm(x) < 1e-9:
            x = rng.uniform(-1.0, 1.0, dim)
        ratio = nu_k(x, n, k).norm() / float(np.linalg.norm(x))
        min_ratio = min(min_ratio, ratio)
    passed = zero_ok and sigma_min > _RATIO_FLOOR and (
        trials == 0 or min_ratio > _RATIO_FLOOR
    )
    return Lemma1Report(n, k, trials, float(min_ratio), sigma_min, bool(zero_ok), bool(passed))


@lru_cache(maxsize=None)
def _iota_system(n: int, k: int):
    """Matrix of a -> a ^ omega^k over the 2-form coefficient basis."""
    cols = list(itertools.combinations(range(2 * n), 2))
    images = [wedge(KForm(2 * n, 2, {pair: 1.0}), omega_power(n, k)) for pair in cols]
    return (cols,) + _matrix_of(images)


def verify_lemma2(n: int, k: int, trials: int, rng=None) -> Lemma2Report:
    """Check that wedging 2-forms with omega^k is injective for 1 <= k <= n-2.

    For k = n-2 the map is onto a space of equal dimension, so the report
    additionally solves a ^ omega^{n-2} = b for random b and records the
    round-trip residual.
    """
    if n <= 2:
        raise ValueError("the nontrivial range requires n > 2")
    if not 1 <= k <= n - 2:
        raise ValueError(f"k={k} out of range 1..{n - 2}")
    if rng is None:
        rng = np.random.default_rng(0)
    dim = 2 * n
    cols, target_keys, row, mat = _iota_system(n, k)
    sigma_min = float(np.linalg.svd(mat, compute_uv=False)[-1])

    zero_ok = wedge(KForm(dim, 2), omega_power(n, k)).is_zero(0.0)
    min_ratio = float("inf")
    for _ in range(trials):
        vec = rng.uniform(-1.0, 1.0, len(cols))
        a = KForm(dim, 2, dict(zip(cols, vec)))
        min_ratio = min(min_ratio, wedge(a, omega_power(n, k)).norm() / a.norm())

    iota_res: Optional[float] = None
    if k == n - 2:
        iota_res = 0.0
        for _ in range(max(trials, 1)):
            bvec = rng.uniform(-1.0, 1.0, len(target_keys))
            avec = np.linalg.solve(mat, bvec)
            a = KForm(dim, 2, dict(zip(cols, avec)))
            back = wedge(a, omega_power(n, k))
            res = max(
                abs(back.coeffs.get(key, 0.0) - bvec[r]) for key, r in row.items()
            )
            iota_res = max(iota_res, float(res))

    passed = (
        zero_ok
        and sigma_min > _RATIO_FLOOR
        and (trials == 0 or min_ratio > _RATIO_FLOOR)
        and (iota_res is None or iota_res <= 1e-12)
    )
    return Lemma2Report(
        n, k, trials, float(min_ratio), sigma_min, bool(zero_ok), iota_res, bool(passed)
    )


def verify_wedge_identities(n: int, tol: float = 1e-12) -> WedgeIdentityReport:
    """Coefficient-wise check of the two contraction identities, all (i, j, k).

    (n-1) dp_i^dp_j^dq^k^omega^{n-2} = delta^k_j dp_i^omega^{n-1}
                                       - delta^k_i dp_j^omega^{n-1}
    (n-1) dp_i^dq^j^dq^k^omega^{n-2} = delta^j_i dq^k^omega^{n-1}
                                       - delta^k_i dq^j^omega^{n-1}
    """
    if n < 2:
        raise ValueError("the identities require n >= 2")
    w_nm2 = omega_power(n, n - 2)
    w_nm1 = omega_power(n, n - 1)
    max_res = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs1 = wedge(wedge(wedge(dp_form(n, i), dp_form(n, j)), dq_form(n, k)), w_nm2)
                rhs1 = KForm(2 * n, 2 * n - 1)
                if k == j:
                    rhs1 = rhs1 + wedge(dp_form(n, i), w_nm1).scaled(1.0 / (n - 1))
                if k == i:
                    rhs1 = rhs1 - wedge(dp_form(n, j), w_nm1).scaled(1.0 / (n - 1))
                max_res = max(max_res, (lhs1 - rhs1).max_abs())

                lhs2 = wedge(wedge(wedge(dp_form(n, i), dq_form(n, j)), dq_form(n, k)), w_nm2)
                rhs2 = KForm(2 * n, 2 * n - 1)
                if j == i:
                    rhs2 = rhs2 + wedge(dq_form(n, k), w_nm1).scaled(1.0 / (n - 1))
                if k == i:
                    rhs2 = rhs2 - wedge(dq_form(n, j), w_nm1).scaled(1.0 / (n - 1))
                max_res = max(max_res, (lhs2 - rhs2).max_abs())
    return WedgeIdentityReport(n, float(max_res), bool(max_res <= tol))
