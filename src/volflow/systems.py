"""Ready-made systems: linear flows, drifts, and random polynomial 2-forms.

Each factory returns a `SystemInstance` bundling the generating 2-form,
the generated field, an exact solution when one exists, and a sensible
default initial condition.  The linear family covers the classical
examples: a second-order system qddot = -k q splits k into symmetric and
antisymmetric parts; the symmetric part enters a quadratic Hamiltonian
and the antisymmetric part enters a q-q component of the 2-form, so the
full (generally non-Hamiltonian) dynamics is still generated and still
preserves volume.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .forms import (
    OneFormField,
    Polynomial,
    ScalarField,
    TwoFormField,
    _antisymmetric_two_form,
    _merge_rows,
    linear_system_two_form,
    poly_variables,
)
from .generator import GeneratedField, generate, hamiltonian_field

__all__ = [
    "DRIFT_SIGN",
    "LinearSystemSpec",
    "SystemInstance",
    "harmonic_oscillator",
    "coupled_oscillators",
    "linear_system",
    "drift_system",
    "random_polynomial",
    "random_two_form",
    "random_one_form",
    "random_alpha_system",
    "zero_system",
    "SYSTEM_BUILDERS",
    "build_system",
]

# Orientation of the pure-drift solution p(t) = p0 + DRIFT_SIGN * t * (a q0).
DRIFT_SIGN = -1.0


@dataclass(frozen=True)
class LinearSystemSpec:
    """A linear second-order system qddot = -k q on n degrees of freedom.

    `s` and `a` are the symmetric and antisymmetric parts of k.  The
    first-order form is xdot = M x with M = [[0, I], [-k, 0]]; tr M = 0,
    so the flow preserves volume for every k, symmetric or not.
    """

    k: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("k must be a square matrix")
        if not np.isfinite(k).all():
            raise ValueError("k must be finite (NaN and Infinity are not allowed)")
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return self.k.shape[0]

    # halving first is exact and cannot overflow, as k + k.T can
    @property
    def s(self) -> np.ndarray:
        return 0.5 * self.k + 0.5 * self.k.T

    @property
    def a(self) -> np.ndarray:
        return 0.5 * self.k - 0.5 * self.k.T

    def hamiltonian(self) -> Polynomial:
        """H = |p|^2/2 + q.s.q/2, the energy of the symmetric part."""
        n = self.n
        q, p = poly_variables(n)
        H = Polynomial.zero(2 * n)
        s = self.s
        for i in range(n):
            H = H + p[i] * p[i] * 0.5
            for j in range(n):
                if s[i, j] != 0.0:
                    H = H + q[i] * q[j] * (0.5 * s[i, j])
        return H

    def first_order_matrix(self) -> np.ndarray:
        n = self.n
        M = np.zeros((2 * n, 2 * n))
        M[:n, n:] = np.eye(n)
        M[n:, :n] = -self.k
        return M

    def flow(self, t: float, x0) -> np.ndarray:
        """Exact solution expm(t M) x0 (handles defective M)."""
        from scipy.linalg import expm  # the only use of scipy: keep it out of `import volflow`

        x0 = np.asarray(x0, dtype=float)
        return expm(float(t) * self.first_order_matrix()) @ x0

    def direct_field(self) -> GeneratedField:
        """qdot = p, pdot = -k q assembled without the 2-form route."""
        n = self.n
        k = self.k

        def eval_fn(pts):
            return np.concatenate(
                [pts[..., n:], -np.einsum("ij,...j->...i", k, pts[..., :n])],
                axis=-1,
            )

        return GeneratedField(n, eval_fn, "linear-direct")


@dataclass
class SystemInstance:
    """A named dynamical system ready for integration and verification.

    `invariants_expected` names which structural properties the system
    should exhibit: keys "volume", "energy", "symplectic" with boolean
    values.  Every generated system preserves volume; only the a = 0
    (Hamiltonian) ones are symplectic.
    """

    name: str
    n: int
    field: GeneratedField
    alpha: Optional[TwoFormField] = None
    hamiltonian: Optional[ScalarField] = None
    analytic: Optional[Callable] = None
    default_x0: np.ndarray = dc_field(default_factory=lambda: np.zeros(0))
    invariants_expected: Dict[str, bool] = dc_field(default_factory=dict)


def _integer(name: str, value, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """value as an int from `low` to `high` (None: unbounded); a bool, a
    number with a fractional part, anything `int` refuses or an int out of
    bounds raises `ValueError` naming `name`, so no setting is silently
    truncated."""
    fractional = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            out = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if (low is None or out >= low) and (high is None or out <= high):
                return out
            bounds = [f">= {low}"] * (low is not None) + [f"<= {high}"] * (high is not None)
            raise ValueError(f"{name} must be an integer {' and '.join(bounds)}, got {out}")
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_number(value) -> bool:
    """True for a JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_KINDS = ("a {}number", "a list of {}numbers",
          "a matrix of {}numbers (a list of equal-length lists)")


def _reals(name: str, value, ndim: int = 0, finite: bool = True):
    """value, JSON numbers nested `ndim` deep (a number, a list or a list of
    equal-length lists), as a float or float array; a bool, a string or a
    ragged list, or with `finite` a number that is not finite as a float,
    raises `ValueError` naming `name`."""
    entries = np.array(value, dtype=object)
    if entries.ndim == ndim and all(map(_is_number, entries.flat)):
        try:
            out = entries.astype(float)
        except OverflowError:  # an int beyond the floats
            out = np.full(entries.shape, np.inf)
        if not finite or np.isfinite(out).all():
            return float(out) if ndim == 0 else out
    kind = _KINDS[ndim].format("finite " if finite else "")
    raise ValueError(f"{name} must be {kind}, got {value!r}")


# The largest n whose 2n coordinates numpy can index.
_MAX_N = np.iinfo(np.intp).max // 2


def _default_linear_x0(n: int) -> np.ndarray:
    x0 = np.zeros(2 * n)
    x0[0] = 1.0
    x0[n + min(1, n - 1)] = 0.5
    return x0


def linear_system(k, name: str = "linear") -> SystemInstance:
    """System from qddot = -k q; the 2-form route for n >= 2, and for n = 1
    (where k has no antisymmetric part) the Hamiltonian field of H."""
    spec = LinearSystemSpec(np.asarray(k, dtype=float))
    if spec.n < 1:
        raise ValueError("linear systems need n >= 1")
    symplectic = bool(np.allclose(spec.a, 0.0))
    if spec.n >= 2:
        alpha = linear_system_two_form(spec)
        field = generate(alpha)
    else:
        alpha = None
        field = hamiltonian_field(spec.hamiltonian(), 1)
    return SystemInstance(
        name=name,
        n=spec.n,
        field=field,
        alpha=alpha,
        hamiltonian=spec.hamiltonian(),
        analytic=spec.flow,
        default_x0=_default_linear_x0(spec.n),
        invariants_expected={"volume": True, "energy": symplectic,
                             "symplectic": symplectic},
    )


def harmonic_oscillator(n: int = 2, omega_freqs=None) -> SystemInstance:
    """n uncoupled oscillators, H = sum (p_i^2 + w_i^2 q_i^2)/2.

    Frequencies default to one, in which case every orbit closes with
    period 2 pi.  The analytic solution is the componentwise rotation
    q_i(t) = q_i cos(w_i t) + (p_i/w_i) sin(w_i t).
    """
    if n < 1:
        raise ValueError("harmonic oscillators need n >= 1")
    if omega_freqs is None:
        omega_freqs = np.ones(n)
    w = np.asarray(omega_freqs, dtype=float)
    if w.shape != (n,) or not np.all((w > 0) & (w < 1e154)):  # w ** 2 stays finite
        raise ValueError("omega_freqs must be n positive reals below 1e154")
    inst = linear_system(np.diag(w ** 2), name="harmonic")

    def analytic(t, x0):
        x0 = np.asarray(x0, dtype=float)
        q0, p0 = x0[:n], x0[n:]
        c, s = np.cos(w * float(t)), np.sin(w * float(t))
        return np.concatenate([q0 * c + (p0 / w) * s, p0 * c - w * q0 * s])

    inst.analytic = analytic
    return inst


COUPLED_K = np.array([[-1.0, 1.0], [0.5, -0.5]])


def coupled_oscillators() -> SystemInstance:
    """The two-mass example with a non-symmetric coefficient matrix.

    k = [[-1, 1], [1/2, -1/2]] has antisymmetric part a12 = 1/4, so the
    system is not Hamiltonian in the canonical coordinates; -k has
    eigenvalues 0 and 3/2, so solutions grow like exp(t sqrt(3/2)) while
    the flow still preserves phase-space volume exactly.
    """
    inst = linear_system(COUPLED_K, name="coupled-oscillators")
    inst.default_x0 = np.array([1.0, 0.5, -0.2, 0.3])
    return inst


def drift_system(a, q0=None) -> SystemInstance:
    """Zero Hamiltonian, pure q-q 2-form: q frozen, p drifts linearly.

    Components Q_ij = -a_ij p_k q^k for an antisymmetric matrix a.  Exact
    solution q(t) = q0, p(t) = p0 + DRIFT_SIGN * t * (a q0); the momenta
    are linear in t and the positions are conserved quantities.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("a must be a square matrix")
    if not np.allclose(a, -a.T, atol=1e-12):
        raise ValueError("a must be antisymmetric")
    n = a.shape[0]
    if n < 2:
        raise ValueError("drift systems need n >= 2")
    if q0 is None:
        q0 = np.zeros(n)
        q0[0] = 1.0
    q0 = np.asarray(q0, dtype=float)
    if q0.shape != (n,):
        raise ValueError("q0 must have length n")

    alpha = _antisymmetric_two_form(a)

    def analytic(t, x0):
        x0 = np.asarray(x0, dtype=float)
        out = x0.copy()
        out[n:] = x0[n:] + DRIFT_SIGN * float(t) * (a @ x0[:n])
        return out

    return SystemInstance(
        name="drift",
        n=n,
        field=generate(alpha),
        alpha=alpha,
        hamiltonian=Polynomial.zero(2 * n),
        analytic=analytic,
        default_x0=np.concatenate([q0, np.zeros(n)]),
        invariants_expected={"volume": True, "energy": True, "symplectic": False},
    )


def random_polynomial(dim: int, rng: np.random.Generator, degree: int = 3,
                      max_terms: int = 4, scale: float = 1.0) -> Polynomial:
    """A random polynomial with up to max_terms monomials of total degree <= degree."""
    exps = np.zeros((max_terms, dim), dtype=np.int64)
    coeffs = np.empty(max_terms)
    for t in range(max_terms):
        for _ in range(int(rng.integers(0, degree + 1))):
            exps[t, int(rng.integers(0, dim))] += 1
        coeffs[t] = scale * float(rng.uniform(-1.0, 1.0))
    # a monomial drawn twice is summed in draw order by the merge
    return Polynomial(dim, (exps, coeffs))


def _random_polynomials(k: int, dim: int, rng: np.random.Generator, degree: int = 3,
                        max_terms: int = 4, scale: float = 1.0) -> List[Polynomial]:
    """k random polynomials of `random_polynomial`'s distribution, drawn at once.

    One draw each of the k * max_terms term degrees (uniform on 0..degree),
    of all their coordinates (uniform) and of the coefficients (uniform on
    [-1, 1] * scale), so the stream is not `random_polynomial`'s.  The
    exponent rows are built with one `np.add.at` and merged once, keyed by
    polynomial, which sums a monomial drawn twice in draw order.
    """
    terms = k * max_terms
    counts = rng.integers(0, degree + 1, size=terms)
    exps = np.zeros((terms, dim), dtype=np.int64)
    coords = rng.integers(0, dim, size=int(counts.sum()))
    np.add.at(exps, (np.repeat(np.arange(terms), counts), coords), 1)
    coeffs = scale * rng.uniform(-1.0, 1.0, size=terms)
    basis, C = _merge_rows(exps, coeffs, np.repeat(np.arange(k), max_terms), k)
    return [Polynomial._normal(dim, basis, C[:, j]) for j in range(k)]


def _two_form_of(n: int, draw: Callable[[int], List[Polynomial]],
                 traceless: bool = False) -> TwoFormField:
    """The random 2-form whose slots take, in order, the polynomials of one
    `draw(k)`: Q_ij and P^ij for i < j, A^i_j for i != j, then A^i_i.
    With `traceless` the last A^i_i is minus the sum of the others."""
    dim, upper = 2 * n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    polys = iter(draw(2 * len(upper) + len(off) + (n - 1 if traceless else n)))
    Q = {ij: next(polys) for ij in upper}
    P = {ij: next(polys) for ij in upper}
    A = {ij: next(polys) for ij in off}
    diag = list(polys)
    if traceless:
        total = Polynomial.zero(dim)
        for f in diag:
            total = total + f
        diag.append(-total)
    A.update(((i, i), f) for i, f in enumerate(diag))
    return TwoFormField(n, Q=Q, A=A, P=P)


def _one_form_of(n: int, draw: Callable[[int], List[Polynomial]]) -> OneFormField:
    """The random 1-form whose dq^i, then dp_i, components take one `draw(2n)`."""
    polys = draw(2 * n)
    return OneFormField.from_components(n, dq=dict(enumerate(polys[:n])),
                                        dp=dict(enumerate(polys[n:])))


def _one_by_one(dim: int, rng: np.random.Generator, degree: int, max_terms: int,
                scale: float) -> Callable[[int], List[Polynomial]]:
    """draw(k): k `random_polynomial`s, one after the other on rng's stream."""
    return lambda k: [random_polynomial(dim, rng, degree, max_terms, scale) for _ in range(k)]


def random_two_form(n: int, rng: np.random.Generator, degree: int = 3,
                    max_terms: int = 4, scale: float = 1.0,
                    traceless: bool = False) -> TwoFormField:
    """A random polynomial 2-form with all component slots populated.

    With traceless=True the diagonal A components sum to zero identically
    (the last diagonal entry balances the others), which is the regime
    where the antisymmetric-tensor divergence route agrees with the
    generating construction.
    """
    return _two_form_of(n, _one_by_one(2 * n, rng, degree, max_terms, scale), traceless)


def random_one_form(n: int, rng: np.random.Generator, degree: int = 3,
                    max_terms: int = 4, scale: float = 1.0) -> OneFormField:
    return _one_form_of(n, _one_by_one(2 * n, rng, degree, max_terms, scale))


def random_alpha_system(n: int = 2, seed: int = 0, degree: int = 3,
                        scale: float = 0.1) -> SystemInstance:
    """A system generated from a random polynomial 2-form.

    The default coefficient scale 0.1 keeps typical trajectories from the
    default initial condition bounded over moderate horizons; cubic
    components at unit scale routinely blow up in finite time.
    """
    rng = np.random.default_rng(seed)
    alpha = random_two_form(n, rng, degree=degree, scale=scale)
    x0 = 0.1 * np.ones(2 * n)
    return SystemInstance(
        name="random-alpha",
        n=n,
        field=generate(alpha),
        alpha=alpha,
        default_x0=x0,
        invariants_expected={"volume": True, "energy": False, "symplectic": False},
    )


def zero_system(n: int = 2) -> SystemInstance:
    """The zero field (every point is fixed); useful as a CLI smoke target."""
    alpha = TwoFormField(n)
    x0 = np.zeros(2 * n)  # first, so an n beyond numpy's range fails before any field work
    return SystemInstance(
        name="zero",
        n=n,
        field=generate(alpha),
        alpha=alpha,
        hamiltonian=Polynomial.zero(2 * n),
        analytic=lambda t, x0: np.asarray(x0, dtype=float).copy(),
        default_x0=x0,
        invariants_expected={"volume": True, "energy": True, "symplectic": True},
    )


# The builders take a system's params and check each where it is read,
# naming it `system.params.<key>`; the factories check what they need.

def _n(n) -> int:
    return _integer("system.params.n", n, high=_MAX_N)


def _build_harmonic(n=2, omega_freqs=None):
    if omega_freqs is not None:
        omega_freqs = _reals("system.params.omega_freqs", omega_freqs, 1)
    return harmonic_oscillator(_n(n), omega_freqs)


def _build_coupled():
    return coupled_oscillators()


def _build_linear(k=None):
    if k is None:
        raise ValueError("linear system requires params.k (a square matrix)")
    # LinearSystemSpec refuses a k that is not finite, naming k
    return linear_system(_reals("system.params.k", k, 2, finite=False))


def _build_drift(n=2, coupling=0.25, a=None, q0=None):
    if q0 is not None:
        q0 = _reals("system.params.q0", q0, 1)
    if a is not None:
        return drift_system(_reals("system.params.a", a, 2), q0)
    n, coupling = _n(n), _reals("system.params.coupling", coupling)
    if n < 2:
        raise ValueError("drift systems need n >= 2")
    a = np.zeros((n, n))
    a[0, 1], a[1, 0] = coupling, -coupling
    return drift_system(a, q0)


def _build_random(n=2, seed=0, degree=3, scale=0.1):
    # rng.integers takes degree + 1 as an int64
    return random_alpha_system(_n(n), _integer("system.params.seed", seed, low=0),
                               _integer("system.params.degree", degree, low=0,
                                        high=np.iinfo(np.int64).max - 1),
                               _reals("system.params.scale", scale))


def _build_zero(n=2):
    return zero_system(_n(n))


SYSTEM_BUILDERS = {
    "harmonic": _build_harmonic,
    "coupled-oscillators": _build_coupled,
    "linear": _build_linear,
    "drift": _build_drift,
    "random-alpha": _build_random,
    "zero": _build_zero,
}


def _parameters(name: str) -> Tuple[str, ...]:
    """The parameter names the system `name` takes."""
    if name not in SYSTEM_BUILDERS:
        known = ", ".join(sorted(SYSTEM_BUILDERS))
        raise ValueError(f"unknown system {name!r}; known systems: {known}")
    return tuple(inspect.signature(SYSTEM_BUILDERS[name]).parameters)


def build_system(name: str, /, **params) -> SystemInstance:
    """Construct a registered system by name with keyword parameters; a
    parameter the system does not take raises `ValueError` naming it."""
    accepted = _parameters(name)
    for key in params:
        if key not in accepted:
            raise ValueError(f"system {name!r} has no parameter {key!r}; "
                             f"it takes: {', '.join(accepted) or 'none'}")
    return SYSTEM_BUILDERS[name](**params)
