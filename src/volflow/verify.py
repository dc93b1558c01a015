"""Verification suites: every structural promise checked against the oracle.

Each suite measures one identity or behavior and returns a SuiteResult
with a single max residual and tolerance.  The sampled suites state only
one case, `case(n, rng) -> residual`; the runner `_sampled` draws the
cases for each supported n from one seeded stream and keeps the worst.
A case draws its random polynomials from the battery's own vectorized
stream (`_draw`: each 2-form, 1-form or set of polynomials in one draw),
not the stream the public `random_two_form` and `random_polynomial` keep.
`run_all` assembles the full report used by the command-line `check` and
by the acceptance tests, and is the one place that sets each suite's
effort and seed.  Identical seeds give identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import exterior
from .exterior import (
    contract,
    d_at_point,
    omega_power,
    solve_nu_n,
    trace_of,
    two_form_from_components,
    wedge,
)
from .forms import Polynomial, TwoFormField, hamiltonian_two_form, gauge_shift, trace_field
from .generator import (
    _field_terms,
    _symplectic_matrix,
    decompose,
    feng_shang_field,
    feng_shang_from_alpha,
    generate,
    hamiltonian_field,
)
from .dynamics import (
    check_dotf,
    divergence_at,
    flow_jacobian_dets,
    integrate,
    lie_derivative_omega,
    poisson_trace_residual,
)
from .systems import (
    _one_form_of,
    _random_polynomials,
    _two_form_of,
    coupled_oscillators,
    drift_system,
    harmonic_oscillator,
    random_alpha_system,
)

__all__ = ["SuiteResult", "TOLERANCES", "VOLUME_RANDOM_INSTANCES", "run_all"]

TOLERANCES: Dict[str, float] = {
    "oracle_equivalence": 1e-10,
    "hamiltonian_reduction": 1e-12,
    "divergence_free": 1e-5,
    "volume_preservation": 1e-6,
    "symplectic_witness": 1e-6,
    "gauge_invariance": 1e-10,
    "observable_derivative": 1e-10,
    "poisson_trace": 1e-12,
    "trace_closed_form": 1e-10,
    "lemmas": 1e-12,
    "feng_shang": 1e-10,
    "harmonic_return": 1e-9,
    "drift_analytic": 1e-12,
    "decomposition": 1e-10,
}

# Frozen (n, seed) pairs for the random 2-form volume runs; these specific
# instances stay bounded from the default initial condition over T = 10.
VOLUME_RANDOM_INSTANCES: Tuple[Tuple[int, int], ...] = ((2, 1), (3, 2))

# Non-symplectic witness must exceed this magnitude to count as "nonzero".
WITNESS_FLOOR = 1e-3


@dataclass
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    detail: Dict[str, object] = dc_field(default_factory=dict)
    skipped: bool = False  # no requested n was one the suite supports

    def to_report(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.skipped:
            out["skipped"] = True
        return out


def _result(name: str, max_residual: float, extra_ok: bool = True,
            detail: Optional[Dict[str, object]] = None,
            skipped: bool = False) -> SuiteResult:
    """The suite's result; a skipped suite checked nothing, so it has not passed."""
    tol = TOLERANCES[name]
    max_residual = float(max_residual)
    passed = bool(max_residual <= tol) and bool(extra_ok) and not skipped
    return SuiteResult(name, max_residual, tol, passed, detail or {}, skipped)


def _clamp(n_list: Iterable[int], allowed: Sequence[int]) -> Tuple[int, ...]:
    return tuple(n for n in n_list if n in allowed)


def _sampled(name: str, case: Callable[[int, np.random.Generator], float], n_list,
             allowed, cases: int, seed: int, split=True, by_n=False) -> SuiteResult:
    """Suite `name`: the worst residual of `case(n, rng)` (a NaN fails it).

    Each n of `n_list` in `allowed` gets max(1, cases // (number of such n))
    cases if `split`, else `cases`, all drawn from one stream seeded by
    `seed`.  With no such n nothing is drawn and the suite is skipped.
    `by_n` puts each n's worst residual in `detail`.
    """
    ns = _clamp(n_list, allowed)
    rng = np.random.default_rng(seed)
    count = max(1, cases // len(ns)) if split and ns else cases
    per_n = {str(n): float(np.max([case(n, rng) for _ in range(count)], initial=0.0))
             for n in ns}
    worst = np.max(list(per_n.values()), initial=0.0)
    return _result(name, worst, detail=per_n if by_n else None, skipped=not ns)


def _draw(n: int, rng: np.random.Generator) -> Callable[[int], list]:
    """draw(k): k random polynomials on R^{2n}, drawn at once from the
    battery's own stream (`systems._random_polynomials`)."""
    return partial(_random_polynomials, dim=2 * n, rng=rng)


def _oracle_solve(alpha: TwoFormField, x: np.ndarray) -> Tuple[np.ndarray, exterior.KForm]:
    """The oracle's X at x, from the jet alone: (X, target) where X solves
    nu_n(X) = target = n(n-1) d(alpha) ^ omega^{n-2}."""
    n = alpha.n
    target = (n * (n - 1)) * wedge(d_at_point(alpha.jet_at(x)), omega_power(n, n - 2))
    return solve_nu_n(target, n), target


def _max_abs(d: np.ndarray) -> float:
    return float(np.max(np.abs(d)))


def check_oracle_equivalence(n_list, trials: int, seed: int) -> SuiteResult:
    """Component formula vs the dense-oracle route on random 2-forms.

    Both the solved field from nu_n(X) = n(n-1) d(alpha) ^ omega^{n-2}
    and the direct contraction i_X(omega^n) = -n(n-1) d(alpha)^omega^{n-2}
    must match the componentwise evaluation, relatively to 1 + |X|.
    """
    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng))
        x = rng.standard_normal(2 * n)
        X = generate(alpha)(x)
        scale = 1.0 + _max_abs(X)
        solved, target = _oracle_solve(alpha, x)
        contracted = contract(X, omega_power(n, n)) - target.scaled(-1.0)
        return np.max([_max_abs(X - solved) / scale, contracted.max_abs() / scale])

    return _sampled("oracle_equivalence", case, n_list, (2, 3, 4), trials, seed,
                    split=False, by_n=True)


def check_hamiltonian_reduction(n_list, trials: int, seed: int) -> SuiteResult:
    """generate(H omega/(n-1)) equals the direct Hamiltonian field pointwise,
    and exactly: its components are the one pair (H/(n-1), (n-1) J)."""
    def case(n, rng):
        H = _draw(n, rng)(1)[0]
        pts = rng.standard_normal((5, 2 * n))
        alpha = hamiltonian_two_form(H, n)
        pairs = _field_terms(alpha)
        exact = (_max_abs(pairs[0][1] - (n - 1) * _symplectic_matrix(n))
                 if len(pairs) == 1 else np.inf)
        return np.max([_max_abs(generate(alpha)(pts) - hamiltonian_field(H, n)(pts)), exact])

    return _sampled("hamiltonian_reduction", case, n_list, (2, 3), trials, seed,
                    split=False)


def _exact_divergence(field) -> float:
    """The largest coefficient of div X as a polynomial: the sum of the
    diagonal DX columns 2n + 2n a + a of the field's compiled [X | DX] map."""
    C, dim = field.tangent_map().C, 2 * field.n
    return float(np.max(np.abs(C[:, dim::dim + 1].sum(axis=1)), initial=0.0))


def check_divergence_free(n_list, points: int, seed: int) -> SuiteResult:
    """The divergence tr DX of generated fields, DX from the exact tangent,
    vanishes at `points` points shared by two random 2-forms per n; exactly,
    every M_f + M_f^T = 0, and div X of the compiled map is the zero polynomial."""
    size = max(1, points // max(1, 2 * len(_clamp(n_list, (2, 3)))))

    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng))
        pts = rng.standard_normal((size, 2 * n))
        asym = [_max_abs(M + M.T) for _, M in _field_terms(alpha)]
        X = generate(alpha)
        return np.max([_max_abs(divergence_at(X, pts)), _exact_divergence(X)] + asym)

    return _sampled("divergence_free", case, n_list, (2, 3), 2, seed, split=False)


def check_volume_preservation(dt: float, horizon: float) -> SuiteResult:
    """|flow det - 1| along the coupled-oscillator and random 2-form flows;
    inf for a flow that leaves the finite domain."""
    steps = int(round(horizon / dt))
    cases = [coupled_oscillators()]
    cases += [random_alpha_system(n=n, seed=s) for n, s in VOLUME_RANDOM_INSTANCES]
    worst = 0.0
    all_positive = True
    detail: Dict[str, object] = {}
    for sys_ in cases:
        try:
            _, dets = flow_jacobian_dets(sys_.field, sys_.default_x0, dt, steps,
                                         sample_every=max(1, steps // 10))
        except FloatingPointError:
            dets = np.array([np.inf])
        err = detail[f"{sys_.name}-n{sys_.n}"] = _max_abs(dets - 1.0)
        worst = max(worst, err)
        all_positive = all_positive and bool(np.all(dets > 0.0))
    detail["dets_positive"] = all_positive
    return _result("volume_preservation", worst, extra_ok=all_positive, detail=detail)


def check_symplectic_witness() -> SuiteResult:
    """L_X omega: zero for the Hamiltonian flow, the a-pattern for the coupled one."""
    x = np.array([0.4, -0.2, 0.7, 0.1])
    L = lie_derivative_omega(coupled_oscillators().field, x)
    expected = exterior.KForm(4, 2, {(0, 1): 0.5})  # 2 * a12 on dq^1^dq^2
    mismatch = (L - expected).max_abs()
    magnitude = L.max_abs()
    zero_side = lie_derivative_omega(harmonic_oscillator(2).field, x).max_abs()
    return _result("symplectic_witness", np.max([mismatch, zero_side]),
                   extra_ok=magnitude >= WITNESS_FLOOR,
                   detail={"witness_magnitude": float(magnitude),
                           "hamiltonian_side": float(zero_side)})


def check_gauge_invariance(n_list, trials: int, seed: int) -> SuiteResult:
    """Adding d(beta) to alpha leaves the generated field unchanged."""
    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng))
        beta = _one_form_of(n, _draw(n, rng))
        pts = rng.standard_normal((3, 2 * n))
        return _max_abs(generate(gauge_shift(alpha, beta))(pts) - generate(alpha)(pts))

    return _sampled("gauge_invariance", case, n_list, (2, 3), trials, seed)


def check_observable_derivative(n_list, trials: int, seed: int) -> SuiteResult:
    """fdot along the flow equals the exterior-product expression."""
    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng))
        f = _draw(n, rng)(1)[0]
        return check_dotf(alpha, f, rng.standard_normal(2 * n))

    return _sampled("observable_derivative", case, n_list, (2, 3), trials, seed)


def check_poisson_trace(n_list, trials: int, seed: int) -> SuiteResult:
    """{f, g} equals the trace of dg ^ df."""
    def case(n, rng):
        f, g = _draw(n, rng)(2)
        return poisson_trace_residual(f, g, rng.standard_normal(2 * n))

    return _sampled("poisson_trace", case, n_list, (2, 3), trials, seed)


def check_trace_closed_form(n_list, trials: int, seed: int) -> SuiteResult:
    """Diagonal A sum equals the coefficient ratio from alpha ^ omega^{n-1}."""
    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng))
        x = rng.standard_normal(2 * n)
        jet = alpha.jet_at(x)
        form = two_form_from_components(jet.Q, jet.A, jet.P)
        return abs(trace_field(alpha).value(x) - trace_of(form, n))

    return _sampled("trace_closed_form", case, n_list, (2, 3), trials, seed)


def check_lemmas(n_list, trials: int, seed: int) -> SuiteResult:
    """Injectivity and wedge-multiplication suites over the full index ranges.

    max_residual collects the measured numerical residuals (wedge sweep,
    inverse-multiplication residual); the injectivity health (singular
    values, norm ratios) gates `pass` separately.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    healthy = True
    detail: Dict[str, object] = {}
    for n in _clamp(n_list, (2, 3, 4)):
        for k in range(1, n + 1):
            rep = exterior.verify_lemma1(n, k, trials=trials, rng=rng)
            healthy = healthy and rep.passed
            detail[f"lemma1-n{n}k{k}-sigma"] = rep.sigma_min
        if n >= 3:
            for k in range(1, n - 1):
                rep2 = exterior.verify_lemma2(n, k, trials=trials, rng=rng)
                healthy = healthy and rep2.passed
                if rep2.iota_max_residual is not None:
                    worst = max(worst, rep2.iota_max_residual)
                detail[f"lemma2-n{n}k{k}-sigma"] = rep2.sigma_min
    for n in _clamp(n_list, (2, 3)):
        repw = exterior.verify_wedge_identities(n)
        healthy = healthy and repw.passed
        worst = max(worst, repw.max_residual)
        detail[f"wedge-n{n}"] = repw.max_residual
    return _result("lemmas", worst, extra_ok=healthy, detail=detail,
                   skipped=not _clamp(n_list, (2, 3, 4)))


def check_feng_shang(n_list, trials: int, seed: int) -> SuiteResult:
    """Antisymmetric-tensor divergence route vs the generating construction.

    The routes agree exactly when the diagonal A components sum to zero;
    for alpha = H omega/(n-1) with H = p_1 they must differ at the witness
    point (the construction keeps a trace term the plain divergence drops).
    The witness is checked at every n, and its gap kept in `detail`; the
    suite is skipped when its sampled half draws no case (no n of 2 or 3).
    """
    def gap(alpha, pts):
        return _max_abs(feng_shang_field(feng_shang_from_alpha(alpha))(pts)
                        - generate(alpha)(pts))

    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng), traceless=True)
        return gap(alpha, rng.standard_normal((3, 2 * n)))

    sampled = _sampled("feng_shang", case, n_list, (2, 3), trials, seed)
    p1 = Polynomial.coordinate(4, 2)  # H = p_1 on n = 2
    witness = gap(hamiltonian_two_form(p1, 2), np.array([0.3, -0.6, 0.2, 0.9]))
    return _result("feng_shang", sampled.max_residual, extra_ok=witness >= WITNESS_FLOOR,
                   detail={"witness_gap": witness}, skipped=sampled.skipped)


def check_harmonic_return() -> SuiteResult:
    """One full period of the unit harmonic oscillator returns to the start."""
    sys_ = harmonic_oscillator(2)
    steps = 6283
    dt = 2.0 * np.pi / steps
    traj = integrate(sys_.field, sys_.default_x0, dt, steps, sample_every=steps)
    err = _max_abs(traj.final_state - sys_.default_x0)
    return _result("harmonic_return", err, extra_ok=not traj.failed)


def check_drift_analytic() -> SuiteResult:
    """Frozen-q drift matches its closed-form solution at every sample."""
    sys_ = drift_system(np.array([[0.0, 0.25], [-0.25, 0.0]]))
    traj = integrate(sys_.field, sys_.default_x0, 1e-3, 2000, sample_every=100)
    exact = np.stack([sys_.analytic(t, sys_.default_x0) for t in traj.times])
    return _result("drift_analytic", _max_abs(traj.states - exact), extra_ok=not traj.failed)


def check_decomposition(n_list, trials: int, seed: int) -> SuiteResult:
    """Hamiltonian-plus-remainder split sums back to the generated field."""
    def case(n, rng):
        alpha = _two_form_of(n, _draw(n, rng))
        X = generate(alpha)
        XH, Xr = decompose(alpha)
        pts = rng.standard_normal((10, 2 * n))
        return _max_abs(XH(pts) + Xr(pts) - X(pts))

    return _sampled("decomposition", case, n_list, (2, 3), trials, seed)


def run_all(n_list=(2, 3), trials: int = 100, seed: int = 42,
            dt: float = 1e-3, horizon: float = 10.0) -> Dict[str, SuiteResult]:
    """Run every suite; trials scale the sampling effort of the random ones.

    The only place each suite's effort and seed are set.  `dt` and `horizon`
    set volume_preservation only.  trials = 0 returns an empty report
    (nothing checked, nothing failed).
    """
    if trials == 0:
        return {}
    n_list = tuple(int(n) for n in n_list)
    results = [
        check_oracle_equivalence(n_list, trials, seed),
        check_hamiltonian_reduction(n_list, max(1, trials // 5), seed + 1),
        check_divergence_free(n_list, trials * 10, seed + 2),
        check_volume_preservation(dt, horizon),
        check_symplectic_witness(),
        check_gauge_invariance(n_list, max(1, trials // 2), seed + 3),
        check_observable_derivative(n_list, trials, seed + 4),
        check_poisson_trace(n_list, trials, seed + 5),
        check_trace_closed_form(n_list, trials, seed + 6),
        check_lemmas(n_list, trials, seed + 7),
        check_feng_shang(n_list, max(1, trials // 5), seed + 8),
        check_harmonic_return(),
        check_drift_analytic(),
        check_decomposition(n_list, trials // 10, seed + 9),
    ]
    return {r.name: r for r in results}
