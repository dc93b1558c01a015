"""Verification suites: every structural promise checked against the oracle.

Each suite measures one identity or behavior and returns a SuiteResult
with a single max residual and tolerance.  `run_all` assembles the full
report used by the command-line `check` and by the acceptance tests.
All randomness is seeded; identical seeds give identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, Optional, Sequence, Tuple

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
    coupled_oscillators,
    drift_system,
    harmonic_oscillator,
    random_alpha_system,
    random_one_form,
    random_polynomial,
    random_two_form,
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


def check_oracle_equivalence(n_list=(2, 3, 4), trials: int = 100,
                             seed: int = 42) -> SuiteResult:
    """Component formula vs the dense-oracle route on random 2-forms.

    Both the solved field from nu_n(X) = n(n-1) d(alpha) ^ omega^{n-2}
    and the direct contraction i_X(omega^n) = -n(n-1) d(alpha)^omega^{n-2}
    must match the componentwise evaluation, relatively to 1 + |X|.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    per_n: Dict[str, float] = {}
    n_list = _clamp(n_list, (2, 3, 4))
    for n in n_list:
        full = tuple(range(2 * n))
        local = 0.0
        for _ in range(trials):
            alpha = random_two_form(n, rng)
            x = rng.standard_normal(2 * n)
            X = generate(alpha)(x)
            scale = 1.0 + float(np.max(np.abs(X)))
            target = (n * (n - 1)) * wedge(d_at_point(alpha.jet_at(x)),
                                           omega_power(n, n - 2))
            solved = solve_nu_n(target, n)
            local = max(local, float(np.max(np.abs(X - solved))) / scale)
            lhs = contract(X, omega_power(n, n))
            rhs = target.scaled(-1.0)
            diff = (lhs - rhs).max_abs() / scale
            local = max(local, diff)
        per_n[str(n)] = local
        worst = max(worst, local)
    return _result("oracle_equivalence", worst, detail=per_n, skipped=not n_list)


def check_hamiltonian_reduction(n_list=(2, 3), trials: int = 20,
                                seed: int = 43) -> SuiteResult:
    """generate(H omega/(n-1)) equals the direct Hamiltonian field pointwise."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(trials):
            H = random_polynomial(2 * n, rng)
            pts = rng.standard_normal((5, 2 * n))
            d = generate(hamiltonian_two_form(H, n))(pts) - hamiltonian_field(H, n)(pts)
            worst = max(worst, float(np.max(np.abs(d))))
    return _result("hamiltonian_reduction", worst, skipped=not n_list)


def check_divergence_free(n_list=(2, 3), points: int = 1000,
                          seed: int = 44) -> SuiteResult:
    """Finite-difference divergence of generated fields vanishes."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(2):
            alpha = random_two_form(n, rng)
            pts = rng.standard_normal((max(1, points // (2 * len(n_list))), 2 * n))
            div = divergence_at(generate(alpha), pts)
            worst = max(worst, float(np.max(np.abs(div))))
    return _result("divergence_free", worst, skipped=not n_list)


def check_volume_preservation(dt: float = 1e-3, horizon: float = 10.0) -> SuiteResult:
    """|flow det - 1| along the coupled-oscillator and random 2-form flows."""
    steps = int(round(horizon / dt))
    cases = [coupled_oscillators()]
    cases += [random_alpha_system(n=n, seed=s) for n, s in VOLUME_RANDOM_INSTANCES]
    worst = 0.0
    all_positive = True
    detail: Dict[str, object] = {}
    for sys_ in cases:
        times, dets = flow_jacobian_dets(sys_.field, sys_.default_x0, dt, steps,
                                         sample_every=max(1, steps // 10))
        err = float(np.max(np.abs(dets - 1.0)))
        key = f"{sys_.name}-n{sys_.n}"
        detail[key] = err
        worst = max(worst, err)
        all_positive = all_positive and bool(np.all(dets > 0.0))
    detail["dets_positive"] = all_positive
    return _result("volume_preservation", worst, extra_ok=all_positive, detail=detail)


def check_symplectic_witness() -> SuiteResult:
    """L_X omega: zero for the Hamiltonian flow, the a-pattern for the coupled one."""
    x = np.array([0.4, -0.2, 0.7, 0.1])
    coupled = coupled_oscillators()
    L = lie_derivative_omega(coupled.field, x)
    expected = exterior.KForm(4, 2, {(0, 1): 0.5})  # 2 * a12 on dq^1^dq^2
    mismatch = (L - expected).max_abs()
    magnitude = L.max_abs()
    ham = harmonic_oscillator(2)
    zero_side = lie_derivative_omega(ham.field, x).max_abs()
    worst = max(mismatch, zero_side)
    return _result(
        "symplectic_witness",
        worst,
        extra_ok=magnitude >= WITNESS_FLOOR,
        detail={"witness_magnitude": float(magnitude),
                "hamiltonian_side": float(zero_side)},
    )


def check_gauge_invariance(n_list=(2, 3), trials: int = 50,
                           seed: int = 45) -> SuiteResult:
    """Adding d(beta) to alpha leaves the generated field unchanged."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(max(1, trials // len(n_list))):
            alpha = random_two_form(n, rng)
            beta = random_one_form(n, rng)
            pts = rng.standard_normal((3, 2 * n))
            d = generate(gauge_shift(alpha, beta))(pts) - generate(alpha)(pts)
            worst = max(worst, float(np.max(np.abs(d))))
    return _result("gauge_invariance", worst, skipped=not n_list)


def check_observable_derivative(n_list=(2, 3), trials: int = 100,
                                seed: int = 46) -> SuiteResult:
    """fdot along the flow equals the exterior-product expression."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(max(1, trials // len(n_list))):
            alpha = random_two_form(n, rng)
            f = random_polynomial(2 * n, rng)
            x = rng.standard_normal(2 * n)
            worst = max(worst, check_dotf(alpha, f, x))
    return _result("observable_derivative", worst, skipped=not n_list)


def check_poisson_trace(n_list=(2, 3), trials: int = 100,
                        seed: int = 47) -> SuiteResult:
    """{f, g} equals the trace of dg ^ df."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(max(1, trials // len(n_list))):
            f = random_polynomial(2 * n, rng)
            g = random_polynomial(2 * n, rng)
            x = rng.standard_normal(2 * n)
            worst = max(worst, poisson_trace_residual(f, g, x))
    return _result("poisson_trace", worst, skipped=not n_list)


def check_trace_closed_form(n_list=(2, 3), trials: int = 100,
                            seed: int = 48) -> SuiteResult:
    """Diagonal A sum equals the coefficient ratio from alpha ^ omega^{n-1}."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(max(1, trials // len(n_list))):
            alpha = random_two_form(n, rng)
            x = rng.standard_normal(2 * n)
            jet = alpha.jet_at(x)
            form = two_form_from_components(jet.Q, jet.A, jet.P)
            worst = max(worst, abs(trace_field(alpha).value(x) - trace_of(form, n)))
    return _result("trace_closed_form", worst, skipped=not n_list)


def check_lemmas(n_list=(2, 3, 4), trials: int = 100, seed: int = 50) -> SuiteResult:
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


def check_feng_shang(n_list=(2, 3), trials: int = 20, seed: int = 51) -> SuiteResult:
    """Antisymmetric-tensor divergence route vs the generating construction.

    The routes agree exactly when the diagonal A components sum to zero;
    for alpha = H omega/(n-1) with H = p_1 they must differ at the witness
    point (the construction keeps a trace term the plain divergence drops).
    """
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(max(1, trials // len(n_list))):
            alpha = random_two_form(n, rng, traceless=True)
            pts = rng.standard_normal((3, 2 * n))
            d = feng_shang_field(feng_shang_from_alpha(alpha))(pts) - generate(alpha)(pts)
            worst = max(worst, float(np.max(np.abs(d))))
    H = Polynomial.coordinate(4, 2)  # p_1 on n = 2
    alpha_w = hamiltonian_two_form(H, 2)
    x = np.array([0.3, -0.6, 0.2, 0.9])
    gap = float(np.max(np.abs(
        feng_shang_field(feng_shang_from_alpha(alpha_w))(x) - generate(alpha_w)(x)
    )))
    return _result("feng_shang", worst, extra_ok=gap >= WITNESS_FLOOR,
                   detail={"witness_gap": gap})


def check_harmonic_return() -> SuiteResult:
    """One full period of the unit harmonic oscillator returns to the start."""
    sys_ = harmonic_oscillator(2)
    steps = 6283
    dt = 2.0 * np.pi / steps
    traj = integrate(sys_.field, sys_.default_x0, dt, steps, sample_every=steps)
    err = float(np.max(np.abs(traj.final_state - sys_.default_x0)))
    return _result("harmonic_return", err, extra_ok=not traj.failed)


def check_drift_analytic(dt: float = 1e-3, horizon: float = 2.0) -> SuiteResult:
    """Frozen-q drift matches its closed-form solution at every sample."""
    a = np.array([[0.0, 0.25], [-0.25, 0.0]])
    sys_ = drift_system(a)
    steps = int(round(horizon / dt))
    traj = integrate(sys_.field, sys_.default_x0, dt, steps, sample_every=100)
    exact = np.stack([sys_.analytic(t, sys_.default_x0) for t in traj.times])
    err = float(np.max(np.abs(traj.states - exact)))
    return _result("drift_analytic", err, extra_ok=not traj.failed)


def check_decomposition(n_list=(2, 3), trials: int = 100,
                        seed: int = 52) -> SuiteResult:
    """Hamiltonian-plus-remainder split sums back to the generated field."""
    rng = np.random.default_rng(seed)
    n_list = _clamp(n_list, (2, 3))
    worst = 0.0
    for n in n_list:
        for _ in range(max(1, trials // (10 * len(n_list)))):
            alpha = random_two_form(n, rng)
            X = generate(alpha)
            XH, Xr = decompose(alpha)
            pts = rng.standard_normal((10, 2 * n))
            d = XH(pts) + Xr(pts) - X(pts)
            worst = max(worst, float(np.max(np.abs(d))))
    return _result("decomposition", worst, skipped=not n_list)


def run_all(n_list=(2, 3), trials: int = 100, seed: int = 42,
            dt: float = 1e-3, horizon: float = 10.0) -> Dict[str, SuiteResult]:
    """Run every suite; trials scale the sampling effort of the random ones.

    trials = 0 returns an empty report (nothing checked, nothing failed).
    """
    if trials == 0:
        return {}
    n_list = tuple(int(n) for n in n_list)
    results = [
        check_oracle_equivalence(n_list, trials, seed),
        check_hamiltonian_reduction(n_list, max(1, trials // 5), seed + 1),
        check_divergence_free(n_list, trials * 10, seed + 2),
        check_volume_preservation(dt=dt, horizon=horizon),
        check_symplectic_witness(),
        check_gauge_invariance(n_list, max(1, trials // 2), seed + 3),
        check_observable_derivative(n_list, trials, seed + 4),
        check_poisson_trace(n_list, trials, seed + 5),
        check_trace_closed_form(n_list, trials, seed + 6),
        check_lemmas(n_list, trials, seed + 7),
        check_feng_shang(n_list, max(1, trials // 5), seed + 8),
        check_harmonic_return(),
        check_drift_analytic(),
        check_decomposition(n_list, trials, seed + 9),
    ]
    return {r.name: r for r in results}
