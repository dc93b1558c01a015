"""The sampling runner behind the sampled `check` suites, and the exact
certificates that the suites take from the pairs (f, M_f)."""

import dataclasses

import numpy as np
import pytest

from volflow import generator, verify
from volflow.generator import generate
from volflow.systems import random_two_form
from volflow.verify import TOLERANCES, _sampled


def _recording(residual=0.0):
    """A case that records its (n, rng) and draws one number from the stream."""
    calls = []

    def case(n, rng):
        calls.append((n, rng, rng.random()))
        return residual(len(calls)) if callable(residual) else residual

    return case, calls


@pytest.mark.parametrize("bad", [1, 3, 6])
def test_a_nan_residual_fails_the_suite(bad):
    # Python's max(worst, nan) would return worst and drop the NaN
    case, calls = _recording(lambda k: np.nan if k == bad else 1e-16)
    result = _sampled("poisson_trace", case, (2, 3), (2, 3), 6, seed=0)
    assert len(calls) == 6
    assert np.isnan(result.max_residual)
    assert not result.passed and not result.skipped


def test_a_suite_with_no_supported_n_is_skipped_and_draws_nothing():
    case, calls = _recording()
    result = _sampled("poisson_trace", case, (4,), (2, 3), 10, seed=0)
    assert calls == []
    assert result.skipped and not result.passed
    assert result.max_residual == 0.0


@pytest.mark.parametrize("n_list, cases, split, want", [
    ((2, 3), 5, True, [2, 2, 3, 3]),
    ((2, 3, 4), 7, True, [2, 2, 2, 3, 3, 3]),  # 4 is not supported
    ((3,), 3, True, [3, 3, 3]),
    ((2, 3), 1, True, [2, 3]),  # at least one case per n
    ((2, 3), 2, False, [2, 2, 3, 3]),
])
def test_cases_per_n_come_from_one_stream(n_list, cases, split, want):
    case, calls = _recording()
    result = _sampled("poisson_trace", case, n_list, (2, 3), cases, seed=11, split=split)
    assert [n for n, _, _ in calls] == want
    assert len({id(rng) for _, rng, _ in calls}) == 1
    drawn = np.random.default_rng(11).random(len(want))
    assert np.array_equal([x for _, _, x in calls], drawn)
    assert result.passed and result.tolerance == TOLERANCES["poisson_trace"]


def test_by_n_reports_each_n_worst():
    case, _ = _recording(lambda k: float(k))
    result = _sampled("oracle_equivalence", case, (2, 3), (2, 3, 4), 2, seed=0,
                      split=False, by_n=True)
    assert result.detail == {"2": 2.0, "3": 4.0}
    assert result.max_residual == 4.0 and not result.passed
    plain = _sampled("poisson_trace", case, (2, 3), (2, 3), 2, seed=0)
    assert plain.detail == {}


def test_the_exact_certificates_fail_on_a_wrong_pair(monkeypatch):
    # the certificates read verify's own `_field_terms`; the fields do not
    real = verify._field_terms
    assert verify.check_divergence_free((2, 3), 8, seed=0).passed
    assert verify.check_hamiltonian_reduction((2, 3), 2, seed=0).passed

    def skewed(alpha):  # M_f no longer antisymmetric
        return [(f, M + np.eye(len(M), k=1)) for f, M in real(alpha)]

    monkeypatch.setattr(verify, "_field_terms", skewed)
    result = verify.check_divergence_free((2, 3), 8, seed=0)
    assert result.max_residual == 1.0 and not result.passed
    assert verify.check_hamiltonian_reduction((2, 3), 2, seed=0).max_residual == 1.0
    # H omega/(n-1) must be exactly one pair
    monkeypatch.setattr(verify, "_field_terms", lambda alpha: real(alpha) * 2)
    result = verify.check_hamiltonian_reduction((2, 3), 2, seed=0)
    assert result.max_residual == np.inf and not result.passed


def test_oracle_sees_a_faulty_polynomial_partial(monkeypatch):
    """The compiled field takes its partials from `generator._lowered`,
    and the jet reads the components' exponent rows itself, so a fault in
    that lowering reaches only the component formula, and the oracle suite
    fails on it."""
    assert verify.check_oracle_equivalence((2, 3), 5, 0).passed
    x = np.array([0.3, -1.2, 0.7, 2.0])
    alpha = random_two_form(2, np.random.default_rng(0))
    jet, X = alpha.jet_at(x), generate(alpha)(x)
    original = generator._lowered

    def scaled(*args):
        exps, coeffs, entry = original(*args)
        return exps, coeffs * (1 + 1e-6), entry

    monkeypatch.setattr(generator, "_lowered", scaled)
    assert not np.array_equal(generate(alpha)(x), X)
    faulty_jet = alpha.jet_at(x)
    assert all(np.array_equal(getattr(faulty_jet, f.name), getattr(jet, f.name))
               for f in dataclasses.fields(jet))
    faulty = verify.check_oracle_equivalence((2, 3), 5, 0)
    assert not faulty.passed
    assert faulty.max_residual > 1e-7
