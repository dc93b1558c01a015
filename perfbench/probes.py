"""Isolated per-call costs of the field, jet and exterior-algebra layers.

Each traced run ends with these probes on the workload's own system, so
every workload reports the same per-layer costs: the generated field and
the component jet at batch 1, at the flow-Jacobian bundle size 2*(2n)+1
and at batch 10^4, and the mean call of each exterior-algebra entry point
at n = 3.  The probes run untraced, as plain timed loops, so no tracing
cost is in them.  The field's figure is its cost outside the jet: a field
call minus a jet call on the same points.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict

import numpy as np

from volflow import exterior, generator, systems

BLOCKS = 10  # loops are timed in this many blocks; the median block counts
FIELD_REPS = {"b1": 2000, "bundle": 1000, "b10000": 20}


def block_seconds(call: Callable, per_block: int) -> float:
    """Mean time of one call over one block of calls."""
    t0 = perf_counter()
    for _ in range(per_block):
        call()
    return (perf_counter() - t0) / per_block


def seconds_per_call(call: Callable, reps: int) -> float:
    """Median over BLOCKS timed blocks of the mean time of one call."""
    return statistics.median(block_seconds(call, max(1, reps // BLOCKS))
                             for _ in range(BLOCKS))


def field_and_jet_seconds(system, pts, reps: int):
    """(jet call, field call minus jet call) in seconds, medians over BLOCKS.

    Jet and field blocks alternate, and each block's difference is taken
    against the jet block just before it, so a drift in the machine's speed
    cancels from the field's own cost.
    """
    per_block = max(1, reps // BLOCKS)
    jet, own = [], []
    for _ in range(BLOCKS):
        jet_s = block_seconds(lambda: system.alpha.jet_at(pts), per_block)
        field_s = block_seconds(lambda: system.field(pts), per_block)
        jet.append(jet_s)
        own.append(field_s - jet_s)
    return statistics.median(jet), statistics.median(own)


def layer_probes(system, seed: int) -> Dict[str, float]:
    """Per-call costs by metric name: microseconds per call, nanoseconds per point."""
    rng = np.random.default_rng(seed)
    dim = 2 * system.n
    inputs = {
        "b1": system.default_x0 + 0.05 * rng.standard_normal(dim),
        "bundle": system.default_x0 + 0.05 * rng.standard_normal((2 * dim + 1, dim)),
        "b10000": system.default_x0 + 0.05 * rng.standard_normal((10_000, dim)),
    }
    n = 3
    alpha = systems.random_two_form(n, rng)
    x = rng.standard_normal(2 * n)
    jet = alpha.jet_at(x)
    d_alpha = exterior.d_at_point(jet)
    omega_1 = exterior.omega_power(n, 1)
    target = exterior.wedge(d_alpha, omega_1) * float(n * (n - 1))
    X = generator.generate(alpha)(x)
    omega_n = exterior.omega_power(n, n)
    exterior_calls = {  # name: (reps, call)
        "d_at_point": (200, lambda: exterior.d_at_point(jet)),
        "wedge": (500, lambda: exterior.wedge(d_alpha, omega_1)),
        "contract": (500, lambda: exterior.contract(X, omega_n)),
        "solve_nu_n": (500, lambda: exterior.solve_nu_n(target, n)),
        "verify_lemma1": (20, lambda: exterior.verify_lemma1(n, 2, trials=5, rng=rng)),
        "verify_lemma2": (20, lambda: exterior.verify_lemma2(n, 1, trials=5, rng=rng)),
        "verify_wedge_identities": (10, lambda: exterior.verify_wedge_identities(2)),
    }

    out: Dict[str, float] = {}
    for batch, pts in inputs.items():
        jet_s, own_s = field_and_jet_seconds(system, pts, FIELD_REPS[batch])
        for layer, secs in (("forms.jet_at", jet_s), ("generator.field", own_s)):
            if batch == "b10000":
                out[f"{layer}.ns_per_pt.b10000"] = secs / 10_000 * 1e9
            else:
                out[f"{layer}.us_per_call.{batch}"] = secs * 1e6
    for name, (reps, call) in exterior_calls.items():
        out[f"exterior.{name}.us_per_call"] = seconds_per_call(call, reps) * 1e6
    return out
