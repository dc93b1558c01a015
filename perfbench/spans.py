"""Span tracing around volflow's public entry points, from outside the package.

`installed(tracer)` rebinds each traced function under every name a volflow
module holds it by, so a call is caught wherever it is looked up
(`cli.integrate`, `dynamics.integrate` and `verify.integrate` are one
function under three names), and patches `GeneratedField.__call__` and
`TwoFormField.jet_at` on their classes.  Everything is restored on exit.

Spans are aggregated in memory by (name, parent name, batch class) into
[calls, total seconds, self seconds]; a span's self time is its duration
minus the durations of its child spans, so the self times of all spans
under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

EXTERIOR = ("d_at_point", "wedge", "contract", "solve_nu_n", "verify_lemma1",
            "verify_lemma2", "verify_wedge_identities")
DYNAMICS = ("integrate", "flow_jacobian_dets", "monitor", "divergence_at",
            "lie_derivative_omega")
# functions taking (field, x0, dt, steps, ...): their steps argument is recorded
STEPPED = ("integrate", "flow_jacobian_dets", "monitor")
SYSTEM_BUILDERS = ("build_system", "coupled_oscillators", "harmonic_oscillator",
                   "linear_system", "drift_system", "random_alpha_system",
                   "zero_system", "random_two_form", "random_one_form",
                   "random_polynomial")

BATCH_CLASSES = ("b1", "bundle", "b10000", "other")


def batch_class(x) -> str:
    """b1 for one point, bundle for the 2*dim+1 flow-Jacobian bundle, b10000 for >= 10^4."""
    shape = np.shape(x)
    points = int(np.prod(shape[:-1])) if len(shape) > 1 else 1
    if points == 1:
        return "b1"
    if points == 2 * shape[-1] + 1:
        return "bundle"
    return "b10000" if points >= 10_000 else "other"


class Tracer:
    def __init__(self):
        self.spans: Dict[Tuple[str, Optional[str], str], List[float]] = {}
        self.steps: Dict[Tuple[str, Optional[str]], int] = {}
        self._stack: List[list] = []  # open spans as [name, child seconds]

    def call(self, name: str, batch: str, fn: Callable, /, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[1] += dur
            key = (name, parent[0] if parent else None, batch)
            agg = self.spans.get(key)
            if agg is None:
                agg = self.spans[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]

    def wrap(self, fn: Callable, name: str, batch_arg: Optional[int] = None,
             steps_arg: Optional[int] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            batch = batch_class(args[batch_arg]) if batch_arg is not None else ""
            if steps_arg is not None:
                steps = args[steps_arg] if len(args) > steps_arg else kwargs["steps"]
                key = (name, self._stack[-1][0] if self._stack else None)
                self.steps[key] = self.steps.get(key, 0) + int(steps)
            return self.call(name, batch, fn, *args, **kwargs)
        return traced

    # -- summaries ---------------------------------------------------------------

    def calls(self, name: str, batch: Optional[str] = None) -> int:
        return sum(int(a[0]) for (n, _, b), a in self.spans.items()
                   if n == name and batch in (None, b))

    def self_s(self, name: str, batch: Optional[str] = None) -> float:
        return sum(a[2] for (n, _, b), a in self.spans.items()
                   if n == name and batch in (None, b))

    def total_s(self, name: str, parent: Optional[str] = None) -> float:
        """Inclusive time of `name` spans, not counting ones nested in `name` itself."""
        return sum(a[1] for (n, p, _), a in self.spans.items()
                   if n == name and p != name and parent in (None, p))

    def self_sum_s(self) -> float:
        return sum(a[2] for a in self.spans.values())

    def table(self) -> List[Dict[str, object]]:
        return [{"name": n, "parent": p, "batch": b, "calls": int(a[0]),
                 "total_s": a[1], "self_s": a[2]}
                for (n, p, b), a in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every volflow entry point the benchmark measures while the block runs."""
    import volflow
    from volflow import cli, dynamics, exterior, forms, generator, systems, verify

    modules = (volflow, cli, dynamics, exterior, forms, generator, systems, verify)
    patches = []

    def rebind(fn, name, **kw):
        wrapper = tracer.wrap(fn, name, **kw)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    try:
        for attr in EXTERIOR:
            rebind(getattr(exterior, attr), f"exterior.{attr}")
        for attr in DYNAMICS:
            rebind(getattr(dynamics, attr), f"dynamics.{attr}",
                   steps_arg=3 if attr in STEPPED else None)
        for attr in SYSTEM_BUILDERS:
            rebind(getattr(systems, attr), "systems.build")
        for attr, fn in list(vars(verify).items()):
            if attr.startswith("check_") and fn.__module__ == verify.__name__:
                rebind(fn, f"verify.{attr[len('check_'):]}")
        rebind(cli.cmd_simulate, "cli.simulate")
        for cls, attr, name in ((generator.GeneratedField, "__call__", "generator.field"),
                                (forms.TwoFormField, "jet_at", "forms.jet_at")):
            fn = vars(cls)[attr]
            patches.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(fn, name, batch_arg=1))
        yield tracer
    finally:
        for owner, attr, val in reversed(patches):
            setattr(owner, attr, val)
