"""Instrumentation the benchmark installs in its own process.

Both classes replace module attributes of the imported ``meanpoint``
package with thin wrappers; the library source is never edited.  The
package's modules call one another through module attributes
(``hull.project_onto_hull``, ``geometry.diameter``) or module globals
(``compose`` inside ``privacy``), so a replaced attribute is seen by
every internal caller.

``Capture`` is on in every run: it keeps each release's output and the
hull projections made during it for the correctness checks, and counts
hull outcomes, at the cost of one extra Python call per release and per
projection.  ``Tracer`` is on only in a
traced run: it records one span per call of the named functions.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

PACKAGE = "meanpoint"

# Functions timed with a span (name, start, end, parent).
SPAN_NAMES = (
    "harness.measure_error",
    "bounds.bound_report",
    "geometry.packing_profile",
    "geometry.chaining_decomposition",
    "geometry.diameter",
    "hull.project_onto_hull",
    "privacy.compose",
    "central.pmw_mechanism",
    "local.simulate_protocol",
)
# Functions whose calls are only counted.  ``local.local_release`` runs
# once per party and level, so a span there would cost more than the
# work it measures; its time stays in ``local.simulate_protocol``.
COUNT_NAMES = (
    "bounds.bound_profile",
    "privacy.mean_sensitivity",
    "local.local_release",
)


def _lookup(dotted: str):
    """(module, attribute) for ``module.func`` in the package, or None."""
    mod_name, attr = dotted.rsplit(".", 1)
    try:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ModuleNotFoundError:
        return None
    if not callable(getattr(module, attr, None)):
        return None
    return module, attr


class Capture:
    """Keeps every release a cell makes and counts hull outcomes.

    ``releases`` holds ``(output, projections)`` in call order, where
    ``projections`` lists ``(target, ProjectionResult)`` for each hull
    projection made during that release.  A protocol's server, whose
    trace does not carry the projection results, is seen this way too.
    """

    def __init__(self):
        self.releases: list[tuple[object, list]] = []
        self.hull_calls = 0
        self.hull_iterations = 0
        self.hull_non_certified = 0
        self._current: list | None = None
        harness = importlib.import_module(f"{PACKAGE}.harness")
        hull = importlib.import_module(f"{PACKAGE}.hull")
        make_mechanism = harness.make_mechanism
        project = hull.project_onto_hull

        @functools.wraps(make_mechanism)
        def capturing_make_mechanism(spec):
            runner = make_mechanism(spec)

            def run(d, seed):
                self._current = projections = []
                try:
                    out = runner(d, seed)
                finally:
                    self._current = None
                self.releases.append((out, projections))
                return out

            return run

        @functools.wraps(project)
        def counting_project(y, *args, **kwargs):
            res = project(y, *args, **kwargs)
            self.hull_calls += 1
            self.hull_iterations += res.iterations
            if not res.certified:
                self.hull_non_certified += 1
            if self._current is not None:
                self._current.append((np.array(y, dtype=float), res))
            return res

        harness.make_mechanism = capturing_make_mechanism
        hull.project_onto_hull = counting_project

    def reset(self) -> None:
        self.releases.clear()
        self.hull_calls = self.hull_iterations = self.hull_non_certified = 0


class Tracer:
    """In-memory spans around named package functions.

    Each span is ``[name, start, end, parent, outermost]``: ``parent`` is
    the index of the enclosing span (-1 at the top) and ``outermost``
    is false when a span of the same name is already open, so inclusive
    times are not counted twice.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        for name in SPAN_NAMES:
            self._install(name, self._span_wrapper)
        for name in COUNT_NAMES:
            self._install(name, self._count_wrapper)

    def _install(self, name: str, make_wrapper) -> None:
        found = _lookup(name)
        if found is None:
            self.missing.append(name)
            return
        module, attr = found
        setattr(module, attr, make_wrapper(name, getattr(module, attr)))

    def _span_wrapper(self, name, fn):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      open_names[name] == 0]
            spans.append(record)
            stack.append(index)
            open_names[name] += 1
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_names[name] -= 1
                stack.pop()

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive ms (outermost spans) and self ms."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            if outermost:
                row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[i]) * 1e3
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            out[name]["calls"] = calls
        return out

    def to_json(self) -> dict:
        """Spans relative to the first start, in ms, plus the totals."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "span_fields": ["name", "start_ms", "end_ms", "parent"],
            "spans": [[name, (start - t0) * 1e3, (end - t0) * 1e3, parent]
                      for name, start, end, parent, _ in self.spans],
            "totals": self.totals(),
            "missing": list(self.missing),
        }
