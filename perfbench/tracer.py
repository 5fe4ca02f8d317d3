"""Outside-in layer tracer for coolspec.

Wraps named functions of the package at their call sites: the wrapper
replaces every binding of the original function object in the package's
loaded modules (and class attributes for methods), so calls made through
`from .dynamics import propagate` are seen as well.  Each wrapped call is a
span; a span's self time is its duration minus the time covered by the
spans it encloses.  Time inside the root call that no span covers is the
unattributed time.

A target that no longer exists (a module, class or function renamed or
removed by a refactor) is reported as absent instead of raising.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# label, module (relative to the package), attribute path
SPANS = (
    ("system.eigensystem", "system", "eigensystem"),
    ("bath.rate_table", "bath", "rate_table"),
    ("generators.bloch_redfield_generator", "generators", "bloch_redfield_generator"),
    ("generators.secular_generator", "generators", "secular_generator"),
    ("generators.phenomenological_generator", "generators", "phenomenological_generator"),
    ("generators.radiative_dissipator", "generators", "radiative_dissipator"),
    ("generators.total_liouvillian", "generators", "total_liouvillian"),
    ("dynamics.steady_state", "dynamics", "steady_state"),
    ("dynamics.steady_residual", "dynamics", "steady_residual"),
    ("dynamics.heat_current_trace", "dynamics", "heat_current_trace"),
    ("dynamics.propagate", "dynamics", "propagate"),
    ("dynamics.mean_heat_fd", "dynamics", "mean_heat_fd"),
    ("dynamics.min_eigenvalue", "dynamics", "min_eigenvalue"),
    ("tcl.correlation_grid", "tcl", "correlation_grid"),
    ("tcl.TclPropagator.init", "tcl", "TclPropagator.__init__"),
    ("tcl.TclPropagator.generator", "tcl", "TclPropagator.generator"),
    ("tcl.TclPropagator.propagate", "tcl", "TclPropagator.propagate"),
    ("sweep.run_sweep", "sweep", "run_sweep"),
    ("sweep.evaluate_point", "sweep", "evaluate_point"),
    ("sweep.write_output", "sweep", "write_output"),
)

# call counters without a span, rebound only in the named module: they
# count calls of a foreign function made through that module
COUNTERS = (
    ("bath.quad", "bath", "quad"),
)

# spans whose return value starts with the array of fixed-step times, so
# len(times) - 1 is the number of integration steps taken
STEP_SPANS = frozenset({"dynamics.propagate", "tcl.TclPropagator.propagate"})

# spans whose individual durations are kept for percentiles
SAMPLED_SPANS = frozenset({"sweep.evaluate_point"})


class SpanStats:
    """Aggregates of one span label."""

    __slots__ = ("calls", "total_s", "self_s", "first_s", "steps", "samples")

    def __init__(self, sampled: bool):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.first_s = 0.0
        self.steps = 0
        self.samples = [] if sampled else None

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
               "first_s": self.first_s, "steps": self.steps}
        if self.samples is not None:
            out["samples"] = self.samples
        return out


def _resolve(package: str, module: str, path: str):
    """Return (owner, attribute name, object), or None when any part is gone."""
    try:
        owner = importlib.import_module(f"{package}.{module}")
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    if not callable(obj):
        return None
    return owner, name, obj


class Tracer:
    """Installs span and counter wrappers into a package and aggregates them."""

    def __init__(self, package: str = "coolspec", spans=SPANS, counters=COUNTERS):
        self.package = package
        self.spans = {label: SpanStats(label in SAMPLED_SPANS) for label, _, _ in spans}
        self.counters = {label: 0 for label, _, _ in counters}
        self.absent: list[str] = []
        self.wall_s = 0.0
        self.unattributed_s = 0.0
        # one frame per open span, holding the time its child spans covered
        self._stack = [[0.0]]
        self._span_targets = spans
        self._counter_targets = counters

    def install(self):
        for label, module, path in self._span_targets:
            found = _resolve(self.package, module, path)
            if found is None:
                self.absent.append(label)
                continue
            owner, name, original = found
            wrapper = self._wrap_span(label, original)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
            else:
                self._rebind_everywhere(original, wrapper)
        for label, module, path in self._counter_targets:
            found = _resolve(self.package, module, path)
            if found is None:
                self.absent.append(label)
                continue
            owner, name, original = found
            setattr(owner, name, self._wrap_counter(label, original))

    def _rebind_everywhere(self, original, wrapper):
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap_span(self, label, fn):
        stats = self.spans[label]
        stack = self._stack
        clock = time.perf_counter
        count_steps = label in STEP_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                if stats.calls == 0:
                    stats.first_s = duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stats.samples is not None:
                    stats.samples.append(duration)
            if count_steps:
                try:
                    stats.steps += len(result[0]) - 1
                except (TypeError, IndexError, KeyError):
                    pass  # the return value changed shape: steps read 0
            return result

        return wrapper

    def _wrap_counter(self, label, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call fn as the root span; its uncovered time is unattributed."""
        root = self._stack[0]
        root[0] = 0.0
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_s = time.perf_counter() - start
            self.unattributed_s = self.wall_s - root[0]

    def report(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "unattributed_s": self.unattributed_s,
            "absent": list(self.absent),
            "spans": {label: s.as_dict() for label, s in self.spans.items()},
            "counters": dict(self.counters),
        }
