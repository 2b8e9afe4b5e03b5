"""In-memory span tracer that wraps package functions from the outside.

A wrapped name is patched in every ``casorati.*`` module namespace that binds
the original object (and under every class attribute that aliases a method,
e.g. ``__rmul__ = __mul__``), so calls made through any import path are seen.
``restore`` puts every original back and ``find_wrapped`` proves it, so an
untraced loop that follows runs the package's own code.

Spans are ``(name, start, end, parent_index, job_id)`` tuples kept in a list
and written out only when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "casorati"
WRAPPER_MARK = "_bench_wrapper"


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Holds spans, counters and the patch log of one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.job_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, label=None, after=None):
        """Wrap fn in a span; ``label(args)`` may refine the span name and
        ``after(result, args)`` runs once the span is closed (not timed)."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(args) if label else name
            counts[span_name + ".calls"] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[span_name + ".raised"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, self.job_id)
            if after is not None:
                after(result, args)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def counter(self, name, fn, count_raise=None):
        """Wrap fn to count calls (and raises of ``count_raise``) only."""
        counts = self.counts
        key = name + ".calls"
        if count_raise is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            raised_key = name + ".raised"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                try:
                    return fn(*args, **kwargs)
                except count_raise:
                    counts[raised_key] += 1
                    raise

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def open_span(self, name: str) -> int:
        """Start a span driven by the caller (job spans); returns its index."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans[idx] = (name, time.perf_counter(), None, parent, self.job_id)
        return idx

    def close_span(self, idx: int) -> None:
        name, start, _, parent, job = self.spans[idx]
        if self._stack.pop() != idx:
            raise RuntimeError("job span closed out of order")
        self.spans[idx] = (name, start, time.perf_counter(), parent, job)

    # -- patching ---------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, wrapper_factory) -> None:
        """Replace module function ``attr`` wherever a package module binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper, original)

    def patch_method(self, cls, attr: str, wrapper_factory) -> None:
        """Replace method ``attr`` of ``cls`` and every alias of it in the class."""
        original = vars(cls)[attr]
        wrapper = wrapper_factory(original)
        for name, value in list(vars(cls).items()):
            if value is original:
                self._set(cls, name, wrapper, original)

    def _set(self, owner, name, wrapper, original) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched_count(self) -> int:
        return len(self._patches)


def find_wrapped() -> list[str]:
    """Every ``module.attr`` or ``module.Class.attr`` still bound to a wrapper."""
    found = []
    for mod in package_modules():
        for name, value in vars(mod).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


def self_times(spans: list) -> list[float]:
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the parent's interval."""
    children: defaultdict = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
