"""Span recording around the public functions of each grasshodge module.

The tracer rebinds a function's name in every grasshodge namespace that
holds it, so calls made through a module global (looked up at call time)
reach a recording wrapper.  No library source is touched, and uninstall()
puts every original back.  Spans stay in memory; a name that the library no
longer defines is skipped and simply reports 0 calls.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "grasshodge"

# (module, attribute, how): "span" records a timed span per call, "count"
# only counts calls (for hot helpers where a span would dominate their cost).
# The key of sigma_direct is its box width N, for the cost exponent over N.
TARGETS = [
    ("racah", "bound_scan", "span"),
    ("racah", "orthogonality_profile", "span"),
    ("racah", "certify_alternating_bound", "span"),
    ("racah", "alternating_profile", "span"),
    ("racah", "_full_int_table", "span"),
    ("racah", "racah_eval", "span"),
    ("lefschetz", "sigma_direct", "span"),
    ("lefschetz", "sigma_closed", "span"),
    ("lefschetz", "correction_op", "span"),
    ("lefschetz", "proj_commutator_check", "span"),
    ("chowring", "lefschetz_power", "span"),
    ("chowring", "intersection_pairing", "span"),
    ("chowring", "primitive_profile", "span"),
    ("chowring", "lefschetz_kernel", "span"),
    ("chowring", "hodge_star", "span"),
    ("exactmath", "decimal_approx", "span"),
    ("exactmath", "harmonic", "count"),
    ("exactmath", "binomial", "count"),
    ("cli", "emit_table", "span"),
]

_KEYS = {"lefschetz.sigma_direct": lambda inst, *rest, **kw: inst.N}


class Tracer:
    """Spans are tuples (name, start, end, parent index, op id, key)."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        key_of = _KEYS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                key = key_of(*args, **kwargs) if key_of else None
                spans[idx] = (name, start, end, parent, self.op, key)

        return functools.update_wrapper(wrapper, fn)

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, how in self.targets:
            name = f"{mod_name}.{attr}"
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.missing.append(name)
                continue
            make = self._span_wrapper if how == "span" else self._count_wrapper
            wrapper = make(name, original)
            for mod in modules:
                for global_name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, global_name, wrapper)
                        self._undo.append((mod, global_name, original))

    def uninstall(self) -> None:
        for mod, global_name, original in reversed(self._undo):
            setattr(mod, global_name, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per name: calls, inclusive seconds and self seconds.

        Inclusive time sums only the outermost span of each name, so a
        function that reaches itself again is not counted twice.  Self time
        is a span's duration minus the time its direct children cover.
        """
        done = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _key in done:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, parent, _op, _key = span
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child_time[idx]
            if not self._has_ancestor(parent, name):
                rec["s"] += end - start
        for name, n in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})["calls"] += n
        return out

    def _has_ancestor(self, idx: int, name: str) -> bool:
        while idx >= 0:
            span = self.spans[idx]
            if span[0] == name:
                return True
            idx = span[3]
        return False

    def time_by_key(self, name: str) -> dict:
        """Inclusive seconds of one span name, summed per recorded key."""
        out: dict = {}
        for span in self.spans:
            if span is not None and span[0] == name:
                out[span[5]] = out.get(span[5], 0.0) + span[2] - span[1]
        return out
