"""Span tracing for the traced benchmark run.

The tracer keeps a stack of open spans in memory. When a span closes, its
duration is added to its parent's covered time, and its duration and self
time (duration minus the time covered by child spans) are folded into an
aggregate keyed by (name, parent name). Every span keeps its duration for
percentiles, but only spans outside the kernel layer also keep a full
record (id, parent id, start, end): QNN training makes tens of thousands
of kernel calls, and those are summarised per (name, parent) instead.

Wrappers are installed from this module, around public functions at the
name their caller looks them up under, and removed again afterwards; the
program itself carries no tracing code.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

# Spans under this name prefix are aggregated without a full record.
KERNEL_PREFIX = "statevector."

PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10


@dataclass
class Aggregate:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.paused = False
        self._stack: list[list] = []  # [name, start, covered, record index or None]
        self.records: list[dict] = []
        self.stats: dict[tuple[str, str | None], Aggregate] = {}

    def enter(self, name: str) -> None:
        index = None
        if not name.startswith(KERNEL_PREFIX):
            parent = self._stack[-1][3] if self._stack else None
            index = len(self.records)
            self.records.append({"id": index, "parent": parent, "name": name,
                                 "start": None, "end": None})
        self._stack.append([name, self.clock(), 0.0, index])

    def exit(self, counters: dict | None = None) -> None:
        end = self.clock()
        name, start, covered, index = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        agg = self.stats.setdefault((name, parent[0] if parent else None), Aggregate())
        agg.calls += 1
        agg.busy_s += duration
        agg.self_s += duration - covered
        agg.durations.append(duration)
        for key, value in (counters or {}).items():
            agg.counters[key] = agg.counters.get(key, 0) + value
        if index is not None:
            self.records[index]["start"] = start
            self.records[index]["end"] = end

    def write(self, path) -> None:
        """Span records plus the per-(name, parent) aggregates, one JSON
        object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps({"span": rec}) + "\n")
            for (name, parent), agg in sorted(self.stats.items(), key=lambda kv: str(kv[0])):
                fh.write(json.dumps({"aggregate": {
                    "name": name, "parent": parent, "calls": agg.calls,
                    "busy_s": agg.busy_s, "self_s": agg.self_s, "counters": agg.counters,
                }}) + "\n")


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] minus the part covered by the union of the
    child intervals (clipped to the parent): the definition the tracer's
    stack arithmetic is tested against."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in children if b > start and a < end)
    covered = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return (end - start) - covered


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank of percentile ``pct`` among n samples, computed
    exactly (0.9999 * n in floating point can round up past an integer)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value) for the highest percentile on the ladder that has
    at least TAIL_MIN_BEYOND samples strictly beyond its nearest rank;
    (0.0, 0.0) when even the median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    best = (0.0, 0.0)
    for pct in PERCENTILE_LADDER:
        rank = _rank(pct, n)
        if n - rank < TAIL_MIN_BEYOND:
            break
        best = (pct, ordered[rank - 1])
    return best


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1] if ordered else 0.0


# ---------------------------------------------------------------------------
# Wrappers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One wrapper: ``owner`` is a module path, optionally followed by
    ``:Class``; ``attr`` the name looked up there; ``name`` the span name
    (module of definition plus function). ``variant(args, kwargs)`` may add
    a suffix, ``before()`` captures state for ``count``, and
    ``count(state, args, kwargs, result)`` returns counters for the span."""

    owner: str
    attr: str
    name: str
    variant: object = None
    before: object = None
    count: object = None


def _resolve(owner: str):
    module_path, _, cls = owner.partition(":")
    obj = importlib.import_module(module_path)
    return getattr(obj, cls) if cls else obj


def _make_wrapper(tracer: Tracer, hook: Hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        name = hook.name if hook.variant is None else f"{hook.name}.{hook.variant(args, kwargs)}"
        state = hook.before() if hook.before is not None else None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        tracer.exit(hook.count(state, args, kwargs, result) if hook.count else None)
        return result

    return wrapper


class Installed:
    """Wrappers in place for one traced pass; ``restore`` puts the original
    objects back and ``verify_restored`` checks that it did."""

    def __init__(self, tracer: Tracer, hooks):
        self.originals: list[tuple[object, str, object]] = []
        try:
            for hook in hooks:
                owner = _resolve(hook.owner)
                original = vars(owner)[hook.attr]
                setattr(owner, hook.attr, _make_wrapper(tracer, hook, original))
                self.originals.append((owner, hook.attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        for owner, attr, original in reversed(self.originals):
            setattr(owner, attr, original)

    def verify_restored(self) -> list[str]:
        """Names whose current object is not the original one."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self.originals
                if vars(owner)[attr] is not original]
