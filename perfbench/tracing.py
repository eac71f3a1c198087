"""In-memory span tracing for the benchmark's traced run.

The benchmark wraps public functions of the program from its own files; the
program itself carries no tracing code.  Each wrapped call is either

* a **stored span** — name, layer, start, end, parent span and, where the
  call has one, the request id — kept in memory and written out when the
  run ends, or
* a **hot call** (oracle and session entry points, called millions of
  times): only its count, total time and self time are aggregated per
  ``(name, layer, parent span)``.  Once ``max_spans`` spans are stored,
  every further call is aggregated the same way, so memory stays bounded
  while counts and self times stay exact.

A call's self time is its duration minus what its children cover.  Calls
nest strictly in one thread, so the children of one call are disjoint
intervals inside it and the cover is the sum of their durations; a
per-call frame stack accumulates it as the children return.

:func:`install` swaps every target for its wrapper and returns the patches;
:func:`restore` puts the originals back.  The untraced timed runs depend on
that restore, so :func:`installed` checks it.
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is the class or module that defines ``attr``.  A module-level
    function is also re-bound in every loaded module that imported it by
    name, so callers that did ``from x import f`` see the wrapper too.
    ``request`` names the parameter carrying the request id, and its
    position in the call's arguments (counting ``self``).  ``after`` runs
    outside the span with ``(args, result)`` to collect counters.
    """

    owner: object
    attr: str
    layer: str
    hot: bool = False
    request: tuple[str, int] | None = None
    after: Callable | None = None

    @property
    def name(self) -> str:
        return f"{getattr(self.owner, '__name__', self.owner)}.{self.attr}"


@dataclass
class Span:
    """One stored call; ``parent`` indexes the enclosing stored span (-1)."""

    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int | None = None
    self_s: float = 0.0


class Tracer:
    """Collects stored spans and aggregated calls from wrapped calls."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 200_000,
    ) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.spans: list[Span] = []
        # (name, layer, parent span) -> [count, total_s, self_s]
        self.aggregated: dict[tuple[str, str, int], list] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self._frames: list[list[float]] = []  # [start, children_s] per call
        self._open: list[int] = []  # indices of the enclosing stored spans

    def wrap(self, fn: Callable, target: Target) -> Callable:
        name, layer, hot = target.name, target.layer, target.hot
        request, after = target.request, target.after
        clock, frames, open_spans, spans = (
            self.clock,
            self._frames,
            self._open,
            self.spans,
        )
        aggregated, max_spans = self.aggregated, self.max_spans

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            store = not hot and len(spans) < max_spans
            if store:
                rid = None
                if request is not None:
                    key, position = request
                    if key in kwargs:
                        rid = kwargs[key]
                    elif position < len(args):
                        rid = args[position]
                index = len(spans)
                spans.append(Span(name, layer, 0.0, parent=parent, request=rid))
                open_spans.append(index)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - frame[0]
                if frames:
                    frames[-1][1] += duration
                if store:
                    open_spans.pop()
                    span = spans[index]
                    span.start, span.end = frame[0], end
                    span.self_s = duration - frame[1]
                else:
                    entry = aggregated[(name, layer, parent)]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[1]
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- summaries -------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Calls per wrapped function name."""
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        for (name, _layer, _parent), entry in self.aggregated.items():
            out[name] += entry[0]
        return dict(out)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.layer] += span.self_s
        for (_name, layer, _parent), entry in self.aggregated.items():
            out[layer] += entry[2]
        return dict(out)

    def total_seconds(self, name: str) -> float:
        """Inclusive time of every call to ``name``."""
        stored = sum(s.end - s.start for s in self.spans if s.name == name)
        aggregated = sum(v[1] for k, v in self.aggregated.items() if k[0] == name)
        return stored + aggregated

    def write(self, path: Path, metadata: dict) -> None:
        """Write the spans as gzipped Chrome trace-event JSON.

        Opens in Perfetto / ``chrome://tracing``; the aggregated calls and
        ``metadata`` ride along under ``otherData``.
        """
        origin = min((s.start for s in self.spans), default=0.0)
        items = self.aggregated.items()
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": round((s.start - origin) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"span": i, "parent": s.parent, "request": s.request},
            }
            for i, s in enumerate(self.spans)
        ]
        aggregated = [
            {
                "name": name,
                "layer": layer,
                "parent": parent,
                "count": count,
                "total_s": total,
                "self_s": self_s,
            }
            for (name, layer, parent), (count, total, self_s) in items
        ]
        other = {**metadata, "aggregated": aggregated}
        payload = {"traceEvents": events, "otherData": other}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- patching -----------------------------------------------------------------
Patch = tuple[object, str, object]  # (namespace, attribute, original value)

#: Packages whose ``from module import name`` copies are re-bound.
REBIND_PACKAGES = ("repro", "perfbench")


def _raw(owner: object, attr: str) -> object:
    return inspect.getattr_static(owner, attr)


def install(tracer: Tracer, targets: list[Target]) -> list[Patch]:
    """Swap every target for a traced wrapper; returns the patches made."""
    patches: list[Patch] = []
    try:
        for target in targets:
            raw = _raw(target.owner, target.attr)
            if isinstance(target.owner, types.ModuleType):
                wrapped = tracer.wrap(raw, target)
                # Re-bind every ``from module import name`` copy as well.
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith(REBIND_PACKAGES):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            patches.append((module, key, raw))
                            setattr(module, key, wrapped)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, target))
            elif isinstance(raw, types.FunctionType):
                wrapped = tracer.wrap(raw, target)
            else:
                kind = type(raw).__name__
                raise TypeError(f"cannot trace {target.name}: {kind}")
            patches.append((target.owner, target.attr, raw))
            setattr(target.owner, target.attr, wrapped)
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[Patch]) -> None:
    """Undo :func:`install`, newest patch first."""
    for namespace, attr, original in reversed(patches):
        setattr(namespace, attr, original)


@contextmanager
def installed(tracer: Tracer, targets: list[Target]) -> Iterator[None]:
    """Trace ``targets`` inside the block; verify the restore on exit."""
    before = [(t.owner, t.attr, _raw(t.owner, t.attr)) for t in targets]
    patches = install(tracer, targets)
    try:
        yield
    finally:
        restore(patches)
        for owner, attr, raw in before:
            if _raw(owner, attr) is not raw:
                raise RuntimeError(f"tracing left {owner}.{attr} wrapped")


# -- percentiles ----------------------------------------------------------------
def tail_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it.

    ``None`` when fewer than 20 samples leave even the median unsupported.
    """
    if count < 20:
        return None
    return min(99, math.floor(100.0 * (count - 10) / count))
