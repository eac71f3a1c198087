"""Phase tapes: decode each utterance once per decoder, then replay it.

A decode is a pure function of (decoder, utterance): the adaptive-threshold
controller is per-decode, sampling is seeded per unit, and the scheduler
only delays or retries phases, because a stepper advances only when its
phase commits.  So the first decode of an utterance records every
:class:`~repro.decoding.base.PhaseOutcome` its stepper produced, plus the
EOS-stripped transcript and ``decode_ms``, and later decodes of the same
utterance *by the same decoder instance* replay that tape phase by phase.

Tapes live in a module-level weak map from decoder instance to an
LRU-bounded cache keyed by ``unit.content_key``: a fresh decoder starts
cold, and a discarded decoder's tapes go with it.  A tape is stored only
once its final ``done=True`` phase was produced — a decode abandoned
mid-way (shed, rejected, run ended) leaves nothing behind.  Units without a
``content_key`` always decode live.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Protocol

from repro.decoding.base import PhasedDecodeStepper, PhaseOutcome
from repro.utils.cache import LRUCache

#: Tapes kept per decoder instance (least recently replayed evicted first).
TAPE_CACHE_SIZE = 256


@dataclass(frozen=True)
class PhaseTape:
    """One finished decode: its phases, transcript and simulated cost."""

    phases: tuple[PhaseOutcome, ...]
    tokens: tuple[int, ...]  # EOS stripped
    decode_ms: float  # the decode's SimClock total


class DecodeStepper(Protocol):
    """What a serving loop needs from a decode in flight.

    ``tokens`` and ``decode_ms`` are valid once ``done``: after
    ``step_phase()`` has returned the ``done=True`` phase.
    """

    tokens: tuple[int, ...]
    decode_ms: float

    @property
    def done(self) -> bool: ...

    def step_phase(self) -> PhaseOutcome: ...


class _Replay:
    """Steps through a recorded tape."""

    __slots__ = ("_phases", "_next", "tokens", "decode_ms")

    def __init__(self, tape: PhaseTape) -> None:
        self._phases = tape.phases
        self._next = 0
        self.tokens = tape.tokens
        self.decode_ms = tape.decode_ms

    @property
    def done(self) -> bool:
        return self._next >= len(self._phases)

    def step_phase(self) -> PhaseOutcome:
        outcome = self._phases[self._next]
        self._next += 1
        return outcome


class _Recorder:
    """Runs a live decode and stores its tape when the decode finishes."""

    __slots__ = ("_stepper", "_phases", "_tapes", "_key", "tokens", "decode_ms")

    def __init__(
        self,
        stepper: PhasedDecodeStepper,
        tapes: LRUCache[int, PhaseTape] | None,
        key: int,
    ) -> None:
        self._stepper = stepper
        self._phases: list[PhaseOutcome] = []
        self._tapes = tapes
        self._key = key
        self.tokens: tuple[int, ...] = ()
        self.decode_ms = 0.0

    @property
    def done(self) -> bool:
        return self._stepper.done

    def step_phase(self) -> PhaseOutcome:
        outcome = self._stepper.step_phase()
        self._phases.append(outcome)
        if outcome.done:
            result = self._stepper.result
            self.tokens = tuple(result.tokens)
            self.decode_ms = result.total_ms
            if self._tapes is not None:
                tape = PhaseTape(tuple(self._phases), self.tokens, self.decode_ms)
                self._tapes.put(self._key, tape)
        return outcome


_TAPES: weakref.WeakKeyDictionary[object, LRUCache[int, PhaseTape]] = (
    weakref.WeakKeyDictionary()
)
_LOCK = threading.Lock()


def tapes_of(decoder) -> LRUCache[int, PhaseTape]:
    """The tape cache of ``decoder`` (created empty on first use)."""
    with _LOCK:
        tapes = _TAPES.get(decoder)
        if tapes is None:
            tapes = _TAPES[decoder] = LRUCache(TAPE_CACHE_SIZE)
        return tapes


def begin(decoder, unit) -> DecodeStepper:
    """Start decoding ``unit``: replay its tape, or record a live decode."""
    key = getattr(unit, "content_key", None)
    if key is None:
        return _Recorder(decoder.begin(unit), None, 0)
    tapes = tapes_of(decoder)
    tape = tapes.get(key)
    if tape is not None:
        return _Replay(tape)
    return _Recorder(decoder.begin(unit), tapes, key)
