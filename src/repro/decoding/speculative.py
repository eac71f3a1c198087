"""Vanilla speculative decoding — the paper's speculative baselines.

Configurations mirror the paper's baselines: (prediction length, beam size)
of (8, 1), (16, 1) and (8, 2).  With one beam the draft proposes a single
linear sequence of fixed length; with two beams the first uncertain position
spawns a second branch (top-2 token) and both branches are extended in
batched draft passes, then verified together as a token tree.

The draft → verify phase loop (:class:`DraftVerifyDecoder`) is shared by
every speculative baseline: the fixed and dynamic token trees and
speculative sampling supply only their draft and verify hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.decoding.base import (
    PHASE_DRAFT,
    PHASE_VERIFY,
    DecodeResult,
    DecodeTrace,
    ModelLike,
    PhaseGenerator,
    PhasedDecodeStepper,
    RoundStats,
    as_cursor,
    strip_eos,
)
from repro.decoding.token_tree import ROOT_PARENT, TokenTree
from repro.decoding.verifier import verify_sequence, verify_tree
from repro.models.latency import KIND_DRAFT, SimClock


@dataclass(frozen=True)
class SpeculativeConfig:
    """(prediction length, beam size) of the speculative baseline."""

    draft_len: int = 8
    beams: int = 1

    def __post_init__(self) -> None:
        if self.draft_len < 1:
            raise ValueError("draft_len must be >= 1")
        if self.beams not in (1, 2):
            raise ValueError("beams must be 1 or 2")

    @property
    def label(self) -> str:
        return f"({self.draft_len}, {self.beams})"


def commit(
    prefix: list[int], new_tokens: list[int], eos_id: int
) -> tuple[list[int], bool]:
    """Append ``new_tokens`` to ``prefix``; stop at the first EOS."""
    done = False
    for token in new_tokens:
        prefix.append(token)
        if token == eos_id:
            done = True
            break
    return prefix, done


class DraftVerifyDecoder:
    """The draft → verify phase loop shared by the speculative baselines.

    Each round drafts a proposal (a draft phase), verifies it in one target
    pass (a verify phase), commits the emitted tokens up to the first EOS
    and rolls both sessions back to the committed prefix.  Subclasses set
    ``draft``/``target``/``name`` and supply the per-decode round hooks via
    :meth:`_round_hooks`::

        draft_fn(draft_session, draft_cursor, stats, eos_id, round_index)
            -> proposal
        verify_fn(target_session, target_cursor, proposal, stats, round_index)
            -> emitted tokens (accepted tokens + correction/bonus)

    Both hooks fill in the round's :class:`RoundStats`.
    """

    draft: ModelLike
    target: ModelLike
    name: str
    _draft_round: Callable

    def begin(self, unit) -> PhasedDecodeStepper:
        """Step-resumable decode; each step is one draft→verify round, split
        into a draft phase and a verify phase."""
        clock = SimClock()
        return PhasedDecodeStepper(self._decode_phases(unit, clock), clock)

    def decode(self, unit) -> DecodeResult:
        return self.begin(unit).drain()

    def _round_hooks(self, unit) -> tuple[Callable, Callable]:
        """The ``(draft_fn, verify_fn)`` pair for one decode of ``unit``.

        By default a subclass's ``_draft_round`` proposes a token tree and
        :func:`verify_tree_round` verifies it.
        """
        return self._draft_round, verify_tree_round

    def _decode_phases(self, unit, clock: SimClock) -> PhaseGenerator:
        draft_fn, verify_fn = self._round_hooks(unit)
        draft_session = self.draft.session(unit, clock)
        target_session = self.target.session(unit, clock)
        draft_session.prefill()
        eos_id = self.target.vocab.eos_id
        trace = DecodeTrace()
        prefix: list[int] = []
        draft_cursor = as_cursor(draft_session)
        target_cursor = as_cursor(target_session)
        limit = target_session.max_decode_positions()
        target_prefilled = False
        round_index = 0
        done = False
        while not done and len(prefix) < limit:
            stats = RoundStats()
            drafted = draft_fn(draft_session, draft_cursor, stats, eos_id, round_index)
            yield PHASE_DRAFT, self.draft.name, (), False, False
            if not target_prefilled:
                # Target prefill bills to the first verify phase, so a
                # disaggregating router charges it to the target pool.
                target_session.prefill()
                target_prefilled = True
            emitted = verify_fn(
                target_session, target_cursor, drafted, stats, round_index
            )
            trace.rounds.append(stats)
            committed_before = len(prefix)
            prefix, done = commit(prefix, emitted, eos_id)
            newly_committed = prefix[committed_before:]
            draft_cursor = draft_cursor.extend(newly_committed)
            target_cursor = target_cursor.extend(newly_committed)
            draft_cursor.rollback()
            target_cursor.rollback()
            round_index += 1
            done = done or len(prefix) >= limit
            yield PHASE_VERIFY, self.target.name, newly_committed, True, done
        return DecodeResult(
            tokens=strip_eos(prefix, eos_id),
            clock=clock,
            trace=trace,
            method=self.name,
        )


def verify_tree_round(target_session, target_cursor, tree, stats, _round_index):
    """Verify hook of the tree-shaped drafts: one masked tree pass."""
    outcome = verify_tree(target_session, target_cursor, tree)
    stats.accepted_tokens = len(outcome.accepted_tokens)
    emitted = outcome.accepted_tokens + [outcome.correction]
    stats.emitted_tokens = len(emitted)
    return emitted


class SpeculativeDecoder(DraftVerifyDecoder):
    """Draft-then-verify decoding with a fixed prediction length."""

    def __init__(
        self,
        draft: ModelLike,
        target: ModelLike,
        config: SpeculativeConfig = SpeculativeConfig(),
        name: str | None = None,
    ) -> None:
        self.draft = draft
        self.target = target
        self.config = config
        self.name = name or f"speculative{config.label}"

    def _round_hooks(self, unit) -> tuple[Callable, Callable]:
        if self.config.beams == 1:
            return self._draft_single, self._verify_single
        return self._draft_beams, verify_tree_round

    # -- single-beam round ------------------------------------------------------
    def _draft_single(
        self, draft_session, draft_cursor, stats, eos_id, _round_index
    ) -> list[int]:
        drafts: list[int] = []
        cursor = draft_cursor
        for _ in range(self.config.draft_len):
            result = draft_session.step(cursor, kind=KIND_DRAFT)
            stats.draft_steps += 1
            drafts.append(result.token)
            if result.token == eos_id:
                break
            cursor = cursor.advance(result.token)
        stats.drafted_tokens = len(drafts)
        stats.submitted_tokens = len(drafts)
        stats.tree_nodes = len(drafts)
        return drafts

    def _verify_single(
        self, target_session, target_cursor, drafts, stats, _round_index
    ) -> list[int]:
        outcome = verify_sequence(target_session, target_cursor, drafts)
        stats.accepted_tokens = outcome.accepted
        emitted = drafts[: outcome.accepted] + [outcome.correction]
        stats.emitted_tokens = len(emitted)
        return emitted

    # -- two-beam round ------------------------------------------------------
    def _draft_beams(
        self, draft_session, draft_cursor, stats, eos_id, _round_index
    ) -> TokenTree:
        tree = TokenTree()
        first = draft_session.step(draft_cursor, kind=KIND_DRAFT)
        stats.draft_steps += 1
        primary = tree.add(first.token, ROOT_PARENT, first.top_prob)
        node_cursors = {primary: draft_cursor.advance(first.token)}
        frontier = [primary]
        if len(first.topk) > 1 and first.topk[1][0] != first.token:
            secondary_token, secondary_prob = first.topk[1]
            secondary = tree.add(secondary_token, ROOT_PARENT, secondary_prob)
            node_cursors[secondary] = draft_cursor.advance(secondary_token)
            frontier.append(secondary)
        # Extend every live branch one token per batched draft pass.
        for _ in range(self.config.draft_len - 1):
            live = [node for node in frontier if tree.nodes[node].token != eos_id]
            if not live:
                break
            results = draft_session.step_frontier(
                [node_cursors[node] for node in live], kind=KIND_DRAFT
            )
            stats.draft_steps += 1
            frontier = []
            for node, result in zip(live, results, strict=True):
                child = tree.add(result.token, node, result.top_prob)
                node_cursors[child] = node_cursors[node].advance(result.token)
                frontier.append(child)
        stats.drafted_tokens = len(tree)
        stats.submitted_tokens = tree.max_depth()
        stats.tree_nodes = len(tree)
        return tree
