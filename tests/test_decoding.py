"""Tests for autoregressive, vanilla speculative and fixed-tree decoders, and
the one decode protocol every decoder shares."""

import dataclasses
import hashlib
import inspect
import json

import pytest

import repro.core
import repro.decoding
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.base import strip_eos
from repro.decoding.speculative import SpeculativeConfig, SpeculativeDecoder, commit
from repro.decoding.tree_spec import FixedTreeConfig, FixedTreeDecoder
from repro.harness.methods import build_method
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.registry import model_pair

from tests.fakes import EOS, FakeUnit, ScriptedModel


class TestHelpers:
    def test_strip_eos(self):
        assert strip_eos([5, 6, EOS], EOS) == [5, 6]
        assert strip_eos([5, 6], EOS) == [5, 6]
        assert strip_eos([], EOS) == []

    def test_commit_stops_at_eos(self):
        prefix, done = commit([5], [6, EOS, 9], EOS)
        assert prefix == [5, 6, EOS]
        assert done

    def test_commit_without_eos(self):
        prefix, done = commit([5], [6, 7], EOS)
        assert prefix == [5, 6, 7]
        assert not done


def _decoder_classes():
    for package in (repro.decoding, repro.core):
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) and hasattr(obj, "decode"):
                yield obj


class TestOneProtocol:
    """Every decoder is a phase generator behind ``begin()``."""

    def test_every_decoder_class_has_begin(self):
        classes = list(_decoder_classes())
        assert len(classes) >= 7
        for cls in classes:
            assert callable(getattr(cls, "begin", None)), cls.__name__


#: Transcripts + per-round counters + SimClock event multiset (SHA-256
#: prefix) and total simulated ms of the Table I baselines over the
#: 32-utterance whisper test-clean corpus, recorded before they became
#: phase generators.  Target prefill moved from before the first draft to
#: the first verify phase, so the events are compared as a multiset and the
#: float total (summed in event order) only to the last bits.
TABLE1_PINS = {
    "fixed-tree": ("5774a63d85cd3656", 19602.82019557458),
    "dynamic-tree": ("79c8eb3c43d4e097", 17098.671195574578),
    "spec-sampling": ("79d3cf9f5e58d77f", 24514.423195574585),
}


@pytest.mark.parametrize("method", sorted(TABLE1_PINS))
def test_table1_baselines_match_pre_phase_port(method):
    dataset = load_split("test-clean", ExperimentConfig(seed=0, utterances=32))
    draft, target = model_pair("whisper", shared_vocabulary())
    decoder = build_method(method, draft, target)
    rows, events, total_ms = [], [], 0.0
    for utterance in dataset:
        result = decoder.decode(utterance)
        rounds = [dataclasses.astuple(stats) for stats in result.trace.rounds]
        rows.append([result.tokens, rounds])
        events.append(
            sorted(
                (e.model, e.kind, e.new_tokens, e.cached_tokens)
                for e in result.clock.events
            )
        )
        total_ms += result.total_ms
    digest = hashlib.sha256(json.dumps([rows, events]).encode()).hexdigest()
    pinned_digest, pinned_ms = TABLE1_PINS[method]
    assert digest[:16] == pinned_digest
    assert total_ms == pytest.approx(pinned_ms, rel=1e-12)


class TestAutoregressive:
    def test_decodes_stream(self):
        target = ScriptedModel(stream=[5, 6, 7, EOS], name="target")
        result = AutoregressiveDecoder(target).decode(FakeUnit())
        assert result.tokens == [5, 6, 7]

    def test_one_forward_per_token(self):
        target = ScriptedModel(stream=[5, 6, 7, EOS], name="target")
        result = AutoregressiveDecoder(target).decode(FakeUnit())
        assert result.clock.count_for_kind("decode") == 4  # 3 tokens + EOS

    def test_respects_length_cap(self):
        # Stream never emits EOS within the cap.
        target = ScriptedModel(stream=[5] * 100, name="target")
        target.session = lambda unit, clock, _m=target: _CappedSession(_m, clock)
        result = AutoregressiveDecoder(target).decode(FakeUnit())
        assert len(result.tokens) <= 104


class _CappedSession:
    """Session with a small cap to exercise the decoder's safety net."""

    def __init__(self, model, clock):
        from tests.fakes import ScriptedSession

        self._inner = ScriptedSession(model, clock)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def max_decode_positions(self):
        return 6


class TestSpeculative:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SpeculativeConfig(draft_len=0)
        with pytest.raises(ValueError):
            SpeculativeConfig(beams=3)

    def test_lossless_when_models_agree(self):
        stream = [5, 6, 7, 8, 9, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(4, 1)).decode(
            FakeUnit()
        )
        assert result.tokens == [5, 6, 7, 8, 9]
        # perfect agreement: first round accepts all 4 drafts
        assert result.trace.rounds[0].accepted_tokens == 4

    def test_lossless_when_models_disagree(self):
        target_stream = [5, 6, 7, 8, EOS]
        draft_stream = [5, 9, 7, 8, EOS]  # disagrees at position 1
        draft = ScriptedModel(stream=draft_stream, name="draft")
        target = ScriptedModel(stream=target_stream, name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(4, 1)).decode(
            FakeUnit()
        )
        assert result.tokens == [5, 6, 7, 8]

    def test_draft_steps_bounded_by_gamma(self):
        stream = [5] * 20 + [EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(8, 1)).decode(
            FakeUnit()
        )
        assert all(r.draft_steps <= 8 for r in result.trace.rounds)

    def test_two_beams_builds_tree(self):
        stream = [5, 6, 7, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target, SpeculativeConfig(4, 2)).decode(
            FakeUnit()
        )
        assert result.tokens == [5, 6, 7]
        first_round = result.trace.rounds[0]
        assert first_round.tree_nodes > first_round.submitted_tokens

    def test_latency_totals_equal_event_sum(self):
        stream = [5, 6, 7, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = SpeculativeDecoder(draft, target).decode(FakeUnit())
        assert result.total_ms == pytest.approx(sum(e.ms for e in result.clock.events))


class TestFixedTree:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FixedTreeConfig(branching=())
        with pytest.raises(ValueError):
            FixedTreeConfig(branching=(2, 0))

    def test_lossless(self):
        stream = [5, 6, 7, 8, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = FixedTreeDecoder(
            draft, target, FixedTreeConfig((2, 1, 1))
        ).decode(FakeUnit())
        assert result.tokens == [5, 6, 7, 8]

    def test_tree_width_follows_branching(self):
        stream = [5, 6, 7, 8, EOS]
        draft = ScriptedModel(stream=list(stream), name="draft")
        target = ScriptedModel(stream=list(stream), name="target")
        result = FixedTreeDecoder(
            draft, target, FixedTreeConfig((2, 2, 1))
        ).decode(FakeUnit())
        first = result.trace.rounds[0]
        # depth-wise: 2 roots, then 4, then 4 → 10 nodes
        assert first.tree_nodes == 10

    def test_on_simulated_models_matches_ar(self, whisper_pair, clean_dataset):
        draft, target = whisper_pair
        ar = AutoregressiveDecoder(target)
        tree = FixedTreeDecoder(draft, target)
        for utterance in list(clean_dataset)[:3]:
            assert tree.decode(utterance).tokens == ar.decode(utterance).tokens
