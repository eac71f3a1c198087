"""Phase tapes: a replayed decode serves exactly like a live one.

The contracts under test:

* **Cold == warm** — one decoder serving one trace twice (the second run
  replays every decode from its tapes) yields identical records and
  stats, across routers, fault plans, memory pressure and streaming.
* **Tape == offline** — every completed record's transcript and
  ``decode_ms`` equal ``decode()`` on a fresh decoder.
* **Only finished decodes are taped** — a request shed mid-decode leaves
  no tape, and every stored tape ends with its ``done=True`` phase.
* **Bounded and per decoder** — the per-decoder cache is LRU-bounded by
  ``TAPE_CACHE_SIZE``, a fresh decoder replays nothing, and a discarded
  decoder's tapes go with it.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

from repro.harness.methods import build_method
from repro.serving import (
    ClusterConfig,
    ContinuousBatchScheduler,
    MemorySpec,
    SchedulerConfig,
    StreamSpec,
    parse_fault_spec,
)
from repro.serving import tapes
from repro.serving.arrivals import Arrival
from repro.serving.request import SHED_RETRIES, STATUS_COMPLETED, STATUS_SHED
from repro.serving.router import measure_draft_share

METHOD = "specasr-asp"
ROUTERS = ("colocated", "disaggregated", "merged")
FAULTS = ("", "crash@300:dev1:restart=400;perr:0.02")


def _decoder(pair, method: str = METHOD):
    draft, target = pair
    return build_method(method, draft, target)


def _count_live_decodes(monkeypatch, decoder) -> list:
    """Record every live ``decoder.begin`` call (tape misses)."""
    started = []
    live_begin = decoder.begin

    def begin(unit):
        started.append(unit.content_key)
        return live_begin(unit)

    monkeypatch.setattr(decoder, "begin", begin)
    return started


def _trace(dataset, streamed: bool) -> list[Arrival]:
    # Every utterance four times, so the cold run already replays some
    # decodes; 20 ms apart, so crashes, retries and evictions all happen.
    rtf = 1.0 if streamed else 0.0
    return [
        Arrival(i, i % len(dataset), 20.0 * i, rtf=rtf)
        for i in range(4 * len(dataset))
    ]


def _serve(decoder, dataset, trace, router, faults, memory_blocks):
    scheduler = ContinuousBatchScheduler(
        decoder,
        SchedulerConfig(max_batch=4, max_inflight=16, queue_capacity=64),
        ClusterConfig(devices=2, router=router),
        faults=parse_fault_spec(faults, seed=5) if faults else None,
        # Small blocks put 48 of them under pressure on this corpus.
        memory=(
            MemorySpec(device_blocks=memory_blocks, block_size=4)
            if memory_blocks
            else None
        ),
        stream=StreamSpec(),
    )
    records = scheduler.run(trace, dataset)
    return records, scheduler.last_stats


def _recorded_tapes(decoder, utterances):
    """Decode every utterance through the tapes; yield ``(key, tape)``."""
    store = tapes.tapes_of(decoder)
    for utterance in utterances:
        stepper = tapes.begin(decoder, utterance)
        while not stepper.done:
            stepper.step_phase()
        yield utterance.content_key, store.get(utterance.content_key)


@pytest.fixture(scope="module")
def offline(whisper_pair, clean_dataset):
    """``decode()`` of every utterance on a fresh, never-served decoder."""
    decoder = _decoder(whisper_pair)
    return {
        utterance.content_key: decoder.decode(utterance)
        for utterance in clean_dataset
    }


class TestReplayParity:
    @pytest.mark.parametrize("streamed", [False, True], ids=["offline", "streamed"])
    @pytest.mark.parametrize("memory_blocks", [None, 48], ids=["mem-off", "mem-48"])
    @pytest.mark.parametrize("faults", FAULTS, ids=["no-faults", "crash-perr"])
    @pytest.mark.parametrize("router", ROUTERS)
    def test_warm_run_equals_cold_run_and_offline_decode(
        self,
        whisper_pair,
        clean_dataset,
        offline,
        monkeypatch,
        router,
        faults,
        memory_blocks,
        streamed,
    ):
        decoder = _decoder(whisper_pair)
        trace = _trace(clean_dataset, streamed)
        cold, cold_stats = _serve(
            decoder, clean_dataset, trace, router, faults, memory_blocks
        )
        # The workload really exercises what the case names.
        assert (cold_stats.retries > 0) == bool(faults)
        assert (cold_stats.evictions > 0) == bool(memory_blocks)
        assert any(r.stream_chunks for r in cold) == streamed
        taped = set(tapes.tapes_of(decoder).keys())
        live = _count_live_decodes(monkeypatch, decoder)
        warm, warm_stats = _serve(
            decoder, clean_dataset, trace, router, faults, memory_blocks
        )
        # The warm run replays every decode the cold run finished.
        assert not taped & set(live)
        if not faults:
            assert not live
        # Every record field: status, tokens, finish_ms, decode_ms and the
        # emission_ms / chunk_latencies_ms timelines included.
        assert warm == cold
        assert warm_stats == cold_stats
        completed = [r for r in warm if r.status == STATUS_COMPLETED]
        assert completed
        for record in completed:
            reference = offline[record.request.utterance.content_key]
            assert record.tokens == reference.tokens
            assert record.decode_ms == reference.total_ms

    @pytest.mark.parametrize("method", ["autoregressive", "spec(8,2)", "specasr-tsp"])
    def test_every_method_replays_its_offline_decode(
        self, whisper_pair, clean_dataset, method
    ):
        decoder = _decoder(whisper_pair, method)
        reference = _decoder(whisper_pair, method)
        for _ in range(2):  # record, then replay
            for utterance in clean_dataset:
                stepper = tapes.begin(decoder, utterance)
                phases = []
                while not stepper.done:
                    phases.append(stepper.step_phase())
                expected = reference.decode(utterance)
                assert phases[-1].done
                assert list(stepper.tokens) == expected.tokens
                assert stepper.decode_ms == expected.total_ms
                assert sum(p.ms for p in phases) == pytest.approx(expected.total_ms)

    def test_draft_share_identical_cold_warm_and_fresh(
        self, whisper_pair, clean_dataset
    ):
        sample = list(clean_dataset)[:3]
        decoder = _decoder(whisper_pair)
        cold = measure_draft_share(decoder, sample)
        assert len(tapes.tapes_of(decoder)) == len(sample)
        warm = measure_draft_share(decoder, sample)
        fresh = measure_draft_share(_decoder(whisper_pair), sample)
        assert cold == warm == fresh
        assert 0.0 < cold < 1.0


class TestWhatGetsTaped:
    def test_shed_mid_decode_stores_no_tape(self, whisper_pair, clean_dataset):
        decoder = _decoder(whisper_pair)
        # Each utterance once, so a shed request's tape could come from
        # nowhere else.
        trace = [Arrival(i, i, 40.0 * i) for i in range(len(clean_dataset))]
        scheduler = ContinuousBatchScheduler(
            decoder,
            SchedulerConfig(max_retries=0, retry_backoff_ms=0.0),
            faults=parse_fault_spec("perr:0.15", seed=2),
        )
        records = scheduler.run(trace, clean_dataset)
        store = tapes.tapes_of(decoder)
        # A decode's final phase is produced when the draft phase of its
        # last round commits; shed before that, no tape may exist.
        rounds = {
            key: sum(phase.round_done for phase in tape.phases)
            for key, tape in _recorded_tapes(_decoder(whisper_pair), clean_dataset)
        }
        unfinished = [
            r
            for r in records
            if r.status == STATUS_SHED
            and r.shed_reason == SHED_RETRIES
            and r.rounds < rounds[r.request.utterance.content_key] - 1
        ]
        assert any(r.rounds > 0 for r in unfinished), "no request shed mid-decode"
        for record in unfinished:
            assert record.request.utterance.content_key not in store
        completed = [r for r in records if r.status == STATUS_COMPLETED]
        assert completed
        finished = {r.request.utterance.content_key for r in completed}
        assert finished <= set(store.keys())
        for key in list(store.keys()):
            tape = store.get(key)
            assert tape.phases[-1].done
            assert not any(phase.done for phase in tape.phases[:-1])

    def test_lru_evicts_least_recent_tape(
        self, whisper_pair, clean_dataset, monkeypatch
    ):
        monkeypatch.setattr(tapes, "TAPE_CACHE_SIZE", 2)
        decoder = _decoder(whisper_pair)
        live = _count_live_decodes(monkeypatch, decoder)
        first, second, third = list(clean_dataset)[:3]

        def drain(utterance):
            stepper = tapes.begin(decoder, utterance)
            while not stepper.done:
                stepper.step_phase()

        for utterance in (first, second, first, third):
            drain(utterance)
        # ``first`` was replayed after ``second``, so ``second`` is evicted.
        assert live == [first.content_key, second.content_key, third.content_key]
        store = tapes.tapes_of(decoder)
        assert set(store.keys()) == {first.content_key, third.content_key}
        drain(second)
        assert live[-1] == second.content_key
        assert len(store) == 2

    def test_fresh_decoder_starts_cold_and_dead_decoder_drops_its_tapes(
        self, whisper_pair, clean_dataset, monkeypatch
    ):
        utterance = clean_dataset[0]
        decoder = _decoder(whisper_pair)
        stepper = tapes.begin(decoder, utterance)
        while not stepper.done:
            stepper.step_phase()
        assert utterance.content_key in tapes.tapes_of(decoder)

        fresh = _decoder(whisper_pair)
        live = _count_live_decodes(monkeypatch, fresh)
        tapes.begin(fresh, utterance).step_phase()
        assert live == [utterance.content_key]

        ref = weakref.ref(decoder)
        before = len(tapes._TAPES)
        del decoder, stepper
        gc.collect()
        assert ref() is None
        assert len(tapes._TAPES) < before

    def test_concurrent_first_use_loses_no_tape(self, whisper_pair, clean_dataset):
        # Threads racing on one fresh decoder's first use must all land in
        # the same cache; a lost update would orphan some threads' tapes.
        decoder = _decoder(whisper_pair)
        utterances = list(clean_dataset)  # one distinct utterance per thread
        start = threading.Barrier(len(utterances))
        errors = []

        def work(utterance):
            try:
                start.wait(timeout=30)
                stepper = tapes.begin(decoder, utterance)
                while not stepper.done:
                    stepper.step_phase()
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(u,)) for u in utterances]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        store = tapes.tapes_of(decoder)
        assert set(store.keys()) == {u.content_key for u in utterances}
