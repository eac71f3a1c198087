"""The benchmark's three workloads.

Each workload drives the program only through its public functions and
splits into

* ``setup(seed)`` — import-time work aside, everything a fresh process pays
  before the first measured operation: corpus, model pair, decoders, trace.
  Every input is generated from ``seed``.
* ``prepare(state)`` — untimed work the checks and the sim metrics need
  (offline reference decodes, the serve-live warm-up pass).
* ``run_pass(state, index)`` — one timed pass over input draw
  ``index % draws``.  Its ``sim`` outputs are pure functions of that draw,
  so every pass over the same draw must repeat them exactly.
* ``metrics(state, passes)`` — the end-to-end metrics, host figures as the
  median over passes.

Every workload reports the same end-to-end metric names (see
``END_TO_END``); what each one means on each workload is documented in
``perfbench/README.md``.
"""

from __future__ import annotations

import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import ClassVar

from perfbench import calibration
from perfbench.tracing import tail_percentile
from repro.harness.methods import standard_methods
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.metrics.latency_report import percentile
from repro.models.acoustic import clear_acoustic_caches
from repro.models.registry import model_pair
from repro.serving import (
    STATUS_COMPLETED,
    ChaosSpec,
    ClusterSpec,
    ContinuousBatchScheduler,
    MemorySpec,
    ServeReport,
    ServeSimConfig,
    StreamSpec,
    build_decoder,
    make_trace,
    max_sustainable_qps,
)

SPLIT = "test-clean"
PAIRING = "whisper"
AR = "autoregressive"
TSP = "specasr-tsp"
SPEC_BASELINES = ("spec(8,1)", "spec(16,1)", "spec(8,2)")

#: (name, unit) of every end-to-end metric, printed by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decodes_per_ref_s", "1/s"),
    ("pass_ref_s", "s"),
    ("sim_speedup_vs_ar", "x"),
    ("sim_speedup_vs_spec", "x"),
    ("sim_qps", "qps"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)


class Stopwatch:
    """Host clocks since construction: wall, CPU and reference seconds.

    Host metrics use reference seconds (see ``perfbench.calibration``): CPU
    time, so that other processes holding the core do not count, scaled by
    the machine speed sampled while the pass ran.  Without an active
    sampler, reference seconds are plain CPU seconds.
    """

    def __init__(self) -> None:
        self.sampler = calibration.active()
        self.start = self._now()

    def _now(self) -> tuple[float, float, float]:
        sampler = self.sampler
        if sampler is None:
            cpu = time.process_time()
            return time.perf_counter(), cpu, cpu
        return time.perf_counter(), sampler.cpu_s(), sampler.reference_s()

    def read(self) -> tuple[float, float, float]:
        """(wall, CPU, reference) seconds since construction."""
        return tuple(now - then for then, now in zip(self.start, self._now()))


@dataclass
class PassResult:
    """One timed pass: host clocks, decodes done, and deterministic outputs."""

    wall_s: float
    cpu_s: float
    ref_s: float
    decodes: int
    sim: object
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    extra: object = None  # non-comparable outputs the metrics read


def tail_latencies(values: list[float]) -> tuple[float, float, int]:
    """(p50, tail, tail percentile) of a latency population.

    The tail is the highest percentile with at least ten samples beyond it.
    Failed requests enter as ``inf``: they miss every latency limit.
    """
    q = tail_percentile(len(values))
    if q is None:
        raise ValueError(f"{len(values)} samples support no percentile")
    return _percentile(values, 50), _percentile(values, q), q


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    # Failed requests sort last as inf; a rank that reaches them is missing
    # (the program's interpolation would turn 0 * inf into NaN).
    if not math.isfinite(ordered[math.ceil((len(ordered) - 1) * q / 100.0)]):
        return math.inf
    return percentile(ordered, q)


def slo_latencies(records) -> list[float]:
    """SLO latency per request; ``inf`` for rejected or shed requests."""
    return [
        r.slo_latency_ms if r.status == STATUS_COMPLETED else math.inf
        for r in records
    ]


def _failed_frac(passes: list[PassResult]) -> float:
    return sum(p.failed for p in passes) / sum(p.attempted for p in passes)


def _host_metrics(passes: list[PassResult], draws: int) -> dict[str, float]:
    """Host throughput and pass cost in reference seconds.

    The median over each input draw's passes, then the mean over the draws:
    the median drops passes the machine disturbed, the mean keeps every
    draw's weight.  Pass ``i`` ran draw ``i % draws``.
    """
    per_draw = [passes[k::draws] for k in range(draws)]
    return {
        "decodes_per_ref_s": statistics.fmean(
            statistics.median(p.decodes / p.ref_s for p in ps) for ps in per_draw
        ),
        "pass_ref_s": statistics.fmean(
            statistics.median(p.ref_s for p in ps) for ps in per_draw
        ),
    }


def _offline_ms(dataset, methods) -> dict[str, list[float]]:
    """Simulated decode ms per utterance for each named method."""
    return {
        name: [decoder.decode(u).total_ms for u in dataset]
        for name, decoder in methods.items()
    }


# -- decode-corpus --------------------------------------------------------------
@dataclass(frozen=True)
class DecodeCorpus:
    """Serial offline decoding of a 96-utterance corpus, six methods, cold.

    96 utterances overflow the 64-entry per-model oracle cache, so every
    method rebuilds every oracle: oracle scoring dominates host time.
    Nothing is decoded twice within a pass and nothing is served.
    """

    name: ClassVar[str] = "decode-corpus"
    draws: ClassVar[int] = 1
    utterances: int = 96

    def setup(self, seed: int):
        config = ExperimentConfig(seed=seed, utterances=self.utterances)
        dataset = load_split(SPLIT, config)
        standard_methods(*model_pair(PAIRING, shared_vocabulary()))
        return dataset

    def prepare(self, dataset) -> list[str]:
        return []

    def run_pass(self, dataset, index: int) -> PassResult:
        # Cold caches every pass: every `repro run` process pays that cost.
        clock = Stopwatch()
        clear_acoustic_caches()
        methods = standard_methods(*model_pair(PAIRING, shared_vocabulary()))
        results: dict[str, list] = {}
        for name, decoder in methods.items():
            out = []
            for utterance in dataset:
                try:
                    out.append(decoder.decode(utterance))
                except Exception:  # counted against the method, run goes on
                    traceback.print_exc()
                    out.append(None)
            results[name] = out
        wall, cpu, ref = clock.read()
        reference = [r.tokens if r is not None else None for r in results[AR]]
        failed, decodes, problems = 0, 0, []
        for name, out in results.items():
            for position, result in enumerate(out):
                if result is None:
                    failed += 1
                    continue
                decodes += 1
                if result.tokens != reference[position]:
                    failed += 1
                    problems.append(f"{name} utterance {position}: transcript != AR")
        sim = {
            name: [(tuple(r.tokens), r.total_ms) if r else None for r in out]
            for name, out in results.items()
        }
        attempted = len(methods) * len(dataset)
        return PassResult(wall, cpu, ref, decodes, sim, attempted, failed, problems[:5])

    def metrics(self, dataset, passes: list[PassResult]):
        sim = passes[0].sim
        totals = {name: sum(ms for _t, ms in out) for name, out in sim.items()}
        tsp_ms = [ms for _t, ms in sim[TSP]]
        p50, tail, q = tail_latencies(tsp_ms)
        best_spec = min(totals[n] for n in SPEC_BASELINES)
        values = {
            **_host_metrics(passes, self.draws),
            "sim_speedup_vs_ar": totals[AR] / totals[TSP],
            "sim_speedup_vs_spec": best_spec / totals[TSP],
            "sim_qps": 1000.0 * len(dataset) / totals[TSP],
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
        }
        notes = [
            (f"latency_tail = TSP decode p{q} of", len(tsp_ms), "utterances"),
            ("failed_frac", _failed_frac(passes), "ratio"),
        ]
        return values, notes


# -- serve-capacity -------------------------------------------------------------
@dataclass
class CapacityDraw:
    """One (corpus, trace) draw of the capacity workload."""

    configs: dict
    dataset: object
    trace_utterances: list[int]
    offline: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServeCapacity:
    """Max-sustainable-QPS searches for AR and SpecASR-TSP on one device.

    Each probe serves a 256-request Poisson trace over a 32-utterance corpus
    (3 s completion SLO, 95% goodput), long enough that a backlog shows
    instead of being absorbed by the queue.  Every probe re-decodes the same
    utterances over a decoder whose caches stay warm.

    The capacity and the host cost of one draw swing from seed to seed (the
    share of long utterances in a 32-utterance corpus moves them most), so a
    run searches ``draws`` independent (corpus, trace) draws, one per pass,
    and reports their mean.
    """

    name: ClassVar[str] = "serve-capacity"
    requests: int = 256
    utterances: int = 32
    draws: int = 8
    methods: ClassVar[tuple[str, ...]] = (AR, TSP)

    def setup(self, seed: int) -> list[CapacityDraw]:
        draws = []
        for k in range(self.draws):
            configs = {
                m: ServeSimConfig(
                    method=m,
                    num_requests=self.requests,
                    seed=seed * self.draws + k,  # disjoint across run seeds
                    utterances=self.utterances,
                )
                for m in self.methods
            }
            base = configs[TSP]
            dataset = load_split(base.split, base.experiment_config())
            for config in configs.values():
                build_decoder(config)
            trace = make_trace(
                base.arrival, base.num_requests, base.qps, len(dataset), base.seed
            )
            utterances = [a.utterance_index for a in trace]
            draws.append(CapacityDraw(configs, dataset, utterances))
        return draws

    def prepare(self, draws: list[CapacityDraw]) -> list[str]:
        suite = standard_methods(*model_pair(PAIRING, shared_vocabulary()))
        names = (AR, TSP, *SPEC_BASELINES)
        for draw in draws:
            draw.offline = _offline_ms(draw.dataset, {n: suite[n] for n in names})
        return []

    def search(self, config: ServeSimConfig):
        """One cold-decoder capacity search: ((wall, CPU, ref) s, qps, probes)."""
        clock = Stopwatch()
        clear_acoustic_caches()
        decoder = build_decoder(config)
        max_qps, probes = max_sustainable_qps(
            config, target_ratio=0.95, decoder=decoder
        )
        return clock.read(), max_qps, probes

    def run_pass(self, draws: list[CapacityDraw], index: int) -> PassResult:
        clocks, decodes, attempted, failed, problems, sim = [0.0] * 3, 0, 0, 0, [], {}
        for method, config in draws[index % self.draws].configs.items():
            seconds, max_qps, probes = self.search(config)
            clocks = [total + s for total, s in zip(clocks, seconds)]
            for qps, report in probes.items():
                attempted += 1
                decodes += report.completed
                settled = report.completed + report.rejected + report.shed
                if settled != report.num_requests:
                    failed += 1
                    problems.append(f"{method} @ {qps} qps: requests not conserved")
            best = probes.get(max_qps)
            if best is None or best.goodput_ratio < 0.95:
                failed += 1
                problems.append(f"{method}: max {max_qps} qps misses the SLO")
            sim[method] = (
                max_qps,
                tuple((q, r.to_dict()) for q, r in sorted(probes.items())),
            )
        return PassResult(*clocks, decodes, sim, attempted, failed, problems[:5])

    def metrics(self, draws: list[CapacityDraw], passes: list[PassResult]):
        capacity = {
            m: [p.sim[m][0] for p in passes[: self.draws]] for m in self.methods
        }
        tsp_qps = statistics.fmean(capacity[TSP])
        ar_qps = statistics.fmean(capacity[AR])
        # Latency at the sustained rate: each draw's TSP trace served at its
        # own max QPS, pooled.
        latencies = []
        for draw, qps in zip(draws, capacity[TSP], strict=True):
            config = draw.configs[TSP].with_qps(qps)
            records, _ = _serve(config, build_decoder(config), draw.dataset)
            latencies += slo_latencies(records)
        p50, tail, q = tail_latencies(latencies)

        def mix_ms(name: str) -> float:
            """Offline sim ms of ``name`` over every draw's request mix."""
            return sum(d.offline[name][i] for d in draws for i in d.trace_utterances)

        vs_spec = min(mix_ms(n) for n in SPEC_BASELINES) / mix_ms(TSP)
        values = {
            **_host_metrics(passes, self.draws),
            "sim_speedup_vs_ar": tsp_qps / ar_qps,
            "sim_speedup_vs_spec": vs_spec,
            "sim_qps": tsp_qps,
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
        }
        notes = [
            (f"latency_tail = SLO p{q} of", len(latencies), "requests"),
            ("search_ref_s (one draw)", values["pass_ref_s"], "s"),
            ("max_qps (mean of draws)", tsp_qps, "qps"),
            ("max_qps_vs_ar", tsp_qps / ar_qps, "x"),
            ("max_qps autoregressive", ar_qps, "qps"),
        ]
        return values, notes


def _serve(config: ServeSimConfig, decoder, dataset, trace=None):
    """Serve ``trace`` (default: the config's own) and return the records."""
    if trace is None:
        trace = make_trace(
            config.arrival,
            config.num_requests,
            config.qps,
            len(dataset),
            config.seed,
            config.batch_fraction,
        )
    scheduler = ContinuousBatchScheduler(
        decoder,
        config.scheduler_config(),
        config.cluster_config(),
        faults=config.fault_plan(),
        memory=config.memory_spec(),
        stream=config.stream,
    )
    return scheduler.run(trace, dataset), scheduler


# -- serve-live -----------------------------------------------------------------
@dataclass
class LiveDraw:
    """One (corpus, trace) draw of the live workload, with its warm server."""

    config: ServeSimConfig
    dataset: object
    decoder: object
    trace: list
    offline: dict = field(default_factory=dict)
    transcripts: list = field(default_factory=list)
    reference: object = None

    def utterance(self, record) -> int:
        return self.trace[record.request.index].utterance_index


class ServeLive:
    """Open-loop Poisson traces at a fixed rate on a warm 4-device server.

    Each trace: 1024 requests at 6 qps (about 2/3 of the 4x merged
    long-trace capacity) of ``specasr-asp``: 25% batch class, 25% streamed
    at real time (1 s chunks, 0.3 s lookahead), 48 KV blocks per device, a
    crash with warm restart plus 2% transient phase errors, 32 in-flight
    slots.  The loop runs on simulated time: latency counts from each
    scheduled arrival, so generator lateness is zero by construction.

    Latency moves with the share of long utterances in a 64-utterance
    corpus, so a run serves ``draws`` independent (corpus, trace) draws,
    each on its own warm server, one per pass, and pools them.
    """

    name = "serve-live"
    draws = 4
    requests = 1024
    utterances = 64
    qps = 6.0
    faults = "crash@20000:dev3:restart=1500;perr:0.02"
    stream_fraction = 0.25

    def setup(self, seed: int) -> list[LiveDraw]:
        draws = []
        for k in range(self.draws):
            config = ServeSimConfig(
                method="specasr-asp",
                qps=self.qps,
                num_requests=self.requests,
                seed=seed * self.draws + k,  # disjoint across run seeds
                utterances=self.utterances,
                max_inflight=32,
                batch_fraction=0.25,
                cluster=ClusterSpec(devices=4, router="merged"),
                chaos=ChaosSpec(faults=self.faults),
                memory=MemorySpec(device_blocks=48),
                stream=StreamSpec(enabled=True, rtf=1.0, chunk_s=1.0, lookahead_s=0.3),
            )
            dataset = load_split(config.split, config.experiment_config())
            trace = make_trace(
                config.arrival,
                config.num_requests,
                config.qps,
                len(dataset),
                config.seed,
                config.batch_fraction,
            )
            streams = random.Random(f"perfbench-stream-{config.seed}")
            trace = [
                replace(a, rtf=1.0) if streams.random() < self.stream_fraction else a
                for a in trace
            ]
            draws.append(LiveDraw(config, dataset, build_decoder(config), trace))
        return draws

    def prepare(self, draws: list[LiveDraw]) -> list[str]:
        """Offline reference decodes, then each draw's excluded warm-up pass."""
        suite = standard_methods(*model_pair(PAIRING, shared_vocabulary()))
        problems = []
        for index, draw in enumerate(draws):
            draw.offline = _offline_ms(
                draw.dataset, {n: suite[n] for n in (AR, *SPEC_BASELINES)}
            )
            draw.transcripts = [draw.decoder.decode(u).tokens for u in draw.dataset]
            warmup = self.run_pass(draws, index)
            draw.reference = warmup.sim
            problems += warmup.problems
        return problems

    def run_pass(self, draws: list[LiveDraw], index: int) -> PassResult:
        draw = draws[index % self.draws]
        config = draw.config
        clock = Stopwatch()
        records, scheduler = _serve(config, draw.decoder, draw.dataset, draw.trace)
        report = ServeReport.from_records(
            config.method,
            records,
            scheduler.last_stats,
            config.deadline_ms,
            config.qps,
            batch_deadline_ms=config.batch_deadline_ms,
        )
        wall, cpu, ref = clock.read()
        problems = []
        if report.completed + report.rejected + report.shed != len(draw.trace):
            problems.append("completed + rejected + shed != arrived")
        for record in records:
            expected = draw.transcripts[draw.utterance(record)]
            if record.status == STATUS_COMPLETED and record.tokens != expected:
                problems.append(f"{record.request.request_id}: transcript != offline")
        sim = (
            report.to_dict(),
            tuple((r.status, r.finish_ms, r.decode_ms) for r in records),
        )
        if draw.reference is not None and sim != draw.reference:
            problems.append("sim outputs differ from the warm-up pass")
        failed = report.rejected + report.shed
        return PassResult(
            wall,
            cpu,
            ref,
            report.completed,
            sim,
            len(records),
            failed,
            problems[:5],
            extra=(records, report),
        )

    def metrics(self, draws: list[LiveDraw], passes: list[PassResult]):
        first = passes[: self.draws]
        served = [(d, *p.extra) for d, p in zip(draws, first, strict=True)]
        latencies = [v for _d, records, _r in served for v in slo_latencies(records)]
        p50, tail, q = tail_latencies(latencies)
        completed = [
            (draw, r)
            for draw, records, _r in served
            for r in records
            if r.status == STATUS_COMPLETED
        ]
        served_ms = sum(r.decode_ms for _d, r in completed)

        def mix_ms(name: str) -> float:
            """Offline sim ms of ``name`` over the completed requests."""
            return sum(d.offline[name][d.utterance(r)] for d, r in completed)

        emission = [v for _d, r in completed for v in r.chunk_latencies_ms]
        _p50, emission_tail, emission_q = tail_latencies(emission)
        reports = [report for _d, _records, report in served]
        goodput_ratio = statistics.fmean(r.goodput_ratio for r in reports)
        values = {
            **_host_metrics(passes, self.draws),
            "sim_speedup_vs_ar": mix_ms(AR) / served_ms,
            "sim_speedup_vs_spec": min(mix_ms(n) for n in SPEC_BASELINES) / served_ms,
            "sim_qps": statistics.fmean(r.goodput_rps for r in reports),
            "latency_p50_ms": p50,
            "latency_tail_ms": tail,
        }
        notes = [
            (f"latency_tail = SLO p{q} of", len(latencies), "requests"),
            ("sim_requests_per_ref_s", self.requests / values["pass_ref_s"], "1/s"),
            ("goodput_ratio", goodput_ratio, "ratio"),
            ("failed_frac", _failed_frac(passes), "ratio"),
            (f"emission_p{emission_q}_ms", emission_tail, "ms"),
            ("generator lateness (sim-time loop)", 0.0, "ms"),
        ]
        return values, notes


WORKLOADS = {w.name: w for w in (DecodeCorpus(), ServeCapacity(), ServeLive())}
