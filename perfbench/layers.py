"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  Calls into unwrapped code
(RNG and cache utilities, trie cursors, the benchmark's own loops) count
toward the nearest wrapped caller, or toward ``unattributed`` when there is
none.  Oracle and session entry points are hot: aggregated, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.harness.methods as methods_mod
import repro.harness.runner as runner_mod
import repro.models.acoustic as acoustic_mod
import repro.models.registry as registry_mod
import repro.models.simulated as simulated_mod
import repro.serving.devices as devices_mod
import repro.serving.router as router_mod
import repro.serving.simulator as simulator_mod
from perfbench.tracing import Target, Tracer, tail_percentile
from repro.core.engine import SpecASREngine
from repro.decoding.autoregressive import AutoregressiveDecoder
from repro.decoding.base import PhasedDecodeStepper
from repro.decoding.speculative import SpeculativeDecoder
from repro.metrics.latency_report import percentile
from repro.models.acoustic import EmissionOracle, OracleFactory
from repro.models.latency import (
    KIND_DECODE,
    KIND_DRAFT,
    KIND_ENCODE,
    KIND_PREFILL,
    KIND_VERIFY,
)
from repro.models.simulated import DecodeSession, SimulatedASRModel
from repro.serving import (
    STATUS_COMPLETED,
    ClusterKVMemory,
    ContinuousBatchScheduler,
    Device,
    ServeReport,
    StreamingSummary,
)
from repro.serving.router import ColocatedRouter, DisaggregatedRouter

#: Layers whose self time is reported, in call-stack order.
LAYERS = (
    "data",
    "harness",
    "models.acoustic",
    "models.simulated",
    "decoding",
    "serving.scheduler",
    "serving.router",
    "serving.devices",
    "serving.memory",
    "serving.report",
    "serving.simulator",
)

_FORWARD = ("prefill", "step", "step_frontier", "verify_eval")


@dataclass
class Counters:
    """Work counted from wrapped calls' results during one traced pass."""

    decodes: int = 0
    rounds: int = 0
    draft_steps: int = 0
    submitted: int = 0
    accepted: int = 0
    recycled: int = 0
    sim_prefill_ms: float = 0.0
    sim_draft_ms: float = 0.0
    sim_verify_ms: float = 0.0
    runs: int = 0
    batches: int = 0
    phases_run: int = 0
    peak_queue_depth: int = 0
    busy_ms: float = 0.0
    capacity_ms: float = 0.0
    wasted_busy_ms: float = 0.0
    evictions: int = 0
    stalls: int = 0
    reprefill_ms: float = 0.0
    prefix_reuse_hits: int = 0
    retries: int = 0
    requeues: int = 0
    shed: int = 0
    degraded_ms: float = 0.0
    chunks: int = 0
    arrived: int = 0
    met: int = 0
    failed: int = 0
    queue_waits: list = field(default_factory=list)
    word_ttfts: list = field(default_factory=list)
    emissions: list = field(default_factory=list)

    def on_phase(self, args, outcome) -> None:
        if not outcome.done:
            return
        result = args[0].result
        trace, clock = result.trace, result.clock
        self.decodes += 1
        self.rounds += trace.num_rounds
        self.draft_steps += trace.total_draft_steps
        self.submitted += trace.total_submitted
        self.accepted += trace.total_accepted
        self.recycled += trace.total_recycled
        self.sim_prefill_ms += clock.total_for_kind(KIND_PREFILL, KIND_ENCODE)
        self.sim_draft_ms += clock.total_for_kind(KIND_DRAFT)
        self.sim_verify_ms += clock.total_for_kind(KIND_VERIFY, KIND_DECODE)

    def on_run(self, args, records) -> None:
        stats = args[0].last_stats
        self.runs += 1
        self.batches += stats.batches
        self.phases_run += stats.rounds
        self.peak_queue_depth = max(self.peak_queue_depth, stats.peak_queue_depth)
        self.busy_ms += stats.device_busy_ms
        self.capacity_ms += stats.sim_end_ms * stats.devices
        self.wasted_busy_ms += stats.wasted_busy_ms
        self.evictions += stats.evictions
        self.stalls += stats.memory_stalls
        self.reprefill_ms += stats.reprefill_ms
        self.prefix_reuse_hits += stats.prefix_reuse_hits
        self.retries += stats.retries
        self.requeues += stats.requeues
        self.shed += stats.shed
        self.degraded_ms += stats.degraded_ms
        for record in records:
            self.chunks += record.stream_chunks
            if record.status != STATUS_COMPLETED:
                continue
            self.queue_waits.append(record.queue_ms)
            if record.streaming:
                self.word_ttfts.append(record.word_ttft_ms)
                self.emissions.extend(record.chunk_latencies_ms)

    def on_report(self, args, report) -> None:
        self.arrived += report.num_requests
        self.met += report.met_deadline
        self.failed += report.rejected + report.shed


def targets(counters: Counters) -> list[Target]:
    """Every wrapped function, with its layer."""
    return [
        Target(runner_mod, "load_split", "data"),
        Target(methods_mod, "standard_methods", "harness"),
        Target(methods_mod, "build_method", "harness"),
        Target(acoustic_mod, "clear_acoustic_caches", "models.acoustic"),
        Target(acoustic_mod, "prewarm_oracles", "models.acoustic"),
        Target(OracleFactory, "for_utterance", "models.acoustic"),
        Target(EmissionOracle, "__init__", "models.acoustic"),
        Target(EmissionOracle, "step", "models.acoustic", hot=True),
        Target(EmissionOracle, "step_many", "models.acoustic", hot=True),
        Target(registry_mod, "model_pair", "models.simulated"),
        Target(simulated_mod, "prewarm_models", "models.simulated"),
        Target(SimulatedASRModel, "session", "models.simulated"),
        Target(SimulatedASRModel, "score_batch", "models.simulated", hot=True),
        *(
            Target(DecodeSession, attr, "models.simulated", hot=True)
            for attr in (*_FORWARD, "rollback", "peek")
        ),
        Target(
            PhasedDecodeStepper,
            "step_phase",
            "decoding",
            hot=True,
            after=counters.on_phase,
        ),
        Target(PhasedDecodeStepper, "step", "decoding", hot=True),
        *(
            Target(cls, attr, "decoding")
            for cls in (AutoregressiveDecoder, SpeculativeDecoder, SpecASREngine)
            for attr in ("begin", "decode")
        ),
        Target(
            ContinuousBatchScheduler,
            "run",
            "serving.scheduler",
            after=counters.on_run,
        ),
        Target(router_mod, "build_router", "serving.router"),
        *(
            Target(cls, attr, "serving.router", request=request)
            for cls in (ColocatedRouter, DisaggregatedRouter)
            for attr, request in (
                ("plan_round", None),
                ("route", ("request_index", 1)),
                ("on_membership_change", None),
            )
        ),
        Target(devices_mod, "make_devices", "serving.devices"),
        Target(Device, "execute", "serving.devices"),
        Target(Device, "batch_busy_ms", "serving.devices"),
        Target(ClusterKVMemory, "admit", "serving.memory", request=("request", 2)),
        Target(ClusterKVMemory, "settle", "serving.memory", request=("request", 2)),
        Target(
            ClusterKVMemory, "release_request", "serving.memory", request=("request", 1)
        ),
        Target(ClusterKVMemory, "fits_anywhere", "serving.memory"),
        Target(ServeReport, "from_records", "serving.report", after=counters.on_report),
        Target(StreamingSummary, "from_records", "serving.report"),
        Target(simulator_mod, "simulate", "serving.simulator"),
        Target(simulator_mod, "max_sustainable_qps", "serving.simulator"),
        Target(simulator_mod, "build_decoder", "serving.simulator"),
    ]


def _calls(counts: dict[str, int], owner, *attrs: str) -> int:
    prefix = getattr(owner, "__name__", owner)
    return sum(counts.get(f"{prefix}.{attr}", 0) for attr in attrs)


def _pct(values: list[float], q: float) -> float:
    """``q``-th percentile, or the highest one ``values`` support (0 if none)."""
    supported = tail_percentile(len(values))
    if supported is None:
        return 0.0
    return percentile(values, min(q, supported))


def per_layer(
    tracer: Tracer,
    counters: Counters,
    setup_tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass, as ``name -> (value, unit)``."""
    counts = tracer.counts()
    self_s = tracer.self_seconds()
    out: dict[str, tuple[float, str]] = {
        "data.load_split_s": (
            setup_tracer.total_seconds(f"{runner_mod.__name__}.load_split"),
            "s",
        )
    }
    for layer in LAYERS:
        seconds = self_s.get(layer, 0.0)
        out[f"{layer}.self_s"] = (seconds, "s")
        out[f"{layer}.share"] = (100.0 * seconds / traced_wall_s, "%")
    attributed = sum(self_s.get(layer, 0.0) for layer in LAYERS)
    out["unattributed.share"] = (
        100.0 * (traced_wall_s - attributed) / traced_wall_s,
        "%",
    )

    lookups = _calls(counts, OracleFactory, "for_utterance")
    builds = _calls(counts, EmissionOracle, "__init__")
    c = counters
    out.update(
        {
            "models.acoustic.calls": (
                lookups + _calls(counts, EmissionOracle, "step", "step_many"),
                "count",
            ),
            "models.acoustic.oracle_builds": (builds, "count"),
            "models.acoustic.oracle_hit_ratio": (
                (lookups - builds) / lookups if lookups else 0.0,
                "ratio",
            ),
            "models.simulated.sessions": (
                _calls(counts, SimulatedASRModel, "session"),
                "count",
            ),
            "models.simulated.forward_calls": (
                _calls(counts, DecodeSession, *_FORWARD)
                + _calls(counts, SimulatedASRModel, "score_batch"),
                "count",
            ),
            "models.simulated.rollbacks": (
                _calls(counts, DecodeSession, "rollback"),
                "count",
            ),
            "decoding.decodes": (c.decodes, "count"),
            "decoding.phases": (
                _calls(counts, PhasedDecodeStepper, "step_phase"),
                "count",
            ),
            "decoding.rounds": (c.rounds, "count"),
            "decoding.draft_steps": (c.draft_steps, "count"),
            "decoding.accept_ratio": (
                c.accepted / c.submitted if c.submitted else 0.0,
                "ratio",
            ),
            "decoding.accepted_per_round": (
                c.accepted / c.rounds if c.rounds else 0.0,
                "count",
            ),
            "decoding.recycled_tokens": (c.recycled, "count"),
            "decoding.sim_prefill_ms": (_per(c.sim_prefill_ms, c.decodes), "ms"),
            "decoding.sim_draft_ms": (_per(c.sim_draft_ms, c.decodes), "ms"),
            "decoding.sim_verify_ms": (_per(c.sim_verify_ms, c.decodes), "ms"),
            "serving.scheduler.runs": (c.runs, "count"),
            "serving.scheduler.batches": (c.batches, "count"),
            "serving.scheduler.batch_occupancy": (
                _per(c.phases_run, c.batches),
                "count",
            ),
            "serving.scheduler.queue_wait_p50_ms": (_pct(c.queue_waits, 50), "ms"),
            "serving.scheduler.queue_wait_p99_ms": (_pct(c.queue_waits, 99), "ms"),
            "serving.scheduler.peak_queue_depth": (c.peak_queue_depth, "count"),
            "serving.router.plans": (
                _calls(counts, ColocatedRouter, "plan_round")
                + _calls(counts, DisaggregatedRouter, "plan_round"),
                "count",
            ),
            "serving.router.routes": (
                _calls(counts, ColocatedRouter, "route")
                + _calls(counts, DisaggregatedRouter, "route"),
                "count",
            ),
            "serving.devices.executes": (_calls(counts, Device, "execute"), "count"),
            "serving.devices.utilisation": (_per(c.busy_ms, c.capacity_ms), "ratio"),
            "serving.devices.wasted_busy_ms": (c.wasted_busy_ms, "ms"),
            "serving.memory.calls": (
                _calls(counts, ClusterKVMemory, "admit", "settle", "release_request"),
                "count",
            ),
            "serving.memory.evictions": (c.evictions, "count"),
            "serving.memory.stalls": (c.stalls, "count"),
            "serving.memory.reprefill_ms": (c.reprefill_ms, "ms"),
            "serving.memory.prefix_reuse_hits": (c.prefix_reuse_hits, "count"),
            "serving.faults.retries": (c.retries, "count"),
            "serving.faults.requeues": (c.requeues, "count"),
            "serving.faults.shed": (c.shed, "count"),
            "serving.faults.degraded_ms": (c.degraded_ms, "ms"),
            "serving.stream.chunks": (c.chunks, "count"),
            "serving.stream.word_ttft_p50_ms": (_pct(c.word_ttfts, 50), "ms"),
            "serving.stream.emission_p99_ms": (_pct(c.emissions, 99), "ms"),
            "serving.report.goodput_ratio": (_per(c.met, c.arrived), "ratio"),
            "serving.report.failed_frac": (_per(c.failed, c.arrived), "ratio"),
            "serving.simulator.probes": (
                _calls(counts, simulator_mod, "simulate"),
                "count",
            ),
            "trace.overhead": (traced_wall_s / untraced_wall_s, "x"),
            "trace.spans": (len(tracer.spans), "count"),
        }
    )
    return out


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
