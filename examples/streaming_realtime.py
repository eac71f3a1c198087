"""Real-time-factor analysis: can each decoder keep up with live speech?

The paper's motivation is real-time ASR: an LLM decoder that takes longer
than the audio it transcribes is unusable live.  This example measures the
simulated real-time factor (decode latency / audio duration) per method and
per target scale, and reports the largest LLM target each method can serve
under a given RTF budget — the deployment question SpecASR answers.

A second section runs the serving simulator in streaming mode: requests
deliver audio in timed chunks at real-time rate, decode sessions start
before the utterance completes, and the report carries word-level TTFT and
per-chunk emission-latency percentiles — the live-microphone view of the
same deployment question.

Run:  python examples/streaming_realtime.py
"""

from repro.harness.figures import ascii_table
from repro.harness.methods import standard_methods
from repro.harness.runner import ExperimentConfig, load_split, shared_vocabulary
from repro.models.registry import PAIRINGS, model_pair
from repro.serving import ServeSimConfig, StreamSpec, simulate

RTF_BUDGET = 0.10  # decode in at most 10 % of the audio duration


def serve_streaming() -> None:
    """Streaming serve-sim: chunked arrivals, word-level TTFT, emission lag."""
    report = simulate(
        ServeSimConfig(
            num_requests=8,
            utterances=6,
            qps=0.4,
            stream=StreamSpec(enabled=True, rtf=1.0, chunk_s=1.0, lookahead_s=0.3),
        )
    )
    summary = report.streaming
    assert summary is not None
    assert summary.word_ttft and summary.emission_latency and summary.final_latency
    print("\nStreaming serve-sim (8 requests, audio at real-time rate):")
    print(f"  streams completed   : {summary.completed}/{summary.requests}")
    print(f"  audio chunks heard  : {summary.chunks}")
    print(f"  word-level TTFT     : p50 {summary.word_ttft.p50:.0f} ms")
    print(
        f"  emission latency    : p50 {summary.emission_latency.p50:.0f} ms"
        f"  p95 {summary.emission_latency.p95:.0f} ms"
    )
    print(
        f"  final latency       : p95 {summary.final_latency.p95:.0f} ms"
        f" after end-of-audio"
    )
    print(f"  partial stability   : {100.0 * (1.0 - summary.partial_stability):.0f} %")


def main() -> None:
    vocab = shared_vocabulary()
    dataset = load_split("test-clean", ExperimentConfig(utterances=16))
    duration = dataset.total_duration_s

    rows = []
    feasible: dict[str, list[str]] = {}
    for pairing in PAIRINGS:
        draft, target = model_pair(pairing, vocab)
        for name, decoder in standard_methods(draft, target).items():
            total_ms = sum(decoder.decode(u).total_ms for u in dataset)
            rtf = total_ms / 1000.0 / duration
            rows.append([pairing, name, total_ms / len(dataset), rtf])
            if rtf <= RTF_BUDGET:
                feasible.setdefault(name, []).append(pairing)

    print(
        ascii_table(
            ["target pairing", "method", "ms / utterance", "real-time factor"],
            rows,
            title="Simulated real-time factor per decoding method",
        )
    )
    print(f"\nMethods meeting the RTF budget of {RTF_BUDGET:.2f}:")
    for name, pairings in feasible.items():
        print(f"  {name:16s} -> {', '.join(pairings)}")
    if "specasr-tsp" in feasible and "autoregressive" in feasible:
        extra = set(feasible["specasr-tsp"]) - set(feasible["autoregressive"])
        if extra:
            print(
                f"\nSpecASR unlocks target scales AR decoding cannot serve "
                f"in real time: {', '.join(sorted(extra))}"
            )
    serve_streaming()


if __name__ == "__main__":
    main()
