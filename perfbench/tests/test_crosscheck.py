"""The benchmark measures the same program the older bench tools measured.

Given the configurations behind the checked-in ``BENCH_serve.json`` and
``BENCH_decode.json``, the benchmark's own workload code reproduces their
simulated numbers.  Also checks ``BENCHMARK.json`` against what the
benchmark prints.
"""

import json
from pathlib import Path

from perfbench.layers import Counters, per_layer
from perfbench.tracing import Tracer
from perfbench.workloads import (
    AR,
    END_TO_END,
    TSP,
    WORKLOADS,
    DecodeCorpus,
    ServeCapacity,
)

ROOT = Path(__file__).resolve().parents[2]


def _load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def test_capacity_search_reproduces_bench_serve():
    bench = _load("BENCH_serve.json")
    config = bench["config"]
    workload = ServeCapacity(
        requests=config["requests"], utterances=config["utterances"], draws=1
    )
    (draw,) = workload.setup(config["seed"])
    found = {m: round(workload.search(draw.configs[m])[1], 3) for m in (AR, TSP)}
    for method, qps in found.items():
        assert qps == bench["methods"][method]["max_sustainable_qps"]
    # The old tool took the ratio of the rounded capacities.
    ratio = round(found[TSP] / found[AR], 3)
    assert ratio == bench["capacity_vs_autoregressive"][TSP]
    assert (found[AR], found[TSP], ratio) == (0.859, 2.969, 3.456)


def test_decode_corpus_reproduces_bench_decode():
    bench = _load("BENCH_decode.json")
    config = bench["config"]
    workload = DecodeCorpus(utterances=config["utterances"])
    result = workload.run_pass(workload.setup(config["seed"]), 0)
    assert result.failed == 0
    totals = {name: sum(ms for _t, ms in out) for name, out in result.sim.items()}
    speedups = bench["sim_speedup_vs_autoregressive"]
    for method in totals:
        assert round(totals[AR] / totals[method], 3) == speedups[method]
    assert (speedups[TSP], speedups["specasr-asp"]) == (3.099, 3.007)


def test_benchmark_json_matches_the_printed_metrics():
    spec = _load("BENCHMARK.json")
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    layers = per_layer(Tracer(), Counters(), Tracer(), 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_value, unit) in layers.items()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
