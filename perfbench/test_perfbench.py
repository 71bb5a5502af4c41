"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import rep  # noqa: E402  (puts ./src on sys.path)
import run  # noqa: E402
from tracing import Tracer, computed_calls, layer_times  # noqa: E402
from workloads import KONTSEVICH_N, Tally, ladder, proportional  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 3.0, 6.0, 0),  # overlaps b: a's children cover [1, 6]
        ("d", 2.0, 3.0, 1),
        ("c", 8.0, 9.0, 0),
    ]
    t = layer_times(spans)
    assert t["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert t["b"]["self_s"] == 2.0
    assert t["c"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert t["d"]["self_s"] == 1.0


def test_self_time_of_recursion_counts_outer_span_once():
    spans = [("f", 0.0, 4.0, -1), ("f", 1.0, 2.0, 0), ("g", 2.5, 3.0, 1)]
    t = layer_times(spans)
    assert t["f"]["calls"] == 2
    assert t["f"]["total_s"] == 4.0
    assert t["f"]["self_s"] == 3.0 + 1.0


def test_tracer_records_nesting_and_computed_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) if x else 0)
    assert outer(1) == 2 and outer(0) == 0
    spans = tracer.spans()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0), ("outer", -1)]
    t = layer_times(spans)
    total = t["outer"]["total_s"]
    assert abs(t["outer"]["self_s"] + t["inner"]["total_s"] - total) < 1e-9
    assert computed_calls(spans, "outer", "inner") == 1


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(10)) is None
    assert run.tail(range(11)) == (100 / 11, 0)
    pct, value = run.tail(range(1, 101))
    assert (pct, value) == (90.0, 90)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    value, label = run.tail_latency([3.0, 1.0, 2.0], per_repetition=False)
    assert value == 3.0 and label == "max of 3"
    value, label = run.tail_latency(list(range(1, 16)), per_repetition=True)
    assert value == 15 and label == "max of 15"
    value, label = run.tail_latency(list(range(1, 31)), per_repetition=False)
    assert value == 20 and label.startswith("p66.7 of 30")


def test_fail_share_counts_a_wrong_reference_value():
    wrong = dict(KONTSEVICH_N)
    del wrong[6]
    wrong[4] += 1
    tally = Tally()
    ladder(tally, reference=wrong)
    assert (tally.attempted, tally.failed) == (4, 1)
    assert "N_4 = 620" in tally.notes[0]

    good = {"wall_s": 1.0, "setup_s": 0.1, "instances": 4, "peak_rss_mb": 20.0,
            "traced": False, "latencies": [1.1], "attempted": 4, "failed": 0}
    bad = dict(good, wall_s=100.0, latencies=[100.0], failed=tally.failed)
    reps = [good, dict(good, wall_s=3.0, latencies=[3.1]), bad]
    assert run.fail_share(reps) == (12, 1, 1 / 12)
    metrics, _ = run.summarize(reps)
    assert metrics["wall_s"] == 2.0  # the failed repetition is not timed
    assert run.summarize([bad]) == (None, {})  # nor reported when it is the only one


def test_budget_kill_is_not_a_failed_check():
    try:
        run.spawn([sys.executable, "-c", "import time; time.sleep(30)"], timeout=1.0)
    except run.BenchError as exc:
        assert "time budget" in str(exc)
    else:
        raise AssertionError("a killed child must raise BenchError")


def test_sampler_excludes_its_own_time():
    import time

    from speed import REFERENCE_CHUNK_S, Sampler

    sampler = Sampler()
    t0 = time.monotonic()
    sampler.start()
    while time.monotonic() - t0 < 0.35:
        pass
    out = sampler.stop()
    elapsed = time.monotonic() - t0
    assert len(sampler.chunks) >= 4  # at start, about every 0.1 s, at stop
    assert out["paused_s"] == sum(sampler.chunks) < elapsed
    mean = sum(sampler.chunks) / len(sampler.chunks)
    assert out["factor"] == REFERENCE_CHUNK_S / mean


def test_proportional_counts_add_up():
    # the cli-cache strata: 4-point d = 1, 2 and 5-point d = 1, 2 on Gr(2,5)
    sizes = {(4, 1): 75, (4, 2): 31, (5, 1): 157, (5, 2): 144}
    assert proportional(sizes, 7) == {(4, 1): 1, (4, 2): 1, (5, 1): 3, (5, 2): 2}
    assert proportional({"a": 3, "b": 1}, 4) == {"a": 3, "b": 1}
    assert sum(proportional({"a": 1, "b": 1, "c": 1}, 2).values()) == 2


def test_benchmark_json_names_every_reported_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reported = set(run.sum_layers([rep.layer_metrics(Tracer(), [])]))
    reported |= {"abelian_gw.store.file_bytes", "cli.startup_s", "trace.overhead_s"}
    assert reported == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
