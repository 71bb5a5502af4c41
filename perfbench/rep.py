"""One cold repetition in a fresh interpreter; run.py starts it.

    rep.py run WORKLOAD SEED TRACE SPAWN SPANS   an in-process workload
    rep.py refs SEED                             cli-cache queries and their values, no cache file
    rep.py cli TRACE SPAWN SPANS CLI-ARGS...     one `abelianizer` CLI call, after its own output

SPAWN is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so set-up time covers
interpreter start.  Each mode prints one JSON object as its last line.
`run` and `cli` sample the CPU speed while they run (see speed.py); their
times exclude the samples, and "factor" scales them to the reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from speed import Sampler  # noqa: E402


def layer_metrics(tracer, stores, entries_before: int = 0) -> dict:
    """Per-layer counts and times of this process; run.py adds the ratios.

    Store counters are MemoStore.stats() of `stores`, which held
    `entries_before` entries when the process started.
    """
    from tracing import LAYER_NAMES, STORE_IO, computed_calls, layer_times

    spans = tracer.spans()
    times = layer_times(spans)
    out = {}
    for name in LAYER_NAMES:
        row = times.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    out["correspondence.i_bracket.computed"] = computed_calls(
        spans, "correspondence.i_bracket", "abelian_gw.gw_of_classes")
    for name in STORE_IO:
        out[f"{name}_s"] = times.get(name, {"total_s": 0.0})["total_s"]
    stats = [s.stats() for s in stores]
    for key in ("hits", "misses", "entries"):
        out[f"abelian_gw.store.{key}"] = sum(s[key] for s in stats)
    out["abelian_gw.store.entries"] -= entries_before
    return out


def run(workload: str, seed: int, traced: bool, spawn: float, spans_path: str) -> dict:
    sampler = Sampler()
    sampler.start()
    import abelianizer.cli  # noqa: F401  (import is part of set-up)
    from tracing import Tracer
    from workloads import IN_PROCESS, Tally

    make_inputs, body = IN_PROCESS[workload]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    inputs = make_inputs(seed)
    tally = Tally()
    t0, p0 = time.monotonic(), sampler.paused_s
    stores = []
    try:
        stores = body(inputs, tally)
    except Exception:
        tally.check(False, traceback.format_exc(limit=3))
    t1, p1 = time.monotonic(), sampler.paused_s
    result = {"setup_s": t0 - spawn - p0, "wall_s": t1 - t0 - (p1 - p0),
              "attempted": tally.attempted, "failed": tally.failed, "notes": tally.notes[:5],
              **sampler.stop()}
    if tracer:
        result["layers"] = layer_metrics(tracer, stores)
        tracer.write(spans_path)
    return result


def refs(seed: int) -> list:
    from abelianizer.cli import main
    from workloads import cli_queries

    out = []
    for parts, d in cli_queries(seed):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["invariant", "--k", "2", "--n", "5", "--parts", parts, "--d", str(d)])
        out.append({"parts": parts, "d": d, "code": code, "value": json.loads(buf.getvalue())["value"]})
    return out


def cli_call(traced: bool, spawn: float, spans_path: str, argv: list) -> int:
    """Run the CLI on argv; print its output, then the speed and, when
    traced, the layer metrics."""
    sampler = Sampler()
    sampler.start()
    from abelianizer import cli
    from abelianizer.abelian_gw import MemoStore

    startup_s = time.monotonic() - spawn - sampler.paused_s
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        stores = []
        init = MemoStore.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            stores.append(self)

        MemoStore.__init__ = recording_init
        cache = argv[argv.index("--cache") + 1]
        with open(cache) as fh:
            entries_before = sum(1 for line in fh if line.strip()) - 1
    code = cli.main(argv)
    out = sampler.stop()
    if traced:
        out["layers"] = layer_metrics(tracer, stores, entries_before)
        out["layers"]["cli.startup_s"] = startup_s
        tracer.write(spans_path)
    print(json.dumps(out))
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "run":
        workload, seed, traced, spawn, spans_path = argv[1:6]
        print(json.dumps(run(workload, int(seed), traced == "1", float(spawn), spans_path)))
        return 0
    if mode == "refs":
        print(json.dumps(refs(int(argv[1]))))
        return 0
    if mode == "cli":
        return cli_call(argv[1] == "1", float(argv[2]), argv[3], argv[4:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
