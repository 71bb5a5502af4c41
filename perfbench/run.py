#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Every
repetition starts cold: a fresh interpreter, empty module-level caches and
an empty in-memory MemoStore, as a CLI user meets it on every invocation.
Repetitions run until S seconds have passed (at least MIN_REPS), and every
timing reported is a median over the repetitions whose checks all passed.

Times are reported at a reference CPU speed: every child process samples
its CPU's speed while it runs, and its times, less the samples, are scaled
to the speed where a fixed calibration chunk takes REFERENCE_CHUNK_S (see
speed.py).  On a host whose shared cores drift in speed from second to
second this cancels most of the drift.  The unscaled wall_s is printed too.

Workloads (see BENCHMARK.json for why each is there):
    abelian           Kontsevich ladder N_2..N_6 on P^2, then wdvv-abelian on (P^3)^2, d <= 1
    grass-multipoint  Gr(2,5): four-point-divisor, a five-point-symmetry sample at d <= 2, wdvv-grass
    three-point       Gr(3,5), d <= 2: two-point, three-point against the rim-hook oracle, j-i
    cli-cache         seeded `abelianizer invariant` queries on Gr(2,5), one process each,
                      sharing one cache file restored to a warm copy before every repetition

query_p50_s and query_tail_s are per-query latencies on cli-cache, where the
tail is the highest percentile with TAIL_BEYOND queries beyond it.  On the
other workloads a query is a whole repetition process, spawn to exit, and
the tail is the maximum over the repetitions.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones, with
the tracing overhead; per-layer times are not scaled.  Spans are written under .perfbench/<workload>/.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
Exit status: 0 when every check passed, 1 when one failed, 2 when the
package source or a child process is missing or broken, or when the time
budget ran out.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import STORE_IO

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("abelian", "grass-multipoint", "three-point", "cli-cache")
MIN_REPS = 4
BUDGET_S = 140  # no repetition starts that could end after this; a run must end within 180 s
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s", "instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "query_p50_s": "s", "query_tail_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


# ---------------------------------------------------------------------------
# statistics

def tail(samples, beyond: int = TAIL_BEYOND):
    """(percentile, value) of the highest percentile with at least `beyond`
    samples above it, or None when there are not more than `beyond` samples."""
    xs = sorted(samples)
    rank = len(xs) - beyond  # 1-based; exactly `beyond` samples rank above it
    if rank < 1:
        return None
    return 100.0 * rank / len(xs), xs[rank - 1]


def tail_latency(samples, per_repetition: bool):
    """(value, label) of the tail latency.

    When each repetition is a single query there are too few samples for a
    percentile above the median to have ten beyond it, so the tail is the
    maximum; so it is too when no percentile has `TAIL_BEYOND` beyond it.
    """
    found = None if per_repetition else tail(samples)
    if found is None:
        return max(samples), f"max of {len(samples)}"
    pct, value = found
    return value, f"p{pct:.1f} of {len(samples)} ({TAIL_BEYOND} samples beyond it)"


def summarize(reps, cold_setup_s: float = 0.0):
    """End-to-end metrics over the clean untraced repetitions, or None when
    no repetition is clean: a failed repetition is not timed."""
    clean = [r for r in reps if not r["failed"] and not r["traced"]]
    if not clean:
        return None, {}
    latencies = [x for r in clean for x in r["latencies"]]
    tail_value, tail_label = tail_latency(latencies, all(len(r["latencies"]) == 1 for r in clean))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in clean),
        "instances_per_s": statistics.median(r["instances"] / r["wall_s"] for r in clean),
        "setup_s": cold_setup_s + statistics.median(r["setup_s"] for r in clean),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in clean),
        "query_p50_s": statistics.median(latencies),
        "query_tail_s": tail_value,
    }
    return metrics, {"query_tail_s": tail_label}


def fail_share(reps) -> tuple[int, int, float]:
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return attempted, failed, (failed / attempted if attempted else 1.0)


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ABELIANIZER_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, timeout: float):
    """Run argv to completion: (exit code, output lines, seconds, peak RSS in MB).

    A child still running after `timeout` seconds is killed, and that is a
    BenchError (the run's time budget is spent), not a failed check.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        raise BenchError(f"{argv[1:3]} was still running when the time budget ran out")
    return proc.returncode, out.splitlines(), time.monotonic() - t0, usage.ru_maxrss / 1024


def last_json(lines, offset: int = 1):
    for line in reversed(lines):
        if line.strip():
            offset -= 1
            if not offset:
                return json.loads(line)
    raise ValueError("no output")


# ---------------------------------------------------------------------------
# repetitions

def in_process_rep(workload, seed, traced, work: Path, index: int, timeout: float) -> dict:
    spawn_at = time.monotonic()
    code, lines, seconds, rss = spawn(
        [sys.executable, str(HERE / "rep.py"), "run", workload, str(seed), str(int(traced)),
         repr(spawn_at), str(work / f"spans-{index}.tsv")], timeout)
    try:
        rep = last_json(lines)
    except ValueError:
        raise BenchError(f"{workload} repetition exited {code}:\n" + "\n".join(lines[-20:]))
    f = rep["factor"]
    rep.update(traced=traced, peak_rss_mb=rss, latencies=[(seconds - rep["paused_s"]) * f],
               instances=rep["attempted"], raw_wall_s=rep["wall_s"], wall_s=rep["wall_s"] * f,
               setup_s=rep["setup_s"] * f)
    if traced:
        rep["layers"] = sum_layers([rep["layers"]])
    if code:
        rep["failed"] += 1
        rep["attempted"] += 1
    return rep


def cli_call(args, traced: bool, spans: Path, timeout: float):
    """Run `abelianizer ARGS` in a fresh process through rep.py: (exit code,
    output lines, rep.py's record or None, latency, unscaled latency, peak RSS
    in MB).  The latency is spawn to exit, less the speed samples, scaled to
    the reference speed when the record is there."""
    spawn_at = time.monotonic()
    code, lines, seconds, rss = spawn(
        [sys.executable, str(HERE / "rep.py"), "cli", str(int(traced)), repr(spawn_at),
         str(spans)] + args, timeout)
    try:
        record = last_json(lines)
        raw = seconds - record["paused_s"]
        return code, lines, record, raw * record["factor"], raw, rss
    except (ValueError, KeyError, TypeError):
        return code, lines, None, seconds, seconds, rss


def cli_setup(seed, work: Path, timeout: float):
    """Build the warm cache file the way a user does, and the reference value
    of every query without a cache file: (warm file, queries, build seconds).
    The reference values are the benchmark's own check, not set-up."""
    warm = work / "warm.cache"
    code, lines, record, build_s, _, _ = cli_call(
        ["verify", "--k", "2", "--n", "5", "--suite", "four-point-divisor",
         "--suite", "five-point-symmetry", "--suite", "wdvv-grass", "--max-degree", "2",
         "--cache", str(warm), "--out", str(work / "warm-report.json")],
        False, work / "spans-warm.tsv", timeout)
    if code or record is None or not warm.is_file():
        raise BenchError(f"warm cache build exited {code}:\n" + "\n".join(lines[-20:]))
    code, lines, _, _ = spawn([sys.executable, str(HERE / "rep.py"), "refs", str(seed)], timeout)
    try:
        queries = last_json(lines)
    except ValueError:
        raise BenchError(f"reference run exited {code}:\n" + "\n".join(lines[-20:]))
    return warm, queries, build_s


def cli_rep(queries, warm: Path, traced, work: Path, index: int, deadline: float) -> dict:
    """One pass over the queries; wall_s is the sum of their latencies."""
    live = work / "live.cache"
    t0 = time.monotonic()
    shutil.copyfile(warm, live)
    rep = {"traced": traced, "setup_s": time.monotonic() - t0, "attempted": 0, "failed": 0,
           "notes": [], "latencies": [], "raw_wall_s": 0.0, "instances": len(queries),
           "peak_rss_mb": 0.0}
    layers, factors = [], []
    for i, q in enumerate(queries):
        args = ["invariant", "--k", "2", "--n", "5", "--parts", q["parts"], "--d", str(q["d"]),
                "--cache", str(live)]
        code, lines, record, seconds, raw, rss = cli_call(
            args, traced, work / f"spans-{index}-{i}.tsv", deadline - time.monotonic())
        rep["latencies"].append(seconds)
        rep["raw_wall_s"] += raw
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        if record:
            factors.append(record["factor"])
            if traced:
                layers.append(record["layers"])
        try:
            value = last_json(lines, 2)["value"]
        except (ValueError, KeyError, TypeError):
            value = None
        rep["attempted"] += 1
        if code != 0 or q["code"] != 0 or value != q["value"]:
            rep["failed"] += 1
            rep["notes"].append(f"{q['parts']} d={q['d']}: exit {code}, {value} vs {q['value']}")
    rep["wall_s"] = sum(rep["latencies"])
    rep["factor"] = statistics.median(factors) if factors else 1.0
    rep["setup_s"] *= rep["factor"]
    if traced:
        rep["layers"] = sum_layers(layers) if layers else {}
        rep["layers"]["abelian_gw.store.file_bytes"] = live.stat().st_size
    return rep


# ---------------------------------------------------------------------------
# per-layer metrics

def sum_layers(rows) -> dict:
    """Per-layer metrics of one repetition from those of its processes:
    counts and times add, then the ratios are taken over the sums."""
    out = {k: sum(row[k] for row in rows) for k in rows[0]}
    calls = out["correspondence.i_bracket.calls"]
    computed = out.pop("correspondence.i_bracket.computed")
    out["correspondence.i_bracket.computed_ratio"] = computed / calls if calls else 0.0
    lookups = out["abelian_gw.store.hits"] + out["abelian_gw.store.misses"]
    out["abelian_gw.store.hit_rate"] = out["abelian_gw.store.hits"] / lookups if lookups else 0.0
    return out


def per_layer(reps, layer_names):
    traced = [r for r in reps if r["traced"] and r.get("layers")]
    untraced = [r for r in reps if not r["traced"]]
    metrics = {}
    for name in layer_names:
        values = [r["layers"].get(name, 0.0) for r in traced]
        metrics[name] = statistics.median(values) if values else 0.0
    traced_wall = statistics.median(r["wall_s"] for r in traced) if traced else 0.0
    untraced_wall = statistics.median(r["wall_s"] for r in untraced) if untraced else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, traced_wall


def largest_self_time(metrics):
    """(layer, seconds) with the largest self time; store load/save have no children."""
    selfs = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    selfs.update((name, metrics[f"{name}_s"]) for name in STORE_IO if f"{name}_s" in metrics)
    return max(selfs.items(), key=lambda kv: kv[1])


# ---------------------------------------------------------------------------

def context(load_before) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "abelianizer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None  # a checkout without .git has no rev; src_sha256 names the code instead
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "abelianizer" / "cli.py").is_file():
        print(f"benchmark: no package source at {SRC / 'abelianizer'}; run from a checkout",
              file=sys.stderr)
        return 2

    load_before = list(os.getloadavg())
    start = time.monotonic()
    deadline = start + BUDGET_S
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    reps, cold_setup_s = [], 0.0
    try:
        if args.workload == "cli-cache":
            warm, queries, cold_setup_s = cli_setup(args.seed, work, deadline - time.monotonic())
        window, last = time.monotonic(), 0.0
        # start another repetition while it is expected to end before the
        # measuring window closes, give or take half a repetition
        while (len(reps) < MIN_REPS or time.monotonic() + last / 2 - window < args.seconds) \
                and time.monotonic() + last < deadline:
            traced = bool(args.trace) and len(reps) % 2 == 1
            t = time.monotonic()
            if args.workload == "cli-cache":
                rep = cli_rep(queries, warm, traced, work, len(reps), deadline)
            else:
                rep = in_process_rep(args.workload, args.seed, traced, work, len(reps),
                                     deadline - time.monotonic())
            reps.append(rep)
            last = time.monotonic() - t
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    attempted, failed, share = fail_share(reps)
    ctx = context(load_before)
    ctx["speed_factor_median"] = statistics.median(r["factor"] for r in reps)
    print("context " + json.dumps(ctx, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{attempted} checks, {failed} failed, fail_share {share:.6g} share")
    print("repetition wall_s (unscaled): " + " ".join(
        f"{r['wall_s']:.3f} ({r['raw_wall_s']:.3f}){'T' if r['traced'] else ''}"
        f"{'F' if r['failed'] else ''}" for r in reps))
    for r in reps:
        for note in r.get("notes", []):
            print(f"  failed: {note}")
    if args.trace:
        spec = load_spec()
        names = [m["name"] for m in spec["per_layer"]]
        layer_values, traced_wall = per_layer(reps, [n for n in names if n != "trace.overhead_s"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {n: {"value": layer_values[n], "unit": units[n]} for n in names}
        layer, seconds = largest_self_time(layer_values)
        print(f"largest self time: {layer} {seconds:.4g} s of traced wall {traced_wall:.4g} s "
              f"(tracing overhead {layer_values['trace.overhead_s']:.4g} s)")
    else:
        values, labels = summarize(reps, cold_setup_s)
        metrics = {}
        for n, v in (values or {}).items():
            metrics[n] = {"value": v, "unit": END_TO_END_UNITS[n]}
            extra = f"  [{labels[n]}]" if n in labels else ""
            print(f"{n} {v:.6g} {END_TO_END_UNITS[n]}{extra}")
        if values:
            raw = statistics.median(r["raw_wall_s"] for r in reps
                                    if not r["failed"] and not r["traced"])
            print(f"unscaled wall_s {raw:.6g} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
