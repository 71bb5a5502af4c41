#!/usr/bin/env python3
"""Run the benchmark on HEAD and the working tree in alternating pairs.

Usage:
    python scripts/bench.py --label NAME --seed S     # writes BENCH_NAME.json

The base side is HEAD, exported with `git archive`; the head side is the
working tree (the files git tracks or would track, as they are on disk).
Each is copied into a temporary directory of its own, and `python3
perfbench/run.py --workload W --seed S --seconds <run_seconds of
BENCHMARK.json> --trace 0|1` runs in each, so each side runs its own copy
of the benchmark; the two copies are compared, and a difference is printed
and recorded.  Nothing is fetched.

For every workload of BENCHMARK.json, PAIRS untraced pairs run first and
then TRACE_PAIRS traced ones; each pair runs both sides, and the side that
runs first alternates from pair to pair.  The output holds both revisions,
each run's context line and result line, and for every metric, side and
trace setting the median and quartiles of the run values, the median
change and the number of pairs the head side won (ties count for neither).
For the end-to-end metrics of BENCHMARK.json it also says whether the head
median is worse than the base median by more than the metric's bound.

Exit status: 0 when every run passed its checks, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300  # run.py ends a run within 180 s
PAIRS, TRACE_PAIRS = 10, 1


def git(*args, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw)


def export(rev, dest: Path) -> dict:
    """Write the files of rev (None: the working tree) under dest; return
    what names them."""
    dest.mkdir(parents=True)
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
        for name in filter(None, listed.decode().split("\0")):
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        head = git("rev-parse", "HEAD", text=True).stdout.strip()
        dirty = bool(git("status", "--porcelain", text=True).stdout.strip())
        return {"rev": head, "working_tree": True, "dirty": dirty}
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha).stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return {"rev": sha, "name": rev, "working_tree": False}


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of perfbench/run.py in checkout: its context line, result
    line and exit status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or proc.returncode:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return {"exit": proc.returncode, "context": context, "result": result}


def quartiles(values) -> dict:
    xs = sorted(values)
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def summarize(runs, spec) -> dict:
    """{workload: {"untraced"|"traced": {metric: summary}}} over the runs."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for run in runs:
        mode = "traced" if run["trace"] else "untraced"
        side = out.setdefault(run["workload"], {}).setdefault(mode, {})
        for name, entry in ((run["result"] or {}).get("metrics") or {}).items():
            side.setdefault(name, {}).setdefault(run["pair"], {})[run["side"]] = entry["value"]
    for workload, modes in out.items():
        for mode, by_metric in modes.items():
            for name, by_pair in by_metric.items():
                pairs = [p for p in by_pair.values() if len(p) == 2]
                if not pairs:
                    by_metric[name] = None
                    continue
                lower = metrics.get(name, {}).get("better", "lower") == "lower"
                base = quartiles([p["base"] for p in pairs])
                head = quartiles([p["head"] for p in pairs])
                wins = sum((p["head"] < p["base"]) if lower else (p["head"] > p["base"]) for p in pairs)
                entry = {
                    "unit": metrics.get(name, {}).get("unit"),
                    "better": "lower" if lower else "higher",
                    "base": base,
                    "head": head,
                    "head_wins": wins,
                    "pairs": len(pairs),
                    "median_change": head["median"] / base["median"] - 1 if base["median"] else None,
                }
                bound = metrics.get(name, {}).get("bound")
                if bound is not None:
                    worse = head["median"] - base["median"] if lower else base["median"] - head["median"]
                    entry["bound"] = bound
                    entry["worse_beyond_bound"] = worse > bound * abs(base["median"])
                by_metric[name] = entry
    return out


def run_pairs(workdir: Path, workloads, seed: int, seconds: int):
    """Export both sides under workdir and run the pairs: (revs, runs)."""
    sides = {"base": workdir / "base", "head": workdir / "head"}
    revs = {"base": export("HEAD", sides["base"]), "head": export(None, sides["head"])}
    for name, path in sides.items():
        revs[name]["perfbench_sha256"] = tree_sha256(path / "perfbench")
    if revs["base"]["perfbench_sha256"] != revs["head"]["perfbench_sha256"]:
        print("warning: the two sides run different perfbench/ code", file=sys.stderr)

    runs = []
    for workload in workloads:
        for trace, count in ((0, PAIRS), (1, TRACE_PAIRS)):
            for pair in range(count):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    run = run_once(sides[side], workload, seed, seconds, trace)
                    run.update(workload=workload, trace=trace, pair=pair, side=side)
                    runs.append(run)
                    metrics = (run["result"] or {}).get("metrics") or {}
                    wall = metrics.get("wall_s", {}).get("value")
                    print(f"{workload} trace={trace} pair {pair} {side}: exit {run['exit']}"
                          + (f" wall_s {wall:.4g}" if wall is not None else ""), flush=True)
    return revs, runs


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = ROOT / f"BENCH_{args.label}.json"

    workdir = Path(tempfile.mkdtemp(prefix="bench-"))
    try:
        revs, runs = run_pairs(workdir, workloads, args.seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = summarize(runs, spec)
    record = {
        "label": args.label,
        "command": f"python scripts/bench.py --label {args.label} --seed {args.seed}",
        "base": revs["base"],
        "head": revs["head"],
        "settings": {"seed": args.seed, "seconds": seconds, "pairs": PAIRS,
                     "trace_pairs": TRACE_PAIRS, "workloads": workloads},
        "runs": runs,
        "summary": summary,
    }
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"\n{'workload':<17} {'metric':<16} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'wins':>7}")
    for workload, modes in summary.items():
        for name, entry in modes.get("untraced", {}).items():
            if entry is None or name not in {m["name"] for m in spec["end_to_end"]}:
                continue
            b, h = entry["base"], entry["head"]
            flag = "  WORSE BEYOND BOUND" if entry.get("worse_beyond_bound") else ""
            print(f"{workload:<17} {name:<16} {b['median']:>10.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
                  f"{'':>2} {h['median']:>10.4g} [{h['q1']:.4g}, {h['q3']:.4g}]"
                  f" {entry['head_wins']:>3}/{entry['pairs']}{flag}")
    print(f"wrote {out}")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
