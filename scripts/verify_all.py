#!/usr/bin/env python3
"""Run the verification battery over the standard targets and print a table.

Usage: python scripts/verify_all.py [--deep] [--cache PATH]

--deep raises the insertion bound from 5 to 6 marks (about four times as
long).  --cache PATH loads the store from PATH when it exists and saves it
there after the battery, through the CLI's open_store and save_store.
Exit status 1 when any suite reports a violation, 3 when the cache file
cannot be read (wrong version header, a malformed entry, or an OSError
such as a path that cannot be opened) or written (an OSError such as a
path in a missing directory), with one `cache error: ...` line on stderr,
as the CLI commands do.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from abelianizer.cli import CommandError, RunConfig, open_store, run_suites, save_store


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--deep", action="store_true")
    ap.add_argument("--cache", default=None)
    args = ap.parse_args()

    d, l = (2, 6) if args.deep else (2, 5)
    plans = [
        RunConfig(k=2, n=4, max_degree=d, max_insertions=l),
        RunConfig(k=2, n=5, max_degree=d, max_insertions=l),
        RunConfig(k=3, n=6, max_degree=1, max_insertions=4,
                  suites=("martin", "omega-trivial", "two-point", "three-point")),
        *(RunConfig(k=k, n=6, max_degree=1, max_insertions=5,
                    suites=("four-point-divisor", "five-point-symmetry", "wdvv-grass"))
          for k in (3, 2)),
    ]
    try:
        store = open_store(args.cache)
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return exc.code

    print(f"{'target':<10} {'suite':<22} {'instances':>9} {'pass':>5} {'time':>8}")
    ok = True
    for cfg in plans:
        for rep in run_suites(cfg, store):
            ok = ok and rep.passed
            print(f"Gr({cfg.k},{cfg.n})   {rep.suite:<22} {rep.instances:>9} "
                  f"{str(rep.passed):>5} {rep.wall_time:>7.2f}s")
    try:
        save_store(args.cache, store)
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    print("cache:", store.stats())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
