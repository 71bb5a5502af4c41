#!/usr/bin/env python3
"""Run the verification battery over the standard targets and print a table.

Usage: python scripts/verify_all.py [--deep] [--cache PATH]

--deep raises the insertion bound from 5 to 6 marks (about four times as
long).  --cache PATH loads the store from PATH when it exists and saves it
there after the battery.  Exit status 1 when any suite reports a
violation, 3 when the cache file cannot be read (wrong version header, a
malformed entry, or an OSError such as a path that cannot be opened) or
written (an OSError such as a path in a missing directory), with one
`cache error: ...` line on stderr.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from abelianizer.abelian_gw import CacheFormatError, MemoStore
from abelianizer.cli import RunConfig, run_suites


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
    store = MemoStore()
    if args.cache:
        try:
            store.load(args.cache)
        except FileNotFoundError:
            pass
        except CacheFormatError as exc:
            print(f"cache error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"cache error: cannot read {args.cache}: {exc.strerror}", file=sys.stderr)
            return 3

    print(f"{'target':<10} {'suite':<22} {'instances':>9} {'pass':>5} {'time':>8}")
    ok = True
    for cfg in plans:
        for rep in run_suites(cfg, store):
            ok = ok and rep.passed
            print(f"Gr({cfg.k},{cfg.n})   {rep.suite:<22} {rep.instances:>9} "
                  f"{str(rep.passed):>5} {rep.wall_time:>7.2f}s")
    if args.cache:
        try:
            store.save(args.cache)
        except CacheFormatError as exc:
            print(f"cache error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"cache error: cannot write {args.cache}: {exc.strerror}", file=sys.stderr)
            return 3
    print("cache:", store.stats())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
