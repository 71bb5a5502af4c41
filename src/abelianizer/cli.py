"""Command-line front end: invariants, verification suites, tables, cache.

Exit codes: 0 success, 1 violations found, 2 usage error (an --out path
that cannot be written too), 3 cache error (wrong version header, a
malformed entry, or a cache path that cannot be read or written).  The
cache file is the --cache path; open_store and save_store, which
scripts/verify_all.py also calls, map its errors to exit code 3.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .partitions import BoxSpec, Partition, complement, multidegree_text, parse_partition
from .cohomology import ProductSpace, cup, lift, martin_integral
from .abelian_gw import CacheFormatError, MemoStore, admissible_tuples, check_wdvv, gw_invariant
from .correspondence import (
    AssembledInvariants,
    assemble_and_check_wdvv,
    check_omega_triviality,
    check_two_point,
    evaluate_formula,
    generate_formula,
    mirror_map,
    naive_vs_corrected,
    oracle_value,
)
from .jfunctions import i_function, solve_c_coefficients

REPORT_SCHEMA = "report v1"
FIVE_POINT_SAMPLES = 50  # permuted 5-point tuples that five-point-symmetry draws

class RunConfig:
    def __init__(self, k: int, n: int, max_degree: int = 2, max_insertions: int = 5,
                 suites: tuple = ("all",), seed: int = 0):
        if k < 1 or n < 2:
            raise ValueError("need k >= 1 and n >= 2")
        if min(max_degree, max_insertions) < 0:
            raise ValueError("bounds must be nonnegative")
        bad = [s for s in suites if s != "all" and s not in SUITES]
        if bad:
            raise ValueError(f"unknown suites: {bad}")
        self.k, self.n = k, n
        self.max_degree, self.max_insertions = max_degree, max_insertions
        self.suites, self.seed = suites, seed

    def box(self) -> BoxSpec:
        return BoxSpec(self.k, self.n)  # raises when k >= n

    def space(self) -> ProductSpace:
        return ProductSpace(self.k, self.n)


class Report:
    def __init__(self, suite: str, instances: int, violations: list, wall_time: float,
                 cache_stats: dict, details: dict | None = None):
        self.suite, self.instances, self.violations = suite, instances, violations
        self.wall_time, self.cache_stats = wall_time, cache_stats
        self.details = {} if details is None else details

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "instances": self.instances,
            "passed": self.passed,
            "violations": [_jsonable(v) for v in self.violations],
            "wall_time_s": round(self.wall_time, 3),
            "cache": self.cache_stats,
            "details": _jsonable(self.details),
        }


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, Partition):
        return str(x)
    if isinstance(x, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# suites

# Each suite returns (instances, violations) or (instances, violations,
# details); run_suites names, times and files its report.

def _suite_martin(cfg: RunConfig, store: MemoStore):
    box = cfg.box()
    violations, count = [], 0
    for lam in box.basis:
        for mu in box.basis_of_codim(box.dim - lam.weight):
            count += 1
            got = martin_integral(cup(lift(lam, box), lift(mu, box)), box)
            want = Fraction(1) if mu == complement(lam, box) else Fraction(0)
            if got != want:
                violations.append({"pair": (lam, mu), "got": got, "want": want})
    return count, violations


def _suite_two_point(cfg: RunConfig, store: MemoStore):
    violations = check_two_point(cfg.box(), cfg.max_degree, store)
    return violations.instances, violations


def _suite_three_point(cfg: RunConfig, store: MemoStore):
    box = cfg.box()
    tree = generate_formula(3)
    violations, count = [], 0
    for combo, d in admissible_tuples(box, 3, cfg.max_degree):
        count += 1
        corr = evaluate_formula(tree, list(combo), d, box, store)
        oracle = oracle_value(combo, d, box)
        if corr != oracle:
            violations.append({"triple": combo, "d": d, "formula": corr, "oracle": oracle})
    return count, violations


def _suite_four_point_divisor(cfg: RunConfig, store: MemoStore):
    rep = naive_vs_corrected(cfg.box(), cfg.max_degree, store)
    with_divisor = sum(r["oracle"] is not None for r in rep["instances"])
    return (with_divisor, rep["oracle_mismatches"],
            {"nonzero_corrections": len(rep["nonzero_corrections"])})


def _suite_five_point_symmetry(cfg: RunConfig, store: MemoStore):
    box = cfg.box()
    tree = generate_formula(5)
    rng = random.Random(cfg.seed)
    # a seed's draws depend on this order: degree-major, and within a degree
    # the order of admissible_tuples
    admissible = sorted(admissible_tuples(box, 5, cfg.max_degree), key=lambda t: t[1])
    violations, count = [], 0
    while count < FIVE_POINT_SAMPLES and admissible:
        combo, d = rng.choice(admissible)
        base = list(combo)
        ref = evaluate_formula(tree, base, d, box, store)
        perm = list(range(5))
        rng.shuffle(perm)
        got = evaluate_formula(tree, [base[i] for i in perm], d, box, store)
        count += 1
        if got != ref:
            violations.append({"tuple": combo, "perm": perm, "d": d, "values": (ref, got)})
    return count, violations


def _suite_wdvv_abelian(cfg: RunConfig, store: MemoStore):
    violations = check_wdvv(cfg.space(), cfg.max_degree, cfg.max_insertions, store)
    return violations.instances, violations


def _suite_wdvv_grass(cfg: RunConfig, store: MemoStore):
    violations = assemble_and_check_wdvv(cfg.box(), cfg.max_degree, cfg.max_insertions, store)
    return violations.instances, violations


def _suite_omega_trivial(cfg: RunConfig, store: MemoStore):
    violations = check_omega_triviality(cfg.box())
    return violations.instances, violations


def _suite_mirror_small(cfg: RunConfig, store: MemoStore):
    mm = mirror_map(cfg.box(), cfg.max_degree, store)
    violations = [{"lam": lam, "series": series} for lam, series in mm.items() if series]
    return len(mm) * cfg.max_degree, violations


def _suite_j_i(cfg: RunConfig, store: MemoStore):
    res = solve_c_coefficients(i_function(cfg.box(), cfg.max_degree))
    details = {
        "c_series": {
            str(lam): {f"Q^{d} z^{zp}": v for (d, zp), v in series.items()}
            for lam, series in res.c_series.items()
        }
    }
    return cfg.max_degree + 1, res.residual, details


SUITE_RUNNERS = {
    "martin": _suite_martin,
    "two-point": _suite_two_point,
    "three-point": _suite_three_point,
    "four-point-divisor": _suite_four_point_divisor,
    "five-point-symmetry": _suite_five_point_symmetry,
    "wdvv-abelian": _suite_wdvv_abelian,
    "wdvv-grass": _suite_wdvv_grass,
    "omega-trivial": _suite_omega_trivial,
    "mirror-small": _suite_mirror_small,
    "j-i": _suite_j_i,
}
SUITES = tuple(SUITE_RUNNERS)

# suites that need k < n (a Grassmannian target, not just a product space)
BOX_SUITES = frozenset(SUITES) - {"wdvv-abelian"}


def run_suites(cfg: RunConfig, store: MemoStore) -> list[Report]:
    names = list(SUITES) if "all" in cfg.suites else [s for s in SUITES if s in cfg.suites]
    # every suite is checked before any runs, so a rejected run costs nothing
    for name in names:
        if name in BOX_SUITES and not cfg.k < cfg.n:
            raise ValueError(f"suite {name!r} needs a Grassmannian target (k < n)")
    reports = []
    for name in names:
        t0 = time.time()
        instances, violations, *details = SUITE_RUNNERS[name](cfg, store)
        reports.append(Report(name, instances, violations, time.time() - t0, store.stats(), *details))
    return reports


# ---------------------------------------------------------------------------
# commands

class CommandError(Exception):
    """Ends a command with a one-line message on stderr and exit code code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def open_store(path) -> MemoStore:
    """A store with the entries of the cache file at path, when path is
    given and exists; CommandError with code 3 when it cannot be read."""
    store = MemoStore()
    if path and os.path.exists(path):
        try:
            store.load(path)
        except CacheFormatError as exc:
            raise CommandError(f"cache error: {exc}", 3) from None
        except OSError as exc:
            raise CommandError(f"cache error: cannot read {path}: {exc.strerror}", 3) from None
    return store


def save_store(path, store: MemoStore) -> None:
    """Save store to the cache file at path, when path is given;
    CommandError with code 3 when it cannot be written."""
    if path:
        try:
            store.save(path)
        except CacheFormatError as exc:
            raise CommandError(f"cache error: {exc}", 3) from None
        except OSError as exc:
            raise CommandError(f"cache error: cannot write {path}: {exc.strerror}", 3) from None


def _emit(args, out: str) -> None:
    """Write a command's output to --out, or print it."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise CommandError(f"error: cannot write {args.out}: {exc.strerror}", 2) from None
    else:
        print(out)


def cmd_invariant(args, parser) -> int:
    try:
        box = BoxSpec(args.k, args.n)
        parts = [parse_partition(p) for p in args.parts.split(";") if p.strip()]
    except ValueError as exc:
        parser.error(str(exc))
    if len(parts) < 3:
        parser.error("need at least 3 insertions")
    for p in parts:
        if not p.fits(box):
            parser.error(f"partition {p} does not fit the {box.k}x{box.cols} box")
    if args.d < 0:
        parser.error("degree must be nonnegative")
    store = open_store(args.cache)
    inv = AssembledInvariants(box, store)
    # computed in int, handed out as Fractions
    value = Fraction(inv.value(parts, args.d))
    oracle = oracle_value(parts, args.d, box, inv.value)
    if oracle is not None:
        oracle = Fraction(oracle)
    record = {
        "k": args.k, "n": args.n, "partitions": [str(p) for p in parts], "d": args.d,
        "value": _jsonable(value), "oracle": _jsonable(oracle),
    }
    print(json.dumps(record, sort_keys=True))
    save_store(args.cache, store)
    return 0 if oracle is None or oracle == value else 1


def cmd_verify(args, parser) -> int:
    try:
        cfg = RunConfig(
            k=args.k, n=args.n, max_degree=args.max_degree,
            max_insertions=args.max_insertions, suites=tuple(args.suite), seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    store = open_store(args.cache)
    try:
        reports = run_suites(cfg, store)
    except ValueError as exc:
        parser.error(str(exc))
    payload = [r.to_dict() for r in reports]
    if args.format == "json":
        out = json.dumps(payload, indent=1, sort_keys=True)
    else:
        lines = ["| suite | instances | passed | wall time (s) |", "|---|---|---|---|"]
        for r in reports:
            lines.append(f"| {r.suite} | {r.instances} | {r.passed} | {r.wall_time:.2f} |")
        out = "\n".join(lines)
    _emit(args, out)
    save_store(args.cache, store)
    return 0 if all(r.passed for r in reports) else 1


def _grass_rows(cfg: RunConfig, store: MemoStore):
    box = cfg.box()
    inv = AssembledInvariants(box, store)
    for m in range(3, cfg.max_insertions + 1):
        for combo, d in admissible_tuples(box, m, cfg.max_degree):
            yield d, ";".join(str(p) for p in combo), Fraction(inv.value(combo, d))


def _abelian_rows(cfg: RunConfig, store: MemoStore):
    space = cfg.space()
    for m in range(3, cfg.max_insertions + 1):
        for combo, dd in admissible_tuples(space, m, cfg.max_degree):
            if any(dd):
                label = ";".join("H^" + ".".join(str(x) for x in e) for e in combo)
                yield multidegree_text(dd), label, gw_invariant(space, combo, dd, store)


def cmd_table(args, parser) -> int:
    try:
        cfg = RunConfig(k=args.k, n=args.n, max_degree=args.max_degree,
                        max_insertions=args.max_insertions)
        if args.side == "grass":
            cfg.box()
    except ValueError as exc:
        parser.error(str(exc))
    store = open_store(args.cache)
    rows = list(_grass_rows(cfg, store) if args.side == "grass" else _abelian_rows(cfg, store))
    rows.sort(key=lambda r: (str(r[0]), r[1]))
    if args.format == "csv":
        lines = ["degree,insertions,value"]
        lines += [f"{d},{ins},{_jsonable(v)}" for d, ins, v in rows]
    elif args.format == "markdown":
        lines = ["| degree | insertions | value |", "|---|---|---|"]
        lines += [f"| {d} | {ins} | {_jsonable(v)} |" for d, ins, v in rows]
    else:
        lines = [json.dumps([{"degree": _jsonable(d), "insertions": i, "value": _jsonable(v)}
                             for d, i, v in rows], indent=1, sort_keys=True)]
    _emit(args, "\n".join(lines))
    save_store(args.cache, store)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelianizer",
        description="Exact Gromov-Witten invariants of Grassmannians via abelianization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=None):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--cache", default=None, help="cache file")
        if formats:
            p.add_argument("--format", choices=formats, default="json")
            p.add_argument("--out", default=None, help="write output to a file")

    p_inv = sub.add_parser("invariant", help="one corrected Grassmannian invariant, printed as JSON")
    common(p_inv)
    p_inv.add_argument("--parts", required=True, help='insertions, e.g. "[1];[2,1];[2,2]"')
    p_inv.add_argument("--d", type=int, required=True)

    p_ver = sub.add_parser("verify", help="run verification suites")
    common(p_ver, ("json", "markdown"))
    p_ver.add_argument("--suite", action="append", default=None,
                       help=f"suite name or 'all'; known: {', '.join(SUITES)}")
    p_ver.add_argument("--max-degree", type=int, default=2)
    p_ver.add_argument("--max-insertions", type=int, default=5,
                       help="marks per WDVV identity; each factor of an identity has at most "
                            "one fewer, so associativity tests invariants of fewer marks")
    p_ver.add_argument("--seed", type=int, default=0)

    p_tab = sub.add_parser("table", help="emit a table of invariants within bounds")
    common(p_tab, ("json", "csv", "markdown"))
    p_tab.add_argument("--max-degree", type=int, default=2)
    p_tab.add_argument("--max-insertions", type=int, default=3)
    p_tab.add_argument("--side", choices=("grass", "abelian"), default="grass")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", None) is None and args.command == "verify":
        args.suite = ["all"]
    try:
        if args.command == "invariant":
            return cmd_invariant(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
        if args.command == "table":
            return cmd_table(args, parser)
    except CommandError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
