"""The workloads: inputs made from the seed, the calls into the package and
the checks on what it returns.

The seed picks which inputs run, never how many of each kind, so that the
amount of work stays the same from seed to seed.
"""

from __future__ import annotations

import itertools
import random

# N_d on P^2 (Kontsevich-Manin, hep-th/9402147)
KONTSEVICH_N = {2: 1, 3: 12, 4: 620, 5: 87304, 6: 26312976}

# five-point-symmetry sample on Gr(2,5).  At d = 0 and 1 the seed draws
# FIVE_POINT_DRAWN tuples per degree; at d = 2, where the cost of a tuple
# varies too much with the draw, the tuples are FIVE_POINT_FIXED ones drawn
# once with a fixed seed, so only their permutations depend on the seed.
# Each tuple is evaluated once as drawn and once permuted.
FIVE_POINT_DRAWN = {0: 1, 1: 6}
FIVE_POINT_FIXED = {2: 2}

# cli-cache queries on Gr(2,5): CLI_QUERIES drawn from the admissible 4- and
# 5-point invariants at d in {1, 2}, stratified by (insertions, degree) in
# proportion to the number of admissible invariants in each stratum
CLI_QUERIES = 7
CLI_STRATA = ((4, 1), (4, 2), (5, 1), (5, 2))


class Tally:
    """Checks attempted and failed; a failure is a suite violation, a wrong
    reference value, a nonzero exit or an exception."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def add_report(self, report):
        self.attempted += max(report.instances, len(report.violations))
        self.failed += len(report.violations)
        if report.violations:
            self.notes.append(f"{report.suite}: {len(report.violations)} violations")


def _admissible(box, arity: int, d: int):
    from abelianizer.partitions import box_partitions

    need = box.dim + box.n * d + arity - 3
    return [c for c in itertools.combinations_with_replacement(box_partitions(box), arity)
            if sum(p.weight for p in c) == need]


def proportional(sizes: dict, total: int) -> dict:
    """Split `total` over the keys of `sizes` in proportion to the sizes,
    rounding by largest remainder so the counts add up to `total`."""
    whole = sum(sizes.values())
    exact = {key: total * size / whole for key, size in sizes.items()}
    counts = {key: int(x) for key, x in exact.items()}
    by_remainder = sorted(sizes, key=lambda key: counts[key] - exact[key])
    for key in by_remainder[: total - sum(counts.values())]:
        counts[key] += 1
    return counts


def five_point_sample(seed: int):
    """[(partitions, d, permutation)] on Gr(2,5): FIVE_POINT_DRAWN tuples per
    degree drawn by the seed, then the FIVE_POINT_FIXED tuples."""
    from abelianizer.partitions import BoxSpec

    rng = random.Random(f"five-point-{seed}")
    box = BoxSpec(2, 5)
    tuples = []
    for d, count in FIVE_POINT_DRAWN.items():
        tuples += [(combo, d) for combo in rng.sample(_admissible(box, 5, d), count)]
    for d, count in FIVE_POINT_FIXED.items():
        fixed = random.Random(f"five-point-fixed-{d}")
        tuples += [(combo, d) for combo in fixed.sample(_admissible(box, 5, d), count)]
    sample = []
    for combo, d in tuples:
        perm = list(range(5))
        rng.shuffle(perm)
        sample.append((combo, d, perm))
    return sample


def cli_queries(seed: int):
    """[(parts text, d)] on Gr(2,5) in a seeded order, CLI_QUERIES in all."""
    from abelianizer.partitions import BoxSpec

    rng = random.Random(f"cli-cache-{seed}")
    box = BoxSpec(2, 5)
    pools = {(arity, d): _admissible(box, arity, d) for arity, d in CLI_STRATA}
    counts = proportional({key: len(pool) for key, pool in pools.items()}, CLI_QUERIES)
    queries = []
    for key, pool in pools.items():
        for combo in rng.sample(pool, counts[key]):
            queries.append((";".join(str(p) for p in combo), key[1]))
    rng.shuffle(queries)
    return queries


def ladder(tally: Tally, reference=KONTSEVICH_N):
    """N_d on P^2 for ascending d on one cold store, checked against `reference`."""
    from abelianizer.abelian_gw import MemoStore, gw_invariant
    from abelianizer.cohomology import ProductSpace

    store = MemoStore()
    p2 = ProductSpace(1, 3)
    for d in sorted(reference):
        value = gw_invariant(p2, [(2,)] * (3 * d - 1), (d,), store)
        tally.check(value == reference[d], f"N_{d} = {value}, literature {reference[d]}")
    return store


def _suites(tally: Tally, store, **cfg):
    from abelianizer.cli import RunConfig, run_suites

    for report in run_suites(RunConfig(**cfg), store):
        tally.add_report(report)


def run_abelian(inputs, tally: Tally):
    from abelianizer.abelian_gw import MemoStore

    stores = [ladder(tally), MemoStore()]
    _suites(tally, stores[1], k=2, n=4, max_degree=1, max_insertions=5, suites=("wdvv-abelian",))
    return stores


def run_grass_multipoint(inputs, tally: Tally):
    from abelianizer.abelian_gw import MemoStore
    from abelianizer.correspondence import evaluate_formula, generate_formula
    from abelianizer.partitions import BoxSpec

    box, store = BoxSpec(2, 5), MemoStore()
    common = dict(k=2, n=5, max_degree=2, max_insertions=5)
    _suites(tally, store, suites=("four-point-divisor",), **common)
    tree = generate_formula(5)
    for combo, d, perm in inputs:
        ref = evaluate_formula(tree, list(combo), d, box, store)
        got = evaluate_formula(tree, [combo[i] for i in perm], d, box, store)
        tally.check(got == ref, f"five-point {combo} d={d} perm={perm}: {ref} != {got}")
    _suites(tally, store, suites=("wdvv-grass",), **common)
    return [store]


def run_three_point(inputs, tally: Tally):
    from abelianizer.abelian_gw import MemoStore

    store = MemoStore()
    _suites(tally, store, k=3, n=5, max_degree=2, max_insertions=4,
            suites=("two-point", "three-point", "j-i"))
    return [store]


IN_PROCESS = {
    "abelian": (lambda seed: None, run_abelian),
    "grass-multipoint": (five_point_sample, run_grass_multipoint),
    "three-point": (lambda seed: None, run_three_point),
}
