import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from abelianizer import correspondence
from abelianizer.partitions import BoxSpec, Partition, box_partitions, complement, epsilon, lifts
from abelianizer.abelian_gw import MemoStore, admissible_tuples, gw_invariant, virtual_dim
from abelianizer.cohomology import ProductSpace, cup, lift, martin_integral
from abelianizer import grassmannian as gr
from abelianizer.correspondence import (
    AssembledInvariants,
    Lifted,
    LiftedTimesOmega,
    OMEGA,
    assemble_and_check_wdvv,
    bracket_degree,
    check_omega_triviality,
    check_two_point,
    evaluate_formula,
    formula_to_json,
    generate_formula,
    i_bracket,
    is_child,
    mirror_map,
    naive_vs_corrected,
    render_formula,
    specialize_novikov,
)


def P(*parts):
    return Partition(parts)


B24 = BoxSpec(2, 4)


# ---------------------------------------------------------------------------
# formula trees

def brackets_of(root):
    """The brackets of a formula tree, root first, depth-first."""
    yield root
    for slot in root:
        if is_child(slot):
            yield from brackets_of(slot)


def test_tree_group_counts():
    profiles = {}
    for l in (3, 4, 5):
        tree = generate_formula(l)
        counts = Counter(sum(1 for _ in brackets_of(root)) - 1 for _, root in tree.groups)
        profiles[l] = (len(tree.groups), dict(counts))
    assert profiles[3] == (1, {0: 1})
    assert profiles[4] == (2, {0: 1, 1: 1})
    # main term + 4 single-contraction + 3 double-contraction groups
    assert profiles[5] == (8, {0: 1, 1: 4, 2: 3})


def test_tree_contains_lower_tree():
    # prepending the new field to the root of each (l-1)-group reproduces a
    # group of the l-tree: the derivative-free part
    def shift(br):
        return tuple(shift(s) if is_child(s) else (s[0], s[1] + 1) if s[0] in ("xi", "lom_s") else s
                     for s in br)

    for l in (4, 5, 6):
        prev = generate_formula(l - 1)
        cur_set = set(generate_formula(l).groups)
        for sign, root in prev.groups:
            assert (sign, (("xi", 0),) + shift(root)) in cur_set


def test_every_bracket_has_two_omega_insertions():
    # structural parity invariant: each bracket, nested ones included,
    # carries exactly two omega insertions, for every arity
    nested = 0
    for l in range(3, 8):
        for _, root in generate_formula(l).groups:
            for br in brackets_of(root):
                nested += br is not root
                assert sum(1 for s in br if not is_child(s) and s[0] in ("om", "lom_s", "up")) == 2
    assert nested


# the assignment loop that evaluate_formula replaced, kept as the reference
# path: a group as a flat list of brackets whose contraction indices are
# numbered tags, summed over every assignment of box partitions to the
# indices and every split of d among the brackets

def flatten(root):
    """(brackets, nc): the slot of child j is ("xid", j), and that child's
    ("up",) is ("lom_i", j).  Each child precedes its parent, the order
    the flat groups kept."""
    brackets, index = [], itertools.count()

    def walk(br, up):
        slots = []
        for s in br:
            if is_child(s):
                j = next(index)
                walk(s, j)
                slots.append(("xid", j))
            else:
                slots.append(("lom_i", up) if s == ("up",) else s)
        brackets.append(tuple(slots))

    walk(root, None)
    return brackets, next(index)


def reference_formula(tree, partitions, d, box, store):
    parts = [Partition(p) for p in partitions]
    if sum(p.weight for p in parts) != virtual_dim(box, d, tree.l):
        return Fraction(0)
    basis = box_partitions(box)

    def realize(sym, assign):
        tag, *rest = sym
        if tag == "xi":
            return Lifted(parts[rest[0]])
        if tag == "xid":
            return Lifted(complement(assign[rest[0]], box))
        if tag == "om":
            return OMEGA
        if tag == "lom_s":
            return LiftedTimesOmega(parts[rest[0]])
        assert tag == "lom_i"
        return LiftedTimesOmega(assign[rest[0]])

    total = Fraction(0)
    for sign, root in tree.groups:
        brackets, nc = flatten(root)
        comps = lifts(d, len(brackets))
        for assign in itertools.product(basis, repeat=nc):
            realized = [[realize(s, assign) for s in br] for br in brackets]
            for comp in comps:
                prod = Fraction(sign)
                for ins, e in zip(realized, comp):
                    prod *= i_bracket(ins, e, box, store)
                    if not prod:
                        break
                total += prod
    return total


def test_tree_contraction_matches_assignment_loop():
    # every admissible Gr(2,4) tuple with at most 5 points at d <= 2; each
    # side has its own store, and both end the same
    tree_store, loop_store = MemoStore(), MemoStore()
    count = 0
    for l in (3, 4, 5):
        tree = generate_formula(l)
        for combo, d in admissible_tuples(B24, l, 2):
            got = evaluate_formula(tree, list(combo), d, B24, tree_store)
            assert got == reference_formula(tree, combo, d, B24, loop_store), (combo, d)
            count += 1
    assert count > 80
    assert tree_store.data == loop_store.data
    # no bracket was evaluated at a degree where the dimension rule zeroes it
    assert all(bracket_degree(ins, B24) == e for _, ins, e in tree_store.brackets)


# the store a shared run ends with, as it was before child tables were kept
# on the store: (entries, hits, misses, sha256 of its sorted data).  Since
# 4- and 5-mark keys of products are settled by the product formula, these
# are a subset, with the same values, of the 238 and 1,834 keys that WDVV
# reconstruction left.  The hits are those of one call per tuple; they
# halved when the unsigned second call per tuple left the test
SHARED_STORE_END = {
    (2, 4): (175, 423, 175, "a5b079de2d783505"),
    (2, 5): (1475, 4826, 1475, "bc692b6d659e95fa"),
}


@pytest.mark.parametrize("k, n, d_max", [(2, 4, 3), (2, 5, 2)])
def test_shared_store_tables_match_fresh_stores(k, n, d_max):
    # a child's table is kept on the store under what the child holds, so a
    # store shared by every admissible tuple at l <= 5 must give each call
    # the value, and each table the rows, of a store of its own.  Most nested
    # tables are empty here, so a key that misses what a child's children
    # hold shows in the rows first.
    box, shared, count = BoxSpec(k, n), MemoStore(), 0
    for l in (3, 4, 5):
        tree = generate_formula(l)
        for combo, d in admissible_tuples(box, l, d_max):
            got = evaluate_formula(tree, list(combo), d, box, shared)
            alone = MemoStore()
            assert got == evaluate_formula(tree, list(combo), d, box, alone), (combo, d)
            assert all(shared.tables[key] == rows for key, rows in alone.tables.items()), (combo, d)
            count += 1
    assert count == {(2, 4): 107, (2, 5): 536}[k, n] and shared.tables
    digest = hashlib.sha256(repr(sorted(shared.data.items())).encode()).hexdigest()
    assert (*shared.stats().values(), digest[:16]) == SHARED_STORE_END[k, n]


def test_flatten_is_the_tagged_tree():
    # the 4-point correction: one contraction joins the two brackets
    (_, root), = [g for g in generate_formula(4).groups if g[0] < 0]
    assert flatten(root) == ([(("xi", 0), ("xi", 1), ("om",), ("lom_i", 0)),
                              (("xid", 0), ("lom_s", 2), ("lom_s", 3))], 1)


def test_bracket_degree_is_the_dimension_rule():
    # <s1, s21.w, s22.w> on (P^3)^2: 1 + 3 + 4 + 2*1 = 10 = 6 + 4e + 0, e = 1
    ins = [Lifted(P(1)), LiftedTimesOmega(P(2, 1)), LiftedTimesOmega(P(2, 2))]
    assert bracket_degree(ins, B24) == 1
    assert bracket_degree([Lifted(P(2))] + ins[1:], B24) is None     # 11 = 6 + 4e: no e
    assert bracket_degree([OMEGA, OMEGA, Lifted(P())], B24) is None  # 2 = 6 + 4e: e < 0
    # a 3-point root has no child: one bracket, at that one degree
    st = MemoStore()
    assert evaluate_formula(generate_formula(3), [P(1), P(2, 1), P(2, 2)], 1, B24, st) == 1
    assert list(st.brackets) == [(B24, tuple(sorted(ins)), 1)]


def test_render_and_json():
    tree = generate_formula(5)
    text = render_formula(tree)
    assert len(text.splitlines()) == 8
    doc = json.loads(formula_to_json(tree))
    assert doc["arity"] == 5 and len(doc["groups"]) == 8


# sha256 of formula_to_json(generate_formula(l)): any change to a tree's
# terms, signs, slot labels or their order shows here
FORMULA_JSON_SHA256 = {
    3: "4ab7c7e40641b0fb9982f02bb249f2ed7e0d1bf9a9c341ab2a6c3c599b966f75",
    4: "61534bd76a32a096d2b5b400b0151a13ec60a86d075d6417304cf618e2f93b09",
    5: "0614ca05db51b344238a1454e6db717a034811475a8b924fd280af68e5344413",
    6: "699f228170a8289298316c4e8d79bf41b0560cf9c3b8432752d0a71fbc8922b7",
    7: "b2ac2f770d0e83baf7d6e4ad3f223a91fcf065c9806e5df704f50325e8ee1b7a",
}


@pytest.mark.parametrize("l", sorted(FORMULA_JSON_SHA256))
def test_formula_json_pinned(l):
    got = hashlib.sha256(formula_to_json(generate_formula(l)).encode()).hexdigest()
    assert got == FORMULA_JSON_SHA256[l]


def test_generate_formula_rejects_small_arity():
    with pytest.raises(ValueError):
        generate_formula(2)


# ---------------------------------------------------------------------------
# brackets

def test_i_bracket_three_point(store):
    v = i_bracket([Lifted(P(1)), LiftedTimesOmega(P(2, 1)), LiftedTimesOmega(P(2, 2))],
                  1, B24, store)
    assert v == gr.three_point(P(1), P(2, 1), P(2, 2), 1, B24) == 1
    # omega alone is the lift of [] times omega: one bracket and one store
    # entry, whatever the order of the insertions
    fresh = MemoStore()
    pair = [Lifted(P(1)), LiftedTimesOmega(P(2, 1))]
    v = i_bracket(pair + [OMEGA], 0, B24, fresh)
    w = i_bracket(pair + [LiftedTimesOmega(P())], 0, B24, fresh)
    assert len(fresh.brackets) == 1
    assert v == w == gr.three_point(P(1), P(2, 1), P(), 0, B24) == 1
    assert i_bracket([OMEGA, pair[1], pair[0]], 0, B24, fresh) == 1
    assert len(fresh.brackets) == 1


def test_i_bracket_degree_zero_is_martin(store):
    for lam, mu, nu in itertools.combinations_with_replacement(box_partitions(B24), 3):
        if lam.weight + mu.weight + nu.weight != B24.dim:
            continue
        v = i_bracket([Lifted(lam), LiftedTimesOmega(mu), LiftedTimesOmega(nu)], 0, B24, store)
        want = martin_integral(cup(cup(lift(lam, B24), lift(mu, B24)), lift(nu, B24)), B24)
        assert v == want


def test_i_bracket_weyl_vanishing(store):
    # exactly one omega insertion forces zero (3- and 4-point shapes)
    parts = box_partitions(B24)
    checked = 0
    for d in (0, 1, 2):
        for lam, mu in itertools.combinations_with_replacement(parts, 2):
            for nu in parts:
                ins = [Lifted(lam), Lifted(mu), LiftedTimesOmega(nu)]
                assert i_bracket(ins, d, B24, store) == 0
                checked += 1
        for lam, mu, nu in itertools.combinations_with_replacement(parts, 3):
            ins = [Lifted(lam), Lifted(mu), Lifted(nu), OMEGA]
            assert i_bracket(ins, d, B24, store) == 0
            checked += 1
            ins = [Lifted(lam), Lifted(mu), Lifted(nu), LiftedTimesOmega(P(1))]
            assert i_bracket(ins, d, B24, store) == 0
            checked += 1
    assert checked > 100


def test_specialize_novikov_examples():
    assert specialize_novikov({(1, 0): Fraction(1), (0, 1): Fraction(1)}, 2) == {1: -2}
    assert specialize_novikov({(1, 1): Fraction(1)}, 2) == {2: 1}
    assert specialize_novikov({(0, 0): Fraction(5)}, 2) == {0: 5}


# ---------------------------------------------------------------------------
# identities against the rim-hook oracle

@pytest.mark.parametrize("kn", [(2, 4), (2, 5)])
def test_two_point_identity(kn, store):
    assert check_two_point(BoxSpec(*kn), 2, store) == []


def test_two_point_negative_control(monkeypatch):
    # dropping the lift-parity sign (-1)^((k-1)d) must break the identity; on
    # Gr(2,4) at d <= 2 it breaks exactly the one pair whose bracket is
    # nonzero at odd d.  A fresh store, since the brackets it keeps are wrong
    monkeypatch.setattr(correspondence, "epsilon", lambda d, k: 0)
    found = check_two_point(B24, 2, MemoStore())
    assert [(v["pair"], v["d"]) for v in found] == [((P(2, 1), P(2, 2)), 1)]
    assert found.instances == 42


def test_dropped_sign_is_global(monkeypatch):
    # without the lift-parity sign every corrected invariant is the true one
    # times (-1)^epsilon(d, k): epsilon is additive in d, and the degrees of
    # the brackets of a nonzero group add up to d.  Such a sign is the
    # substitution Q -> (-1)^(k-1) Q, which leaves associativity intact, so
    # no WDVV check can see the error; only the comparisons with the
    # rim-hook oracle (two-point, three-point) catch it
    tuples = [(generate_formula(l), combo, d) for l in (3, 4, 5) for combo, d in admissible_tuples(B24, l, 3)]
    good = MemoStore()
    want = [evaluate_formula(tree, list(combo), d, B24, good) for tree, combo, d in tuples]
    monkeypatch.setattr(correspondence, "epsilon", lambda d, k: 0)
    bad = MemoStore()
    got = [evaluate_formula(tree, list(combo), d, B24, bad) for tree, combo, d in tuples]
    assert got == [(-1) ** epsilon(d, 2) * v for v, (_, _, d) in zip(want, tuples)]
    # the sign has teeth: 45 values are nonzero, 21 of them at odd d
    nonzero = [d for v, (_, _, d) in zip(want, tuples) if v]
    assert (len(tuples), len(nonzero), sum(d % 2 for d in nonzero)) == (107, 45, 21)


@pytest.mark.parametrize("kn", [(2, 4), (2, 5)])
def test_three_point_correspondence(kn, store):
    box = BoxSpec(*kn)
    tree = generate_formula(3)
    count = 0
    for combo in itertools.combinations_with_replacement(box_partitions(box), 3):
        for d in (0, 1, 2):
            if sum(p.weight for p in combo) != box.dim + box.n * d:
                continue
            count += 1
            assert evaluate_formula(tree, combo, d, box, store) == gr.three_point(*combo, d, box)
    assert count > 10


def test_evaluate_formula_checks_rule_up_front():
    # weights add to 16, the rule asks 4 + 4*2 + 3 = 15: zero before any
    # bracket is expanded or any invariant looked up
    st = MemoStore()
    parts = [[1], [2], [1, 1], [2, 1], [2, 2], [2, 2]]
    assert evaluate_formula(generate_formula(6), parts, 2, B24, st) == 0
    assert st.stats() == {"entries": 0, "hits": 0, "misses": 0}
    assert st.brackets == {}


def test_four_point_divisor_oracle(store):
    rep = naive_vs_corrected(B24, 2, store)
    assert rep["oracle_mismatches"] == []
    with_div = [r for r in rep["instances"] if P(1) in r["partitions"] and r["d"] >= 1]
    assert with_div, "no divisor instances found"


def test_naive_failure_found(store):
    rep = naive_vs_corrected(B24, 3, store)
    assert rep["nonzero_corrections"], "naive formula unexpectedly exact"
    assert rep["oracle_mismatches"] == []


def test_naive_exact_in_abelian_case(store):
    # Gr(1, n): omega = c, single lift, no corrections anywhere
    rep = naive_vs_corrected(BoxSpec(1, 4), 2, store)
    assert rep["nonzero_corrections"] == []


def test_four_point_permutation_symmetry(store):
    tree = generate_formula(4)
    rng = random.Random(5)
    parts = box_partitions(B24)
    admissible = [
        (combo, d)
        for d in (1, 2)
        for combo in itertools.combinations_with_replacement(parts, 4)
        if sum(p.weight for p in combo) == B24.dim + B24.n * d + 1
    ]
    assert admissible
    for combo, d in admissible:
        ref = evaluate_formula(tree, list(combo), d, B24, store)
        for _ in range(2):
            perm = list(combo)
            rng.shuffle(perm)
            assert evaluate_formula(tree, perm, d, B24, store) == ref, (combo, d)


def test_five_point_permutation_symmetry(store):
    tree = generate_formula(5)
    rng = random.Random(11)
    parts = box_partitions(B24)
    admissible = [
        (combo, d)
        for d in (0, 1, 2)
        for combo in itertools.combinations_with_replacement(parts, 5)
        if sum(p.weight for p in combo) == B24.dim + B24.n * d + 2
    ]
    assert admissible
    for combo, d in rng.sample(admissible, min(10, len(admissible))):
        ref = evaluate_formula(tree, list(combo), d, B24, store)
        for _ in range(3):
            perm = list(combo)
            rng.shuffle(perm)
            assert evaluate_formula(tree, perm, d, B24, store) == ref
    # a five-point value tied to the corrected naive-failure instance by the
    # divisor axiom: <s1, s21, s21, s21, s22>_2 = 2 * 1
    assert evaluate_formula(
        tree, [P(1), P(2, 1), P(2, 1), P(2, 1), P(2, 2)], 2, B24, store) == 2


def test_five_point_double_divisor_oracle(store):
    tree = generate_formula(5)
    found = 0
    for combo in itertools.combinations_with_replacement(box_partitions(B24), 3):
        for d in (1, 2):
            w = sum(p.weight for p in combo)
            if w + 2 != B24.dim + B24.n * d + 2:
                continue
            val = evaluate_formula(tree, [P(1), P(1)] + list(combo), d, B24, store)
            want = d * d * gr.three_point(*combo, d, B24)
            assert val == want, (combo, d)
            found += 1
    assert found


def test_divisor_axiom_five_to_seven_points(store):
    # <s1, rest>_d = d * <rest>_d through AssembledInvariants, on every
    # admissible Gr(2,4) tuple with s1 at d = 1, 2, for 5, 6 and 7 points
    inv = AssembledInvariants(B24, store)
    counts = {}
    for l in (5, 6, 7):
        for combo, d in admissible_tuples(B24, l, 2):
            if d < 1 or gr.SIGMA_1 not in combo:
                continue
            rest = list(combo)
            rest.remove(gr.SIGMA_1)
            assert inv.value(combo, d) == d * inv.value(rest, d), (combo, d)
            counts[l] = counts.get(l, 0) + 1
    assert counts == {5: 18, 6: 46, 7: 73}
    sigma2_6 = [P(2)] * 6
    assert inv.value(sigma2_6 + [P(2, 2)], 2) == 1
    assert inv.value([P(1)] + sigma2_6 + [P(2, 2)], 2) == 2


def test_gr36_correspondence_sample(store):
    # k = 3 exercises trivial lift parity (epsilon = 0) and c^2 = -1/6
    box = BoxSpec(3, 6)
    tree = generate_formula(3)
    count = 0
    for combo in itertools.combinations_with_replacement(box_partitions(box), 3):
        if sum(p.weight for p in combo) != box.dim + box.n:
            continue
        if max(p.weight for p in combo) < 4:
            continue  # keep the sample quick; heavier triples run via the suite
        assert evaluate_formula(tree, combo, 1, box, store) == gr.three_point(*combo, 1, box)
        count += 1
    assert count > 20


def test_gr36_two_point_identity(store):
    assert check_two_point(BoxSpec(3, 6), 1, store) == []


def test_frozen_correction_instance(store):
    # the showcase failure of the uncorrected bracket, kept as a regression
    # anchor: naive 2 vs corrected 1
    rep = naive_vs_corrected(B24, 2, store)
    bad = rep["nonzero_corrections"]
    assert len(bad) == 1
    inst = bad[0]
    assert inst["partitions"] == [P(2, 1), P(2, 1), P(2, 1), P(2, 2)]
    assert (inst["d"], inst["naive"], inst["corrected"]) == (2, 2, 1)


# ---------------------------------------------------------------------------
# omega triviality, mirror map, assembled WDVV

@pytest.mark.parametrize("kn", [(2, 4), (3, 6)])
def test_omega_triviality(kn):
    assert check_omega_triviality(BoxSpec(*kn)) == []


def test_mirror_map_small_locus_identity(store):
    # every Gr(k, n) with n <= 6; Gr(5, 7) alone takes seconds
    for n in range(2, 7):
        for k in range(1, n):
            box = BoxSpec(k, n)
            mm = mirror_map(box, 3, store)
            assert set(mm) == set(box.basis)
            assert not any(mm.values()), (box, mm)


@pytest.mark.parametrize("n", range(2, 10))
def test_mirror_corrections_break_the_dimension_rule(n):
    # the codimension k(n-1) - |lam| of the insertions falls short of the
    # k(n-1) + n d - 1 a 2-point invariant needs at d >= 1, for every box
    for k in range(1, n):
        box = BoxSpec(k, n)
        for lam in box.basis:
            assert bracket_degree([LiftedTimesOmega(box.dual(lam)), OMEGA], box) in (None, 0)


def test_bracket_cache_dies_with_store():
    # brackets computed on a clean store must not answer for a store that
    # holds a wrong 4-point invariant (3-point ones never come from a store).
    # The brackets split off their degree-0 factor, so at d = 1 they read
    # P^3 keys; a wrong value of this one shows in exactly the two
    # instances below
    assert naive_vs_corrected(B24, 1, MemoStore())["oracle_mismatches"] == []
    bad = MemoStore()
    bad.put(MemoStore.parse_key_text("1,4|1|3;2;2;1"), 2)  # truly 1
    found = naive_vs_corrected(B24, 1, bad)["oracle_mismatches"]
    assert [(r["partitions"], r["corrected"], r["oracle"]) for r in found] == [
        ([P(1), P(2), P(2), P(2, 2)], -1, 0),
        ([P(1), P(2), P(1, 1), P(2, 2)], 2, 1),
    ]


def test_cache_file_with_product_keys_still_loads(tmp_path):
    # a file written before version 0.12.0 holds keys of (P^3)^2 with a
    # factor of degree 0; it loads each on its other factors, the key a
    # fresh store holds, its next save rewrites it so, and it gives the
    # values a fresh store gives
    path = tmp_path / "old.cache"
    path.write_text(f"{MemoStore.VERSION}\n2,4|1,0|3.0;2.3;2.0;1.0\t1/1\n")
    loaded = MemoStore().load(path)
    assert loaded.data == {MemoStore.parse_key_text("1,4|1|3;2;2;1"): 1}
    fresh = MemoStore()
    gw_invariant(ProductSpace(2, 4), [(3, 0), (2, 3), (2, 0), (1, 0)], (1, 0), fresh)
    assert fresh.data == loaded.data
    loaded.save(path)
    assert path.read_text() == f"{MemoStore.VERSION}\n1,4|1|3;2;2;1\t1/1\n"
    assert naive_vs_corrected(B24, 1, loaded) == naive_vs_corrected(B24, 1, MemoStore())


def test_assembled_wdvv(store):
    assert assemble_and_check_wdvv(B24, 2, 6, store) == []


def test_assembled_wdvv_negative_control(monkeypatch):
    # negate the 4-point invariants at odd d.  A global sign flip is the
    # substitution Q -> -Q and leaves associativity intact, so the control
    # breaks the sign on a single arity to have teeth
    value = AssembledInvariants.value

    def corrupted(self, partitions, d):
        v = value(self, partitions, d)
        return -v if len(partitions) == 4 and d % 2 else v

    monkeypatch.setattr(AssembledInvariants, "value", corrupted)
    found = assemble_and_check_wdvv(B24, 2, 6, MemoStore())
    assert (len(found), found.instances) == (25, 788)


@pytest.mark.parametrize("box", [BoxSpec(2, 4), BoxSpec(2, 5), BoxSpec(3, 6)],
                         ids=["Gr(2,4)", "Gr(2,5)", "Gr(3,6)"])
def test_assembled_degree_zero(box, store):
    # at 3 marks the formula tree against Martin's integral of the cup of the
    # lifts; at 4 and 5 marks the degree-0 vanishing
    inv = AssembledInvariants(box, store)
    for (lam, mu, nu), _ in admissible_tuples(box, 3, 0):
        want = martin_integral(cup(cup(lift(lam, box), lift(mu, box)), lift(nu, box)), box)
        assert inv.value((lam, mu, nu), 0) == want, (lam, mu, nu)
    for m in (4, 5):
        for combo, _ in admissible_tuples(box, m, 0):
            assert inv.value(combo, 0) == 0, combo


def test_assembled_matches_divisor_chain(store):
    # <s1, lam, mu, nu>_d = d * <lam, mu, nu>_d through the assembled table
    inv = AssembledInvariants(B24, store)
    count = 0
    for size in (3, 4):
        for combo in itertools.combinations_with_replacement(box_partitions(B24), size):
            for d in (1, 2):
                if sum(p.weight for p in combo) + 1 != B24.dim + B24.n * d + size - 2:
                    continue
                assert inv.value((P(1),) + combo, d) == d * inv.value(combo, d)
                count += 1
    assert count > 10
