import functools
import hashlib
import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abelianizer import abelian_gw, correspondence
from abelianizer.cli import RunConfig, run_suites
from abelianizer.cohomology import (
    PClass, ProductSpace, add, bialternant, c_squared, cup, delta, lift, scale, space_of, unit, variable,
)
from abelianizer.abelian_gw import (
    CacheConsistencyError,
    CacheFormatError,
    CacheVersionError,
    MemoStore,
    check_wdvv,
    gw_invariant,
    gw_of_classes,
    _gw,
    admissible_tuples,
    small_quantum_product,
    sub_multisets,
    three_point,
    two_point,
    virtual_dim,
    wdvv_contraction,
    wdvv_identities,
)
from abelianizer.correspondence import AssembledInvariants, i_bracket
from abelianizer.partitions import BoxSpec, box_partitions, epsilon, lifts

P3 = ProductSpace(1, 4)
PP = ProductSpace(2, 2)
P2 = ProductSpace(1, 3)


def mono(space, e):
    return PClass(space, {tuple(e): Fraction(1)})


def test_small_ring_p3():
    h = variable(P3, 0)
    h3 = mono(P3, (3,))
    prod = small_quantum_product(h, h3)
    assert prod == {(1,): unit(P3)}


def test_small_ring_p1xp1():
    pt = mono(PP, (1, 1))
    prod = small_quantum_product(pt, pt)
    assert prod == {(1, 1): unit(PP)}


def test_small_ring_unit():
    a = mono(P3, (2,))
    assert small_quantum_product(unit(P3), a) == {(0,): a}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_small_ring_associative(data):
    space = data.draw(st.sampled_from([PP, P3, P2]))
    monos = space.basis

    def rand_class():
        terms = {}
        for _ in range(data.draw(st.integers(1, 2))):
            terms[data.draw(st.sampled_from(monos))] = Fraction(data.draw(st.integers(-2, 2)))
        return PClass(space, terms)

    a, b, c = rand_class(), rand_class(), rand_class()

    def star(prod, other):
        out = {}
        for q1, cls in prod.items():
            for q2, cls2 in small_quantum_product(cls, other).items():
                key = tuple(x + y for x, y in zip(q1, q2))
                out[key] = add(out[key], cls2) if key in out else cls2
        return {q: v for q, v in out.items() if not v.is_zero()}

    left = star(small_quantum_product(a, b), c)
    right = star(small_quantum_product(b, c), a)
    assert left == right


def test_three_point_examples():
    h = variable(P3, 0)
    h3 = mono(P3, (3,))
    assert three_point(h, h3, h3, (1,)) == 1
    pt = mono(PP, (1, 1))
    assert three_point(pt, pt, pt, (1, 1)) == 1
    # dimension filter
    assert three_point(h, h, h3, (1,)) == 0


@pytest.mark.parametrize("space", [P2, ProductSpace(2, 3), ProductSpace(2, 4), ProductSpace(3, 2)],
                         ids=["P2", "(P2)^2", "(P3)^2", "(P1)^3"])
def test_three_point_closed_form_matches_quantum_ring(space):
    # the base case of _gw, factor by factor, against the small quantum ring
    store, nonzero = MemoStore(), 0
    for triple in itertools.combinations_with_replacement(space.basis, 3):
        a, b, c = (mono(space, e) for e in triple)
        for d in space.curve_classes(3):
            want = three_point(a, b, c, d)
            assert _gw(space, tuple(sorted(triple, reverse=True)), d, store) == want, \
                (triple, d)
            nonzero += want != 0
    assert nonzero >= len(space.basis), nonzero


def _filtered_loops(space, m, d_max):
    # the rule written out on each space, independently of virtual_dim
    if isinstance(space, BoxSpec):
        basis = box_partitions(space)
        needed = {d: space.dim + space.n * d + m - 3 for d in range(d_max + 1)}
    else:
        basis = space.basis
        needed = {d: space.k * (space.n - 1) + space.n * sum(d) + m - 3
                  for d in space.curve_classes(d_max)}
    return [(combo, d)
            for combo in itertools.combinations_with_replacement(basis, m)
            for d, need in needed.items()
            if sum(map(sum, combo)) == need]


@pytest.mark.parametrize("space", [BoxSpec(2, 4), BoxSpec(3, 6), ProductSpace(2, 3), ProductSpace(3, 2)],
                         ids=["Gr(2,4)", "Gr(3,6)", "(P2)^2", "(P1)^3"])
@pytest.mark.parametrize("m", [3, 4, 5])
def test_admissible_tuples_match_filtered_loops(space, m):
    want = _filtered_loops(space, m, 2)
    assert list(admissible_tuples(space, m, 2)) == want and want


def test_gw_divisor_axiom_example(store):
    pt = (1, 1)
    assert gw_invariant(PP, [pt, pt, pt, (1, 0)], (1, 1), store) == 1


def test_gw_five_point_example(store):
    pt = (1, 1)
    assert gw_invariant(PP, [pt] * 5, (1, 2), store) == 1


def test_gw_effectivity(store):
    assert gw_invariant(PP, [(1, 1)] * 3, (-1, 2), store) == 0


@pytest.mark.parametrize("marks, d", [
    ([(3,), (3,), (1,), (1,)], (1, 1)),    # marks of one entry on a product of two
    ([(1, 1)] * 4, (1, 1, 0)),              # a multidegree of three entries
    ([(1, 1), (1, 1), (2, -1), (1, 1)], (1, 1)),  # a negative exponent
])
def test_gw_invariant_rejects_malformed_input_before_the_store(marks, d):
    # a malformed key in the store would be saved as a line that the next
    # load rejects, and with it the whole cache file
    store = MemoStore()
    with pytest.raises(ValueError, match="of 2 entries and marks of 2 nonnegative entries"):
        gw_invariant(ProductSpace(2, 4), marks, d, store)
    assert len(store) == 0 and store.stats()["misses"] == 0


def test_gw_invariant_exponent_past_the_top_gives_zero(store):
    # H^n = 0 on P^{n-1}, so an exponent >= n is a zero class, not an error
    assert gw_invariant(ProductSpace(2, 4), [(4, 0), (1, 1), (1, 1), (1, 1)], (1, 1), store) == 0


@pytest.mark.parametrize("marks", [
    [(4,), (0,), (1,)],
    [(3,), (0,), (2,)],
    [(3,), (1,), (1,), (1,)],  # once stored as 1,3|1|3;1;1;1, a line load rejects
])
def test_gw_invariant_exponent_past_the_top_reads_no_store(marks):
    # the product formula reads only the column sums, which these marks
    # meet on P^2 at d = 1; H^3 = 0 makes each 0 before the store
    store = MemoStore()
    assert gw_invariant(P2, marks, (1,), store) == 0
    assert len(store) == 0 and store.stats()["misses"] == 0


KONTSEVICH_N = {
    2: 1,
    3: 12,
    4: 620,
    5: 87304,
    6: 26312976,
    7: 14616808192,
    8: 13525751027392,
    9: 19385778269260800,
    10: 40739017561997799680,
}


def test_gw_kontsevich_numbers(store):
    # rational plane curves of degree d through 3d-1 points (Kontsevich-Manin)
    for d, expected in KONTSEVICH_N.items():
        assert gw_invariant(P2, [(2,)] * (3 * d - 1), (d,), store) == expected, d


def test_gw_quadric_counts(store):
    pt = (1, 1)
    assert gw_invariant(PP, [pt] * 7, (2, 2), store) == 12
    assert gw_invariant(PP, [pt] * 7, (1, 3), store) == 1


def test_gw_permutation_invariance(store):
    ins = [(1, 1), (1, 0), (1, 1), (0, 1), (1, 1)]
    base = gw_invariant(PP, ins, (1, 1), store)
    rng = random.Random(3)
    for _ in range(5):
        shuffled = ins[:]
        rng.shuffle(shuffled)
        assert gw_invariant(PP, shuffled, (1, 1), store) == base


def test_gw_degree_zero(store):
    # classical triple intersections at three marks, zero beyond
    assert gw_invariant(P3, [(1,), (1,), (1,)], (0,), store) == 1
    assert gw_invariant(P3, [(1,), (2,), (2,)], (0,), store) == 0
    assert gw_invariant(P3, [(1,), (1,), (1,), (1,)], (0,), store) == 0


def test_gw_fundamental_class(store):
    assert gw_invariant(PP, [(0, 0), (1, 1), (1, 1), (1, 1)], (1, 1), store) == 0


def test_divisor_axiom_self_consistency(store):
    # <H_1, rest>_d = d_1 <rest>_d on a nontrivial instance
    rest = [(1, 1)] * 5
    whole = gw_invariant(PP, rest + [(1, 0)], (1, 2), store)
    assert whole == 1 * gw_invariant(PP, rest, (1, 2), store)


def _alt_factoring(ins):
    # a second WDVV pivot rule for the engine's _factoring: on the last
    # factor the largest mark as x1, the second-largest as pivot, and others
    # reversed; it too gives x1_i >= (H_i g')_i > 0
    i = len(ins[0]) - 1
    *_, pivot, x1 = sorted(ins, key=lambda e: e[i])
    others = abelian_gw._remove_one(abelian_gw._remove_one(ins, x1), pivot)[::-1]
    return i, tuple(x - (j == i) for j, x in enumerate(pivot)), x1, others


# the engine's pivot rule and the second one, by name
PIVOT_RULES = {"default": abelian_gw._factoring, "alt": _alt_factoring}


def gw_invariant_alt(space, insertions, d, store):
    # gw_invariant with the second pivot rule installed for this call only;
    # a context, not the monkeypatch fixture, so hypothesis tests can use it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abelian_gw, "_factoring", _alt_factoring)
        return gw_invariant(space, insertions, d, store)


def test_pivot_policy_independence():
    # the known value from either WDVV pivot rule, fresh caches: agreement
    # alone passes an engine that drops a reconstruction term under both
    cases = [
        (PP, [(1, 1)] * 5, (1, 2), 1),
        (PP, [(1, 1)] * 7, (2, 2), 12),   # conics on P1 x P1 through 7 points
        (P2, [(2,)] * 8, (3,), 12),       # N_3, cubics through 8 points
        (P3, [(2,), (2,), (3,), (3,)], (1,), 0),
        (P3, [(2,)] * 4, (1,), 2),        # lines meeting 4 lines in P^3
    ]
    for space, ins, d, expected in cases:
        v_default = gw_invariant(space, ins, d, MemoStore())
        v_alt = gw_invariant_alt(space, ins, d, MemoStore())
        assert v_default == v_alt == expected, (space, ins, d)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_pivot_policy_independence_random(data):
    # dimension-admissible instances drawn at random must agree across pivot rules
    space = data.draw(st.sampled_from([PP, P2]))
    d = tuple(data.draw(st.integers(0, 2)) for _ in range(space.k))
    m = data.draw(st.integers(4, 6))
    monos = [e for e in space.basis if sum(e) >= 1]
    needed = space.dim + space.c1_degree(d) + m - 3
    admissible = [ins for ins in itertools.combinations_with_replacement(monos, m)
                  if sum(map(sum, ins)) == needed]
    if not admissible:
        return
    ins = data.draw(st.permutations(data.draw(st.sampled_from(admissible))))
    store = MemoStore()
    v1 = gw_invariant(space, ins, d, store)
    v2 = gw_invariant_alt(space, ins, d, MemoStore())
    assert v1 == v2
    # both rules can drop the same reconstruction term; associativity of
    # the values that gave v1 catches that: identities with m + 1 marks have
    # factors of up to m marks
    assert check_wdvv(space, sum(d), m + 1, store) == []


def test_ring_consistency_roundtrip(store):
    # three-point structure constants reassemble the small product
    for space in (PP, P3):
        monos = space.basis
        for ea, eb in itertools.combinations_with_replacement(monos, 2):
            if sum(ea) + sum(eb) > 3:
                continue
            a, b = mono(space, ea), mono(space, eb)
            prod = small_quantum_product(a, b)
            degrees = set(prod)
            for dd in degrees:
                recon = PClass(space)
                for mu in monos:
                    c = three_point(a, b, mono(space, mu), dd)
                    if c:
                        recon = add(recon, scale(mono(space, space.dual(mu)), c))
                assert recon == prod[dd], (ea, eb, dd)


def test_fewer_than_three_marks(store):
    # gw_invariant and gw_of_classes agree below 3 marks: 0 off the
    # dimension rule and at degree 0, a ValueError where the invariant may
    # be nonzero (two_point computes those)
    pt = (1, 1)
    for marks, d in [([pt, (1, 0)], (1, 0)), ([pt], (1, 0))]:
        with pytest.raises(ValueError, match="two_point"):
            gw_invariant(PP, marks, d, store)
    with pytest.raises(ValueError, match="two_point"):
        gw_of_classes(PP, [mono(PP, pt)], (1, 0), store)
    for marks, d in [([(1, 0)], (1, 0)), ([(0, 0)], (0, 0)), ([pt], (0, 0))]:
        assert gw_invariant(PP, marks, d, store) == 0
        assert gw_of_classes(PP, [mono(PP, e) for e in marks], d, store) == 0
    assert gw_invariant(PP, [pt, (0, 0)], (1, 0), store) == 0


def test_two_point():
    # lines on P2 through two points; the (1,0)-ruling of P1xP1 through a point
    assert two_point(P2, (2,), (2,), (1,)) == 1
    assert two_point(PP, (1, 1), (1, 0), (1, 0)) == 1
    assert two_point(PP, (1, 1), (1, 1), (1, 1)) == 0  # dimension filter
    assert two_point(PP, (1, 1), (1, 0), (0, -1)) == 0  # negative multidegree
    with pytest.raises(ValueError):
        two_point(PP, (1, 1), (1, 1), (0, 0))
    # a negative exponent and a mark of the wrong length are errors; an
    # exponent >= n is the zero class (H^3 = 0 on P^2)
    with pytest.raises(ValueError):
        two_point(P2, (5,), (-1,), (1,))
    assert two_point(P2, (4,), (0,), (1,)) == 0
    with pytest.raises(ValueError):
        two_point(P2, (1,), (1, 2), (1,))


def test_gw_of_classes_bilinear(store):
    a = add(mono(PP, (1, 0)), mono(PP, (0, 1)))
    pt = mono(PP, (1, 1))
    v = gw_of_classes(PP, [a, pt, pt, pt], (1, 1), store)
    v1 = gw_of_classes(PP, [mono(PP, (1, 0)), pt, pt, pt], (1, 1), store)
    v2 = gw_of_classes(PP, [mono(PP, (0, 1)), pt, pt, pt], (1, 1), store)
    assert v == v1 + v2 == 2


def reference_gw_of_classes(space, classes, d, store):
    """gw_of_classes as the multilinear loop over every choice of one term
    per class, each monomial bracket through two_point (2 marks) or _gw."""
    d = tuple(d)
    total = 0
    term_lists = [list(cls.terms.items()) for cls in classes]
    if any(not t for t in term_lists):
        return 0
    needed = virtual_dim(space, d, len(classes))
    for combo in itertools.product(*term_lists):
        monos = [e for e, _ in combo]
        if sum(sum(e) for e in monos) != needed:
            continue
        coeff = math.prod([c for _, c in combo])
        if len(classes) == 2:
            if not any(d):
                continue  # unstable; degree-0 two-point never contributes here
            total += coeff * two_point(space, monos[0], monos[1], d)
        else:
            total += coeff * _gw(space, tuple(sorted(monos, reverse=True)), d, store)
    return total


@pytest.mark.parametrize("box, d_max", [(BoxSpec(2, 4), 2), (BoxSpec(2, 5), 2), (BoxSpec(3, 5), 2),
                                        (BoxSpec(3, 6), 1)])
def test_gw_of_classes_matches_combo_loop(box, d_max):
    # every 2- and 3-mark lifted bracket with at most two omegas, at every
    # multidegree lift of d <= d_max, as i_bracket builds its classes.  Off
    # the dimension rule the loop meets no combo (the classes are
    # homogeneous) and the product has no term of the target's degree, so
    # only the admissible ones are compared term by term.  The lift sums of
    # the odd-omega brackets are checked to vanish, as i_bracket asserts.
    space = space_of(box)
    dl = delta(space)
    om = math.comb(box.k, 2)
    insertions = [(lam, w) for lam in box.basis for w in (0, 1)]
    classes = {(lam, w): cup(lift(lam, box), dl) if w else lift(lam, box) for lam, w in insertions}
    store, seen = MemoStore(), Counter()
    for m in (2, 3):
        for marks in itertools.combinations_with_replacement(insertions, m):
            omegas = sum(w for _, w in marks)
            if omegas > 2:
                continue
            codim = sum(lam.weight + om * w for lam, w in marks)
            cls = [classes[i] for i in marks]
            for d in range(d_max + 1):
                summed = 0
                for dd in lifts(d, box.k):
                    if codim != virtual_dim(space, dd, m):
                        continue
                    got = gw_of_classes(space, cls, dd, store)
                    assert got == reference_gw_of_classes(space, cls, dd, store), (marks, dd)
                    summed += got
                    seen[m, omegas, bool(got)] += 1
                if omegas % 2:
                    assert summed == 0, (marks, d)
    # a lift's exponents stay below n - 1 (k >= 2), so a nonzero 2-mark
    # bracket takes H_i^(n-1) from Delta in both marks.  At k = 3, d <= 2
    # every lift has two equal entries, and the transposition of them flips
    # the sign of an odd-omega value, so each such value is 0
    nonzero = {(m, omegas) for m, omegas, nz in seen if nz}
    assert nonzero == {(2, 2), (3, 0), (3, 2)} | ({(3, 1)} if box.k == 2 else set()), seen
    assert len(store) == 0  # 2- and 3-mark keys never reach the store


@pytest.mark.parametrize("box, suites", [
    (BoxSpec(2, 4), ("four-point-divisor", "five-point-symmetry")),
    (BoxSpec(2, 5), ("four-point-divisor", "five-point-symmetry")),
    (BoxSpec(3, 5), ("four-point-divisor",)),
], ids=["Gr(2,4)", "Gr(2,5)", "Gr(3,5)"])
def test_split_and_orbit_sum_match_full_sums(box, suites, monkeypatch):
    # every lifted bracket of 4 or more marks that the suites ask for at
    # d <= 2 (each has two omegas): the split of the degree-0 factors
    # against the combo loop on the full product at the non-increasing lift
    # of each Weyl orbit, and against its value there at the other lifts;
    # and the bracket, which sums one lift per orbit, against the sum over
    # all lifts
    asked = set()

    def recording(insertions, d, box, store):
        if len(insertions) >= 4:
            asked.add((tuple(sorted(insertions)), d))
        return i_bracket(insertions, d, box, store)

    monkeypatch.setattr(correspondence, "i_bracket", recording)
    run_suites(RunConfig(k=box.k, n=box.n, max_degree=2, suites=suites), MemoStore())
    monkeypatch.undo()
    space = space_of(box)
    store, loop_store = MemoStore(), MemoStore()
    nonzero_orbits = 0
    for ins, d in sorted(asked):
        classes = [bialternant(i.lam, box) if i.omega else lift(i.lam, box) for i in ins]
        assert sum(i.omega for i in ins) == 2
        full, at = 0, {}
        for dd in lifts(d, box.k):
            got = gw_of_classes(space, classes, dd, store)
            rep = tuple(sorted(dd, reverse=True))
            if rep not in at:
                at[rep] = reference_gw_of_classes(space, classes, rep, loop_store)
            assert got == at[rep], (ins, dd)
            full += got
            nonzero_orbits += bool(got) and rep != dd
        assert i_bracket(ins, d, box, store) == (-1) ** epsilon(d, box.k) * c_squared(box.k) * full, (ins, d)
    assert len(asked) > 20 and nonzero_orbits > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gw_of_classes_fraction_coefficients(data):
    # random classes, not homogeneous, with Fraction coefficients, against
    # the combo loop at 2 and 3 marks
    k, n = data.draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]))
    space = ProductSpace(k, n)
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    term = st.tuples(*[st.integers(0, n - 1)] * k)
    cls = st.dictionaries(term, coeff, max_size=4).map(lambda t: PClass(space, t))
    classes = data.draw(st.lists(cls, min_size=2, max_size=3))
    d = data.draw(st.tuples(*[st.integers(0, 2)] * k))
    want = reference_gw_of_classes(space, classes, d, MemoStore())
    assert gw_of_classes(space, classes, d, MemoStore()) == want


@functools.cache
def _open_tuples(k, n, m):
    # {d: combos}: the admissible m-tuples of monomials of positive
    # codimension that the product formula leaves open, at each multidegree
    # d <= 2 that has a zero entry (on P^2, that is positive)
    found = {}
    for combo, d in admissible_tuples(ProductSpace(k, n), m, 2):
        if (any(d) and (k == 1 or 0 in d) and all(map(sum, combo))
                and abelian_gw.kunneth_allows(n, combo, d, m - 3)):
            found.setdefault(d, []).append(combo)
    return found


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gw_of_classes_four_and_five_marks(data):
    # 4 and 5 classes, not homogeneous, with Fraction coefficients, in any
    # order, against the combo loop at multidegrees with a factor of degree
    # 0.  Each class is one mark of an open monomial invariant plus up to
    # two random terms, so that many of the brackets are nonzero
    k, n = data.draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]))
    space = ProductSpace(k, n)
    tuples = _open_tuples(k, n, data.draw(st.sampled_from([4, 5])))
    d = data.draw(st.sampled_from(sorted(tuples)))
    combo = data.draw(st.sampled_from(tuples[d]))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool)
    term = st.tuples(*[st.integers(0, n - 1)] * k)
    classes = [PClass(space, {**data.draw(st.dictionaries(term, coeff, max_size=2)), e: data.draw(coeff)})
               for e in data.draw(st.permutations(combo))]
    want = reference_gw_of_classes(space, classes, d, MemoStore())
    assert gw_of_classes(space, classes, d, MemoStore()) == want


def test_gw_of_classes_two_marks_by_the_divisor_axiom():
    # <pt/3, H + pt>_1 on P^2 is a third of the one line through two points;
    # at degree 0 and at a negative degree a 2- or 3-mark bracket is 0
    store = MemoStore()
    h, pt = mono(P2, (1,)), mono(P2, (2,))
    assert gw_of_classes(P2, [pt, pt], (1,), store) == 1
    assert gw_of_classes(P2, [scale(pt, Fraction(1, 3)), add(h, pt)], (1,), store) == Fraction(1, 3)
    assert gw_of_classes(P2, [h, h], (0,), store) == 0
    assert gw_of_classes(PP, [mono(PP, (1, 1)), mono(PP, (0, 0))], (-1, 1), store) == 0
    assert gw_of_classes(PP, [mono(PP, (1, 1))] * 3, (-1, 2), store) == 0


def test_memo_store_roundtrip(tmp_path, store):
    st = MemoStore()
    gw_invariant(PP, [(1, 1)] * 5, (1, 2), st)
    assert st.data
    path = tmp_path / "cache.txt"
    st.save(path)
    text = path.read_text()
    assert text.startswith("abelian-gw-cache v1\n")
    st2 = MemoStore().load(path)
    assert st2.data == st.data


def test_memo_store_version_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("some other header\n")
    with pytest.raises(CacheVersionError):
        MemoStore().load(path)


@pytest.mark.parametrize("entry", [
    "2,2|1,1|1.1;1.1",                  # truncated: no value
    "2,2|1,1|1.1;1.1;1.1\t1/x",         # non-integer value
    "2,2|1,1|1.1;1.1;1.1\t1/0",         # zero denominator
    "2,2|1,1\t1/1",                     # key without insertions
    "2,2|1,1|1.1;1.1;1.x\t1/1",         # non-integer exponent
])
def test_memo_store_malformed_entry(tmp_path, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"{MemoStore.VERSION}\n{entry}\n")
    with pytest.raises(CacheFormatError, match=":2: malformed entry"):
        MemoStore().load(path)


@pytest.mark.parametrize("entry", [
    "2,4|1,0|3.0;2.3;2.0;1.0\t1_0/1",        # int() reads 10
    "2,4|1,0|3.0;2.3;2.0;1.0\t 1/1",
    "2,4|1,0|3.0;2.3;2.0;1.0\t+1/1",
    "2,4|1,0|3.0;2.3;2.0;1.0\t١/1",     # ARABIC-INDIC DIGIT ONE
    "2,4|1,0|3.0;2.3;2.0;1.0\t1/1_0",
    "2,4|1,0|3.0;2.3;2.0;1.0\t1/ 1",
    "2,4|1,0|3.0;2.3;2.0;1.0\t1/+1",
    "2,4|1,0|3.0;2.3;2.0;1.0\t1/-1",
    "2,4|1,0|3.0;2.3;2.0;1.0\t1/١",
    "2,4|0_1,0|3.0;2.3;2.0;1.0\t1/1",        # int() reads degree 1
    "2,4|1, 0|3.0;2.3;2.0;1.0\t1/1",
    "+2,4|1,0|3.0;2.3;2.0;1.0\t1/1",
    "2,4|1,-0|3.0;2.3;2.0;1.0\t1/1",
    "2,4|1,0|3.0;2.3;2.0;1.٠\t1/1",     # ARABIC-INDIC DIGIT ZERO
    "2,4|1,0|3.0;2.3;2.0;1.0 \t1/1",
], ids=["num-underscore", "num-space", "num-plus", "num-non-ascii", "den-underscore",
        "den-space", "den-plus", "den-minus", "den-non-ascii", "key-underscore",
        "key-space", "key-plus", "key-minus", "key-non-ascii", "key-trailing-space"])
def test_memo_store_pins_number_grammar(tmp_path, entry):
    # abelian-gw-cache v1 numbers are ASCII digits, with a sign only on a
    # value's numerator; int() takes each of these, the true value is 1
    path = tmp_path / "bad.txt"
    path.write_text(f"{GOLDEN_TEXT}{entry}\n", encoding="utf-8")
    st = MemoStore()
    with pytest.raises(CacheFormatError, match=":8: malformed entry"):
        st.load(path)
    assert st.data == {}


@pytest.mark.parametrize("entry", [
    "2,4|1,0|5.0;1.1;1.1;1.1\t7/1",    # a mark entry >= n: H_1^5 = 0 on P^3
    "2,4|1,0|-1.0;3.1;3.1;3.1\t2/1",   # a negative mark entry
    "2,4|-1,1|3.0;2.3;2.0;1.0\t0/1",   # a negative degree
    "2,1|0,0|0.0;0.0;0.0;0.0\t0/1",    # n < 2
    "0,4|0|0;0;0;0\t1/1",              # k < 1
], ids=["mark-above-n", "negative-mark", "negative-degree", "n-below-2", "k-below-1"])
def test_memo_store_rejects_out_of_range_key(tmp_path, entry):
    # each line parses, and the product formula lets the first two through
    path = tmp_path / "bad.txt"
    path.write_text(f"{GOLDEN_TEXT}{entry}\n")
    st = MemoStore()
    with pytest.raises(CacheFormatError, match=":8: malformed entry"):
        st.load(path)
    assert st.data == {}


@pytest.mark.parametrize("entry", [
    "2,4|1,0|3.2;3.1;1.0\t7/1",       # 3 marks: the product formula gives 1
    "2,4|1,0|3.2;3.1;1.0\t0/1",
    "2,2|1,1|1.1;1.1;1.0\t1/1",       # 3 marks, ex = (0, -1): it gives 0
    "2,2|0,1|1.1;1.0;0.1;0.1\t1/1",   # 4 marks, ex_1 = 1 where d_1 = 0: 0
])
def test_memo_store_checks_closed_form_entries(tmp_path, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"{GOLDEN_TEXT}{entry}\n")
    with pytest.raises(CacheFormatError, match=":8: wrong entry"):
        MemoStore().load(path)


def test_memo_store_rejects_non_integral_value(tmp_path):
    # every invariant of (P^{n-1})^k is an integer; this one is truly 1
    path = tmp_path / "bad.txt"
    path.write_text(f"{MemoStore.VERSION}\n2,2|1,2|1.1;1.1;1.1;1.1;1.1\t1/1\n"
                    "2,4|1,0|3.0;2.3;2.0;1.0\t3/2\n")
    st = MemoStore()
    with pytest.raises(CacheFormatError, match=":3: non-integral value"):
        st.load(path)
    assert st.data == {}
    assert gw_invariant(ProductSpace(2, 4), [(3, 0), (2, 3), (2, 0), (1, 0)], (1, 0), st) == 1


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_memo_store_rejects_unreadable_path(tmp_path, kind):
    # a path that holds no cache text is a format error naming it, and
    # leaves the store and the path as they were
    good = tmp_path / "good.txt"
    good.write_text(GOLDEN_TEXT)
    st = MemoStore().load(good)
    before = dict(st.data)
    bad = tmp_path / "bad.cache"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff")
    with pytest.raises(CacheFormatError, match="bad.cache: not a cache file"):
        st.load(bad)
    assert st.data == before
    if kind == "directory":
        assert list(bad.iterdir()) == []
    else:
        assert bad.read_bytes() == b"\xff"


def test_memo_store_loads_closed_form_entries_without_keeping_them(tmp_path):
    # a file written before the Kunneth filter holds every key the engine
    # evaluated, 3-mark and forbidden ones too, on the whole product: it
    # loads, each such entry checked and left out and each entry with a
    # factor of degree 0 read on its other factors; the next save writes
    # the file once without them, and a save after that leaves it alone
    space, engine, old = ProductSpace(2, 3), MemoStore(), MemoStore()
    for m in (3, 4, 5):
        for combo, d in admissible_tuples(space, m, 2):
            key = (2, 3, d, tuple(sorted(combo, reverse=True)))
            old.put(key, gw_invariant(space, combo, d, engine))
    path = tmp_path / "old.txt"
    old.save(path)
    before = _stamp(path)
    st = MemoStore().load(path)
    kept = {_positive_factors_key(key): v for key, v in old.data.items()
            if _product_formula_value(space, key[3], key[2]) is None}
    assert st.data == kept and 0 < len(kept) < len(old)
    assert any(key[0] == 1 for key in kept) and any(key[0] == 2 for key in kept)
    st.save(path)
    assert _stamp(path) != before
    compact = _stamp(path)
    again = MemoStore().load(path)
    assert again.data == kept
    again.save(path)
    assert _stamp(path) == compact


def _positive_factors_key(key):
    # the key on the factors of positive degree, the one the engine stores
    k, n, d, ins = key
    pos = [i for i in range(k) if d[i]]
    marks = sorted((tuple(e[i] for i in pos) for e in ins), reverse=True)
    return (len(pos), n, tuple(d[i] for i in pos), tuple(marks))


def test_memo_store_conflicting_entries(tmp_path):
    path = tmp_path / "bad.txt"
    key = "2,2|1,2|1.1;1.1;1.1;1.1;1.1"
    path.write_text(f"{MemoStore.VERSION}\n{key}\t1/1\n{key}\t2/1\n")
    with pytest.raises(CacheFormatError, match=":3: conflicting entry"):
        MemoStore().load(path)


@pytest.mark.parametrize("lines", [
    ["1,4|1|3;2;2;1\t1/1", "2,4|1,0|3.0;2.3;2.0;1.0\t2/1"],
    ["2,4|0,1|0.3;3.2;0.2;0.1\t1/1", "2,4|1,0|3.0;2.3;2.0;1.0\t2/1"],
], ids=["stored-form", "two-product-forms"])
def test_memo_store_projected_entry_conflict(tmp_path, lines):
    # an entry with a factor of degree 0 is read on its other factors; where
    # that meets another entry of a different value the file is in error,
    # and the store keeps what it held
    path = tmp_path / "old.cache"
    path.write_text("\n".join([MemoStore.VERSION, *lines]) + "\n")
    st = _golden_store()
    with pytest.raises(CacheFormatError, match="old.cache:3: conflicting entry: "
                       r"\(1, 4, \(1,\), \(\(3,\), \(2,\), \(2,\), \(1,\)\)\): 1 earlier, 2 here"):
        st.load(path)
    assert st.data == dict(GOLDEN_ENTRIES)


def test_memo_store_save_is_atomic(tmp_path, monkeypatch):
    # a save that fails before its rename leaves the old file whole and no
    # temporary file behind
    path = tmp_path / "cache.txt"
    st = MemoStore()
    gw_invariant(PP, [(1, 1)] * 5, (1, 2), st)
    st.save(path)
    before = path.read_text()
    gw_invariant(PP, [(1, 1)] * 5, (2, 1), st)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        st.save(path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]


# entries that load keeps: none that the product formula settles (the -3
# entry only exercises a negative value; the invariant is 1)
GOLDEN_ENTRIES = [
    ((2, 2, (1, 2), ((1, 1),) * 5), Fraction(1)),
    ((2, 2, (1, 2), ((1, 1),) * 5 + ((1, 0),)), Fraction(1)),
    ((2, 2, (1, 1), ((1, 1),) * 4 + ((0, 0),)), Fraction(0)),
    ((1, 3, (3,), ((2,),) * 8), Fraction(12)),
    ((1, 3, (1,), ((2,), (2,), (1,), (1,))), Fraction(-3)),
    ((2, 4, (1, 1), ((3, 3), (2, 2), (2, 2), (1, 0))), Fraction(1)),
]
GOLDEN_TEXT = (
    "abelian-gw-cache v1\n"
    "1,3|1|2;2;1;1\t-3/1\n"
    "1,3|3|2;2;2;2;2;2;2;2\t12/1\n"
    "2,2|1,1|1.1;1.1;1.1;1.1;0.0\t0/1\n"
    "2,2|1,2|1.1;1.1;1.1;1.1;1.1\t1/1\n"
    "2,2|1,2|1.1;1.1;1.1;1.1;1.1;1.0\t1/1\n"
    "2,4|1,1|3.3;2.2;2.2;1.0\t1/1\n"
)


def _golden_store():
    st = MemoStore()
    for key, value in GOLDEN_ENTRIES:
        st.put(key, value)
    return st


def test_memo_store_save_golden(tmp_path):
    # the bytes of abelian-gw-cache v1: one line per entry, sorted by key
    # text (a key that is a prefix of another sorts first)
    path = tmp_path / "cache.txt"
    _golden_store().save(path)
    assert path.read_bytes() == GOLDEN_TEXT.encode()
    assert MemoStore().load(path).data == dict(GOLDEN_ENTRIES)


def _stamp(path):
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


def test_memo_store_unchanged_save_leaves_file(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(GOLDEN_TEXT)
    before = _stamp(path)
    st = MemoStore().load(path)
    st.put(*GOLDEN_ENTRIES[0])  # already there: no change
    st.save(path)
    assert _stamp(path) == before
    assert path.read_text() == GOLDEN_TEXT
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]


def test_memo_store_save_elsewhere_writes(tmp_path):
    # a clean store skips only the file it loaded or last saved
    path = tmp_path / "cache.txt"
    path.write_text(GOLDEN_TEXT)
    st = MemoStore().load(path)
    missing = tmp_path / "missing.txt"
    st.save(missing)
    assert missing.read_text() == GOLDEN_TEXT
    other = tmp_path / "other.txt"
    other.write_text(f"{MemoStore.VERSION}\n1,3|2|2;2;2;2;2\t1/1\n")
    st.save(other)
    assert MemoStore().load(other).data == {**dict(GOLDEN_ENTRIES), (1, 3, (2,), ((2,),) * 5): 1}
    path.unlink()
    st.save(path)
    assert path.exists()


def test_memo_store_failed_save_retries(tmp_path, monkeypatch):
    # a save whose rename fails leaves the store changed, so the next save
    # writes
    path = tmp_path / "cache.txt"
    path.write_text(GOLDEN_TEXT)
    st = MemoStore().load(path)
    gw_invariant(P2, [(2,)] * 5, (2,), st)

    def failing_replace(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            st.save(path)
    assert path.read_text() == GOLDEN_TEXT
    st.save(path)
    assert MemoStore().load(path).data == st.data


def test_memo_store_two_writers_keep_both(tmp_path):
    # two stores load one file, each adds its own keys, both save: the file
    # ends with both sets
    path = tmp_path / "cache.txt"
    path.write_text(GOLDEN_TEXT)
    first, second = MemoStore().load(path), MemoStore().load(path)
    gw_invariant(PP, [(1, 1)] * 5, (2, 1), first)
    gw_invariant(P2, [(2,)] * 5, (2,), second)
    assert set(first.data) - set(second.data) and set(second.data) - set(first.data)
    first.save(path)
    second.save(path)
    assert MemoStore().load(path).data == {**first.data, **second.data}


def test_memo_store_merge_conflict(tmp_path):
    # a save that reads in another writer's entries stops on a contradiction
    path = tmp_path / "cache.txt"
    path.write_text(GOLDEN_TEXT)
    st = MemoStore().load(path)
    key = (1, 3, (2,), ((2,),) * 5)
    st.put(key, Fraction(1))
    path.write_text(f"{GOLDEN_TEXT}1,3|2|2;2;2;2;2\t5/1\n")
    with pytest.raises(CacheFormatError, match="conflicting entry"):
        st.save(path)
    assert MemoStore().load(path).data[key] == 5


def test_memo_store_put_during_save_keeps_change(tmp_path, monkeypatch):
    # a key put while a save writes is not in that file: the store stays
    # changed, and the next save writes it
    path = tmp_path / "cache.txt"
    st = _golden_store()
    key = (1, 3, (2,), ((2,),) * 5)
    replace = os.replace

    def replace_after_put(src, dst):
        st.put(key, Fraction(1))
        replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", replace_after_put)
        st.save(path)
    assert path.read_text() == GOLDEN_TEXT
    st.save(path)
    assert MemoStore().load(path).data[key] == 1


def test_memo_store_concurrent_puts_and_saves(tmp_path):
    # puts racing saves: no added key is left out of the final file
    import sys
    import threading

    path = tmp_path / "cache.txt"
    st = MemoStore()
    st.save(path)

    def work(t):
        for j in range(300):
            # <pt, pt, H, H>_1 on P^{n-1}, one n per key
            n = 2 + 300 * t + j
            st.put((1, n, (1,), ((n - 1,), (n - 1,), (1,), (1,))), Fraction(j))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            st.save(path)
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    st.save(path)
    assert len(st) == 1200
    assert MemoStore().load(path).data == st.data


def test_memo_store_idempotent_and_consistent():
    st = MemoStore()
    key = (2, 2, (1, 1), ((1, 1), (1, 1), (1, 1)))
    st.put(key, Fraction(1))
    st.put(key, Fraction(1))
    with pytest.raises(CacheConsistencyError):
        st.put(key, Fraction(2))


def test_wdvv_p1xp1(store):
    assert check_wdvv(PP, 2, 6, store) == []


def test_wdvv_p3(store):
    assert check_wdvv(P3, 2, 5, store) == []


def test_divisor_consistency_across_cache(store):
    # every cached invariant with a divisor insertion at nonzero degree
    # recomputes through the divisor axiom to the stored value
    checked = 0
    for (k, n, d, ins), value in list(store.data.items()):
        if not any(d) or len(ins) < 4:
            continue
        div = next((e for e in ins if sum(e) == 1), None)
        if div is None:
            continue
        space = ProductSpace(k, n)
        rest = list(ins)
        rest.remove(div)
        i = div.index(1)
        expect = d[i] * _gw(space, tuple(sorted(rest, reverse=True)), d, store) if d[i] else 0
        assert value == expect, (k, n, d, ins)
        checked += 1
    assert checked > 10


def test_concurrent_computation_consistent():
    import threading

    st = MemoStore()
    results = []

    def work():
        results.append(gw_invariant(P2, [(2,)] * 8, (3,), st))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [12, 12, 12, 12]


def _mask_contraction(space, u, v, x, y, back, splits, value):
    # reference: E(u, v | x, y) summed over every subset of the positions of
    # back, so a repeated class is split both ways
    total = Fraction(0)
    base = sum(u) + sum(v)
    for mask in range(1 << len(back)):
        S = tuple(b for j, b in enumerate(back) if mask >> j & 1)
        T = tuple(b for j, b in enumerate(back) if not mask >> j & 1)
        left_excess = base + sum(map(sum, S)) - len(S)
        for e, f in splits:
            for mu in space.basis_of_codim(space.dim + space.c1_degree(e) - left_excess):
                left = value((u, v, mu) + S, e)
                if left:
                    total += left * value((space.dual(mu), x, y) + T, f)
    return total


def test_sub_multisets_weights():
    subs = sub_multisets(("a", "a", "b", "a"))
    assert len(subs) == 8
    assert sum(w for _, _, w in subs) == 2 ** 4
    assert (("a", "a"), ("a", "b"), 3) in subs
    assert (("a", "a", "a", "b"), (), 1) in subs
    assert sub_multisets(()) == [((), (), 1)]


def _product_value(space):
    store = MemoStore()
    return lambda marks, d: _gw(space, tuple(sorted(marks, reverse=True)), d, store)


@pytest.mark.parametrize("space, d_max, n_marks_max, make_value", [
    (P2, 3, 7, _product_value),
    (PP, 2, 6, _product_value),
    (BoxSpec(2, 4), 2, 6, lambda box: AssembledInvariants(box, MemoStore()).value),
], ids=["P2", "P1xP1", "Gr(2,4)"])
def test_contraction_matches_position_masks(space, d_max, n_marks_max, make_value):
    # on backgrounds with a repeated class, the sub-multiset contraction with
    # shared half-contractions equals the sum over position masks
    value, halves = make_value(space), {}
    checked = nonzero = 0
    for (a, b, c, e), back, d in wdvv_identities(space, d_max, n_marks_max):
        if len(set(back)) == len(back):
            continue
        subs, splits = sub_multisets(back), space.splittings(d)
        for u, v, x, y in ((a, b, c, e), (a, c, b, e), (a, e, b, c)):
            got = wdvv_contraction(space, u, v, x, y, subs, splits, value, halves)
            assert got == _mask_contraction(space, u, v, x, y, back, splits, value), (u, v, x, y, back, d)
            checked += 1
            nonzero += got != 0
    assert checked > 30 and nonzero > 10, (checked, nonzero)


def test_wdvv_check_work_set():
    # the store holds only the invariants that cost reconstruction: the
    # product formula settles every 3-mark and every forbidden key without
    # it, a key with a factor of degree 0 is read on P^3, and no key is
    # computed twice (a miss per entry)
    st = MemoStore()
    assert check_wdvv(ProductSpace(2, 4), 1, 5, st) == []
    stats = st.stats()
    assert (stats["entries"], stats["misses"]) == (4, 4)
    assert {key[:3] for key in st.data} == {(1, 4, (1,))}


def test_wdvv_check_mark_bound():
    # an identity with 5 marks has factors of at most 4, so a check at
    # <= 5 marks evaluates no 5-point invariant
    st = MemoStore()
    assert check_wdvv(ProductSpace(2, 4), 1, 5, st) == []
    assert max(len(key[3]) for key in st.data) == 4


def test_wdvv_check_keeps_no_halves():
    # a half-contraction kept past its check would carry a corrupted store's
    # values into the check of a clean one.  (P^1)^3 is checked by no other
    # test, so no earlier check can have left clean halves behind.  Its
    # keys at (0, 1, 1) and the like are read on P^1 x P^1.
    space = ProductSpace(3, 2)
    bad = MemoStore()
    bad.put((2, 2, (1, 1), ((1, 1), (1, 1), (1, 1), (1, 0))), Fraction(2))  # truly 1
    assert check_wdvv(space, 3, 5, bad) != []
    assert check_wdvv(space, 3, 5, MemoStore()) == []


def test_wdvv_corrupted_store_detected():
    st = MemoStore()
    check_wdvv(PP, 2, 6, st)
    key = (2, 2, (1, 1), ((1, 1), (1, 1), (1, 1), (1, 0)))  # truly 1
    assert key in st.data
    st.data[key] = Fraction(2)
    assert check_wdvv(PP, 2, 6, st) != []


def _product_formula_allows(space, marks, d, top):
    # the product formula written out: each factor's excess ex_i lies in
    # [0, top] and is 0 where d_i = 0
    n = space.n
    for i in range(space.k):
        ex = sum(e[i] for e in marks) - (n - 1) - n * d[i]
        if ex < 0 or ex > top or (ex and not d[i]):
            return False
    return True


def _product_formula_value(space, combo, d):
    # an admissible m-point monomial invariant: 0 unless the product formula
    # allows it with top = m - 3; 1 at 3 marks; None when it takes
    # reconstruction
    if not _product_formula_allows(space, combo, d, len(combo) - 3):
        return 0
    return 1 if len(combo) == 3 else None


KUNNETH_CASES = [
    # space, d_max, admissible tuples (3..6 marks), nonzero, sha256 of the
    # sorted nonzero "d combo value" lines: computed before the filter
    (ProductSpace(2, 3), 2, 2890, 180, "37344c35f00ed169fcd824be784dcbba9323d6cfe86bd97492048b881e70581c"),
    (ProductSpace(3, 2), 3, 6023, 209, "158298c57622b40172d958c61a2cb67442d09d7c885123ae18c0e35797d8f83b"),
]


@pytest.mark.parametrize("space, d_max, tuples, nonzero, digest", KUNNETH_CASES, ids=["(P2)^2", "(P1)^3"])
def test_kunneth_filter_keeps_every_nonzero_value(space, d_max, tuples, nonzero, digest):
    store, lines, count = MemoStore(), [], 0
    for m in range(3, 7):
        for combo, d in admissible_tuples(space, m, d_max):
            count += 1
            value = gw_invariant(space, combo, d, store)
            if value:
                lines.append(f"{d} {combo} {value}")
    lines.sort()
    got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (count, len(lines), got) == (tuples, nonzero, digest)


@pytest.mark.parametrize("space, d_max", [case[:2] for case in KUNNETH_CASES], ids=["(P2)^2", "(P1)^3"])
def test_product_formula_keys_skip_the_store(space, d_max):
    # every 3-mark key and every key the product formula forbids is answered
    # without a store lookup, a reconstruction or an entry
    store, settled = MemoStore(), 0
    for m in range(3, 7):
        for combo, d in admissible_tuples(space, m, d_max):
            want = _product_formula_value(space, combo, d)
            if want is not None:
                assert gw_invariant(space, combo, d, store) == want, (combo, d)
                settled += 1
    assert settled > 1000
    assert store.stats() == {"entries": 0, "hits": 0, "misses": 0}


def _class_of(quad, back, d):
    # the class an identity is checked in: at d != 0 the identity restricted
    # to the factors P with d_i > 0, at d = 0 the identity itself; quad and
    # background as sorted multisets, with the number of factors first
    pos = [i for i, x in enumerate(d) if x] or range(len(d))

    def on_p(marks):
        return tuple(sorted(tuple(m[i] for i in pos) for m in marks))

    return len(pos), on_p(quad), on_p(back), tuple(d[i] for i in pos)


def _assert_evaluated_as_planned(space, evaluated, kept):
    # evaluated: (k, quad, back, d) per evaluation, in the order made.  Each
    # class is evaluated once, and the classes evaluated are exactly those
    # of the kept identities: each kept identity holds iff its class does,
    # so a check that passes every class passes every kept identity.
    # Returns the number of classes evaluated per number of factors
    classes = [_class_of(quad, back, d) for _, quad, back, d in evaluated]
    assert [cls[0] for cls in classes] == [k for k, *_ in evaluated]
    assert len(set(classes)) == len(classes), "a class evaluated twice"
    assert set(classes) == {_class_of(*idt) for idt in kept}
    return dict(Counter(k for k, *_ in evaluated))


def test_wdvv_skip_is_exact(monkeypatch):
    # check_wdvv skips exactly the identities the product formula makes
    # 0 = 0 = 0, and evaluates each class of the kept identities once: on
    # (P^3)^2 at d <= 1 the 21 kept identities of P^3 and the 27 quads of
    # (P^3)^2 at d = 0, for 795 kept identities.  On a warm store no WDVV
    # step runs, so every contraction is one the check evaluates itself; a
    # side (u, v | x, y) is recorded with its space's k, its background (the
    # last sub-multiset) and its degree (the split (0, d)).
    space, st = ProductSpace(2, 4), MemoStore()
    assert check_wdvv(space, 1, 5, st) == []
    calls = []
    contraction = abelian_gw.wdvv_contraction

    def recording(sp, u, v, x, y, subs, splits, value, halves):
        calls.append((sp.k, (u, v, x, y), subs[-1][0], splits[0][1]))
        return contraction(sp, u, v, x, y, subs, splits, value, halves)

    with monkeypatch.context() as patch:
        patch.setattr(abelian_gw, "wdvv_contraction", recording)
        found = check_wdvv(space, 1, 5, st)
    assert found == [] and found.instances == 9089
    assert st.misses == len(st)
    # an evaluation is three contractions in a row: the sides (a, b | c, e),
    # (a, c | b, e) and (a, e | b, c) of one identity, (a, b, c, e) in the
    # order of its quad
    assert len(calls) % 3 == 0
    evaluated = []
    for first, second, third in zip(*[iter(calls)] * 3):
        k, (a, b, c, e), back, d = first
        assert (second, third) == ((k, (a, c, b, e), back, d), (k, (a, e, b, c), back, d))
        evaluated.append((k, (a, b, c, e), back, d))
    identities = list(wdvv_identities(space, 1, 5))
    # an identity of m marks is kept when the product formula allows its
    # marks with top = m - 4
    kept = [(quad, back, d) for quad, back, d in identities
            if _product_formula_allows(space, quad + back, d, len(back))]
    assert (len(identities), len(kept)) == (9089, 795)
    assert _assert_evaluated_as_planned(space, evaluated, kept) == {1: 21, 2: 27}
    skipped = set(identities) - set(kept)
    value = _product_value(space)
    for quad, back, d in skipped:
        assert _sides(space, quad, back, d, value) == [0, 0, 0], (quad, back, d)


def _sides(space, quad, back, d, value):
    # the three contractions E(a,b|c,e), E(a,c|b,e), E(a,e|b,c) of an identity
    a, b, c, e = quad
    subs, splits, halves = sub_multisets(back), space.splittings(d), {}
    return [wdvv_contraction(space, u, v, x, y, subs, splits, value, halves)
            for u, v, x, y in ((a, b, c, e), (a, c, b, e), (a, e, b, c))]


@pytest.mark.parametrize("space, d_max, n_marks_max, counts", [
    (ProductSpace(2, 4), 1, 5, (768, 27)),
    (ProductSpace(2, 3), 2, 6, (506, 9)),
], ids=["(P3)^2", "(P2)^2"])
def test_identity_with_degree_zero_factor_equals_its_projection(space, d_max, n_marks_max, counts):
    # on a factor with d_i = 0 a kept identity's columns add up to n - 1, so
    # mu is fixed there, and each side equals the same side of the identity
    # projected onto the factors P with d_i > 0, on (P^{n-1})^|P|; at d = 0
    # (no P) each side is int abce = 1
    store = MemoStore()

    def value_on(sp):
        return lambda marks, e: _gw(sp, tuple(sorted(marks, reverse=True)), e, store)

    projected = at_zero = 0
    for quad, back, d in wdvv_identities(space, d_max, n_marks_max):
        if 0 not in d or not _product_formula_allows(space, quad + back, d, len(back)):
            continue
        sides = _sides(space, quad, back, d, value_on(space))
        pos = [i for i, x in enumerate(d) if x]
        if not pos:
            assert sides == [1, 1, 1], (quad, back)
            at_zero += 1
            continue
        sub = ProductSpace(len(pos), space.n)

        def project(marks):
            return tuple(tuple(m[i] for i in pos) for m in marks)

        want = _sides(sub, project(quad), project(back), tuple(d[i] for i in pos), value_on(sub))
        assert sides == want, (quad, back, d)
        projected += 1
    assert (projected, at_zero) == counts


def reference_wdvv_identities(space, d_max, n_marks_max):
    # every (quad, background, degree) triple, kept when it passes the
    # dimension rule: the loop wdvv_identities replaced
    backgrounds = [
        (back, sum(map(sum, back)) - len(back))
        for size in range(n_marks_max - 3)
        for back in itertools.combinations_with_replacement(space.basis, size)
    ]
    degrees = [(d, virtual_dim(space, d, 3)) for d in space.curve_classes(d_max)]
    for quad in itertools.combinations_with_replacement(space.basis, 4):
        quad_codim = sum(map(sum, quad))
        for back, back_excess in backgrounds:
            for d, needed in degrees:
                if quad_codim + back_excess == needed:
                    yield quad, back, d


@pytest.mark.parametrize("space, d_max, n_marks_max", [
    (ProductSpace(2, 4), 1, 5),
    (ProductSpace(2, 3), 2, 6),
    (BoxSpec(2, 5), 2, 5),
], ids=["(P3)^2", "(P2)^2", "Gr(2,5)"])
def test_wdvv_identities_match_reference_loop(space, d_max, n_marks_max):
    # the same identities in the same order, and none below 4 marks
    got = list(wdvv_identities(space, d_max, n_marks_max))
    assert len(got) > 1000
    assert got == list(reference_wdvv_identities(space, d_max, n_marks_max))
    for m in range(4):
        assert list(wdvv_identities(space, d_max, m)) == []
        assert list(reference_wdvv_identities(space, d_max, m)) == []


def test_wdvv_check_pinned_on_p4_squared(monkeypatch):
    # (P^4)^2 at d <= 2, <= 5 marks: the check counts every identity of the
    # enumeration, evaluates the classes of the kept ones as
    # _assert_evaluated_as_planned says, and computes each key once.  On a
    # store with a wrong key its last pass draws exactly the kept
    # identities, in enumeration order, and evaluates them on the product.
    space, st, drawn, evaluated = ProductSpace(2, 5), MemoStore(), [], []
    failures, make_sides = abelian_gw.wdvv_failures, abelian_gw.wdvv_sides

    def drawing(identities, sides):
        drawn.append([])

        def tee():
            for identity in identities:
                drawn[-1].append(identity)
                yield identity
        return failures(tee(), sides)

    def recording(sp, value):
        sides = make_sides(sp, value)

        def tee(quad, back, d):
            evaluated.append((sp.k, quad, back, d))
            return sides(quad, back, d)
        return tee

    monkeypatch.setattr(abelian_gw, "wdvv_failures", drawing)
    monkeypatch.setattr(abelian_gw, "wdvv_sides", recording)
    found = check_wdvv(space, 2, 5, st)
    assert found == [] and found.instances == 177024
    reference = [(quad, back, d) for quad, back, d in reference_wdvv_identities(space, 2, 5)
                 if _product_formula_allows(space, quad + back, d, len(back))]
    assert len(reference) == 18228
    assert _assert_evaluated_as_planned(space, evaluated, reference) == {1: 61, 2: 13844}
    assert (len(st), st.misses) == (536, 536)

    bad = MemoStore()
    bad.data.update(st.data)
    bad.data[max(bad.data)] += 1
    drawn.clear()
    found = check_wdvv(space, 2, 5, bad)
    assert found != [] and found.instances == 177024
    assert drawn[-1] == reference
    assert all(len(identities) < len(reference) for identities in drawn[:-1])


@pytest.mark.parametrize("space, d_max, n_marks_max", [
    (ProductSpace(1, 3), 3, 6),
    (ProductSpace(2, 3), 2, 5),
    (ProductSpace(3, 2), 3, 6),
    (ProductSpace(2, 4), 0, 5),
    (ProductSpace(2, 4), 2, 3),
    (ProductSpace(3, 3), 1, 4),
], ids=["P2", "(P2)^2", "(P1)^3", "(P3)^2-d0", "(P3)^2-3-marks", "(P2)^3"])
def test_wdvv_instances_count_every_identity(space, d_max, n_marks_max):
    # instances is counted, not enumerated: it is the number of identities
    # of wdvv_identities, none below 4 marks
    count = len(list(wdvv_identities(space, d_max, n_marks_max)))
    assert check_wdvv(space, d_max, n_marks_max, MemoStore()).instances == count
    assert (count == 0) == (n_marks_max < 4)


def reference_check_wdvv(space, d_max, n_marks_max, store):
    # check_wdvv as it was before projections: every identity that
    # kunneth_allows keeps, evaluated on the full product through
    # wdvv_failures
    def value(marks, d):
        return _gw(space, tuple(sorted(marks, reverse=True)), d, store)

    identities = list(wdvv_identities(space, d_max, n_marks_max))
    kept = ((quad, back, d) for quad, back, d in identities
            if abelian_gw.kunneth_allows(space.n, quad + back, d, len(back)))
    found = abelian_gw.Violations(
        {"quad": quad, "background": back, "degree": d, "values": sides}
        for quad, back, d, sides in abelian_gw.wdvv_failures(kept, abelian_gw.wdvv_sides(space, value))
    )
    found.instances = len(identities)
    return found


@pytest.mark.parametrize("space, d_max, n_marks_max, choose, counts", [
    (ProductSpace(2, 4), 1, 5, lambda keys: keys, (4, 4)),
    (ProductSpace(2, 3), 2, 6, lambda keys: keys[::10], (12, 12)),
    (ProductSpace(3, 2), 3, 5, lambda keys: keys, (9, 9)),
    # 6 marks on three factors: projections onto two factors that differ
    # only in d_P, (1, 2) against (2, 1); corrupt the keys read there
    (ProductSpace(3, 2), 3, 6, lambda keys: [key for key in keys if key[0] == 2], (8, 8)),
], ids=["(P3)^2", "(P2)^2", "(P1)^3", "(P1)^3-6-marks"])
def test_check_wdvv_matches_reference(space, d_max, n_marks_max, choose, counts):
    # the projections change how an identity is evaluated, not what the
    # check reports: the same instances and violations (order, quads,
    # backgrounds, degrees and values) as the full-product loop, on a clean
    # store and on warm stores with one key corrupted at a time (the keys
    # choose picks from the sorted warm store)
    def both(got_store, want_store):
        got = check_wdvv(space, d_max, n_marks_max, got_store)
        want = reference_check_wdvv(space, d_max, n_marks_max, want_store)
        assert (got.instances, got) == (want.instances, want)
        assert all(type(x) is Fraction for v in got for x in v["values"])
        return got

    warm, clean = MemoStore(), MemoStore()
    assert both(warm, clean) == []
    # the same keys, each computed once
    assert warm.data == clean.data and warm.misses == clean.misses == len(warm)

    def corrupted(key):
        bad = MemoStore()
        bad.data.update(warm.data)
        bad.data[key] += 1
        return bad

    keys = choose(sorted(warm.data))
    detected = sum(both(corrupted(key), corrupted(key)) != [] for key in keys)
    assert (len(keys), detected) == counts


def _counting_steps(monkeypatch):
    # {(d, marks): computations of that key, by a WDVV step or by the
    # product formula (_kunneth)}
    steps = Counter()
    for name in ("_wdvv_step", "_kunneth"):
        def counting(sp, ins, d, store, route=getattr(abelian_gw, name)):
            steps[(d, ins)] += 1
            return route(sp, ins, d, store)

        monkeypatch.setattr(abelian_gw, name, counting)
    return steps


@pytest.mark.parametrize("space, d_max, n_marks_max", [
    (ProductSpace(2, 4), 2, 5),
    (ProductSpace(2, 3), 2, 6),
], ids=["(P3)^2", "(P2)^2"])
def test_wdvv_check_steps_each_key_once(monkeypatch, space, d_max, n_marks_max):
    # a WDVV step never re-enters a key that is being computed, so no key is
    # reconstructed twice
    steps = _counting_steps(monkeypatch)

    st = MemoStore()
    assert check_wdvv(space, d_max, n_marks_max, st) == []
    assert len(steps) > 20 and max(steps.values()) == 1
    # both routes ran: WDVV steps on keys of P^{n-1}, the product formula on
    # keys of two factors
    assert {len(d) for d, _ in steps} == {1, 2}
    assert st.misses == len(st)


@pytest.mark.parametrize("marks, d, value", [
    ([(3,), (2,), (2,), (2,), (2,)], (1,), 3),
    ([(4,), (3,), (3,), (3,), (3,)], (2,), 2),
], ids=["H3.H2^4", "H4.H3^4"])
def test_trivial_identity_steps_each_key_once(monkeypatch, marks, d, value):
    # on P^4 these keys have all their marks equal but one, so a step whose
    # x1 equalled its pivot would read the key itself as its hop term; the
    # pivot order raises the sum of squared exponents at every hop, so no
    # key in progress is computed a second time
    steps = _counting_steps(monkeypatch)
    for rule, factoring in PIVOT_RULES.items():
        monkeypatch.setattr(abelian_gw, "_factoring", factoring)
        steps.clear()
        st = MemoStore()
        assert gw_invariant(ProductSpace(1, 5), marks, d, st) == value
        assert max(steps.values()) == 1 and st.misses == len(st), (rule, st.stats())


@pytest.mark.parametrize("n", [7, 8], ids=["P6", "P7"])
def test_no_key_computed_twice_on_large_projective_spaces(monkeypatch, n):
    # every 4- and 5-mark tuple of marks of codimension >= 2 at d <= 2: the
    # pivot order cannot cycle, so under either pivot rule each key takes one
    # WDVV step and one miss
    space = ProductSpace(1, n)
    tuples = [(combo, d) for m in (4, 5) for combo, d in admissible_tuples(space, m, 2)
              if min(map(sum, combo)) >= 2]
    steps = _counting_steps(monkeypatch)
    for rule, factoring in PIVOT_RULES.items():
        monkeypatch.setattr(abelian_gw, "_factoring", factoring)
        steps.clear()
        st = MemoStore()
        for combo, d in tuples:
            gw_invariant(space, combo, d, st)
        assert len(steps) > 20 and max(steps.values()) == 1, rule
        assert st.misses == len(st), (rule, st.stats())


@pytest.mark.parametrize("space, d_max, m_max, reconstructed, differ", [
    (ProductSpace(1, 5), 3, 6, 13, 12),
    # 4- and 5-mark keys of (P^2)^2 take the product formula under either
    # pivot rule, so only the P^2 keys they read and the 6-mark steps differ
    (ProductSpace(2, 3), 2, 6, 69, 22),
], ids=["P4", "(P2)^2"])
def test_alt_policy_takes_another_route(space, d_max, m_max, reconstructed, differ):
    # the policy-independence tests have teeth only where the two pivot
    # orders reconstruct through different keys: count the tuples (marks of
    # codimension >= 2) whose fresh stores hold different key sets
    seen = apart = 0
    for m in range(4, m_max + 1):
        for combo, d in admissible_tuples(space, m, d_max):
            if min(map(sum, combo)) < 2:
                continue
            default, alt = MemoStore(), MemoStore()
            assert gw_invariant(space, combo, d, default) == gw_invariant_alt(space, combo, d, alt)
            if default.data or alt.data:
                seen += 1
                apart += default.data.keys() != alt.data.keys()
    assert (seen, apart) == (reconstructed, differ)


def _point_number(n, col, d):
    # the class of a factor with ex = 0 at the point 12|34 (four marks) or
    # 12|5|34 (five) of M-bar_{0,m}, by the splitting axiom: the sum over
    # every degree split and every mu of products of 3-point invariants of
    # P^{n-1}, each 1 iff its exponents add up to n - 1 + n e
    def three(a, b, c, e):
        return int(a + b + c == n - 1 + n * e)

    c1, c2, c3, c4, *middle = col
    total = 0
    for e, mu in itertools.product(range(d + 1), range(n)):
        if not three(c1, c2, mu, e):
            continue
        if not middle:
            total += three(n - 1 - mu, c3, c4, d - e)
            continue
        for g, nu in itertools.product(range(d - e + 1), range(n)):
            total += three(n - 1 - mu, middle[0], nu, g) * three(n - 1 - nu, c3, c4, d - e - g)
    return total


@pytest.mark.parametrize("space, d_max", [
    (ProductSpace(2, 3), 4),
    (ProductSpace(2, 4), 3),
    (ProductSpace(3, 3), 3),
    (ProductSpace(2, 5), 2),
], ids=["(P2)^2", "(P3)^2", "(P2)^3", "(P4)^2"])
def test_kunneth_route_matches_wdvv_step(space, d_max):
    # every 4- and 5-mark key that _gw settles by the product formula (every
    # d_i > 0, no fundamental-class mark, allowed by kunneth_allows) equals a
    # WDVV step on the same key, and every factor with ex = 0 has point
    # number 1, as _kunneth takes it
    n, store, shapes = space.n, MemoStore(), Counter()
    for m in (4, 5):
        for combo, d in admissible_tuples(space, m, d_max):
            if not all(d) or min(map(sum, combo)) == 0 or not abelian_gw.kunneth_allows(n, combo, d, m - 3):
                continue
            ins = tuple(sorted(combo, reverse=True))
            cols = list(zip(*ins))
            ex = [sum(col) - (n - 1) - n * di for col, di in zip(cols, d)]
            assert all(_point_number(n, col, di) == 1 for col, di, x in zip(cols, d, ex) if not x), (ins, d)
            got = abelian_gw._kunneth(space, ins, d, store)
            assert got == abelian_gw._wdvv_step(space, ins, d, store), (ins, d)
            shapes[m, max(ex), got != 0] += 1
    # m = 4, and both m = 5 shapes: one factor at ex = 2, or two at ex = 1
    assert {shape for shape in shapes if shape[2]} == {(4, 1, True), (5, 2, True), (5, 1, True)}
