import itertools
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from abelianizer.partitions import (
    BoxSpec,
    Partition,
    box_partitions,
    complement,
    epsilon,
    lifts,
    multidegree_text,
    parse_partition,
    rim_hook_reduce,
    schur_polynomial,
    text_form,
)
from abelianizer.sparse import add, mul


def P(*parts):
    return Partition(parts)


def test_box_spec_validation():
    with pytest.raises(ValueError):
        BoxSpec(2, 2)
    with pytest.raises(ValueError):
        BoxSpec(0, 3)
    assert BoxSpec(2, 5).cols == 3
    assert BoxSpec(2, 5).rank == comb(5, 2)


def test_partition_normalization():
    assert P(2, 1, 0, 0) == P(2, 1)
    assert len(P()) == 0
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([-1])


def test_partition_rejects_non_int_parts():
    with pytest.raises(ValueError, match=r"not a partition: \[1.5\]"):
        Partition((1.5,))


def test_partition_is_the_tuple_of_its_parts():
    p = P(2, 1)
    assert Partition(p) is p
    assert p == (2, 1) and hash(p) == hash((2, 1))


def test_box_partitions_order_2x2():
    got = box_partitions(BoxSpec(2, 4))
    assert got == [P(), P(1), P(2), P(1, 1), P(2, 1), P(2, 2)]


def test_box_partitions_small_cases():
    assert box_partitions(BoxSpec(1, 2)) == [P(), P(1)]
    assert len(box_partitions(BoxSpec(2, 5))) == 10
    assert len(box_partitions(BoxSpec(3, 6))) == 20


def test_complement_examples():
    box = BoxSpec(2, 4)
    assert complement(P(1), box) == P(2, 1)
    assert complement(P(2, 2), box) == P()
    assert complement(P(), box) == P(2, 2)
    with pytest.raises(ValueError):
        complement(P(3), box)


@given(st.integers(1, 4), st.integers(2, 4), st.data())
def test_complement_involution(k, cols, data):
    box = BoxSpec(k, k + cols)
    lam = data.draw(st.sampled_from(box_partitions(box)))
    assert complement(complement(lam, box), box) == lam
    assert lam.weight + complement(lam, box).weight == box.dim


def test_schur_examples():
    assert schur_polynomial(P(1), 2) == {(1, 0): 1, (0, 1): 1}
    assert schur_polynomial(P(1, 1), 2) == {(1, 1): 1}
    assert schur_polynomial(P(2), 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    with pytest.raises(ValueError):
        schur_polynomial(P(1, 1, 1), 2)


def test_schur_polynomial_is_read_only():
    # every lift shares the memoized mapping, so writing to it must fail
    # rather than change the lifts computed after it
    s21 = schur_polynomial(P(2, 1), 3)
    with pytest.raises(TypeError):
        s21[(3, 0, 0)] = 1
    assert schur_polynomial(P(2, 1), 3) == s21
    assert schur_polynomial(P(2, 1), 2) == {(2, 1): 1, (1, 2): 1}


def _jacobi_trudi(lam, k):
    """S_lam in k variables as the determinant det(h_{lam_i - i + j}) in the
    complete homogeneous h_m (every degree-m monomial, coefficient 1),
    expanded over the permutations: the reference for schur_polynomial."""
    out = {}
    for perm in itertools.permutations(range(len(lam))):
        sign = 1
        for i, j in itertools.combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                sign = -sign
        term = {(0,) * k: 1}
        for i, j in enumerate(perm):
            term = mul(term, {e: 1 for e in lifts(lam[i] - i + j, k)})
        out = add(out, term, sign)
    return out


def test_schur_matches_jacobi_trudi():
    # every lam with l(lam) <= k <= 4 and |lam| <= 8
    for k in range(1, 5):
        for parts in _partitions_of_weight_at_most(8, k):
            lam = Partition(parts)
            assert schur_polynomial(lam, k) == _jacobi_trudi(lam, k), (lam, k)


def test_schur_hook_content_formula():
    # S_lam(1, ..., 1) = prod over the cells of (k + content) / hook length,
    # for k <= 6 and |lam| <= 12
    for k in range(1, 7):
        for parts in _partitions_of_weight_at_most(12, k):
            lam = Partition(parts)
            conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
            cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
            want = prod(Fraction(k + j - i, (lam[i] - j) + (conj[j] - i) - 1) for i, j in cells)
            assert sum(schur_polynomial(lam, k).values()) == want, (lam, k)


def _partitions_of_weight_at_most(w_max, rows):
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if len(prefix) == rows:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], w_max, w_max)
    return sorted(set(out))


def test_schur_pieri_rule():
    # S_(1) * S_lam = sum over single-box additions, for |lam| <= 6, k <= 3
    for k in (1, 2, 3):
        s1 = schur_polynomial(P(1), k)
        for parts in _partitions_of_weight_at_most(6, k):
            lam = Partition(parts)
            prod = {}
            slam = schur_polynomial(lam, k)
            for ea, ca in s1.items():
                for eb, cb in slam.items():
                    e = tuple(a + b for a, b in zip(ea, eb))
                    prod[e] = prod.get(e, 0) + ca * cb
            expect = {}
            padded = lam.padded(k)
            for i in range(k):
                if i == 0 or padded[i] < padded[i - 1]:
                    mu = list(padded)
                    mu[i] += 1
                    for e, c in schur_polynomial(Partition(mu), k).items():
                        expect[e] = expect.get(e, 0) + c
            prod = {e: c for e, c in prod.items() if c}
            expect = {e: c for e, c in expect.items() if c}
            assert prod == expect, (k, lam)


def test_lifts_examples():
    assert set(lifts(2, 2)) == {(2, 0), (1, 1), (0, 2)}
    assert lifts(0, 3) == [(0, 0, 0)]
    assert len(lifts(1, 3)) == 3


def test_lifts_count_identity():
    for d in range(7):
        for k in range(1, 5):
            assert len(lifts(d, k)) == comb(d + k - 1, k - 1)
            assert all(sum(t) == d and min(t) >= 0 for t in lifts(d, k))


def test_epsilon_examples():
    assert epsilon(1, 2) == 1
    assert epsilon(2, 3) == 0
    assert all(epsilon(d, 1) == 0 for d in range(5))


@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 6))
def test_epsilon_additive(d1, d2, k):
    assert epsilon(d1 + d2, k) == epsilon(d1, k) ^ epsilon(d2, k)


def test_rim_hook_examples():
    box = BoxSpec(2, 4)
    assert rim_hook_reduce(P(3, 2), box) == (1, 1, P(1))
    assert rim_hook_reduce(P(2, 1), box) == (1, 0, P(2, 1))
    # single-row 4-hook has height 1: sign (-1)^(k - 1) = -1 for k = 2
    assert rim_hook_reduce(P(4), box) == (-1, 1, P())


def test_rim_hook_annihilation():
    # (4,1) has 4-core (4,1), which does not fit the 2x2 box
    sign, q, reduced = rim_hook_reduce(P(4, 1), BoxSpec(2, 4))
    assert reduced is None


def test_rim_hook_too_many_rows():
    with pytest.raises(ValueError):
        rim_hook_reduce(P(1, 1, 1), BoxSpec(2, 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_rim_hook_confluence_random_orders(seed):
    rng = random.Random(seed)
    k = rng.choice((1, 2, 3))
    n = rng.choice([m for m in range(k + 1, 7)])
    box = BoxSpec(k, n)
    parts = rng.sample(_partitions_of_weight_at_most(10, k), 1)[0]
    lam = Partition(parts)
    base = rim_hook_reduce(lam, box)
    for _ in range(4):
        alt = rim_hook_reduce(lam, box, _choose=lambda movable: rng.choice(movable))
        assert alt == base


def test_rim_hook_confluence_exhaustive_small():
    # all partitions with <= k rows and weight <= 10, k <= 3, n <= 6
    rng = random.Random(7)
    for k in (1, 2, 3):
        for n in range(k + 1, 7):
            box = BoxSpec(k, n)
            for parts in _partitions_of_weight_at_most(10, k):
                lam = Partition(parts)
                base = rim_hook_reduce(lam, box)
                alt = rim_hook_reduce(lam, box, _choose=lambda m: rng.choice(m))
                assert alt == base


def test_text_forms():
    assert text_form(P(2, 1)) == "[2,1]"
    assert text_form(P()) == "[]"
    assert parse_partition("[2,1]") == P(2, 1)
    assert parse_partition("[]") == P()
    assert multidegree_text((1, 0)) == "(1,0)"
    with pytest.raises(ValueError):
        parse_partition("2,1")
