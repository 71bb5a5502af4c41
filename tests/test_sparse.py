import hashlib
import json
from collections import defaultdict
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from abelianizer.grassmannian import j_function
from abelianizer.jfunctions import i_function
from abelianizer.partitions import BoxSpec
from abelianizer.sparse import add, add_term, mul, scale, series_add, series_mul


def test_add_term_prunes_zero():
    p = {(1, 0): Fraction(1)}
    add_term(p, (1, 0), Fraction(-1))
    assert p == {}
    add_term(p, (0, 1), 0)
    assert p == {}


def test_add_and_scale_prune_cancelled_terms():
    p = {(1, 0): 2, (0, 1): 1}
    assert add(p, {(1, 0): 1}, -2) == {(0, 1): 1}
    assert add(p, p, -1) == {}
    assert scale(p, 0) == {}
    assert p == {(1, 0): 2, (0, 1): 1}  # inputs are left alone


def test_mul_prunes_cancelled_terms():
    # (H1 - H2)(H1 + H2) = H1^2 - H2^2: the cross terms cancel
    assert mul({(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1}) == {(2, 0): 1, (0, 2): -1}


def test_mul_cap_on_tuple_exponents():
    # (H1 + H2)^2 in Q[H1, H2]/(H1^2, H2^2) is 2 H1 H2
    h = {(1, 0): 1, (0, 1): 1}
    assert mul(h, h, cap=2) == {(1, 1): 2}
    assert mul(h, h, cap=3) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_mul_cap_on_int_exponents():
    # (q + q^2) q truncated above q^2
    assert mul({1: 1, 2: 1}, {1: 1}, cap=3) == {2: 1}
    assert mul({1: 1, 2: 1}, {1: 1}) == {2: 1, 3: 1}
    assert mul({}, {1: 1}, cap=3) == {}


def test_series_add_with_shift():
    a = {0: {(0,): 1}}
    b = {0: {(0,): 1}, 1: {(1,): 2}}
    # no shift: the z^0 coefficients cancel and their key goes
    assert series_add(a, b, -1) == {1: {(1,): -2}}
    # a - z b
    assert series_add(a, b, -1, shift=1) == {0: {(0,): 1}, 1: {(0,): -1}, 2: {(1,): -2}}
    assert a == {0: {(0,): 1}}


def test_series_mul():
    # (1 + z H)(1 - z H) = 1 - z^2 H^2, and H^2 = 0 under cap 2
    a = {0: {(0,): 1}, 1: {(1,): 1}}
    b = {0: {(0,): 1}, 1: {(1,): -1}}
    assert series_mul(a, b) == {0: {(0,): 1}, 2: {(2,): -1}}
    assert series_mul(a, b, cap=2) == {0: {(0,): 1}}


def naive_mul(p, q, cap):
    out = defaultdict(Fraction)
    for a, ca in p.items():
        for b, cb in q.items():
            e = tuple(x + y for x, y in zip(a, b)) if isinstance(a, tuple) else a + b
            top = max(e) if isinstance(e, tuple) else e
            if cap is None or top < cap:
                out[e] += ca * cb
    return {e: c for e, c in out.items() if c}


def naive_add(p, q):
    out = defaultdict(Fraction)
    for e, c in list(p.items()) + list(q.items()):
        out[e] += c
    return {e: c for e, c in out.items() if c}


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
vector_polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=6)
int_polys = st.dictionaries(st.integers(0, 5), coeffs, max_size=6)
caps = st.one_of(st.none(), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(vector_polys, vector_polys, vector_polys),
                 st.tuples(int_polys, int_polys, int_polys)), caps)
def test_mul_add_match_naive(polys, cap):
    p, q, r = polys
    assert mul(p, q, cap) == naive_mul(p, q, cap)
    assert add(p, q) == naive_add(p, q)
    assert mul(p, q, cap) == mul(q, p, cap)
    assert mul(p, add(q, r), cap) == add(mul(p, q, cap), mul(p, r, cap))
    assert all(mul(p, q, cap).values())


def _digest(records):
    return len(records), hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_pinned_j_and_i_records():
    # exact records of the Grassmannian J-function and the twisted
    # I-function, recorded from the implementation that preceded the
    # sparse module
    assert _digest(j_function(BoxSpec(2, 5), 3).records()) == (
        28, "f5ed1ee9a85d05e99c43726292ca2aa64a6fe8c6996366994399a2925880b886")
    assert _digest(i_function(BoxSpec(2, 4), 3).records()) == (
        36, "a8730a8fb09392424a80353cbeb37cf5e82ae551f480fbbd77f128a12f081cbb")
    assert _digest(i_function(BoxSpec(3, 5), 2).records()) == (
        108, "571231ab8cae53e79a9b72b6c9a9382661bae0e89c397565f1bff20eed8c64db")
