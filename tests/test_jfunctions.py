import itertools
from fractions import Fraction

import pytest

from abelianizer.partitions import BoxSpec, Partition, epsilon, lifts
from abelianizer.cohomology import (
    PClass,
    cup,
    delta,
    divide_by_delta,
    lift,
    root_classes,
    space_of,
)
from abelianizer.grassmannian import fundamental_solution
from abelianizer.jfunctions import (
    i_function,
    j_function_P,
    projective_j_closed_form,
    projective_j_coefficient,
    solve_c_coefficients,
    _on_factor,
)
from abelianizer.sparse import add, scale, series_add, series_mul


def P(*parts):
    return Partition(parts)


B24 = BoxSpec(2, 4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projective_j_matches_closed_form(n):
    for d in (1, 2, 3):
        assert projective_j_coefficient(n, d) == projective_j_closed_form(n, d)


def test_p1_factor_example():
    # q^1 coefficient of the P^1 J-function: (H+z)^{-2} = z^{-2} - 2 z^{-3} H
    got = projective_j_coefficient(2, 1)
    assert got == {-2: {0: Fraction(1)}, -3: {1: Fraction(-2)}}


def test_divisor_derivative_identity():
    # the divisor-direction column of the solution is (H + d z) J_d:
    # one divisor derivative of the J-function multiplies a Novikov
    # coefficient by the divisor class plus z times its degree pairing
    for n in (2, 3, 4):
        sol = fundamental_solution(BoxSpec(1, n))
        for d in (0, 1, 2, 3):
            col = sol.column(d, 1)
            lhs = {zp: dict(rows) for zp, rows in col.items()}
            jd = projective_j_coefficient(n, d)
            rhs = {}
            for zp, vec in jd.items():
                for e, c in vec.items():
                    if e + 1 < n:
                        bucket = rhs.setdefault(zp, {})
                        bucket[e + 1] = bucket.get(e + 1, Fraction(0)) + c
                    if d:
                        bucket = rhs.setdefault(zp + 1, {})
                        bucket[e] = bucket.get(e, Fraction(0)) + d * c
            rhs = {zp: {e: c for e, c in vec.items() if c} for zp, vec in rhs.items()}
            rhs = {zp: vec for zp, vec in rhs.items() if vec}
            assert lhs == rhs, (n, d)


def test_j_function_P_tensor_structure():
    space = space_of(B24)
    jp = j_function_P(space, 2)
    # zero multidegree: z * unit
    assert jp[(0, 0)] == {1: {(0, 0): Fraction(1)}}
    # product structure: the (1,1) coefficient is the z-shifted product of factors
    j1 = projective_j_coefficient(4, 1)
    want = {}
    for p1, v1 in j1.items():
        for p2, v2 in j1.items():
            for e1, c1 in v1.items():
                for e2, c2 in v2.items():
                    bucket = want.setdefault(p1 + p2 + 1, {})
                    key = (e1, e2)
                    bucket[key] = bucket.get(key, Fraction(0)) + c1 * c2
    assert jp[(1, 1)] == want


def test_i_series_leading_term():
    I = i_function(B24, 2)
    assert I.coefficient(0) == {1: delta(space_of(B24)).terms}


def test_i_series_anti_invariance():
    I = i_function(B24, 3)
    for d, lp in I.coeffs.items():
        for zp, poly in lp.items():
            swapped = {(e[1], e[0]): c for e, c in poly.items()}
            assert swapped == {e: -c for e, c in poly.items()}, (d, zp)


def test_i_series_degree_one_structure():
    # I_1 = -[ ((H1-H2) + z) J^{(1,0)} + ((H1-H2) - z) J^{(0,1)} ] for Gr(2,4)
    space = space_of(B24)
    jp = j_function_P(space, 1)
    root_plus = {0: {(1, 0): Fraction(1), (0, 1): Fraction(-1)}, 1: {(0, 0): Fraction(1)}}
    root_minus = {0: {(1, 0): Fraction(1), (0, 1): Fraction(-1)}, 1: {(0, 0): Fraction(-1)}}
    want = series_add(
        {}, series_add(series_mul(root_plus, jp[(1, 0)], 4), series_mul(root_minus, jp[(0, 1)], 4)),
        -1,
    )
    assert i_function(B24, 1).coefficient(1) == want


def reference_i_coefficients(box, d_max):
    # the z-series product the z = 1 integer build replaced, on the closed
    # form of the projective J-functions
    space = space_of(box)
    k, n = space.k, space.n
    roots = list(zip(itertools.combinations(range(k), 2), root_classes(space)))
    coeffs = {}
    for d in range(d_max + 1):
        acc = {}
        for dt in lifts(d, k):
            term = {1: {(0,) * k: Fraction(1)}}
            for i in range(k):
                factor = projective_j_closed_form(n, dt[i])
                term = series_mul(term, {p: _on_factor(rows, i, k) for p, rows in factor.items()})
            for (i, j), root in roots:
                factor = {0: root.terms}
                if dt[i] != dt[j]:
                    factor[1] = {(0,) * k: Fraction(dt[i] - dt[j])}
                term = series_mul(term, factor, cap=n)
            acc = series_add(acc, term)
        coeffs[d] = series_add({}, acc, (-1) ** epsilon(d, k))
    return coeffs


@pytest.mark.parametrize("kn", [(2, 4), (2, 5), (3, 5), (3, 6), (1, 2), (1, 3), (1, 4), (1, 5)],
                         ids=lambda kn: "Gr(%d,%d)" % kn)
def test_i_function_matches_z_series_product(kn):
    box = BoxSpec(*kn)
    reference = reference_i_coefficients(box, 3)
    for d, series in reference.items():
        # the grading: the term H^e of I_d at z^(1 - n d + C(k, 2) - |e|)
        for zp, poly in series.items():
            for e in poly:
                assert zp == 1 - box.n * d + box.k * (box.k - 1) // 2 - sum(e), (d, zp, e)
    assert i_function(box, 3).coeffs == reference


def test_gr1n_i_equals_j():
    box = BoxSpec(1, 4)
    I = i_function(box, 2)
    jp = j_function_P(space_of(box), 2)
    for d in (0, 1, 2):
        assert I.coefficient(d) == jp[(d,)]


def apply_abelian_solution(box, poly, d):
    # sum over lifts dt of d of (tensor_i R_{d_i}) applied to a class: the
    # q^d part of the abelian fundamental solution applied to the class,
    # before Novikov specialization (no sign, no overall z); the
    # per-factor matrices act coordinate-wise on each tensor leg
    space = space_of(box)
    k = space.k
    sol = fundamental_solution(BoxSpec(1, space.n))
    total = {}
    for dt in lifts(d, k):
        for e, c in poly.items():
            acc = {0: {(0,) * k: c}}
            for i in range(k):
                column = sol.column(dt[i], e[i])
                acc = series_mul(acc, {p: _on_factor(rows, i, k) for p, rows in column.items()})
            total = series_add(total, acc)
    return total


def test_omega_derivative_correspondence(store):
    # lift(J_Gr coefficients) cup Delta equals the signed abelian solution
    # applied to Delta: the J-function correspondence at solution level
    for box in (B24, BoxSpec(2, 5)):
        space = space_of(box)
        dl = delta(space)
        fund = fundamental_solution(box)
        basis = fund.basis
        unit_col = basis.index(P())
        for d in (0, 1, 2):
            col = fund.column(d, unit_col)
            lhs = {}
            for zp, rows in col.items():
                vec = {}
                for i, c in rows.items():
                    vec = add(vec, scale(cup(lift(basis[i], box), dl).terms, c))
                if vec:
                    lhs[zp] = vec
            rhs = series_add({}, apply_abelian_solution(box, dl.terms, d),
                             (-1) ** epsilon(d, box.k))
            assert lhs == rhs, (box, d)


def test_anti_invariant_expand_roundtrip():
    space = space_of(B24)
    dl = delta(space)
    poly = add(
        cup(lift(P(2, 1), B24), dl).terms,
        scale(cup(lift(P(1), B24), dl).terms, Fraction(-3, 2)),
    )
    assert divide_by_delta(PClass(space, poly), B24) == {P(2, 1): 1, P(1): Fraction(-3, 2)}
    with pytest.raises(ValueError):
        divide_by_delta(PClass(space, {(1, 0): Fraction(1)}), B24)


@pytest.mark.parametrize("kn", [(2, 4), (2, 5)])
def test_solve_c_consistent(kn, store):
    box = BoxSpec(*kn)
    res = solve_c_coefficients(i_function(box, 3))
    assert res.consistent, res.residual
    # empirical collapse: a single constant series on the unit coordinate
    from abelianizer.cohomology import c_squared
    assert res.c_series == {P(): {(0, 0): 1 / c_squared(box.k)}}


def test_solve_c_rejects_degrees_beyond_the_i_series(store):
    # an I_d that was never computed is not zero: reading it as zero
    # reported residual violations at d = 2 and 3; the solve stops where
    # the series does
    res = solve_c_coefficients(i_function(B24, 1))
    assert res.consistent and res.d_max == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"Gr(1,{n})")
def test_solve_c_abelian_case(n, store):
    # P^{n-1} = Gr(1, n) on both sides of the solve: C is 1 on the unit
    box = BoxSpec(1, n)
    res = solve_c_coefficients(i_function(box, 3))
    assert res.consistent
    assert res.c_series == {P(): {(0, 0): Fraction(1)}}
    assert res.leading() == {P(): {0: Fraction(1)}}


def test_iseries_records():
    recs = i_function(B24, 1).records()
    assert recs and set(recs[0]) == {"d", "z", "monomial", "value"}
