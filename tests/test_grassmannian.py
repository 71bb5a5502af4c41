import functools
import itertools
from fractions import Fraction

import pytest

from abelianizer import grassmannian, partitions
from abelianizer.abelian_gw import MemoStore, admissible_tuples
from abelianizer.cli import RunConfig, run_suites
from abelianizer.partitions import BoxSpec, Partition, box_partitions
from abelianizer.cohomology import schubert_cup
from abelianizer.grassmannian import (
    FundamentalSolution,
    _matmul,
    fundamental_solution,
    j_function,
    quantum_cup,
    schur_expand_product,
    three_point,
    two_point,
)
from abelianizer.sparse import add, series_add
from conftest import RIM_HOOK_SIGNS, calibrate_rim_hook_sign


def P(*parts):
    return Partition(parts)


B24 = BoxSpec(2, 4)


def test_schur_expand_product_matches_pieri():
    got = schur_expand_product(P(1), P(2, 1), 2)
    assert got == {P(3, 1): 1, P(2, 2): 1}
    got = schur_expand_product(P(2), P(2), 3)
    assert got == {P(4): 1, P(3, 1): 1, P(2, 2): 1}


def test_quantum_cup_examples():
    assert quantum_cup(P(1), P(2, 1), B24) == {(0, P(2, 2)): 1, (1, P()): 1}
    assert quantum_cup(P(1), P(2, 2), B24) == {(1, P(1)): 1}
    assert quantum_cup(P(), P(2, 1), B24) == {(0, P(2, 1)): 1}
    assert quantum_cup(P(2), P(1, 1), B24) == {(1, P()): 1}
    assert quantum_cup(P(2, 2), P(2, 2), B24) == {(2, P()): 1}


def test_quantum_cup_is_built_once_and_read_only():
    prod = quantum_cup(P(1), P(2, 1), B24)
    assert quantum_cup(P(1), P(2, 1), B24) is prod
    with pytest.raises(TypeError):
        prod[(0, P(2, 2))] = 2
    assert prod == {(0, P(2, 2)): 1, (1, P()): 1}


def test_three_point_suite_computes_each_product_once():
    box = BoxSpec(3, 6)
    pairs = {(lam, mu) for (lam, mu, _), _ in admissible_tuples(box, 3, 1)}
    quantum_cup.cache_clear()
    (report,) = run_suites(RunConfig(k=3, n=6, max_degree=1, suites=("three-point",)), MemoStore())
    assert report.passed
    assert quantum_cup.cache_info().misses == len(pairs) == 113


def test_quantum_grading():
    for box in (B24, BoxSpec(2, 5), BoxSpec(3, 6)):
        for lam, mu in itertools.combinations_with_replacement(box_partitions(box), 2):
            prod = quantum_cup(lam, mu, box)
            for (q, rho), c in prod.items():
                assert rho.weight + box.n * q == lam.weight + mu.weight


def test_classical_part_matches_martin():
    for box in (B24, BoxSpec(2, 5)):
        for lam, mu in itertools.combinations_with_replacement(box_partitions(box), 2):
            classical = {rho: c for (q, rho), c in quantum_cup(lam, mu, box).items() if q == 0}
            assert classical == schubert_cup(lam, mu, box)


def test_quantum_associativity():
    for box in (B24, BoxSpec(2, 5)):
        basis = box_partitions(box)
        index = {lam: i for i, lam in enumerate(basis)}

        def as_vector(qs):
            out = {}
            for (q, rho), c in qs.items():
                out[(q, index[rho])] = c
            return out

        def star(vec, nu):
            out = {}
            for (q, i), c in vec.items():
                for (q2, rho), c2 in quantum_cup(basis[i], nu, box).items():
                    key = (q + q2, index[rho])
                    val = out.get(key, Fraction(0)) + c * c2
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
            return out

        for lam, mu, nu in itertools.combinations_with_replacement(basis, 3):
            left = star(as_vector(quantum_cup(lam, mu, box)), nu)
            right = star(as_vector(quantum_cup(mu, nu, box)), lam)
            assert left == right, (lam, mu, nu)


def test_nonnegativity_of_structure_constants():
    for box in (B24, BoxSpec(2, 5), BoxSpec(3, 6)):
        for lam, mu in itertools.combinations_with_replacement(box_partitions(box), 2):
            assert all(c >= 0 for c in quantum_cup(lam, mu, box).values())


def test_calibration_unique_winner():
    # the surviving candidate is the engine's sign, and no candidate's
    # product reaches the shared quantum_cup cache
    assert all(RIM_HOOK_SIGNS["k_minus_height"](h, k) == partitions._hook_sign(h, k)
               for k in range(1, 6) for h in range(1, 8))
    before = quantum_cup.cache_info().currsize
    verdict = calibrate_rim_hook_sign()
    assert verdict == {"k_minus_height": True, "height_minus_one": False}
    assert quantum_cup.cache_info().currsize == before


def test_sign_control_through_three_point(monkeypatch):
    # a control read through three_point gives it a private quantum_cup
    # cache: on Gr(2,4) the other sign flips every hook, so every degree-1
    # value changes sign, and the shared cache is left as it was
    before = quantum_cup.cache_info().currsize
    monkeypatch.setattr(partitions, "_hook_sign", RIM_HOOK_SIGNS["height_minus_one"])
    monkeypatch.setattr(grassmannian, "quantum_cup", functools.cache(quantum_cup.__wrapped__))
    assert three_point(P(1), P(2, 1), P(2, 2), 1, B24) == -1
    assert three_point(P(1), P(2, 1), P(2, 2), 1, B24) == -1
    assert grassmannian.quantum_cup.cache_info().hits == 1
    assert quantum_cup.cache_info().currsize == before


def test_three_point_examples():
    assert three_point(P(1), P(2, 1), P(2, 2), 1, B24) == 1
    assert three_point(P(1), P(1), P(2, 2), 1, B24) == 0  # dimension filter
    for lam in box_partitions(B24):
        from abelianizer.partitions import complement
        assert three_point(P(), lam, complement(lam, B24), 0, B24) == 1


def test_two_point_examples():
    assert two_point(P(2, 1), P(2, 2), 1, B24) == 1
    assert two_point(P(2, 2), P(2, 2), 1, B24) == 0  # codim sum 8 != 7
    with pytest.raises(ValueError):
        two_point(P(1), P(1), 0, B24)


def test_j_function_normalization_and_p1():
    J = j_function(BoxSpec(1, 2), 2)
    assert J.coefficient(0, 1) == {P(): 1}
    # q^1 of z J: z^{-1} - 2 z^{-2} H, i.e. the expansion of z/(H+z)^2
    assert J.coefficient(1, -1) == {P(): 1}
    assert J.coefficient(1, -2) == {P(1): -2}
    assert J.coefficient(2, -3) == {P(): Fraction(1, 4)}
    assert J.coefficient(2, -4) == {P(1): Fraction(-3, 4)}


def test_j_function_z_power_bound():
    # z powers of the q^d part of J = z(1 + ...) lie in [-(n d + dim) + 1, 1]
    for box in (B24, BoxSpec(2, 5)):
        J = j_function(box, 3)
        for (q, zp), vec in J.coefficients.items():
            assert zp <= 1
            assert zp >= -(box.n * q + box.dim) + 1, (q, zp)


def test_j_function_validates_truncation():
    with pytest.raises(ValueError):
        j_function(B24, 0)


def test_qde_residual_zero():
    for box in (B24, BoxSpec(2, 5), BoxSpec(3, 6)):
        fund = fundamental_solution(box)
        fund.matrix(3)
        assert fund.residual(3) == []


def test_qde_residual_sees_a_shared_z_shift():
    # a z power one too high on every R_d, R_0 included, moves both sides of
    # the recursion alike; R_0 off the identity at z^0 must still show
    class Shifted(FundamentalSolution):
        def matrix(self, d):
            return {p + 1: R for p, R in super().matrix(d).items()}

    base = fundamental_solution(B24)
    fund = Shifted(base.basis, base.degrees, base.n, base.D, base.A)
    assert fund.residual(3) != []


def _times(X, M):
    # X M for a z-series X of matrices and a rational matrix M
    return series_add({}, {p: _matmul(A, M) for p, A in X.items()})


def _ad(D, X):
    # ad_D X = D X - X D on a z-series X of matrices
    return series_add({}, {p: add(_matmul(D, A), _matmul(A, D), -1) for p, A in X.items()})


def reference_r_matrices(fund, d_max):
    # the Neumann series the graded back-substitution replaced: R_d as a
    # z-series, (z d + ad_D)^-1 summed through the nilpotency of ad_D
    R = {0: {0: {(i, i): Fraction(1) for i in range(len(fund.basis))}}}
    for d in range(1, d_max + 1):
        Y = {}
        for e, A_e in fund.A.items():
            if 1 <= e <= d:
                Y = series_add(Y, _times(R[d - e], A_e))
        X, term, j = {}, Y, 0
        while term:
            X = series_add(X, term, Fraction((-1) ** j, d ** (j + 1)), shift=-(j + 1))
            term = _ad(fund.D, term)
            j += 1
            assert j <= 4 * len(fund.basis) + 4, "ad_D failed to nilpotate"
        R[d] = X
    return R


SOLUTIONS = {
    **{f"Gr({k},{n})": BoxSpec(k, n) for k, n in ((2, 4), (2, 5), (3, 5), (3, 6))},
    # P^{n-1} = Gr(1, n)
    **{f"P^{n - 1}": BoxSpec(1, n) for n in (2, 3, 4, 5)},
}


@pytest.mark.parametrize("name", list(SOLUTIONS))
def test_graded_solve_matches_neumann_series(name):
    fund = fundamental_solution(SOLUTIONS[name])
    reference = reference_r_matrices(fund, 3)
    for d in range(4):
        # the grading: every entry of R_d at the one power deg_j - deg_i - n d
        powers = {}
        for p, R in reference[d].items():
            for i, j in R:
                assert (i, j) not in powers, (d, i, j)
                powers[i, j] = p
                assert p == fund.degrees[j] - fund.degrees[i] - fund.n * d, (d, i, j)
        assert fund.matrix(d) == reference[d], d
        for j in range(len(fund.basis)):
            want = {}
            for p, R in reference[d].items():
                rows = {i: c for (i, col), c in R.items() if col == j}
                if rows:
                    want[p] = rows
            assert fund.column(d, j) == want, (d, j)


def test_zseries_records_stable():
    J = j_function(BoxSpec(1, 2), 1)
    recs = J.records()
    assert recs[0] == {"q": 0, "z": 1, "label": "[]", "value": "1/1"}
    assert all(set(r) == {"q", "z", "label", "value"} for r in recs)
