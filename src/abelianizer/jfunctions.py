"""Small J-functions of products of projective spaces, the twisted
I-function, and the linear solve matching it against the Grassmannian side.

All series here are carried per Novikov degree as z-series (see sparse):
polynomials in z and 1/z whose coefficients are classes on the product,
{z power: {exponent vector: Fraction}}.  Fano grading on the divisor locus
keeps every z-expansion finite, so there is no z truncation anywhere:
requested depths are guarantees, not cutoffs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .partitions import BoxSpec, Partition, binomial_fraction, epsilon, lifts
from .cohomology import (
    PClass,
    ProductSpace,
    bialternant,
    c_squared,
    divide_by_delta,
    root_classes,
    space_of,
)
from .grassmannian import FundamentalSolution
from .sparse import add, series_add, series_mul


def _on_factor(series: dict, i: int, k: int) -> dict:
    """A z-series in the H of factor i, as a z-series on (P^{n-1})^k."""
    return {
        p: {(0,) * i + (e,) + (0,) * (k - 1 - i): c for e, c in rows.items()}
        for p, rows in series.items()
    }


# ---------------------------------------------------------------------------
# per-factor quantum differential equation for P^{n-1}

def _projective_solution(n: int) -> FundamentalSolution:
    """Fundamental solution for a single P^{n-1} in the basis 1, H, ..., H^{n-1}."""
    D = {(j + 1, j): Fraction(1) for j in range(n - 1)}
    A1 = {(0, n - 1): Fraction(1)}  # H * H^{n-1} = Q
    return FundamentalSolution(list(range(n)), D, {1: A1})


def projective_j_coefficient(n: int, d: int) -> dict[int, dict[int, Fraction]]:
    """q^d coefficient of the P^{n-1} J-function (unit normalization, no
    overall z): {z power: {H exponent: coeff}}."""
    return _projective_solution(n).column(d, 0)


def projective_j_closed_form(n: int, d: int) -> dict[int, dict[int, Fraction]]:
    """Independent oracle: expansion of 1 / prod_{m=1..d} (H + m z)^n
    with H^n = 0; matches projective_j_coefficient."""
    out = {0: {0: Fraction(1)}}
    for m in range(1, d + 1):
        factor = {}
        scale0 = Fraction(1, m ** n)
        for j in range(n):
            coeff = binomial_fraction(-n, j) * scale0 / Fraction(m ** j)
            if coeff:
                factor.setdefault(-n - j, {})[j] = coeff
        out = series_mul(out, factor, cap=n)
    return out


def j_function_P(space: ProductSpace, d_total_max: int) -> dict[tuple, dict]:
    """Multidegree coefficients of the small J-function of (P^{n-1})^k at
    the origin of the divisor locus.

    J = z * sum over multidegrees of Q^dt * prod_i J_{d_i}(H_i); the
    returned z-series includes the overall factor z, so the zero multidegree
    maps to z * unit.
    """
    k = space.k
    sol = _projective_solution(space.n)
    out = {}
    for dt in space.curve_classes(d_total_max):
        acc = {1: {(0,) * k: Fraction(1)}}
        for i in range(k):
            acc = series_mul(acc, _on_factor(sol.column(dt[i], 0), i, k))
        out[dt] = acc
    return out


def apply_abelian_solution(box: BoxSpec, poly: dict, d: int) -> dict:
    """sum over lifts dt of d of (tensor_i R_{d_i}) applied to a class.

    The per-factor matrices act coordinate-wise on each tensor leg; this is
    the q^d part of the abelian fundamental solution applied to the class,
    before Novikov specialization (no sign, no overall z).
    """
    space = space_of(box)
    k = space.k
    sol = _projective_solution(space.n)
    total = {}
    for dt in lifts(d, k):
        for e, c in poly.items():
            acc = {0: {(0,) * k: c}}
            for i in range(k):
                acc = series_mul(acc, _on_factor(sol.column(dt[i], e[i]), i, k))
            total = series_add(total, acc)
    return total


# ---------------------------------------------------------------------------
# the I-function

@dataclass
class ISeries:
    """Twisted abelian J-series: per Novikov degree d the class

        I_d = (-1)^((k-1)d) sum over lifts dt of
              prod_{i<j} ((H_i - H_j) + z (d_i - d_j)) * J^dt,

    a polynomial in z and 1/z with Weyl-anti-invariant coefficients.
    """

    box: BoxSpec
    d_max: int
    coeffs: dict  # {d: z-series}

    def coefficient(self, d: int) -> dict:
        return self.coeffs.get(d, {})

    def records(self):
        out = []
        for d in sorted(self.coeffs):
            for zp in sorted(self.coeffs[d], reverse=True):
                for e, c in sorted(self.coeffs[d][zp].items()):
                    out.append({"d": d, "z": zp, "monomial": list(e),
                                "value": f"{c.numerator}/{c.denominator}"})
        return out


def i_function(box: BoxSpec, d_max: int) -> ISeries:
    space = space_of(box)
    jp = j_function_P(space, d_max)
    # the positive roots H_i - H_j, in the order of root_classes
    roots = list(zip(itertools.combinations(range(space.k), 2), root_classes(space)))
    coeffs = {}
    for d in range(d_max + 1):
        acc = {}
        for dt in lifts(d, space.k):
            term = jp[dt]
            for (i, j), root in roots:
                factor = {0: root.terms}
                if dt[i] != dt[j]:
                    factor[1] = {(0,) * space.k: Fraction(dt[i] - dt[j])}
                term = series_mul(term, factor, cap=space.n)
            acc = series_add(acc, term)
        coeffs[d] = series_add({}, acc, (-1) ** epsilon(d, box.k))
    return ISeries(box, d_max, coeffs)


# ---------------------------------------------------------------------------
# the C^i solve

@dataclass
class CSolveResult:
    """Outcome of matching the I-function against the z d_i-derivatives of
    the lifted Grassmannian J-function cupped with omega.

    c_series[lam][(d, z power)] holds the rational part of C^lam (the
    formal square-root scalar c is a global factor of every C^lam, kept
    implicit); residual lists exact violations and must be empty.
    """

    box: BoxSpec
    d_max: int
    c_series: dict
    residual: list

    @property
    def consistent(self) -> bool:
        return not self.residual

    def leading(self) -> dict:
        """C^lam at Novikov degree 0 (rational part, by z power)."""
        out = {}
        for lam, series in self.c_series.items():
            lead = {zp: c for (d, zp), c in series.items() if d == 0}
            if lead:
                out[lam] = lead
        return out


def solve_c_coefficients(iseries: ISeries, fund: FundamentalSolution, box: BoxSpec,
                         d_max: int = None) -> CSolveResult:
    """Solve I(z) = sum_i C^i(z) * z d_{t_i} (lifted J_Gr cup omega) order by
    order in the Novikov variable.

    At each degree the unknown C^i_d multiplies the degree-zero Gr column
    z * S_{lam_i} * omega, so expanding the remainder over the bialternants
    and dividing by c^2 * z determines C^i_d; any surviving negative z
    powers (the division must close in polynomials) are reported as
    residual violations.  The system is triangular across Novikov degrees
    with an invertible diagonal block, so the solve is exact and unique.
    """
    if d_max is None:
        d_max = iseries.d_max
    space = space_of(box)
    basis = box.basis
    r = c_squared(box.k)

    # Gr side building blocks: G[e][lam] = lift(R_e column_lam) * Delta as a z-series
    gr_cols: dict[int, dict[Partition, dict]] = {}
    for e in range(d_max + 1):
        cols = {}
        for j, lam in enumerate(basis):
            lp = {}
            for zp, rows in fund.column(e, j).items():
                vec = {}
                for i, c in rows.items():
                    vec = add(vec, bialternant(basis[i], box).terms, c)
                if vec:
                    lp[zp] = vec
            cols[lam] = lp
        gr_cols[e] = cols

    c_series: dict[Partition, dict] = {lam: {} for lam in basis}
    residual = []
    for d in range(d_max + 1):
        known = iseries.coefficient(d)
        for e_prime in range(d):
            for lam in basis:
                g = gr_cols[d - e_prime][lam]
                for (dd, zp1), c1 in c_series[lam].items():
                    if dd == e_prime:
                        # minus z * G, scaled by r * C^i
                        known = series_add(known, g, -r * c1, shift=zp1 + 1)
        # expand the remainder over the bialternants, per z power
        expanded: dict[Partition, dict[int, Fraction]] = {}
        for zp, poly in known.items():
            try:
                row = divide_by_delta(PClass(space, poly), box)
            except ValueError:
                residual.append({"d": d, "z": zp, "value": "not anti-invariant"})
                continue
            for lam, c in row.items():
                expanded.setdefault(lam, {})[zp] = c
        for lam, lz in expanded.items():
            for zp, c in lz.items():
                val = c / r
                target_zp = zp - 1  # divide by z
                if target_zp < 0:
                    residual.append({"d": d, "lam": lam, "z": target_zp, "value": val})
                else:
                    c_series[lam][(d, target_zp)] = val
    c_series = {lam: s for lam, s in c_series.items() if s}
    return CSolveResult(box, d_max, c_series, residual)
