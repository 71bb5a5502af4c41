"""Small J-functions of products of projective spaces, the twisted
I-function, and the linear solve matching it against the Grassmannian side.

Every series here is homogeneous (deg z = deg H_i = 1, deg Q = n), so the
J- and I-functions are computed at z = 1 and each term gets its power of z
back from its degree, as z-series (see sparse) per Novikov degree.  There
is no z truncation anywhere: requested depths are guarantees, not cutoffs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

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
from .grassmannian import fundamental_solution
from .sparse import add, mul, scale, series_mul


def _on_factor(poly: dict, i: int, k: int) -> dict:
    """A polynomial in the H of factor i, as one on (P^{n-1})^k."""
    return {(0,) * i + (e,) + (0,) * (k - 1 - i): c for e, c in poly.items()}


# ---------------------------------------------------------------------------
# one factor P^{n-1} = Gr(1, n): sigma_j = H^j, so row j is the H exponent

def projective_j_coefficient(n: int, d: int) -> dict[int, dict[int, Fraction]]:
    """q^d coefficient of the P^{n-1} J-function (unit normalization, no
    overall z): {z power: {H exponent: coeff}}."""
    return fundamental_solution(BoxSpec(1, n)).column(d, 0)


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


def _j_numerators(space: ProductSpace, d_total_max: int) -> dict[tuple, tuple]:
    """{multidegree dt: (den, poly)}: J^dt at z = 1 is poly / den, poly
    with integer coefficients."""
    sol, k = fundamental_solution(BoxSpec(1, space.n)), space.k
    factors = []
    for m in range(d_total_max + 1):
        col = {i: c for (i, j), c in sol.graded(m).items() if j == 0}
        den = lcm(*(c.denominator for c in col.values()))
        factors.append((den, {i: c.numerator * den // c.denominator for i, c in col.items()}))
    out = {}
    for dt in space.curve_classes(d_total_max):
        den, poly = 1, {(0,) * k: 1}
        for i, m in enumerate(dt):
            den *= factors[m][0]
            poly = mul(poly, _on_factor(factors[m][1], i, k))
        out[dt] = den, poly
    return out


def _with_z(poly: dict, top: int, den: int) -> dict:
    """poly / den of degree top at z = 1 as a z-series: H^e at z^(top - |e|)."""
    out = {}
    for e, c in poly.items():
        out.setdefault(top - sum(e), {})[e] = Fraction(c, den)
    return out


def j_function_P(space: ProductSpace, d_total_max: int) -> dict[tuple, dict]:
    """Multidegree coefficients of the small J-function of (P^{n-1})^k at
    the origin of the divisor locus.

    J = z * sum over multidegrees of Q^dt * prod_i J_{d_i}(H_i); the
    returned z-series includes the overall factor z, so the zero multidegree
    maps to z * unit.  The coefficient of Q^dt has degree 1 - n |dt|.
    """
    return {
        dt: _with_z(poly, 1 - space.n * sum(dt), den)
        for dt, (den, poly) in _j_numerators(space, d_total_max).items()
    }


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
    """The I-series to Novikov degree d_max, computed at z = 1 in integers
    over one denominator per degree; the term H^e of I_d gets back the
    z power 1 - n d + C(k, 2) - |e|."""
    space = space_of(box)
    k, n = space.k, space.n
    jp = _j_numerators(space, d_max)
    # the positive roots H_i - H_j, in the order of root_classes
    roots = list(zip(itertools.combinations(range(k), 2), root_classes(space)))
    coeffs = {}
    for d in range(d_max + 1):
        dts = lifts(d, k)
        common = lcm(*(jp[dt][0] for dt in dts))
        acc = {}
        for dt in dts:
            den, term = jp[dt]
            term = scale(term, common // den)
            for (i, j), root in roots:
                term = mul(term, add(root.terms, {(0,) * k: dt[i] - dt[j]}), cap=n)
            acc = add(acc, term)
        coeffs[d] = _with_z(scale(acc, (-1) ** epsilon(d, k)), 1 - n * d + comb(k, 2), common)
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


def solve_c_coefficients(iseries: ISeries) -> CSolveResult:
    """Solve I(z) = sum_i C^i(z) * z d_{t_i} (lifted J_Gr cup omega) order by
    order in the Novikov variable, on the box of the I-series and to its
    degree d_max.

    At each degree the unknown C^i_d multiplies the degree-zero Gr column
    z * S_{lam_i} * omega, so expanding the remainder over the bialternants
    and dividing by c^2 * z determines C^i_d.  The solve runs at z = 1, as
    C^lam_d can only stand at z^(-|lam| - n d); one at a negative power
    (the division must close in polynomials) is a residual violation.  The
    system is triangular across Novikov degrees with an invertible diagonal
    block, so the solve is exact and unique.
    """
    box, d_max = iseries.box, iseries.d_max
    fund = fundamental_solution(box)
    basis = box.basis
    r = c_squared(box.k)

    c_series: dict[Partition, dict] = {lam: {} for lam in basis}
    residual = []
    for d in range(d_max + 1):
        known = {}
        for poly in iseries.coefficient(d).values():
            known = add(known, poly)
        for j, lam in enumerate(basis):
            for (e_prime, _), c1 in c_series[lam].items():
                # minus lift(R_{d-e'} column_lam) * Delta, scaled by r * C^lam
                for (i, col), c in fund.graded(d - e_prime).items():
                    if col == j:
                        known = add(known, bialternant(basis[i], box).terms, -r * c1 * c)
        # expand the remainder over the bialternants
        try:
            expanded = divide_by_delta(PClass(space_of(box), known), box)
        except ValueError:
            residual.append({"d": d, "value": "not anti-invariant"})
            continue
        for lam, c in expanded.items():
            val = c / r
            target_zp = -lam.weight - box.n * d  # divide by z
            if target_zp < 0:
                residual.append({"d": d, "lam": lam, "z": target_zp, "value": val})
            else:
                c_series[lam][(d, target_zp)] = val
    c_series = {lam: s for lam, s in c_series.items() if s}
    return CSolveResult(d_max, c_series, residual)
