"""Small quantum cohomology of Gr(k, n): the independent oracle side.

Products are computed classically in at most k rows (Schur polynomial
multiplication, then expansion back into the Schur basis by leading-term
peeling) and reduced to the box by removing rim hooks of size n with the
calibrated sign.  The small J-function is obtained by solving the divisor
quantum differential equation order by order in the Novikov variable.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .partitions import (
    BoxSpec,
    Partition,
    RIM_HOOK_SIGN_RULES,
    complement,
    rim_hook_reduce,
    schur_polynomial,
)
from .sparse import add, add_term, mul, series_add

SIGMA_1 = Partition((1,))

# ---------------------------------------------------------------------------
# classical expansion and quantum product

def schur_expand_product(lam: Partition, mu: Partition, k: int) -> dict[Partition, int]:
    """Expand S_lam * S_mu in k variables back into Schur polynomials.

    Peels the lexicographically leading monomial, which for a symmetric
    polynomial is a partition exponent; S_nu has leading coefficient 1, so
    the loop strictly decreases the leading term and terminates.
    """
    poly = mul(schur_polynomial(lam, k), schur_polynomial(mu, k))
    out: dict[Partition, int] = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        nu = Partition(lead)
        out[nu] = coeff
        for e, c in schur_polynomial(nu, k).items():
            add_term(poly, e, -coeff * c)
    return out


@cache
def quantum_cup(lam: Partition, mu: Partition, box: BoxSpec, rule: str = None) -> MappingProxyType:
    """Small quantum product sigma_lam * sigma_mu via rim-hook reduction, as
    {(q power, partition): int}; rule is rim_hook_reduce's per-hook sign
    rule.  Computed once per argument tuple and shared read-only, like
    schur_polynomial."""
    if not (lam.fits(box) and mu.fits(box)):
        raise ValueError("partitions must fit the box")
    terms: dict[tuple, int] = {}
    for nu, c in schur_expand_product(lam, mu, box.k).items():
        sign, q_power, reduced = rim_hook_reduce(nu, box, rule=rule)
        if reduced is None:
            continue
        add_term(terms, (q_power, reduced), sign * c)
    return MappingProxyType(terms)


def three_point(lam: Partition, mu: Partition, nu: Partition, d: int, box: BoxSpec) -> Fraction:
    """<sigma_lam, sigma_mu, sigma_nu>_{0,3,d} from the rim-hook product."""
    if d < 0:
        return Fraction(0)
    if lam.weight + mu.weight + nu.weight != box.dim + box.n * d:
        return Fraction(0)
    return Fraction(quantum_cup(lam, mu, box).get((d, complement(nu, box)), 0))


def two_point(lam: Partition, mu: Partition, d: int, box: BoxSpec) -> Fraction:
    """<sigma_lam, sigma_mu>_{0,2,d} = (1/d) <sigma_1, sigma_lam, sigma_mu>_{0,3,d}."""
    if d < 1:
        raise ValueError("2-point invariants need d >= 1")
    return three_point(SIGMA_1, lam, mu, d, box) / d


def calibrate_rim_hook_sign(d_max: int = 2) -> dict[str, bool]:
    """Nonnegativity calibration of the per-hook sign rule.

    Returns, for each candidate rule, whether every 3-point structure
    constant of Gr(2,4) and Gr(2,5) up to degree d_max is nonnegative.
    Exactly one candidate must survive.
    """
    verdict = {}
    for rule in RIM_HOOK_SIGN_RULES:
        ok = True
        for box in (BoxSpec(2, 4), BoxSpec(2, 5)):
            for lam, mu in itertools.combinations_with_replacement(box.basis, 2):
                terms = quantum_cup(lam, mu, box, rule)
                if any(v < 0 for (q, _), v in terms.items() if q <= d_max):
                    ok = False
                    break
            if not ok:
                break
        verdict[rule] = ok
    return verdict


# ---------------------------------------------------------------------------
# the quantum differential equation, on sparse matrices {(row, col): c}


def _matmul(A: dict, B: dict) -> dict:
    """Product of two sparse matrices."""
    rows: dict = {}
    for (l, j), b in B.items():
        rows.setdefault(l, []).append((j, b))
    out = {}
    for (i, l), a in A.items():
        for j, b in rows.get(l, ()):
            add_term(out, (i, j), a * b)
    return out


class FundamentalSolution:
    """Solution of the divisor quantum differential equation.

    The matrix series U(t, q) = exp(t D / z) (Id + sum_{d>=1} q^d R_d)
    satisfies z dU/dt = U M(q) with q = Q e^t, where M(q) = D + sum q^d A_d
    is quantum multiplication by the divisor class in the given basis and
    D its classical part.  Column j of U is the coordinate vector of the
    t_j-derivative of the J-function on the divisor locus; the unit column
    times z is the J-function itself.  Order by order the R_d solve

        (z d + ad_D) R_d = sum_{e=1..d} R_{d-e} A_e.

    U is homogeneous (deg z = 1, deg q = n, basis element i of degree
    degrees[i]), so entry (i, j) of R_d stands at the one power
    z^(degrees[j] - degrees[i] - n d), and R_d is solved at z = 1.  D, the
    A_d and the R_d at z = 1 are sparse matrices {(row, col): c}.
    """

    def __init__(self, basis: tuple, degrees: tuple, n: int, D: dict, A: dict, R: dict | None = None):
        self.basis, self.degrees, self.n = basis, degrees, n
        self.D, self.A = D, A
        self.R = {} if R is None else R

    def graded(self, d: int) -> dict:
        """R_d at z = 1."""
        if d == 0:
            return {(i, i): Fraction(1) for i in range(len(self.basis))}
        if d not in self.R:
            rhs = {}
            for e in range(1, d + 1):
                rhs = add(rhs, _matmul(self.graded(d - e), self.A.get(e, {})))
            self.R[d] = _back_substitute(rhs, self.D, d, self.degrees)
        return self.R[d]

    def matrix(self, d: int) -> dict:
        """R_d as a z-series of sparse matrices."""
        out = {}
        for (i, j), c in self.graded(d).items():
            out.setdefault(self.degrees[j] - self.degrees[i] - self.n * d, {})[i, j] = c
        return out

    def column(self, d: int, j: int) -> dict[int, dict]:
        """Coordinates of the q^d part of column j, as {z power: {row: coeff}}."""
        out = {}
        for p, R in self.matrix(d).items():
            rows = {i: c for (i, col), c in R.items() if col == j}
            if rows:
                out[p] = rows
        return out

    def residual(self, d_max: int):
        """Plug the computed R_d, with their powers of z, back into the
        recursion; must vanish.  A z shift shared by every R_d moves both
        sides alike, so R_0 must also be the identity at z^0; degree 0 is
        reported otherwise."""
        identity = {(i, i): 1 for i in range(len(self.basis))}
        bad = [] if self.matrix(0) == {0: identity} else [0]
        for d in range(1, d_max + 1):
            R_d = self.matrix(d)
            ad = series_add({}, {p: add(_matmul(self.D, R), _matmul(R, self.D), -1)
                                 for p, R in R_d.items()})
            lhs = series_add(ad, R_d, d, shift=1)
            for e, A_e in self.A.items():
                if 1 <= e <= d:
                    rhs = {p: _matmul(R, A_e) for p, R in self.matrix(d - e).items()}
                    lhs = series_add(lhs, rhs, -1)
            if lhs:
                bad.append(d)
        return bad


def _back_substitute(Y: dict, D: dict, d: int, degrees: tuple) -> dict:
    """Solve (z d + ad_D) R_d = Y at z = 1, d X + D X - X D = Y.  D raises
    the degree by one, so (D X)(i, j) and (X D)(i, j) read only entries one
    lower in degrees[i] - degrees[j], which this order has already solved."""
    rows, cols = {}, {}
    for (i, l), c in D.items():
        rows.setdefault(i, []).append((l, c))
        cols.setdefault(l, []).append((i, c))
    X = {}
    for i, j in sorted(itertools.product(range(len(degrees)), repeat=2),
                       key=lambda ij: degrees[ij[0]] - degrees[ij[1]]):
        v = (Y.get((i, j), 0)
             - sum(c * X.get((l, j), 0) for l, c in rows.get(i, ()))
             + sum(c * X.get((i, l), 0) for l, c in cols.get(j, ())))
        if v:
            X[i, j] = Fraction(v, d)
    return X


def fundamental_solution(box: BoxSpec) -> FundamentalSolution:
    """A new solution for Gr(k, n), graded by partition weight; it fills
    its R_d as the caller asks.  Column lam of D and the A_d holds
    sigma_1 * sigma_lam expanded over the basis."""
    basis = box.basis
    D: dict = {}
    A: dict[int, dict] = {}
    for j, lam in enumerate(basis):
        for (q, rho), c in quantum_cup(SIGMA_1, lam, box).items():
            mat = D if q == 0 else A.setdefault(q, {})
            mat[box.basis_index[rho], j] = c
    return FundamentalSolution(basis, tuple(lam.weight for lam in basis), box.n, D, A)


class ZSeries:
    """Cohomology-valued series in the Novikov variable and z.

    coefficients maps (q_power, z_power) to {basis label: Fraction}.  For
    J-type series the (0, 1) coefficient is the unit class (J = z + ...).
    Fano grading leaves finitely many powers of z in every coefficient, so
    there is no z cutoff.
    """

    def __init__(self, coefficients: dict):
        self.coefficients = coefficients

    def coefficient(self, q_power: int, z_power: int) -> dict:
        return self.coefficients.get((q_power, z_power), {})

    def records(self):
        out = []
        for (q, z), vec in sorted(self.coefficients.items(), key=lambda t: (t[0][0], -t[0][1])):
            for label, c in sorted(vec.items(), key=lambda t: str(t[0])):
                out.append({"q": q, "z": z, "label": str(label),
                            "value": f"{c.numerator}/{c.denominator}"})
        return out


def j_function(box: BoxSpec, q_trunc: int) -> ZSeries:
    """Small J-function of Gr(k, n) on the divisor locus, at t = 0.

    J = z * sum_d Q^d (R_d applied to the unit class); the q^0 term is
    z * sigma_empty.  Each coefficient is exact, with finitely many powers of z.
    """
    if q_trunc < 1:
        raise ValueError("truncation order must be >= 1")
    fund = fundamental_solution(box)
    basis = fund.basis
    unit_col = basis.index(Partition())
    coeffs = {
        (d, zp + 1): {basis[i]: c for i, c in rows.items()}
        for d in range(q_trunc + 1)
        for zp, rows in fund.column(d, unit_col).items()
    }
    return ZSeries(coeffs)
