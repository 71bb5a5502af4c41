"""Cohomology of (P^{n-1})^k with its Weyl-group action.

Classes are represented in the monomial basis of Q[H_1,...,H_k]/(H_i^n),
with an extra formal scalar c tracking the square root in the fundamental
anti-invariant class

    omega = c * Delta,   Delta = prod_{i<j} (H_i - H_j),   c^2 = (-1)^binom(k,2) / k!.

Even powers of c fold into rational coefficients, so a normalized class
carries cgrade 0 or 1.  All arithmetic is exact.

The classical Schubert calculus of Gr(k, n) is derived from this ring via
the integration formula of Martin: int_Gr sigma = int_P omega^2 * lift(sigma).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial

from . import sparse
from .partitions import BoxSpec, Partition, _perm_sign, box_partitions, complement, schur_polynomial

@dataclass(frozen=True)
class ProductSpace:
    """(P^{n-1})^k.  Unlike BoxSpec there is no k < n constraint, so this
    also covers self-products such as P^1 x P^1."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 2:
            raise ValueError(f"need k >= 1 and n >= 2, got k={self.k}, n={self.n}")

    @property
    def dim(self) -> int:
        return self.k * (self.n - 1)

    @property
    def top(self) -> tuple[int, ...]:
        return (self.n - 1,) * self.k

    def monomials(self):
        """All basis monomials, ordered by total degree then lexicographically."""
        out = list(itertools.product(range(self.n), repeat=self.k))
        out.sort(key=lambda e: (sum(e), e))
        return out

    def dual(self, e: tuple[int, ...]) -> tuple[int, ...]:
        """Poincare-dual monomial: int H^e * H^dual(e) = 1."""
        return tuple(self.n - 1 - x for x in e)

    def c1_degree(self, d: tuple[int, ...]) -> int:
        """Pairing of c_1(T) with a multidegree: n per unit of each factor."""
        return self.n * sum(d)

    def basis_of_codim(self, c: int) -> list:
        """The basis monomials of total degree c, in the order of monomials()."""
        return self._basis_by_codim.get(c, [])

    @cached_property
    def _basis_by_codim(self) -> dict:
        table = {}
        for mono in self.monomials():
            table.setdefault(sum(mono), []).append(mono)
        return table

    def curve_classes(self, d_max: int) -> list:
        """Multidegrees of total degree at most d_max."""
        return [d for d in itertools.product(range(d_max + 1), repeat=self.k) if sum(d) <= d_max]

    def splittings(self, d: tuple[int, ...]) -> list:
        """All (e, f) with e + f = d, both effective multidegrees."""
        return [
            (e, tuple(x - y for x, y in zip(d, e)))
            for e in itertools.product(*(range(x + 1) for x in d))
        ]


def space_of(box: BoxSpec) -> ProductSpace:
    return ProductSpace(box.k, box.n)


def c_squared(k: int) -> Fraction:
    return Fraction((-1) ** comb(k, 2), factorial(k))


class PClass:
    """A cohomology class on (P^{n-1})^k with a c-grading.

    terms maps exponent vectors (all entries < n) to Fractions; cgrade is
    0 or 1.  Instances are treated as immutable.
    """

    __slots__ = ("space", "terms", "cgrade")

    def __init__(self, space: ProductSpace, terms: dict = None, cgrade: int = 0):
        self.space = space
        t = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != space.k or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
            if any(x >= space.n for x in e):
                continue
            c = Fraction(c)
            if c:
                t[e] = t.get(e, Fraction(0)) + c
        self.terms = {e: c for e, c in t.items() if c}
        if cgrade < 0:
            raise ValueError("cgrade must be nonnegative")
        # fold even powers of c into the coefficients
        if cgrade >= 2:
            factor = c_squared(space.k) ** (cgrade // 2)
            self.terms = {e: c * factor for e, c in self.terms.items()}
            cgrade %= 2
        self.cgrade = cgrade

    def __eq__(self, other):
        return (
            isinstance(other, PClass)
            and self.space == other.space
            and self.cgrade == other.cgrade
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, self.cgrade, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        body = " + ".join(
            f"{c}*H^{e}" for e, c in sorted(self.terms.items())
        ) or "0"
        return f"PClass({body}{', c' if self.cgrade else ''})"

    def is_zero(self) -> bool:
        return not self.terms


def unit(space: ProductSpace) -> PClass:
    return PClass(space, {(0,) * space.k: Fraction(1)})


def variable(space: ProductSpace, i: int) -> PClass:
    """The hyperplane class H_i pulled back from factor i (0-based)."""
    e = [0] * space.k
    e[i] = 1
    return PClass(space, {tuple(e): Fraction(1)})


def monomial(space: ProductSpace, e: tuple[int, ...]) -> PClass:
    return PClass(space, {tuple(e): Fraction(1)})


def add(a: PClass, b: PClass) -> PClass:
    if a.space != b.space or a.cgrade != b.cgrade:
        raise ValueError("can only add classes of matching space and cgrade")
    return PClass(a.space, sparse.add(a.terms, b.terms), a.cgrade)


def scale(a: PClass, c) -> PClass:
    return PClass(a.space, sparse.scale(a.terms, Fraction(c)), a.cgrade)


def cup(a: PClass, b: PClass) -> PClass:
    """Cup product; cgrades add and normalize through c^2."""
    if a.space != b.space:
        raise ValueError("cup product needs matching spaces")
    return PClass(a.space, sparse.mul(a.terms, b.terms, a.space.n), a.cgrade + b.cgrade)


def integrate(a: PClass) -> tuple[Fraction, int]:
    """Push-forward to a point: the coefficient of prod_i H_i^{n-1},
    together with the residual cgrade."""
    return (a.terms.get(a.space.top, Fraction(0)), a.cgrade)


def integrate_rational(a: PClass) -> Fraction:
    """Integrate, insisting on a rational (cgrade-0) outcome."""
    val, cg = integrate(a)
    if cg and val:
        raise ValueError("integral has odd cgrade; no rational value")
    return val if not cg else Fraction(0)


def weyl_action(perm: tuple[int, ...], a: PClass) -> PClass:
    """Permute the H_i.  The scalar c is Weyl-invariant, so the sign
    character of anti-invariant classes comes entirely from the
    Vandermonde part (a transposition sends omega to -omega)."""
    k = a.space.k
    terms = {tuple(e[perm[i]] for i in range(k)): c for e, c in a.terms.items()}
    return PClass(a.space, terms, a.cgrade)


def delta(space: ProductSpace) -> PClass:
    """The Vandermonde product prod_{i<j} (H_i - H_j), cgrade 0."""
    out = unit(space)
    for root in root_classes(space):
        out = cup(out, root)
    return out


def root_classes(space: ProductSpace) -> list[PClass]:
    """The positive-root divisor classes H_i - H_j, i < j, in the fixed order."""
    out = []
    for i in range(space.k):
        for j in range(i + 1, space.k):
            ei, ej = [0] * space.k, [0] * space.k
            ei[i] = 1
            ej[j] = 1
            out.append(PClass(space, {tuple(ei): Fraction(1), tuple(ej): Fraction(-1)}))
    return out


def omega(box: BoxSpec) -> PClass:
    """The fundamental Weyl-anti-invariant class c * Delta, cgrade 1."""
    space = space_of(box)
    d = delta(space)
    return PClass(space, d.terms, 1)


def lift(lam: Partition, box: BoxSpec) -> PClass:
    """Schur lift of a Schubert class: S_lam(H_1, ..., H_k), cgrade 0."""
    if not lam.fits(box):
        raise ValueError(f"{lam} does not fit {box.k}x{box.cols} box")
    poly = schur_polynomial(lam, box.k)
    return PClass(space_of(box), {e: Fraction(c) for e, c in poly.items()})


def martin_integral(a: PClass, box: BoxSpec) -> Fraction:
    """int_P omega^2 * a, which computes int_Gr of the class a lifts."""
    om = omega(box)
    return integrate_rational(cup(cup(om, om), a))


def schubert_cup(lam: Partition, mu: Partition, box: BoxSpec) -> dict[Partition, Fraction]:
    """Classical product sigma_lam * sigma_mu on Gr(k, n).

    Coefficients come from Martin integrals against complementary lifts:
    c_{lam,mu}^nu = int_P omega^2 S_lam S_mu S_{nu^vee}.
    """
    product = cup(lift(lam, box), lift(mu, box))
    w = lam.weight + mu.weight
    out = {}
    for nu in box_partitions(box):
        if nu.weight != w:
            continue
        c = martin_integral(cup(product, lift(complement(nu, box), box)), box)
        if c:
            out[nu] = c
    return out


def antisymmetrize(a: PClass) -> PClass:
    """Sum of sign(w) * w(.) over the Weyl group, applied to the rational
    part of a (no 1/k! normalization); the cgrade is carried along."""
    out = {}
    for perm in itertools.permutations(range(a.space.k)):
        sgn = _perm_sign(perm)
        for e, c in a.terms.items():
            sparse.add_term(out, tuple(e[i] for i in perm), sgn * c)
    return PClass(a.space, out, a.cgrade)


def divide_by_omega(phi: PClass, box: BoxSpec) -> dict[Partition, Fraction]:
    """Invert cup-by-omega on anti-invariant classes.

    A cgrade-1 anti-invariant class is c times a linear combination of the
    bialternants S_lam * Delta, lam in the box.  In the monomial basis the
    coefficient of S_lam * Delta is read off the strictly decreasing
    exponent vector lam + (k-1, k-2, ..., 0); the expansion is then checked
    by exact reconstruction.  Raises ValueError when phi is not in the span.
    """
    if phi.cgrade != 1:
        raise ValueError("divide_by_omega expects a cgrade-1 class")
    space = space_of(box)
    k = box.k
    staircase = tuple(range(k - 1, -1, -1))
    coeffs = {}
    for lam in box_partitions(box):
        e = tuple(lam.padded(k)[i] + staircase[i] for i in range(k))
        c = phi.terms.get(e, Fraction(0))
        if c:
            coeffs[lam] = c
    recon = PClass(space, {}, 0)
    d = delta(space)
    for lam, c in coeffs.items():
        recon = add(recon, scale(cup(lift(lam, box), d), c))
    if recon.terms != phi.terms:
        raise ValueError("class is not in the span of {S_lam * omega}")
    return coeffs


def pclass_records(a: PClass) -> list[tuple]:
    """Stable serialization: (exponents, numerator, denominator, cgrade)."""
    return [
        (list(e), c.numerator, c.denominator, a.cgrade)
        for e, c in sorted(a.terms.items())
    ]
