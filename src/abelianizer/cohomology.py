"""Cohomology of (P^{n-1})^k with its Weyl-group action.

Classes are exact polynomials in the monomial basis of
Q[H_1,...,H_k]/(H_i^n): integer coefficients wherever the class is
integral (Schur lifts, the Vandermonde product Delta = prod_{i<j} (H_i - H_j)),
rational ones only where a caller scales by a fraction.

The fundamental anti-invariant class is omega = c * Delta with
c^2 = (-1)^binom(k,2) / k!.  Nothing here carries c: every consumer of
omega needs only c^2, and applies it once per result (martin_integral
below, correspondence.i_bracket).

The classical Schubert calculus of Gr(k, n) is derived from this ring via
the integration formula of Martin: int_Gr sigma = c^2 int_P Delta^2 * lift(sigma).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache, cached_property
from math import comb, factorial
from types import MappingProxyType

from . import sparse
from .partitions import BoxSpec, GradedBasis, Partition, _perm_sign, complement, schur_polynomial

class ProductSpace(GradedBasis):
    """(P^{n-1})^k.  Unlike BoxSpec there is no k < n constraint, so this
    also covers self-products such as P^1 x P^1."""

    def __init__(self, k: int, n: int):
        if k < 1 or n < 2:
            raise ValueError(f"need k >= 1 and n >= 2, got k={k}, n={n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    @property
    def dim(self) -> int:
        return self.k * (self.n - 1)

    @property
    def top(self) -> tuple[int, ...]:
        return (self.n - 1,) * self.k

    @cached_property
    def basis(self) -> tuple:
        """All basis monomials, by total degree and then lexicographically:
        the one order of the monomial basis."""
        monos = itertools.product(range(self.n), repeat=self.k)
        return tuple(sorted(monos, key=lambda e: (sum(e), e)))

    def dual(self, e: tuple[int, ...]) -> tuple[int, ...]:
        """Poincare-dual monomial: int H^e * H^dual(e) = 1."""
        return tuple(self.n - 1 - x for x in e)

    def c1_degree(self, d: tuple[int, ...]) -> int:
        """Pairing of c_1(T) with a multidegree: n per unit of each factor."""
        return self.n * sum(d)

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
    """A cohomology class on (P^{n-1})^k.

    terms maps exponent vectors (all entries < n) to exact nonzero
    coefficients (int or Fraction).  Instances are treated as immutable.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space: ProductSpace, terms: dict = None):
        self.space = space
        self.terms = {}
        k, n = space.k, space.n
        for e, c in (terms or {}).items():
            if not (type(e) is tuple and len(e) == k and all(type(x) is int and x >= 0 for x in e)):
                raise ValueError(f"bad exponent vector {e!r}")
            # H_i^n = 0
            if c and max(e) < n:
                self.terms[e] = c

    def __eq__(self, other):
        return isinstance(other, PClass) and self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        body = " + ".join(
            f"{c}*H^{e}" for e, c in sorted(self.terms.items())
        ) or "0"
        return f"PClass({body})"

    def is_zero(self) -> bool:
        return not self.terms


def unit(space: ProductSpace) -> PClass:
    return PClass(space, {(0,) * space.k: 1})


def variable(space: ProductSpace, i: int) -> PClass:
    """The hyperplane class H_i pulled back from factor i (0-based)."""
    e = [0] * space.k
    e[i] = 1
    return PClass(space, {tuple(e): 1})


def monomial(space: ProductSpace, e: tuple[int, ...]) -> PClass:
    return PClass(space, {tuple(e): 1})


def add(a: PClass, b: PClass) -> PClass:
    if a.space != b.space:
        raise ValueError("can only add classes of matching space")
    return PClass(a.space, sparse.add(a.terms, b.terms))


def scale(a: PClass, c) -> PClass:
    return PClass(a.space, sparse.scale(a.terms, c))


def cup(a: PClass, b: PClass) -> PClass:
    if a.space != b.space:
        raise ValueError("cup product needs matching spaces")
    return PClass(a.space, sparse.mul(a.terms, b.terms, a.space.n))


def integrate(a: PClass):
    """Push-forward to a point: the coefficient of prod_i H_i^{n-1}."""
    return a.terms.get(a.space.top, 0)


def weyl_action(perm: tuple[int, ...], a: PClass) -> PClass:
    """Permute the H_i.  A transposition sends Delta, and so omega, to
    its negative (c is Weyl-invariant)."""
    k = a.space.k
    terms = {tuple(e[perm[i]] for i in range(k)): c for e, c in a.terms.items()}
    return PClass(a.space, terms)


def _read_only(a: PClass) -> PClass:
    a.terms = MappingProxyType(a.terms)
    return a


@cache
def delta(space: ProductSpace) -> PClass:
    """The Vandermonde product prod_{i<j} (H_i - H_j).

    Built once per space and shared, like schur_polynomial: its terms are
    read-only, so a caller that tries to change them gets a TypeError.
    """
    out = unit(space)
    for root in root_classes(space):
        out = cup(out, root)
    return _read_only(out)


def root_classes(space: ProductSpace) -> list[PClass]:
    """The positive-root divisor classes H_i - H_j, i < j, in the fixed order."""
    out = []
    for i in range(space.k):
        for j in range(i + 1, space.k):
            ei, ej = [0] * space.k, [0] * space.k
            ei[i] = 1
            ej[j] = 1
            out.append(PClass(space, {tuple(ei): 1, tuple(ej): -1}))
    return out


@cache
def lift(lam: Partition, box: BoxSpec) -> PClass:
    """Schur lift of a Schubert class: S_lam(H_1, ..., H_k).  Built once
    per (lam, box) and shared read-only, like delta."""
    if not lam.fits(box):
        raise ValueError(f"{lam} does not fit {box.k}x{box.cols} box")
    return _read_only(PClass(space_of(box), schur_polynomial(lam, box.k)))


@cache
def bialternant(lam: Partition, box: BoxSpec) -> PClass:
    """The bialternant S_lam * Delta: sigma_lam * omega without its c.
    Built once per (lam, box) and shared read-only, like delta."""
    return _read_only(cup(lift(lam, box), delta(space_of(box))))


def martin_integral(a: PClass, box: BoxSpec) -> Fraction:
    """int_P omega^2 * a = c^2 int_P Delta^2 * a, which computes int_Gr of
    the class a lifts."""
    dl = delta(space_of(box))
    return c_squared(box.k) * integrate(cup(cup(dl, dl), a))


def schubert_cup(lam: Partition, mu: Partition, box: BoxSpec) -> dict[Partition, Fraction]:
    """Classical product sigma_lam * sigma_mu on Gr(k, n).

    Coefficients come from Martin integrals against complementary lifts:
    c_{lam,mu}^nu = int_P omega^2 S_lam S_mu S_{nu^vee}.
    """
    product = cup(lift(lam, box), lift(mu, box))
    out = {}
    for nu in box.basis_of_codim(lam.weight + mu.weight):
        c = martin_integral(cup(product, lift(complement(nu, box), box)), box)
        if c:
            out[nu] = c
    return out


def antisymmetrize(a: PClass) -> PClass:
    """Sum of sign(w) * w(a) over the Weyl group (no 1/k! normalization)."""
    out = {}
    for perm in itertools.permutations(range(a.space.k)):
        sgn = _perm_sign(perm)
        for e, c in a.terms.items():
            sparse.add_term(out, tuple(e[i] for i in perm), sgn * c)
    return PClass(a.space, out)


def divide_by_delta(phi: PClass, box: BoxSpec) -> dict:
    """Invert cup-by-Delta on anti-invariant classes.

    An anti-invariant class is a linear combination of the bialternants
    S_lam * Delta, lam in the box.  In the monomial basis the coefficient
    of S_lam * Delta is read off the strictly decreasing exponent vector
    lam + (k-1, k-2, ..., 0); the expansion is then checked by exact
    reconstruction.  Raises ValueError when phi is not in the span.
    """
    space = space_of(box)
    k = box.k
    staircase = tuple(range(k - 1, -1, -1))
    coeffs = {}
    for lam in box.basis:
        e = tuple(lam.padded(k)[i] + staircase[i] for i in range(k))
        c = phi.terms.get(e, 0)
        if c:
            coeffs[lam] = c
    recon = PClass(space)
    for lam, c in coeffs.items():
        recon = add(recon, scale(bialternant(lam, box), c))
    if recon.terms != phi.terms:
        raise ValueError("class is not in the span of {S_lam * Delta}")
    return coeffs
