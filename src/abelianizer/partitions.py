"""Partitions in a box, Schur polynomials, curve-class lifts, rim hooks.

Conventions used throughout the package:

* partitions are weakly decreasing tuples of nonnegative integers with
  trailing zeros stripped;
* the Schubert basis of Gr(k, n) is indexed by partitions fitting the
  k x (n-k) box, listed by weight and then by reverse-lexicographic parts
  (so [2] precedes [1,1]);
* a curve class d on Gr(k, n) lifts to the multidegrees (d_1, ..., d_k)
  on the product of projective spaces with d_1 + ... + d_k = d.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from functools import cached_property
from math import comb
from types import MappingProxyType

# Per-hook sign rule for quantum reduction.  "k_minus_height" is the
# production rule; it is the unique choice out of the two classical
# candidates for which all 3-point Grassmannian structure constants come
# out nonnegative (see grassmannian.calibrate_rim_hook_sign and the
# calibration test).  "height_minus_one" is kept as the negative control.
RIM_HOOK_SIGN_RULE = "k_minus_height"
RIM_HOOK_SIGN_RULES = ("k_minus_height", "height_minus_one")


class GradedBasis:
    """What BoxSpec and ProductSpace share.

    Each is a frozen (k, n) value: its own __init__ validates k and n and
    sets them through object.__setattr__, and then assigning or deleting an
    attribute raises AttributeError.  Two spaces are equal, and hash alike,
    when they are of one class and have the same (k, n).  Tables read off
    the space are cached_property entries, which fill the instance dict
    without assigning.  The basis is graded: an element's codimension is
    the sum of its entries (a Partition is the tuple of its parts, a
    monomial its exponent vector)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.k, self.n) == (other.k, other.n)
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.n))

    def __repr__(self):
        return f"{type(self).__qualname__}(k={self.k!r}, n={self.n!r})"

    def basis_of_codim(self, c: int) -> list:
        """The basis elements of codimension c, in the order of basis."""
        return self._basis_by_codim.get(c, [])

    @cached_property
    def _basis_by_codim(self) -> dict:
        table = {}
        for b in self.basis:
            table.setdefault(sum(b), []).append(b)
        return table

    @cached_property
    def basis_index(self) -> dict:
        """The position of each basis element in basis."""
        return {b: i for i, b in enumerate(self.basis)}


class BoxSpec(GradedBasis):
    """The k x (n-k) rectangle indexing the Schubert basis of Gr(k, n)."""

    def __init__(self, k: int, n: int):
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    @property
    def cols(self) -> int:
        return self.n - self.k

    @property
    def rank(self) -> int:
        """Number of box partitions, binom(n, k)."""
        return comb(self.n, self.k)

    @property
    def dim(self) -> int:
        """Complex dimension of Gr(k, n)."""
        return self.k * (self.n - self.k)

    def c1_degree(self, d: int) -> int:
        """Pairing of c_1(T Gr(k, n)) with d times the line class."""
        return self.n * d

    def dual(self, lam: Partition) -> Partition:
        """Poincare-dual Schubert class: the complement in the box, read
        from a table built once per box."""
        return self._duals[lam]

    @cached_property
    def _duals(self) -> dict:
        return {lam: complement(lam, self) for lam in self.basis}

    @cached_property
    def basis(self) -> tuple:
        """All partitions fitting the box, by weight and then
        reverse-lexicographically: the one order of the Schubert basis."""
        return tuple(sorted(map(Partition, _partitions_in_box(self.k, self.cols)), key=grlex_key))

    def curve_classes(self, d_max: int):
        """Curve classes of degree at most d_max."""
        return range(d_max + 1)

    def splittings(self, d: int) -> list:
        """All (e, f) with e + f = d."""
        return [(e, d - e) for e in range(d + 1)]


class Partition(tuple):
    """A partition: the tuple of its parts, a weakly decreasing run of
    non-negative ints with trailing zeros stripped.  It equals, and hashes
    like, that tuple."""

    __slots__ = ()

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        p = tuple(parts)
        if not (all(isinstance(x, int) for x in p) and all(a >= b for a, b in zip(p, p[1:]))
                and (not p or p[-1] >= 0)):
            raise ValueError(f"not a partition: {list(p)}")
        while p and not p[-1]:
            p = p[:-1]
        return super().__new__(cls, p)

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self):
        return text_form(self)

    def fits(self, box: BoxSpec) -> bool:
        return len(self) <= box.k and (not self or self[0] <= box.cols)

    def padded(self, k: int) -> tuple[int, ...]:
        return self + (0,) * (k - len(self))


EMPTY = Partition()


def grlex_key(lam: Partition):
    """Sort key: by weight, then reverse-lexicographically on parts."""
    return (lam.weight, tuple(-p for p in lam))


def text_form(lam: Partition) -> str:
    """Canonical text form, e.g. "[2,1]"; the empty partition is "[]"."""
    return "[" + ",".join(map(str, lam)) + "]"


def parse_partition(text: str) -> Partition:
    """Read the text form: each part is ASCII digits ([0-9]+), with
    whitespace allowed around it.  int() alone would also read a sign, an
    underscore or a digit of another script."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"expected bracketed partition, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return EMPTY
    parts = [t.strip() for t in inner.split(",")]
    if not all(t.isascii() and t.isdigit() for t in parts):
        raise ValueError(f"not a partition: {text}")
    return Partition(map(int, parts))


def _partitions_in_box(rows: int, cols: int):
    if rows == 0:
        yield ()
        return
    for first in range(cols, -1, -1):
        for rest in _partitions_in_box(rows - 1, first):
            yield (first,) + rest


def box_partitions(box: BoxSpec) -> list[Partition]:
    """All partitions fitting the k x (n-k) box: box.basis as a list."""
    return list(box.basis)


def complement(lam: Partition, box: BoxSpec) -> Partition:
    """The complementary partition in the box: an involution pairing
    Poincare-dual Schubert classes."""
    if not lam.fits(box):
        raise ValueError(f"{lam} does not fit {box.k}x{box.cols} box")
    padded = lam.padded(box.k)
    return Partition(box.cols - padded[box.k - 1 - i] for i in range(box.k))


@functools.cache
def schur_polynomial(lam: Partition, k: int) -> MappingProxyType:
    """The Schur polynomial S_lam(H_1, ..., H_k) as {exponent vector: coeff}.

    Computed by the branching rule
        S_lam(x_1, ..., x_k) = sum_mu x_k^(|lam| - |mu|) S_mu(x_1, ..., x_{k-1}),
    summed over the mu with k - 1 parts that interlace lam
    (lam_{i+1} <= mu_i <= lam_i), from S_lam(x_1) = x_1^|lam|.  Every
    coefficient is a Kostka number, a count of tableaux, so nothing
    cancels.  Every lift and every Littlewood-Richardson expansion reads
    these, so each (lam, k) is computed once and shared, and the memo also
    holds the (mu, j < k) entries of the recursion; the mapping is
    read-only, so a caller that tries to change a shared value gets a
    TypeError.
    """
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} parts")
    if not lam:
        return MappingProxyType({(0,) * k: 1})
    if k == 1:
        return MappingProxyType({(lam[0],): 1})
    padded = lam.padded(k)
    weight = lam.weight
    out: dict[tuple[int, ...], int] = {}
    for mu in itertools.product(*(range(padded[i + 1], padded[i] + 1) for i in range(k - 1))):
        tail = (weight - sum(mu),)
        for e, c in schur_polynomial(Partition(mu), k - 1).items():
            e += tail
            out[e] = out.get(e, 0) + c
    return MappingProxyType(out)


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def lifts(d: int, k: int) -> list[tuple[int, ...]]:
    """All multidegrees (d_1, ..., d_k) with nonnegative entries summing to d."""
    if d < 0:
        return []
    if k == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out.extend((first,) + rest for rest in lifts(d - first, k - 1))
    return out


def multidegree_text(d: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in d) + ")"


def epsilon(d: int, k: int) -> int:
    """Parity exponent of the Novikov specialization Q_i -> (-1)^(k-1) Q.

    This is (k-1)*d mod 2; it is additive in d, so the sign factors over
    any splitting of a curve class.
    """
    return ((k - 1) * d) % 2


def _hook_sign(height: int, k: int, rule: str) -> int:
    if rule == "k_minus_height":
        return -1 if (k - height) % 2 else 1
    if rule == "height_minus_one":
        return -1 if (height - 1) % 2 else 1
    raise ValueError(f"unknown sign rule {rule!r}")


def rim_hook_reduce(lam: Partition, box: BoxSpec, rule: str = None, _choose=None):
    """Quantum reduction: strip rim hooks of size n until lam fits the box.

    Works on the shifted exponents beta_i = lam_i + k - i (the abacus
    model); removing an n-hook subtracts n from one beta, which is legal
    only when the target value is free.  Each removal contributes one
    power of the Novikov variable and a sign depending on the hook height
    (the number of occupied betas jumped over, plus one).  The outcome is
    independent of removal order; _choose overrides the default pick of
    the largest movable beta (used by the confluence test only).

    Returns (sign, q_power, reduced) where reduced is None when no legal
    removal sequence lands in the box (the class is annihilated).
    """
    if rule is None:
        rule = RIM_HOOK_SIGN_RULE
    k, n = box.k, box.n
    if len(lam) > k:
        raise ValueError(f"{lam} has more than {k} parts")
    betas = set(lam.padded(k)[i] + (k - 1 - i) for i in range(k))
    sign, q_power = 1, 0
    while True:
        movable = [b for b in sorted(betas, reverse=True) if b >= n and b - n not in betas]
        if not movable:
            if max(betas) >= n:
                return (1, q_power, None)
            break
        b = movable[0] if _choose is None else _choose(movable)
        height = 1 + sum(1 for x in betas if b - n < x < b)
        sign *= _hook_sign(height, k, rule)
        q_power += 1
        betas.remove(b)
        betas.add(b - n)
    ordered = sorted(betas, reverse=True)
    reduced = Partition(ordered[i] - (k - 1 - i) for i in range(k))
    return (sign, q_power, reduced)


def binomial_fraction(a: int, b: int) -> Fraction:
    """binom(a, b) for possibly negative a, as an exact Fraction."""
    if b < 0:
        return Fraction(0)
    num = 1
    for i in range(b):
        num *= a - i
    den = 1
    for i in range(1, b + 1):
        den *= i
    return Fraction(num, den)
