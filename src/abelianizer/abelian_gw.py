"""Genus-zero Gromov-Witten invariants of products of projective spaces.

On both (P^{n-1})^k and Gr(k, n) an m-point invariant of curve class d
vanishes unless its insertion codimensions add up to virtual_dim = dim +
c_1(d) + m - 3.  On the product the product formula (Kontsevich-Manin,
q-alg/9502009) sharpens this factor by factor: with ex_i = (sum of the
marks' exponents of H_i) - (n - 1) - n d_i, an invariant with m >= 3 marks
is 0 unless 0 <= ex_i <= m - 3 for every i and ex_i = 0 wherever d_i = 0
(a degree-0 factor gives a class in H^0(M-bar_{0,m})), and at m = 3 it is
then 1 (three_point, from the small quantum ring, is the reference).
kunneth_allows is this rule; _gw applies it before the store, so no
3-mark or forbidden key is looked up, reconstructed or stored.  For
classes it makes a 3-mark bracket <A, B, C>_d the coefficient of
prod_i H_i^(n-1+n d_i) in the product A B C, and with the divisor axiom a
2-mark one a coefficient of A B (gw_of_classes), so neither is expanded
term by term.  With four or more marks a factor with d_i = 0 contributes
only its classical integral (Behrend, alg-geom/9710014), which is 1 for
monomial marks that kunneth_allows passes; so _gw reads such a key on the
factors P with d_i > 0, a key of (P^{n-1})^|P|.  gw_of_classes multiplies
its classes out once into P-parts and summed Z-exponents (Z the factors
with d_i = 0) and reads one such key per multiset of P-parts whose
Z-exponents end at n - 1.  The store so holds keys with every d_i > 0 and
k' = |P| <= k factors; at d <= 1 they are keys of P^{n-1}, shared by
every k.

A key with 4 or 5 marks, k' >= 2 factors and no fundamental-class mark
is computed in closed form from P^{n-1} data (_kunneth).  By the product
formula the invariant is the integral over M-bar_{0,m} of the cup product
of the factors' classes, factor i's in H^(2 ex_i)(M-bar_{0,m}), and the
ex_i add up to m - 3 = dim M-bar_{0,m}.  The class of a factor with
ex_i = 0 is a number times 1, its value at the point 12|34 (m = 4) or
12|5|34 (m = 5): by the splitting axiom, a sum over degree splittings of
products of 3-point invariants of P^{n-1}, each 1 iff its exponents add
up to n - 1 + n e, all < n.  That number is 1.  At 12|34 the vertex
<c_1, c_2, mu>_e holds only at e = (c_1 + c_2) // n, at most 1 and so at
most d_i, with mu^dual = H^((c_1 + c_2) % n), and <mu^dual, c_3, c_4>_f
then holds since ex_i = 0; at 12|5|34 likewise with e + g =
(c_1 + c_2 + c_5) // n, which ex_i = 0 keeps at most d_i.  So
- one factor has ex_i = m - 3: the value is its own m-mark invariant of
  P^{n-1}, a k = 1 key;
- m = 5 and two factors have ex_i = 1: the value pairs their H^2
  classes.  A class is known by its degrees on the boundary divisors
  D_ab, each the sum over splittings of <c_a, c_b, mu>_e
  <mu^dual, the other three>_f, whose 4-mark factor is a k = 1 key
  (_boundary_degrees).  On H^2(M-bar_{0,5}) (Keel, Trans. AMS 330, 1992)
  D_ab.D_ab = -1, D_ab.D_cd = 1 for disjoint pairs and 0 for pairs that
  share a mark.  The Gram matrix G of D_12, D_13, D_14, D_15, D_23 has
  determinant 1, so the pairing a^T G^-1 b of two classes' degree
  vectors on them is an integer.
The other keys, those of P^{n-1} and those of 6 or more marks, are
reconstructed through the divisor relation and the associativity (WDVV)
constraints of the big quantum product.  Every computed key is stored,
by either route, with exact memoization.

WDVV bookkeeping.  For basis elements u, v, x, y, a background multiset B
and a curve class d, put

    E(u, v | x, y) = sum over sub-multisets S of B (T = B - S), e + f = d
                     and basis elements mu of
                     w(S)  <u, v, S, mu>_e  <mu^dual, x, y, T>_f

(mu^dual the Poincare dual; w(S) = prod_j comb(m_j, s_j), for a class
taken s_j times out of its m_j copies in B, counts the ways to pick S out
of B by position).  Associativity says E(u,v|x,y) is symmetric under
swapping v and x.  Degree-0 invariants with >= 4 marks vanish, so on each
side the only degree-0 contributions are the classical triple products at
e=0, S=empty (resp. f=0, T=empty), which contract to a cup product on the
other factor.  Extracting those ends from both sides of
E(H_i, g' | x1, x2) = E(H_i, x1 | g', x2) and removing the loose divisor
H_i by the divisor axiom yields, for a target insertion g = H_i g':

    <H_i g', x1, x2, B>_d = <H_i x1, g', x2, B>_d
                            + d_i <x1, B, g' x2>_d - d_i <g', B, x1 x2>_d
                            + P(H_i, x1 | g', x2) - P(H_i, g' | x1, x2)

with P the sum of proper splittings (e and f both nonzero).  A step takes
a key with every d_i > 0, so each column has three positive entries or
more, and marks g = H_i g' and x1 with x1_i >= g_i (_factoring).  The hop
term <H_i x1, g', x2, B>_d then raises the sum of squared exponents by
2 (x1_i - g_i) + 2 > 0, and the other terms have fewer marks or a lower
degree: (total degree, marks, minus that sum) drops at every step, and no
key can reach itself.

E is computed in one place, wdvv_contraction, for the potential of any
space that supplies dim, c1_degree, dual and basis_of_codim: this module's
ProductSpace and the Grassmannian's BoxSpec alike.  P is E over the proper
splittings; the checks on both sides enumerate their identities with
wdvv_identities and compare the three contractions, as wdvv_sides
evaluates them, with wdvv_failures.  check_wdvv skips an identity of
m = 4 + |B| marks that fails the rule with m - 4 in place of m - 3,
decided once per (column sums of the quad, B, d), since the rule reads
only column sums.  The skip is exact: in a term
<u, v, S, mu>_e <mu^dual, x, y, T>_f the factors' ex_i add up to the
identity's (mu, mu^dual add n - 1 on each factor), their bounds |S| and
|T| add up to m - 4, and e_i = f_i = 0 where d_i = 0, so every term has a
factor that _gw answers 0 without the store.  A kept identity with a
factor of degree 0, but d != 0, is evaluated as its projection onto the
factors of positive degree, which has the same sides.

A contraction reads its left factors as half-contractions
{mu: <u, v, mu, S>_e}, and its right factors <mu^dual, x, y, T>_f from one
entry per (x, y, T, f) that holds them only at the mu read so far, those
whose left factor is nonzero.  Both live in a dict that its caller owns:
wdvv_sides keeps one per space for the whole check, so every side of
every identity on that space shares them and each right factor is read
once per check, and each WDVV step keeps its own.  Neither outlives its
caller, so no factor read from one store is used against another.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
import threading
from collections import Counter
from fractions import Fraction

from . import sparse
from .cohomology import PClass, ProductSpace, cup, integrate, monomial

Mono = tuple  # exponent vector of a basis monomial


class CacheFormatError(RuntimeError):
    """Raised when a cache file cannot be read: a malformed or conflicting
    entry, or (as CacheVersionError) the wrong version header."""


class CacheVersionError(CacheFormatError):
    """Raised when loading a cache file with the wrong version header."""


class CacheConsistencyError(RuntimeError):
    """Raised when a recomputed invariant disagrees with the stored value."""


class MemoStore:
    """Exact cache of monomial Gromov-Witten invariants, optionally disk-backed.

    Keys are (k, n, multidegree, sorted insertion monomials).  Inserts are
    idempotent: re-putting a key checks exact equality.  Reads are lock-free;
    writes are serialized, so concurrent duplicated computation is safe.

    brackets holds the lifted Grassmannian brackets derived from these
    invariants (correspondence.i_bracket), and tables the contracted child
    brackets of correction formulas (correspondence.evaluate_formula), so
    that they die with the store and never outlive a corrupted one.
    """

    VERSION = "abelian-gw-cache v1"

    def __init__(self):
        self.data: dict[tuple, int] = {}
        self.hits = 0
        self.misses = 0
        self.brackets: dict = {}
        self.tables: dict = {}
        self._lock = threading.Lock()
        # (absolute path, file stamp) of the cache file last loaded or saved,
        # and whether the store may hold a key that file lacks
        self._synced = None
        self._changed = False

    def __len__(self):
        return len(self.data)

    def get(self, key):
        val = self.data.get(key)
        if val is None:
            self.misses += 1
        else:
            self.hits += 1
        return val

    def put(self, key, value: int):
        with self._lock:
            old = self.data.get(key)
            if old is None:
                self.data[key] = value
                self._changed = True
            elif old != value:
                raise CacheConsistencyError(f"{key}: stored {old}, recomputed {value}")

    def stats(self) -> dict:
        return {"entries": len(self.data), "hits": self.hits, "misses": self.misses}

    @staticmethod
    def key_text(key, pieces=None) -> str:
        """k,n|d_1,...,d_k|e.e;e.e;... for the key (k, n, d, insertions).

        pieces, a pair of dicts kept across calls, holds the text of each
        multidegree and of each monomial already formatted; a store has a
        few dozen of them.
        """
        commas, dots = pieces or ({}, {})
        k, n, d, ins = key
        ins_text = ";".join([_piece_text(dots, m, ".") for m in ins])
        return f"{k},{n}|{_piece_text(commas, d, ',')}|{ins_text}"

    @staticmethod
    def parse_key_text(text: str, pieces=None):
        """The key whose key_text is text; ValueError on a number other than
        ASCII digits ([0-9]+) or an exponent >= n.  pieces, a pair of dicts
        kept across calls, holds each comma- and (by n) dot-separated piece
        of text already parsed."""
        commas, dots = pieces or ({}, {})
        head, dpart, ipart = text.split("|")
        k, n = _parse_piece(commas, head, ",")
        d = _parse_piece(commas, dpart, ",")
        monomials = dots.setdefault(n, {})
        ins = tuple([_parse_piece(monomials, m, ".", n) for m in ipart.split(";")]) if ipart else ()
        return (k, n, d, ins)

    def save(self, path):
        """Write the store to path: the header, then one line per entry,
        sorted by key text.

        A store that added no key since it loaded or saved this file leaves
        the file untouched.  Otherwise, when the file changed since the
        store last read or wrote it (or the store never did), its entries
        are read in first, so that two writers keep each other's.  Nothing
        locks the file: a writer that saves between that read and the
        rename below is still lost.
        """
        target = os.path.abspath(path)
        try:
            stamp = _file_stamp(os.stat(path))
        except FileNotFoundError:
            stamp = None
        if stamp is not None:
            if not self._changed and self._synced and self._synced[0] == target:
                return
            if self._synced != (target, stamp):
                self.load(path)
        with self._lock:
            items = list(self.data.items())
            self._changed = False
        pieces = ({}, {})
        # sorting whole lines sorts by key text: the tab sorts below every
        # character of a key
        lines = sorted([f"{self.key_text(key, pieces)}\t{v.numerator}/{v.denominator}"
                        for key, v in items])
        # write a sibling file and rename it over the target, so that a
        # reader never sees a half-written cache
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.write("\n".join([self.VERSION, *lines]) + "\n")
                fh.flush()
                stamp = _file_stamp(os.fstat(fh.fileno()))
            os.replace(tmp, path)
        except BaseException:
            self._changed = True
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        self._synced = (target, stamp)

    def load(self, path):
        """Read the entries of the cache file at path.

        An entry that _closed_form settles (files written before the
        Kunneth filter hold them) is checked against it and dropped, one
        with a factor of degree 0 (before 0.12.0) is read on the other
        factors, as _gw reads it, and the next save rewrites the file so.

        Raises CacheVersionError on a wrong header, and CacheFormatError on a
        path that is a directory or a file that is not UTF-8 text, on a
        malformed entry (a key number other than ASCII digits, a value other
        than -?[0-9]+/[0-9]+, k < 1, n < 2, a multidegree or a mark of other
        than k entries, an exponent >= n, fewer than 3 marks, or, on a key
        kept as it stands, marks not in the descending order of every
        computed key), on a non-integral value, and on an entry that
        contradicts the product formula, another entry or this store; the
        store is then unchanged.
        """
        try:
            with open(path) as fh:
                stamp = _file_stamp(os.fstat(fh.fileno()))
                header, _, body = fh.read().partition("\n")
        except (UnicodeDecodeError, IsADirectoryError) as exc:
            raise CacheFormatError(f"{path}: not a cache file: {exc}") from None
        if header != self.VERSION:
            raise CacheVersionError(f"expected {self.VERSION!r}, found {header!r}")
        entries, pieces, values, dropped = {}, ({}, {}), {}, False
        for lineno, line in enumerate(body.split("\n"), start=2):
            if not line:
                continue
            try:
                key_text, val_text = line.split("\t")
                key = self.parse_key_text(key_text, pieces)
                k, n, d, ins = key
                if k < 1 or n < 2 or len(d) != k or len(ins) < 3 or any(len(m) != k for m in ins):
                    raise ValueError(key)
                value = values.get(val_text)
                if value is None:
                    match = _VALUE.fullmatch(val_text)
                    if match is None:
                        raise ValueError(val_text)
                    value = Fraction(int(match[1]), int(match[2]))
                    # every invariant of (P^{n-1})^k is an integer, kept as
                    # the int a computation stores
                    if value.denominator != 1:
                        raise CacheFormatError(f"{path}:{lineno}: non-integral value {line!r}")
                    value = values[val_text] = value.numerator
            except (ValueError, ZeroDivisionError):
                raise CacheFormatError(f"{path}:{lineno}: malformed entry {line!r}") from None
            closed = _closed_form(n, ins, d)
            if closed is not None:
                if value != closed:
                    raise CacheFormatError(
                        f"{path}:{lineno}: wrong entry: {key}: {value}, the product formula gives {closed}")
                dropped = True
                continue
            if 0 in d:
                d, ins = _positive_part(d, ins)
                key, dropped = (len(d), n, d, ins), True
            elif ins != tuple(sorted(ins, reverse=True)):
                # kept as it stands, it would be a second key of one invariant
                raise CacheFormatError(f"{path}:{lineno}: malformed entry {line!r}")
            old = entries.setdefault(key, value)
            # one value per value text, so a repeat is the same object
            if old is not value and old != value:
                raise CacheFormatError(
                    f"{path}:{lineno}: conflicting entry: {key}: {old} earlier, {value} here")
        with self._lock:
            for key, value in entries.items():
                old = self.data.get(key)
                if old is not None and old != value:
                    raise CacheFormatError(
                        f"{path}: conflicting entry: {key}: {value} in the file, {old} in the store")
            self.data.update(entries)
            self._changed = dropped or len(self.data) > len(entries)
            self._synced = (os.path.abspath(path), stamp)
        return self


def _file_stamp(st) -> tuple:
    # what changes when a writer replaces the file or rewrites it in place
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def _piece_text(memo: dict, ints: tuple, sep: str) -> str:
    text = memo.get(ints)
    if text is None:
        text = memo[ints] = sep.join(map(str, ints))
    return text


# the number grammar of a cache file: ASCII digits, and a sign only on a
# value's numerator
_NUMBER = re.compile(r"[0-9]+")
_VALUE = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _parse_piece(memo: dict, text: str, sep: str, bound=None) -> tuple:
    ints = memo.get(text)
    if ints is None:
        fields = text.split(sep)
        if not all(map(_NUMBER.fullmatch, fields)):
            raise ValueError(text)
        ints = tuple([int(x) for x in fields])
        if bound is not None and max(ints) >= bound:
            raise ValueError(text)
        memo[text] = ints
    return ints


def small_quantum_product(a: PClass, b: PClass) -> dict[tuple, PClass]:
    """Product in the small quantum ring of (P^{n-1})^k.

    The ring is tensor_i Q[H_i, Q_i]/(H_i^n - Q_i): each exponent reduces as
    H_i^e = Q_i^(e // n) H_i^(e mod n).  Returns {multidegree: coefficient
    class}.
    """
    if a.space != b.space:
        raise ValueError("mismatched spaces")
    space = a.space
    n = space.n
    acc: dict[tuple, dict] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            q = tuple(x // n for x in e)
            r = tuple(x % n for x in e)
            bucket = acc.setdefault(q, {})
            bucket[r] = bucket.get(r, 0) + ca * cb
    return {q: PClass(space, terms) for q, terms in acc.items() if any(terms.values())}


def three_point(a: PClass, b: PClass, c: PClass, d: tuple) -> Fraction:
    """<a, b, c>_{0,3,d} from the small quantum ring and the classical pairing."""
    d = tuple(d)
    if any(x < 0 for x in d):
        return Fraction(0)
    coeff = small_quantum_product(a, b).get(d)
    if coeff is None:
        return Fraction(0)
    return Fraction(integrate(cup(coeff, c)))


def _factoring(ins):
    """(i, g', x1, others), x2 first in others, for the WDVV step on ins: the
    pivot H_i g' is the mark with the least positive exponent on any factor
    (first factor and mark of a tie), x1 one with the largest on i, so
    x1_i >= (H_i g')_i > 0.  The values do not depend on which such rule
    picks the pivot."""
    k = len(ins[0])
    _, i, j = min((g[i], i, j) for i in range(k) for j, g in enumerate(ins) if g[i])
    pivot, rest = ins[j], ins[:j] + ins[j + 1:]
    x1 = max(rest, key=lambda e: e[i])
    others = _remove_one(rest, x1)
    return i, tuple(x - (j == i) for j, x in enumerate(pivot)), x1, others


def _mono_cup(a: Mono, b: Mono, n: int):
    e = tuple(x + y for x, y in zip(a, b))
    return None if any(x >= n for x in e) else e


def gw_invariant(space: ProductSpace, insertions, d, store: MemoStore) -> Fraction:
    """Genus-zero primary invariant of (P^{n-1})^k with basis-monomial insertions.

    insertions are exponent tuples (since version 0.10.0; a PClass goes
    through gw_of_classes).  Values are computed in int and asserted
    integral (the metric is a permutation on the monomial basis, so no
    denominators can survive); the result is handed out as a Fraction, like
    every rational value of the package.

    d and every mark must have space.k entries, and no exponent may be
    negative; otherwise ValueError, before the store is read or written.
    An exponent >= n is allowed and gives 0, since H^n = 0, also before the
    store.
    """
    d = tuple(d)
    monos = sorted((tuple(int(x) for x in ins) for ins in insertions), reverse=True)
    if len(d) != space.k or any(len(e) != space.k or min(e) < 0 for e in monos):
        raise ValueError(f"need a multidegree of {space.k} entries and marks of {space.k} "
                         f"nonnegative entries, got d={d}, marks={monos}")
    if any(max(e) >= space.n for e in monos):
        return Fraction(0)
    return Fraction(_gw(space, tuple(monos), d, store))


def _gw(space, ins, d, store) -> int:
    if min(d) < 0:
        return 0
    if len(ins) < 3:
        if any(d) and sum(map(sum, ins)) == virtual_dim(space, d, len(ins)):
            raise ValueError("invariants with fewer than 3 marks go through two_point")
        return 0  # off the dimension rule, or unstable at degree 0
    closed = _closed_form(space.n, ins, d)
    if closed is not None:
        return closed
    if 0 in d:
        d, ins = _positive_part(d, ins)  # m >= 4, so some d_i > 0
    key = (len(d), space.n, d, ins)
    cached = store.get(key)
    if cached is not None:
        return cached
    if len(d) != space.k:
        space = ProductSpace(len(d), space.n)

    if any(sum(e) == 0 for e in ins):
        value = 0  # fundamental-class axiom; here d != 0, since m >= 4
    elif len(d) > 1 and len(ins) < 6:
        value = _kunneth(space, ins, d, store)  # 4 or 5 marks, k' >= 2
    else:
        div = next((e for e in ins if sum(e) == 1), None)
        if div is not None:
            value = d[div.index(1)] * _gw(space, _remove_one(ins, div), d, store)
        else:
            value = _wdvv_step(space, ins, d, store)

    if value.denominator != 1:
        raise ArithmeticError(f"non-integral invariant {value} for {key}")
    store.put(key, value)
    return value


def _positive_part(d, ins):
    """(d, ins) on the factors with d_i > 0; for marks kunneth_allows passes
    the others' columns add up to n - 1, so they integrate to 1."""
    cols = itertools.compress(zip(*ins), d)
    return tuple(itertools.compress(d, d)), tuple(sorted(zip(*cols), reverse=True))


def kunneth_allows(n: int, marks, d, excess: int) -> bool:
    """Whether the product formula lets the monomial marks on (P^{n-1})^k at
    multidegree d give a nonzero invariant (excess = len(marks) - 3) or a
    WDVV identity with a nonzero side (excess = len(marks) - 4): no ex_i
    (see the module docstring) is negative, ex_i = 0 where d_i = 0, and
    they add up to excess, which is the dimension rule (virtual_dim)."""
    top = n - 1
    total = 0
    for col, di in zip(zip(*marks), d):
        ex = sum(col) - top - n * di
        if ex < 0 or (ex and not di):
            return False
        total += ex
    return total == excess


def _closed_form(n: int, ins, d):
    """<ins>_d on (P^{n-1})^k, m >= 3 marks, where the product formula
    gives it: 0 if kunneth_allows forbids it, else 1 at m = 3; None when it
    takes reconstruction."""
    if not kunneth_allows(n, ins, d, len(ins) - 3):
        return 0
    return 1 if len(ins) == 3 else None


def _remove_one(ins: tuple, item) -> tuple:
    idx = ins.index(item)
    return ins[:idx] + ins[idx + 1 :]


# D_12, D_13, D_14, D_15, D_23 on M-bar_{0,5} (marks counted from 0), and the
# inverse of their Gram matrix, which has determinant 1
_DIVISORS5 = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2))
_GRAM5_INVERSE = (
    (-1, 0, 0, 0, 0),
    (0, -1, 0, 0, 0),
    (0, 0, 0, 1, 1),
    (0, 0, 1, 0, 1),
    (0, 0, 1, 1, 1),
)


def _kunneth(space, ins, d, store) -> int:
    """<ins>_d for 4 or 5 marks on (P^{n-1})^k, k >= 2, every d_i > 0 and no
    fundamental-class mark, by the product formula on M-bar_{0,m} (see the
    module docstring); the k = 1 invariants it needs are read through _gw."""
    n = space.n
    line = ProductSpace(1, n)

    def read(marks, e):
        return _gw(line, tuple(sorted([(x,) for x in marks], reverse=True)), (e,), store)

    # the factors with ex_i > 0; the class of every other factor is 1
    raised = [(col, di) for col, di in zip(zip(*ins), d) if sum(col) > n - 1 + n * di]
    if len(raised) == 1:
        return read(*raised[0])
    a, b = (_boundary_degrees(n, col, di, read) for col, di in raised)
    return sum([a[r] * g * b[s] for r, row in enumerate(_GRAM5_INVERSE) for s, g in enumerate(row) if g])


def _boundary_degrees(n: int, col, d: int, read) -> list:
    """The degrees on the divisors of _DIVISORS5 of one factor's class in
    H^2(M-bar_{0,5}), for its exponents col = (c_1, ..., c_5) at degree d:
    on D_ab the sum over e + f = d and mu of <c_a, c_b, mu>_e
    <mu^dual, the other three>_f on P^{n-1}.  The 3-point factor is 1 iff
    c_a + c_b + mu = n - 1 + n e with mu < n, so only at
    e = (c_a + c_b) // n <= 1 <= d, where mu^dual = H^((c_a + c_b) % n)."""
    degrees = []
    for a, b in _DIVISORS5:
        rest = [c for j, c in enumerate(col) if j != a and j != b]
        s = col[a] + col[b]
        degrees.append(read((s % n, *rest), d - s // n))
    return degrees


def _wdvv_step(space, ins, d, store) -> int:
    n = space.n
    i, gprime, x1, others = _factoring(ins)
    x2, back = others[0], others[1:]
    h_i = _unit_vec(space.k, i)

    total = 0

    hop = _mono_cup(h_i, x1, n)
    if hop is not None:
        total += _gw(space, tuple(sorted((*others, hop, gprime), reverse=True)), d, store)

    a_cup = _mono_cup(gprime, x2, n)
    if a_cup is not None:
        new_ins = tuple(sorted(back + (x1, a_cup), reverse=True))
        total += d[i] * _gw(space, new_ins, d, store)
    c_cup = _mono_cup(x1, x2, n)
    if c_cup is not None:
        new_ins = tuple(sorted(back + (gprime, c_cup), reverse=True))
        total -= d[i] * _gw(space, new_ins, d, store)

    value = _reader(space, store)
    # P(u, v | x, y): the contraction over proper splittings only
    proper = [(e, f) for e, f in space.splittings(d) if any(e) and any(f)]
    subs, halves = sub_multisets(back), {}
    total += wdvv_contraction(space, h_i, x1, gprime, x2, subs, proper, value, halves)
    total -= wdvv_contraction(space, h_i, gprime, x1, x2, subs, proper, value, halves)
    return total


def _reader(space, store):
    """The value(marks, d) that a WDVV contraction reads: the invariant of
    space through _gw, with the marks sorted into the order of its keys."""
    return lambda marks, d: _gw(space, tuple(sorted(marks, reverse=True)), d, store)


def _unit_vec(k: int, i: int) -> Mono:
    return tuple(1 if j == i else 0 for j in range(k))


def sub_multisets(back) -> list:
    """[(S, T, w)] over the sub-multisets S of the background back, with
    T = back - S and w = prod_j comb(m_j, s_j) the number of position
    subsets of back that give S (class j occurs m_j times in back, s_j
    times in S).  S and T list equal classes together, in the order they
    first occur in back."""
    classes = list(Counter(back).items())
    subs = []
    for chosen in itertools.product(*(range(m + 1) for _, m in classes)):
        S, T, weight = [], [], 1
        for (b, m), s in zip(classes, chosen):
            S += [b] * s
            T += [b] * (m - s)
            weight *= math.comb(m, s)
        subs.append((tuple(S), tuple(T), weight))
    return subs


def wdvv_contraction(space, u, v, x, y, subs, splits, value, halves):
    """E(u, v | x, y) restricted to the degree splits (e, f) in splits.

    Sums w * value((u, v, mu) + S, e) * value((mu^dual, x, y) + T, f) over
    the (S, T, w) of subs (sub_multisets of the background), over (e, f) in
    splits and over the basis elements mu of the one codimension the
    dimension constraint of the left factor allows.  The codimension of a
    basis element is the sum of its entries (exponents of a monomial, parts
    of a partition); space supplies dim, c1_degree, dual and basis_of_codim.

    Both factors come from halves, a dict filled here on first use and kept
    by the caller.  It maps (u, v, S, e) to the half-contraction, the
    nonzero {mu: value((u, v, mu) + S, e)}, and ("right", x, y, T, f) to
    the right factors {mu: value((mu^dual, x, y) + T, f)} read so far.  A
    right factor is evaluated only where the left one is nonzero, and once
    per check or step however many contractions share it.
    """
    total = 0
    for S, T, weight in subs:
        part = 0
        for e, f in splits:
            half = halves.get((u, v, S, e))
            if half is None:
                half = _half_contraction(space, u, v, S, e, value)
                halves[(u, v, S, e)] = halves[(v, u, S, e)] = half
            if not half:
                continue
            rights = halves.get(("right", x, y, T, f))
            if rights is None:
                rights = halves[("right", x, y, T, f)] = halves[("right", y, x, T, f)] = {}
            for mu, left in half.items():
                right = rights.get(mu)
                if right is None:
                    right = rights[mu] = value((space.dual(mu), x, y) + T, f)
                if right:
                    part += left * right
        if part:
            total += weight * part
    return total


def _half_contraction(space, u, v, S, e, value) -> dict:
    # the left factor's dimension rule fixes the codimension of mu
    codim = virtual_dim(space, e, 3 + len(S)) - sum(u) - sum(v) - sum(map(sum, S))
    half = {}
    for mu in space.basis_of_codim(codim):
        left = value((u, v, mu) + S, e)
        if left:
            half[mu] = left
    return half


def virtual_dim(space, d, m: int) -> int:
    """dim + c_1(d) + m - 3 on a ProductSpace or a BoxSpec: an m-point invariant
    of curve class d vanishes unless its insertion codimensions add up to it."""
    return space.dim + space.c1_degree(d) + m - 3


def admissible_tuples(space, m: int, d_max: int):
    """Yield (combo, d) for every multiset combo of m basis elements and
    curve class d of degree at most d_max that pass the dimension rule
    (virtual_dim).  The combos come in combinations_with_replacement order
    over space.basis, each followed by its curve classes in curve_classes
    order."""
    degrees = [(d, virtual_dim(space, d, m)) for d in space.curve_classes(d_max)]
    for combo in itertools.combinations_with_replacement(space.basis, m):
        codim = sum(map(sum, combo))
        for d, needed in degrees:
            if codim == needed:
                yield combo, d


def _pairs_by_codim(space, d_max: int, n_marks_max: int) -> dict:
    """{c: [(back, d)]}: the backgrounds back of at most n_marks_max - 4
    basis elements and curve classes d of degree at most d_max that make an
    identity with every quad of codimension c, in wdvv_identities order."""
    # the codimensions of quad and back add up to virtual_dim(space, d,
    # 3 + |back|): each background mark adds one to the rule at 3 marks
    degrees = [(d, virtual_dim(space, d, 3)) for d in space.curve_classes(d_max)]
    pairs = {}
    for size in range(n_marks_max - 3):
        for back in itertools.combinations_with_replacement(space.basis, size):
            excess = sum(map(sum, back)) - size
            for d, needed in degrees:
                pairs.setdefault(needed - excess, []).append((back, d))
    return pairs


def wdvv_identities(space, d_max: int, n_marks_max: int):
    """Yield the associativity identities within bounds as (quad, back, d).

    quad is a multiset of four basis elements, back a background multiset
    of at most n_marks_max - 4 more, d a curve class of degree at most
    d_max; only identities that pass the dimension rule are yielded, and
    none when n_marks_max < 4.  The quads come in
    combinations_with_replacement order over space.basis, and each with the
    (back, d) pairs of its codimension, built once per codimension: the
    backgrounds by size and then in combinations_with_replacement order,
    each followed by its curve classes in curve_classes order.

    Each factor <u, v, mu, S>_e of an identity has 3 + |S| <= n_marks_max - 1
    marks, so the identities relate invariants of at most n_marks_max - 1
    marks and never test an n_marks_max-point invariant.
    """
    pairs = _pairs_by_codim(space, d_max, n_marks_max)
    for quad in itertools.combinations_with_replacement(space.basis, 4):
        for back, d in pairs.get(sum(map(sum, quad)), ()):
            yield quad, back, d


class Violations(list):
    """The violations a check found; instances counts what the check looped
    over (for a WDVV check, the identities it drew from wdvv_identities,
    skipped ones included)."""

    instances = 0


def wdvv_sides(space, value):
    """sides(quad, back, d) -> (E(a,b|c,e), E(a,c|b,e), E(a,e|b,c)) on
    space, for quad = (a, b, c, e), with the factors read through value.

    The half-contractions (see wdvv_contraction) live as long as sides, so
    every identity it evaluates shares them; so do the sub-multisets of
    each background and the splits of each degree, built once."""
    halves, subs_of, splits_of = {}, {}, {}

    def sides(quad, back, d):
        a, b, c, e = quad
        if back not in subs_of:
            subs_of[back] = sub_multisets(back)
        if d not in splits_of:
            splits_of[d] = space.splittings(d)
        subs, splits = subs_of[back], splits_of[d]
        return (
            wdvv_contraction(space, a, b, c, e, subs, splits, value, halves),
            wdvv_contraction(space, a, c, b, e, subs, splits, value, halves),
            wdvv_contraction(space, a, e, b, c, subs, splits, value, halves),
        )

    return sides


def wdvv_failures(identities, sides):
    """Yield (quad, back, d, sides(quad, back, d)) for every identity
    (quad, back, d) of identities, as wdvv_identities yields them, whose
    three sides (see wdvv_sides) disagree; the sides are handed out as
    Fractions."""
    for quad, back, d in identities:
        got = sides(quad, back, d)
        if got[0] != got[1] or got[1] != got[2]:
            yield quad, back, d, tuple(map(Fraction, got))


def two_point(space: ProductSpace, a: Mono, b: Mono, d: tuple) -> Fraction:
    """<a, b>_{0,2,d} for d != 0: the 2-mark bracket of the monomials a and
    b by the divisor axiom (_product_bracket).  a and b must be exponent
    vectors of space.k nonnegative entries (else ValueError); one >= n is
    the zero class."""
    d = tuple(d)
    if not any(d):
        raise ValueError("2-point invariants are classical at degree 0; not defined here")
    return Fraction(_product_bracket(space, [monomial(space, a), monomial(space, b)], d))


def gw_of_classes(space: ProductSpace, classes, d: tuple, store: MemoStore):
    """Multilinear extension of gw_invariant to PClass insertions, exact in
    the classes' own coefficients (int for lifts and Delta).

    Two and three marks are coefficients of one product (_product_bracket):
    by the product formula <A, B, C>_d is the coefficient of
    prod_i H_i^(n-1+n d_i) in the product A B C taken without H_i^n = 0, and
    by the divisor axiom <A, B>_d (d != 0) is the coefficient of that
    monomial over H_i in A B, divided by d_i, for the first i with d_i > 0.

    Other arities split off the factors of degree 0.  By the product formula
    a factor i with d_i = 0 contributes only its classical integral: with P
    the factors where d_i > 0 and Z the rest,

        <p_1 z_1, ..., p_m z_m>_d = <p_1, ..., p_m>_{d_P} * int_Z z_1 ... z_m

    with the first bracket on (P^{n-1})^|P|.  The classes are multiplied
    out in order into {(sorted P-parts chosen so far, summed Z-exponents):
    coefficient}, so equal choices merge and choices that cancel drop out;
    an entry with a Z-exponent >= n is dropped (H^n = 0, and exponents only
    grow).  Each entry whose Z-exponents all end at n - 1 reads its
    P-invariant once from the store, with |P| factors; _gw answers an entry
    off the dimension rule 0 before the store.  At d = 0 (no P) the value
    is 0: degree-0 invariants with four or more marks vanish, and fewer
    than two marks are unstable there.  Fewer than two marks give 0 or
    _gw's ValueError.
    """
    d = tuple(d)
    if len(classes) in (2, 3):
        return _product_bracket(space, classes, d)
    if min(d) < 0 or not any(d):
        return 0
    n = space.n
    pos = [i for i, x in enumerate(d) if x]
    zero = [i for i, x in enumerate(d) if not x]
    sub = ProductSpace(len(pos), n)
    d_pos = tuple(d[i] for i in pos)
    top = (n - 1,) * len(zero)
    acc = {((), (0,) * len(zero)): 1}
    for cls in classes:
        terms = [(tuple([e[i] for i in pos]), tuple([e[i] for i in zero]), c) for e, c in cls.terms.items()]
        out = {}
        for (ps, zs), a in acc.items():
            for p, dz, c in terms:
                z = tuple(map(operator.add, zs, dz))
                if max(z, default=0) < n:
                    sparse.add_term(out, (tuple(sorted((*ps, p), reverse=True)), z), a * c)
        acc = out
    return sum([a * _gw(sub, ps, d_pos, store) for (ps, z), a in acc.items() if z == top])


def _coefficient(polys, target):
    """The coefficient of the monomial target in the product of two or more
    polys {exponent vector: coefficient}: all but the largest multiplied
    out, then dotted with it.  Exponents only grow, so H_i^n = 0 would
    truncate no term that meets target, and the product is taken without it."""
    *rest, largest = sorted(polys, key=len)
    prod = functools.reduce(sparse.mul, rest)
    return sum([c * prod.get(tuple(map(operator.sub, target, e)), 0) for e, c in largest.items()])


def _product_bracket(space: ProductSpace, classes, d: tuple):
    """<classes>_d for two or three classes, as one coefficient of their
    product (see gw_of_classes): 0 at a negative multidegree, and at degree
    0 with two marks, where two_point is undefined."""
    two = len(classes) == 2
    if min(d) < 0 or two and not any(d):
        return 0
    n = space.n
    target = [n - 1 + n * x for x in d]
    if two:
        i = next(j for j, x in enumerate(d) if x > 0)
        target[i] -= 1
    total = _coefficient([cls.terms for cls in classes], target)
    # the H_i exponent n - 2 + n d_i of the target is at most 2(n - 1) only
    # at d_i = 1, so a nonzero two-mark value is divided by 1
    return Fraction(total, d[i]) if two else total


def check_wdvv(space: ProductSpace, d_total_max: int, n_marks_max: int, store: MemoStore) -> Violations:
    """Verify associativity constraints for all quadruples of basis monomials
    with backgrounds and degrees within bounds.  Returns the violations, as
    Violations.

    An identity with n_marks_max marks has factors of at most
    n_marks_max - 1 marks (see wdvv_identities), so this checks invariants
    of at most n_marks_max - 1 marks.  An identity that kunneth_allows
    forbids is skipped: every term of it has a factor that _gw answers 0
    without the store, so it reads 0 = 0 = 0 (see the module docstring).
    kunneth_allows reads only the column sums of the marks, so the skip is
    decided once per (column sums of quad, back, d), and only the identities
    kept are drawn; instances still counts every identity of
    wdvv_identities, from the lengths of the (back, d) lists.

    A kept identity with a factor of degree 0, but not d = 0, is evaluated
    as its projection onto the factors P with d_i > 0: the quad's marks
    restricted to P in their order, the background restricted to P and
    sorted, and d restricted to P, on (P^{n-1})^|P|.  That is exact for any
    store, by the product formula: on a factor with d_i = 0 a kept
    identity's columns add up to n - 1, so in every term that _gw does not
    answer 0 without the store, mu is fixed there and both factors' columns
    add up to n - 1 there too, and _gw reads such a factor under the key of
    its projection (_positive_part).  So each side equals the same side of
    the projection.  Many identities share one projection, and its sides
    are computed once per check.  The other identities are evaluated on
    space itself.
    """
    on_space = wdvv_sides(space, _reader(space, store))
    # |P| -> wdvv_sides on (P^{n-1})^|P|; projection -> its sides
    on_factors, projected = {}, {}

    def sides(quad, back, d):
        if all(d) or not any(d):
            return on_space(quad, back, d)

        def on_p(m):
            return tuple(itertools.compress(m, d))

        key = (tuple(map(on_p, quad)), tuple(sorted(map(on_p, back))), on_p(d))
        got = projected.get(key)
        if got is None:
            size = len(key[2])
            if size not in on_factors:
                sub = ProductSpace(size, space.n)
                on_factors[size] = wdvv_sides(sub, _reader(sub, store))
            got = projected[key] = on_factors[size](*key)
        return got

    pairs = _pairs_by_codim(space, d_total_max, n_marks_max)
    # column sums of a quad -> (number of its identities, the (back, d) kept)
    kept_of = {}
    drawn = 0

    def identities():
        nonlocal drawn
        for quad in itertools.combinations_with_replacement(space.basis, 4):
            cols = tuple(map(sum, zip(*quad)))
            entry = kept_of.get(cols)
            if entry is None:
                candidates = pairs.get(sum(cols), ())
                kept = [(back, d) for back, d in candidates
                        if kunneth_allows(space.n, quad + back, d, len(back))]
                entry = kept_of[cols] = (len(candidates), kept)
            drawn += entry[0]
            for back, d in entry[1]:
                yield quad, back, d

    found = Violations(
        {"quad": quad, "background": back, "degree": d, "values": got}
        for quad, back, d, got in wdvv_failures(identities(), sides)
    )
    found.instances = drawn
    return found
