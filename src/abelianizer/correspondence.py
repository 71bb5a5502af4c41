"""The abelian/nonabelian correspondence engine.

Grassmannian invariants are expressed through signed sums of invariants of
the product of projective spaces.  The basic object is the bracket

    I_{n,d}(g_1, ..., g_n) = (-1)^((k-1)d) * sum over multidegree lifts of d
                             of <g_1, ..., g_n> on (P^{n-1})^k,

with insertions of two kinds: Schur lifts, and Schur lifts cupped with
omega, where omega = c * Delta (see cohomology).  omega itself is the
second kind with the empty partition, since S_[] = 1.  Three-point
Grassmannian invariants equal a single bracket; every further insertion is
produced by differentiating that identity in a horizontal frame, which
replaces covariant-derivative insertions by a contraction

    grad_{xi} xi' = - sum_a <<xi, xi', omega, lift(a) omega>> xi_{a^vee}

over the Schubert basis.  Iterating yields a signed sum of bracket trees
(generate_formula); restricting the horizontal fields to the divisor locus
turns every xi into a plain Schur lift, and each tree is contracted from its
leaves up (evaluate_formula).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import grassmannian
from .partitions import BoxSpec, Partition, epsilon, lifts
from .cohomology import (
    PClass,
    add as cls_add,
    bialternant,
    c_squared,
    cup,
    delta,
    lift,
    root_classes,
    scale as cls_scale,
    space_of,
    unit,
)
from .abelian_gw import (
    MemoStore,
    Violations,
    admissible_tuples,
    gw_of_classes,
    small_quantum_product,
    virtual_dim,
    wdvv_failures,
    wdvv_identities,
    wdvv_sides,
)


# ---------------------------------------------------------------------------
# concrete insertions and the signed lifted bracket

class Insertion(NamedTuple):
    """A bracket insertion: the Schur lift of lam, cupped with omega when
    omega is set.  omega alone is the lift of the empty partition times
    omega, since S_[] = 1.  i_bracket realizes omega as Delta and supplies
    the scalars c."""

    lam: Partition
    omega: bool


def Lifted(lam) -> Insertion:
    return Insertion(Partition(lam), False)


def LiftedTimesOmega(lam) -> Insertion:
    return Insertion(Partition(lam), True)


OMEGA = LiftedTimesOmega(Partition())


def i_bracket(insertions, d: int, box: BoxSpec, store: MemoStore, eps_off: bool = False) -> Fraction:
    """The signed lifted bracket I_{n,d} over all multidegree lifts of d.

    Each omega insertion enters as Delta, and the bracket is multiplied
    once by c^2 per pair of them.  A bracket with an odd number of omegas
    vanishes by Weyl anti-invariance (checked, not assumed): its lifts are
    all summed.  With an even number the classes are invariant under S_k,
    which permutes the factors and the entries of a lift alike, so every
    lift in one S_k orbit gives the same value (Martin, math/0001002): the
    sum takes one lift per orbit, the non-increasing one, times the orbit
    size, the multinomial k! / prod_j m_j! over the multiplicities m_j of
    its entries.  eps_off drops the (-1)^((k-1)d) prefactor: the negative
    control for sign tests.
    """
    ins = tuple(sorted(insertions))
    key = (box, ins, d, eps_off)
    value = store.brackets.get(key)
    if value is not None:
        return value
    space = space_of(box)
    omegas = sum(i.omega for i in ins)
    classes = [bialternant(i.lam, box) if i.omega else lift(i.lam, box) for i in ins]
    total = 0
    for dd in lifts(d, box.k):
        if omegas % 2:
            total += gw_of_classes(space, classes, dd, store)
        elif all(a >= b for a, b in zip(dd, dd[1:])):
            orbit = math.factorial(box.k) // math.prod(map(math.factorial, Counter(dd).values()))
            total += orbit * gw_of_classes(space, classes, dd, store)
    if omegas % 2:
        # Weyl anti-invariance kills the lift-summed bracket of an odd number of omegas
        if total:
            raise ArithmeticError(f"parity violation: odd-omega bracket {ins} at d={d} is {total}")
        value = Fraction(0)
    else:
        sign = 1 if eps_off else (-1) ** epsilon(d, box.k)
        value = sign * c_squared(box.k) ** (omegas // 2) * total
    store.brackets[key] = value
    return value


def specialize_novikov(series: dict, k: int) -> dict:
    """Project a series over Q_1..Q_k onto the single Novikov variable:
    Q^d collects (-1)^((k-1)d) times the sum over lifts of total degree d."""
    out = {}
    for dd, val in series.items():
        d = sum(dd)
        sign = (-1) ** epsilon(d, k)
        if d in out:
            prev = out[d]
            out[d] = cls_add(prev, cls_scale(val, sign)) if isinstance(val, PClass) else prev + sign * val
        else:
            out[d] = cls_scale(val, sign) if isinstance(val, PClass) else sign * val
    return {d: v for d, v in out.items() if not (isinstance(v, PClass) and v.is_zero()) and v != 0}


# ---------------------------------------------------------------------------
# the correction-formula tree

# A formula tree is a bracket: a tuple of slots.  A slot is one of
#   ("xi", s)     horizontal field of input slot s      (restricts to s~_s)
#   ("lom_s", s)  lift of slot s, cupped with omega
#   ("om",)       omega
#   ("up",)       the parent's contraction index a, cupped with omega
#   a bracket     a child, joined by its own index a    (restricts to s~_{a^vee})
# so every contraction index joins exactly two brackets; is_child tells the
# last kind from the tags.

OM_SLOT, UP_SLOT = ("om",), ("up",)


class FormulaTree:
    """Signed sum of bracket trees expressing an l-point invariant: groups
    holds the pairs (sign, root bracket)."""

    def __init__(self, l: int, groups: list):
        self.l, self.groups = l, groups


def is_child(slot) -> bool:
    return not isinstance(slot[0], str)


def generate_formula(l: int) -> FormulaTree:
    """Correction formula for l-point small-locus Grassmannian invariants: the
    single-bracket identity at l = 3, differentiated once per further insertion.
    Each tree carries its final labels: the root holds xi_{l-3} and the last
    two insertions, and step t differentiates by xi_{l-4-t}."""
    if l < 3:
        raise ValueError("need at least 3 insertions")
    groups = [(1, (("xi", l - 3), ("lom_s", l - 2), ("lom_s", l - 1)))]
    for t in range(l - 3):
        xi = ("xi", l - 4 - t)
        groups = [(sign * s, grown) for sign, root in groups for s, grown in _derivatives(root, xi)]
    return FormulaTree(l, groups)


def _derivatives(br, xi):
    """The terms (sign, bracket) of the derivative of br by xi: the product
    rule puts xi into br, each xi or child slot becomes minus the child
    (xi, slot, om, up), and each child is differentiated in place."""
    yield 1, (xi,) + br
    for i, slot in enumerate(br):
        child = is_child(slot)
        if child or slot[0] == "xi":
            yield -1, br[:i] + ((xi, slot, OM_SLOT, UP_SLOT),) + br[i + 1:]
        if child:
            for s, grown in _derivatives(slot, xi):
                yield s, br[:i] + (grown,) + br[i + 1:]


def codim(ins: Insertion, k: int) -> int:
    """The codimension of an insertion on (P^{n-1})^k: |lam|, and binom(k, 2)
    more for omega."""
    return ins.lam.weight + ins.omega * math.comb(k, 2)


def degree_of(codim_sum: int, m: int, box: BoxSpec):
    """The one degree e >= 0 at which an m-point lifted bracket of total
    codimension codim_sum can be nonzero, or None: where codim_sum is
    virtual_dim on (P^{n-1})^k, which grows by n per unit of degree."""
    e, r = divmod(codim_sum - virtual_dim(space_of(box), (0,) * box.k, m), box.n)
    return e if e >= 0 and not r else None


def bracket_degree(insertions, box: BoxSpec):
    """The one degree at which the lifted bracket of insertions can be
    nonzero, or None (degree_of)."""
    return degree_of(sum(codim(i, box.k) for i in insertions), len(insertions), box)


def evaluate_formula(tree: FormulaTree, partitions, d: int, box: BoxSpec,
                     store: MemoStore, eps_off: bool = False) -> Fraction:
    """Evaluate the corrected l-point Grassmannian invariant at degree d.

    Each group is contracted from the leaves up: a bracket at its parent's index
    is summed over its children's indices at its one degree (degree_of) alone.
    A child's table, the child contracted at each index, depends only on the
    box, eps_off and what the child holds: the multiset of its realized
    insertions and, recursively, of its children's.  Keyed so, it is kept on
    the store (MemoStore.tables) and shared by every call that meets it.  A
    tuple that breaks the dimension rule (virtual_dim) is 0 before any bracket
    is evaluated.
    """
    parts = [Partition(p) for p in partitions]
    if len(parts) != tree.l:
        raise ValueError(f"tree has arity {tree.l}, got {len(parts)} partitions")
    if sum(p.weight for p in parts) != virtual_dim(box, d, tree.l):
        return Fraction(0)
    realized = {OM_SLOT: OMEGA}
    for s, p in enumerate(parts):
        realized[("xi", s)], realized[("lom_s", s)] = Lifted(p), LiftedTimesOmega(p)

    def split(br):
        # the realized insertions of br but its parent's index, and its children's (key, rows)
        fixed = [realized[slot] for slot in br if not is_child(slot) and slot != UP_SLOT]
        return fixed, [table(slot) for slot in br if is_child(slot)]

    @functools.cache
    def table(child) -> tuple:
        # (the child's key, its rows (s~_{a^vee}, its codim, the child contracted
        # at a) for each a where that is nonzero)
        fixed, children = split(child)
        key = (tuple(sorted(fixed)), tuple(sorted(sub for sub, _ in children)))
        rows = store.tables.get((box, key, eps_off))
        if rows is None:
            rows = []
            for a in box.basis:
                if w := contract(fixed + [LiftedTimesOmega(a)], children):
                    dual = Lifted(box.dual(a))
                    rows.append((dual, codim(dual, box.k), w))
            # stored whole, so a call that raises leaves no partial table
            rows = store.tables[box, key, eps_off] = tuple(rows)
        return key, rows

    def contract(fixed, children) -> Fraction:
        m, base = len(fixed) + len(children), sum(codim(i, box.k) for i in fixed)
        value = Fraction(0)
        for choice in itertools.product(*[rows for _, rows in children]):
            e = degree_of(base + sum(c for _, c, _ in choice), m, box)
            if e is not None:
                ins = fixed + [dual for dual, _, _ in choice]
                value += math.prod((w for _, _, w in choice), start=i_bracket(ins, e, box, store, eps_off))
        return value

    return sum((sign * contract(*split(root)) for sign, root in tree.groups), Fraction(0))


def render_formula(tree: FormulaTree) -> str:
    """Human-readable layout of the tree, one term-group per line, its
    brackets depth-first and its contraction indices a_j in the order met."""
    lines = []
    for sign, root in tree.groups:
        brackets = []
        _render_bracket(root, None, brackets)
        head = "+" if sign > 0 else "-"
        sums = "".join(f" sum_a{j}" for j in range(len(brackets) - 1))
        degs = " sum_{" + "+".join(f"e{i}" for i in range(len(brackets))) + "=d}" if sums else ""
        lines.append(f"{head}{sums}{degs} {' '.join(brackets)}")
    return "\n".join(lines)


def _render_bracket(br, up, out: list) -> None:
    # br goes to out ahead of its children; the child at out[j + 1] has index a_j
    at = len(out)
    out.append(None)
    texts = []
    for slot in br:
        if is_child(slot):
            texts.append(f"s~a{len(out) - 1}v")
            _render_bracket(slot, len(out) - 1, out)
        elif slot[0] in ("om", "up"):
            texts.append("w" if slot == OM_SLOT else f"s~a{up}.w")
        else:
            texts.append(f"s~{slot[1] + 1}" + (".w" if slot[0] == "lom_s" else ""))
    out[at] = f"I_{len(br)}({', '.join(texts)})"


def formula_to_json(tree: FormulaTree) -> str:
    """The tree as JSON, each bracket a list of slots: tags and brackets."""
    doc = {
        "arity": tree.l,
        "groups": [{"sign": sign, "root": root} for sign, root in tree.groups],
    }
    return json.dumps(doc, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# verification reports

def check_two_point(box: BoxSpec, d_max: int, store: MemoStore) -> list[dict]:
    """Compare Grassmannian 2-point invariants with the lifted bracket of the
    two omega-twisted insertions, all box pairs, 1 <= d <= d_max.  Returns
    the violations, as Violations counting the (pair, d) compared."""
    violations = Violations()
    for lam, mu in itertools.combinations_with_replacement(box.basis, 2):
        for d in range(1, d_max + 1):
            violations.instances += 1
            # dimension-violating pairs must come out 0 = 0; checked too
            gr = grassmannian.two_point(lam, mu, d, box)
            ab = i_bracket([LiftedTimesOmega(lam), LiftedTimesOmega(mu)], d, box, store)
            if gr != ab:
                violations.append({"pair": (lam, mu), "d": d, "grassmannian": gr, "abelian": ab})
    return violations


def oracle_value(partitions, d: int, box: BoxSpec, value=None):
    """An independent value of the Grassmannian invariant <partitions>_d, or None.

    At 3 points it is the rim-hook value (grassmannian.three_point).  When
    sigma_1 is among the partitions and d >= 1, the divisor axiom gives
    d * <rest>_d, where <rest>_d is the rim-hook value at 3 points and
    value(rest, d) at more.  Otherwise there is none.
    """
    parts = list(partitions)
    if len(parts) == 3:
        return grassmannian.three_point(*parts, d, box)
    if d < 1 or grassmannian.SIGMA_1 not in parts:
        return None
    parts.remove(grassmannian.SIGMA_1)
    return d * (grassmannian.three_point(*parts, d, box) if len(parts) == 3 else value(parts, d))


def naive_vs_corrected(box: BoxSpec, d_max: int, store: MemoStore) -> dict:
    """Compare the single-bracket guess for 4-point invariants with the
    corrected formula.

    Returns the admissible instances with their naive value, corrected value
    and (when a divisor insertion permits) the divisor-axiom oracle value.
    """
    tree = generate_formula(4)
    instances = []
    for combo, d in admissible_tuples(box, 4, d_max):
        parts = list(combo)
        naive = i_bracket(
            [Lifted(parts[0]), Lifted(parts[1]),
             LiftedTimesOmega(parts[2]), LiftedTimesOmega(parts[3])],
            d, box, store,
        )
        corrected = evaluate_formula(tree, parts, d, box, store)
        oracle = oracle_value(parts, d, box)
        instances.append(
            {"partitions": parts, "d": d, "naive": naive,
             "corrected": corrected, "oracle": oracle}
        )
    return {
        "instances": instances,
        "nonzero_corrections": [r for r in instances if r["naive"] != r["corrected"]],
        "oracle_mismatches": [
            r for r in instances if r["oracle"] is not None and r["corrected"] != r["oracle"]
        ],
    }


def check_omega_triviality(box: BoxSpec) -> list[dict]:
    """Triviality of the specialized small quantum product with omega.

    (i) omega * lift(lam) has no Novikov corrections after specialization;
    (ii) for every factorization of the root product Delta into two
    complementary halves, their specialized product is Delta on the nose.
    Returns the violations, as Violations counting the rank + 2^C(k,2)
    products checked.
    """
    space = space_of(box)
    dl = delta(space)
    violations = Violations()

    def specialized(a, b):
        return specialize_novikov(small_quantum_product(a, b), box.k)

    for lam in box.basis:
        violations.instances += 1
        got = specialized(dl, lift(lam, box))
        if got.get(0, PClass(space)) != bialternant(lam, box) or any(d > 0 for d in got):
            violations.append({"check": "omega-cup", "lam": lam, "got": got})

    roots = root_classes(space)
    for r in range(len(roots) + 1):
        for picked in itertools.combinations(range(len(roots)), r):
            violations.instances += 1
            a = b = unit(space)
            for i, root in enumerate(roots):
                if i in picked:
                    a = cup(a, root)
                else:
                    b = cup(b, root)
            got = specialized(a, b)
            if got.get(0, PClass(space)) != dl or any(d for d in got if d > 0):
                violations.append({"check": "delta-split", "subset": picked, "got": got})
    return violations


# ---------------------------------------------------------------------------
# mirror map

def mirror_map(box: BoxSpec, trunc: int, store: MemoStore) -> dict:
    """Divisor-locus mirror transform from 2-point omega corrections, as
    {lam: {d: the nonzero q^d correction to the coordinate of sigma_lam}} over
    the basis, with q the Novikov variable dressed by the divisor exponential.

    The correction to the coordinate of sigma_lam at degree d is the bracket
    I_{2,d}(lift(lam^vee) omega, omega), computed for d = 1..trunc as the
    check.  By the dimension rule each one is 0: the insertions have
    codimension |lam^vee| + 2 C(k,2) = k(n-1) - |lam|, while a 2-point
    invariant of (P^{n-1})^k at degree d >= 1 needs k(n-1) + n d - 1.  So
    the map is the identity, its own inverse, and no reversion is needed.
    """
    forward = {}
    for lam in box.basis:
        series = {}
        for d in range(1, trunc + 1):
            c = i_bracket([LiftedTimesOmega(box.dual(lam)), OMEGA], d, box, store)
            if c:
                series[d] = c
        forward[lam] = series
    return forward


# ---------------------------------------------------------------------------
# assembled Grassmannian invariants and their associativity

class AssembledInvariants:
    """Grassmannian invariants of all arities built from the correction
    formulas, cached by (the sorted basis positions of the insertions,
    degree).

    corrupt_epsilon flips the lift-parity sign on the 4-point family only.
    A global sign flip is the substitution Q -> -Q and leaves associativity
    intact, so the negative control must break the sign on a single arity
    to have teeth.
    """

    def __init__(self, box: BoxSpec, store: MemoStore, corrupt_epsilon: bool = False):
        self.box = box
        self.store = store
        self.corrupt_epsilon = corrupt_epsilon
        self.cache: dict = {}

    def value(self, partitions, d: int) -> int:
        """The invariant <partitions>_d, as an int: a Grassmannian invariant
        counts curves, so a non-integral value raises ArithmeticError."""
        index = self.box.basis_index
        key = (tuple(sorted([index[p] for p in partitions])), d)
        val = self.cache.get(key)
        if val is not None:
            return val
        basis = self.box.basis
        parts = [basis[i] for i in key[0]]
        m = len(parts)
        if d == 0 and m > 3:
            # degree-0 invariants with 4 or more marks vanish
            val = 0
        else:
            # a tree costs far less than its evaluation, so none is kept
            exact = evaluate_formula(generate_formula(m), parts, d, self.box, self.store)
            if exact.denominator != 1:
                raise ArithmeticError(f"non-integral invariant {exact} for {parts} at d={d}")
            val = exact.numerator
            if self.corrupt_epsilon and m == 4 and d % 2:
                val = -val
        self.cache[key] = val
        return val


def assemble_and_check_wdvv(box: BoxSpec, d_max: int, l_max: int, store: MemoStore,
                            corrupt_epsilon: bool = False) -> list[dict]:
    """Associativity constraints for the assembled Grassmannian invariants,
    for all quadruples of Schubert classes, backgrounds and degrees with at
    most l_max marks and degree at most d_max.  Returns the violations, as
    Violations.

    The factors of an identity have at most l_max - 1 marks (see
    wdvv_identities), so no l_max-point invariant is tested here.
    """
    inv = AssembledInvariants(box, store, corrupt_epsilon)
    drawn = 0

    def identities():
        nonlocal drawn
        for identity in wdvv_identities(box, d_max, l_max):
            drawn += 1
            yield identity

    found = Violations(
        {"quad": quad, "background": back, "d": d, "values": sides}
        for quad, back, d, sides in wdvv_failures(identities(), wdvv_sides(box, inv.value))
    )
    found.instances = drawn
    return found
