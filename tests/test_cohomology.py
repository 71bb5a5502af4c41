import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abelianizer.partitions import BoxSpec, Partition, box_partitions, complement
from abelianizer.cohomology import (
    PClass,
    ProductSpace,
    antisymmetrize,
    add,
    bialternant,
    c_squared,
    cup,
    delta,
    divide_by_delta,
    integrate,
    lift,
    martin_integral,
    monomial,
    scale,
    schubert_cup,
    space_of,
    unit,
    variable,
    weyl_action,
)


def P(*parts):
    return Partition(parts)


S24 = ProductSpace(2, 4)


def test_cup_ideal_relation():
    h1 = variable(S24, 0)
    h1_cubed = cup(cup(h1, h1), h1)
    assert cup(h1_cubed, h1).is_zero()


def test_cup_root_square():
    r = add(variable(S24, 0), scale(variable(S24, 1), -1))
    sq = cup(r, r)
    assert sq.terms == {(2, 0): 1, (1, 1): -2, (0, 2): 1}


def test_omega_squared_is_c2_delta_squared():
    # omega = c * Delta, so omega^2 is the rational class c^2 * Delta^2
    dl2 = cup(delta(S24), delta(S24))
    om2 = scale(dl2, c_squared(2))
    assert om2 == scale(dl2, Fraction(-1, 2))


def test_omega_examples():
    # omega = c * Delta: Delta and c^2 for k = 1, 2, 3
    assert delta(S24).terms == {(1, 0): 1, (0, 1): -1}
    assert c_squared(2) == Fraction(-1, 2)
    om1 = delta(ProductSpace(1, 5))
    assert om1.terms == {(0,): 1} and c_squared(1) == 1
    space36 = space_of(BoxSpec(3, 6))
    om36 = delta(space36)
    want = cup(cup(
        add(variable(space36, 0), scale(variable(space36, 1), -1)),
        add(variable(space36, 0), scale(variable(space36, 2), -1))),
        add(variable(space36, 1), scale(variable(space36, 2), -1)))
    assert om36.terms == want.terms
    assert c_squared(3) == Fraction(-1, 6)


def test_delta_is_built_once_and_read_only():
    # every caller shares the one Delta of a space, so writing to it must
    # fail rather than change the brackets computed after it
    dl = delta(ProductSpace(2, 4))
    assert delta(ProductSpace(2, 4)) is dl
    with pytest.raises(TypeError):
        dl.terms[(1, 0)] = 2
    assert dl.terms == {(1, 0): 1, (0, 1): -1}


def test_lift_and_bialternant_are_built_once_and_read_only():
    box = BoxSpec(2, 4)
    for build in (lift, bialternant):
        cls = build(P(1), box)
        assert build(P(1), box) is cls
        with pytest.raises(TypeError):
            cls.terms[(1, 0)] = 5
    assert lift(P(1), box).terms == {(1, 0): 1, (0, 1): 1}
    assert bialternant(P(1), box).terms == {(2, 0): 1, (0, 2): -1}


@pytest.mark.parametrize("box", [BoxSpec(2, 4), BoxSpec(2, 5), BoxSpec(3, 6), BoxSpec(4, 8)],
                         ids=["Gr(2,4)", "Gr(2,5)", "Gr(3,6)", "Gr(4,8)"])
def test_bialternant_is_lift_times_delta(box):
    space = space_of(box)
    staircase = tuple(range(box.k - 1, -1, -1))
    for lam in box.basis:
        got = bialternant(lam, box)
        assert got == cup(lift(lam, box), delta(space))
        # and, independently, the alternant a_{lam + staircase}
        shifted = tuple(a + b for a, b in zip(lam.padded(box.k), staircase))
        assert got == antisymmetrize(monomial(space, shifted))


def test_integrate_examples():
    top = monomial(S24, (3, 3))
    assert integrate(top) == 1
    box = BoxSpec(2, 4)
    val = martin_integral(lift(P(2, 2), box), box)
    assert val == 1
    assert integrate(variable(S24, 0)) == 0


def test_pclass_rejects_non_int_exponents():
    with pytest.raises(ValueError):
        PClass(S24, {(1.5, 0): 1})


def test_pclass_drops_vanishing_terms():
    # H_i^4 = 0 on (P^3)^2, and a zero coefficient is no term
    assert PClass(S24, {(4, 0): 1, (1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}


def test_weyl_action():
    h1 = variable(S24, 0)
    swapped = weyl_action((1, 0), h1)
    assert swapped == variable(S24, 1)
    om = delta(S24)
    assert weyl_action((1, 0), om) == scale(om, -1)
    assert weyl_action((0, 1), om) == om


def test_lift_examples():
    box = BoxSpec(2, 4)
    assert lift(P(1), box).terms == {(1, 0): 1, (0, 1): 1}
    assert lift(P(2, 2), box).terms == {(2, 2): 1}
    assert lift(P(), box) == unit(S24)
    with pytest.raises(ValueError):
        lift(P(3), box)


@pytest.mark.parametrize("space",
                         [BoxSpec(1, 4), BoxSpec(2, 4), BoxSpec(2, 5), BoxSpec(3, 6), ProductSpace(2, 2)],
                         ids=["Gr(1,4)", "Gr(2,4)", "Gr(2,5)", "Gr(3,6)", "(P1)^2"])
def test_basis_is_the_documented_enumeration(space):
    # written out here, independently of the package's enumerators
    if isinstance(space, BoxSpec):
        # weakly decreasing rows of at most n - k boxes, by weight and then
        # reverse-lexicographically
        rows = itertools.product(range(space.n - space.k + 1), repeat=space.k)
        want = [Partition(p) for p in sorted((p for p in rows if list(p) == sorted(p, reverse=True)),
                                             key=lambda p: (sum(p), [-x for x in p]))]
        assert box_partitions(space) == list(space.basis)
    else:
        # exponent vectors below n, by total degree and then lexicographically
        want = sorted(itertools.product(range(space.n), repeat=space.k), key=lambda e: (sum(e), e))
    assert space.basis == tuple(want)
    assert [b for c in range(space.dim + 1) for b in space.basis_of_codim(c)] == want
    assert space.basis is space.basis


def test_schubert_cup_examples():
    box = BoxSpec(2, 4)
    assert schubert_cup(P(1), P(1), box) == {P(2): 1, P(1, 1): 1}
    assert schubert_cup(P(2), P(1, 1), box) == {}
    for lam in box_partitions(box):
        prod = schubert_cup(lam, complement(lam, box), box)
        assert prod == {P(2, 2): 1}


def test_cup_box_mismatch():
    with pytest.raises(ValueError):
        cup(unit(S24), unit(ProductSpace(2, 5)))


@pytest.mark.parametrize("box", [BoxSpec(2, 4), BoxSpec(2, 5), BoxSpec(3, 6)])
def test_martin_orthogonality(box):
    # int omega^2 S_lam S_mu = delta(mu, lam complement), complementary weights
    parts = box_partitions(box)
    for lam in parts:
        for mu in parts:
            if lam.weight + mu.weight != box.dim:
                continue
            got = martin_integral(cup(lift(lam, box), lift(mu, box)), box)
            assert got == (1 if mu == complement(lam, box) else 0), (lam, mu)


def test_lifting_multiplicativity():
    # lift(sigma_lam * sigma_mu) cup Delta == lift(lam) cup lift(mu) cup Delta
    box = BoxSpec(2, 4)
    om = delta(S24)
    for lam, mu in itertools.combinations_with_replacement(box_partitions(box), 2):
        vec = schubert_cup(lam, mu, box)
        lhs = PClass(S24)
        for nu, c in vec.items():
            lhs = add(lhs, scale(cup(lift(nu, box), om), c))
        rhs = cup(cup(lift(lam, box), lift(mu, box)), om)
        assert lhs == rhs, (lam, mu)


def test_divide_by_omega_examples():
    box = BoxSpec(2, 4)
    om = delta(S24)
    assert divide_by_delta(om, box) == {P(): 1}
    assert divide_by_delta(cup(lift(P(1), box), om), box) == {P(1): 1}
    assert divide_by_delta(PClass(S24), box) == {}
    with pytest.raises(ValueError):
        divide_by_delta(PClass(S24, {(1, 0): Fraction(1)}), box)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_divide_by_omega_inverts_cup(data):
    box = BoxSpec(2, 4)
    om = delta(S24)
    coeffs = {
        lam: Fraction(data.draw(st.integers(-4, 4)))
        for lam in box_partitions(box)
        if data.draw(st.booleans())
    }
    phi = PClass(S24)
    for lam, c in coeffs.items():
        phi = add(phi, scale(cup(lift(lam, box), om), c))
    got = divide_by_delta(phi, box)
    assert got == {lam: c for lam, c in coeffs.items() if c}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_antisymmetrization_lands_in_omega_span(data):
    box = BoxSpec(2, 4)
    terms = {}
    for _ in range(data.draw(st.integers(0, 4))):
        e = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
        terms[e] = Fraction(data.draw(st.integers(-3, 3)))
    a = PClass(S24, terms)
    anti = antisymmetrize(a)
    # expansion must succeed for any antisymmetrized class
    divide_by_delta(anti, box)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cup_commutative_associative(data):
    def rand_class():
        terms = {}
        for _ in range(data.draw(st.integers(1, 3))):
            e = (data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3)))
            terms[e] = Fraction(data.draw(st.integers(-3, 3)))
        return PClass(S24, terms)

    a = rand_class()
    b = rand_class()
    c = rand_class()
    assert cup(a, b) == cup(b, a)
    assert cup(cup(a, b), c) == cup(a, cup(b, c))
