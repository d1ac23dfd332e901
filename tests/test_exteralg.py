from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilspin import linalg
from weilspin.clifford import HyperbolicSpace, clifford_action
from weilspin.exteralg import (
    GeneratorSpace,
    IntMultivector,
    Multivector,
    coordinates,
    exp_even,
    in_span,
    below_parity,
    degree_two_masks,
    kunneth,
    rational_parts,
    s_pairing,
    span_basis,
    tau,
    wedge,
)
from weilspin.fieldtower import TowerSpec

from conftest import in_span as row_in_span
from conftest import rand_mv


@pytest.fixture()
def sp2(tiny_tower):
    return GeneratorSpace(["x1", "x2"], tiny_tower)


def test_wedge_basics(sp2):
    x1, x2 = sp2.gen(0), sp2.gen(1)
    assert wedge(sp2.one(), x1) == x1
    assert wedge(x1, x1).is_zero()
    assert wedge(x2, x1) == -wedge(x1, x2)


def test_wedge_associative(rng):
    sp = GeneratorSpace([f"g{i}" for i in range(5)], TowerSpec(2, 1))
    for _ in range(15):
        a, b, c = (rand_mv(rng, sp) for _ in range(3))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def _contraction(hs, theta):
    """Contraction with sum theta_i x_i^*: the spin action of sum theta_i y_i."""
    y = hs.vector_to_mv(hs.vector([0] * (2 * hs.n) + list(theta)))
    return lambda a: clifford_action(y, a, hs)


def test_contract(tiny_tower):
    hs = HyperbolicSpace(1, tiny_tower)
    sp = hs.sspace
    x1, x2 = sp.gen(0), sp.gen(1)
    top = wedge(x1, x2)
    assert _contraction(hs, [1, 0])(top) == x2
    assert _contraction(hs, [0, 1])(top) == -x1
    assert _contraction(hs, [1, 0])(sp.one()).is_zero()
    with pytest.raises(ValueError):
        _contraction(hs, [1])


def test_contract_is_graded_derivation(rng):
    hs = HyperbolicSpace(3, TowerSpec(1, 2))
    sp = hs.sspace
    for _ in range(15):
        a, b = rand_mv(rng, sp), rand_mv(rng, sp)
        contract = _contraction(hs, [rng.randint(-2, 2) for _ in range(sp.m)])
        assert contract(contract(a)).is_zero()
        lhs = contract(wedge(a, b))
        rhs = sp.zero()
        for k in a.degrees():
            part = a.degree_part(k)
            term = wedge(part, contract(b))
            rhs = rhs + wedge(contract(part), b) + (-term if k & 1 else term)
        assert lhs == rhs


def test_tau(sp2):
    x1, x2 = sp2.gen(0), sp2.gen(1)
    assert tau(sp2.one()) == sp2.one()
    assert tau(wedge(x1, x2)) == -wedge(x1, x2)
    a = sp2.one() + x1 + wedge(x1, x2)
    assert tau(tau(a)) == a


def test_tau_on_secant_halves():
    # alpha has degrees 0 and 4, beta degrees 2 and 6: tau(alpha+beta) = alpha-beta
    t = TowerSpec(1, 2)
    sp = GeneratorSpace([f"x{i}" for i in range(1, 7)], t)
    theta = Multivector(sp, {
        0b001001: t.one(), 0b010010: t.one(), 0b100100: t.one(),
    })
    th2 = wedge(theta, theta)
    th3 = wedge(th2, theta)
    alpha = sp.one() - th2  # q/2 = 1
    beta = theta - th3.scale(Fraction(1, 3))  # q/6 = 1/3
    assert tau(alpha + beta) == alpha - beta


def test_s_pairing_examples(sp2, tiny_tower):
    x1, x2 = sp2.gen(0), sp2.gen(1)
    top = wedge(x1, x2)
    assert s_pairing(sp2.one(), top) == tiny_tower.one()
    # hand evaluation: tau(x1^x2) = -x1^x2, so the coefficient of top is -1
    assert s_pairing(top, sp2.one()) == tiny_tower.elem(-1)


@pytest.mark.parametrize("m,symmetric", [(2, False), (4, True), (6, False)])
def test_s_pairing_symmetry_and_rank(m, symmetric, rng):
    # m = 2n generators: symmetric for even n, antisymmetric for odd n
    t = TowerSpec(1, 1)
    sp = GeneratorSpace([f"g{i}" for i in range(m)], t)
    dim = 1 << m
    gram = []
    for i in range(dim):
        a = Multivector(sp, {i: t.one()})
        gram.append([s_pairing(a, Multivector(sp, {j: t.one()})) for j in range(dim)])
    sign = 1 if symmetric else -1
    for i in range(dim):
        for j in range(dim):
            assert gram[i][j] == (gram[j][i] if sign > 0 else -gram[j][i])
    assert linalg.rank(gram, t) == dim


def test_exp_even(sp2, tiny_tower):
    assert exp_even(sp2.zero()) == sp2.one()
    th = wedge(sp2.gen(0), sp2.gen(1))
    e = exp_even(th.scale(tiny_tower.sqrt_minus_q()))
    assert e == sp2.one() + th.scale(tiny_tower.sqrt_minus_q())
    with pytest.raises(ValueError):
        exp_even(sp2.gen(0))  # odd degree
    with pytest.raises(ValueError):
        exp_even(sp2.one())  # degree-0 component


def test_exp_even_power_series_coefficients():
    # arity 6: exp(rq Theta) = alpha + rq beta with the stated factorials
    q = 2
    t = TowerSpec(1, q)
    sp = GeneratorSpace([f"x{i}" for i in range(1, 7)], t)
    theta = Multivector(sp, {0b001001: t.one(), 0b010010: t.one(), 0b100100: t.one()})
    e = exp_even(theta.scale(t.sqrt_minus_q()))
    th2 = wedge(theta, theta)
    th3 = wedge(th2, theta)
    alpha = sp.one() + th2.scale(Fraction(-q, 2))
    beta = theta + th3.scale(Fraction(-q, 6))
    assert e == alpha + beta.scale(t.sqrt_minus_q())


def test_exp_inverse(rng):
    sp = GeneratorSpace([f"g{i}" for i in range(6)], TowerSpec(1, 3))
    for _ in range(8):
        a = rand_mv(rng, sp, 5).degree_part(2)
        assert wedge(exp_even(a), exp_even(-a)) == sp.one()


def test_kunneth(tiny_tower):
    a_sp = GeneratorSpace(["x1", "x2"], tiny_tower)
    b_sp = GeneratorSpace(["x1'", "x2'"], tiny_tower)
    b = b_sp.gen(0) + wedge(b_sp.gen(0), b_sp.gen(1))
    emb = kunneth(a_sp.one(), b)
    assert sorted(emb.terms) == [0b0100, 0b1100]
    k = kunneth(a_sp.gen(0), b_sp.gen(0))
    assert list(k.terms) == [0b0101]


def test_kunneth_koszul_against_wedge(rng, tiny_tower):
    # the embedding collects no sign; products of embedded odd classes do
    a_sp = GeneratorSpace(["u1", "u2"], tiny_tower)
    b_sp = GeneratorSpace(["v1", "v2"], tiny_tower)
    joint = GeneratorSpace(a_sp.labels + b_sp.labels, tiny_tower)
    for _ in range(10):
        a, b = rand_mv(rng, a_sp, 3), rand_mv(rng, b_sp, 3)
        direct = kunneth(a, b, joint)
        via_wedge = wedge(
            Multivector(joint, dict(a.terms)),
            Multivector(joint, {m << 2: c for m, c in b.terms.items()}),
        )
        assert direct == via_wedge
    # sign-correct product of odd top classes
    ta = wedge(a_sp.gen(0), a_sp.gen(1))
    odd_a, odd_b = a_sp.gen(1), b_sp.gen(0)
    lhs = wedge(kunneth(odd_a, b_sp.one(), joint), kunneth(a_sp.one(), odd_b, joint))
    assert lhs == kunneth(odd_a, odd_b, joint)
    rhs = wedge(kunneth(a_sp.one(), odd_b, joint), kunneth(odd_a, b_sp.one(), joint))
    assert rhs == -kunneth(odd_a, odd_b, joint)


def _inversion_sign(a, b):
    """(-1)^(inversions of the index list of a followed by that of b)."""
    order = [i for i in range(a.bit_length()) if a >> i & 1]
    order += [i for i in range(b.bit_length()) if b >> i & 1]
    return (-1) ** sum(1 for s, x in enumerate(order) for y in order[s + 1:] if x > y)


def test_merge_sign_counts_inversions():
    # every pair of disjoint masks on m <= 6 generators: the one-popcount
    # sign against the parity of the inversions of the concatenated index lists
    for m in range(7):
        for b in range(1 << m):
            below = below_parity(b, m)
            for i in range(m):
                assert (below >> i & 1) == (b & ((1 << i) - 1)).bit_count() % 2, (b, i)
            for a in range(1 << m):
                if not a & b:
                    assert (-1) ** (a & below).bit_count() == _inversion_sign(a, b), (a, b)


def _reference_wedge(a, b):
    """The exterior product with every sign from brute-force inversion counting."""
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            if not ma & mb:
                c = ca * cb if _inversion_sign(ma, mb) > 0 else -(ca * cb)
                out[ma | mb] = out[ma | mb] + c if ma | mb in out else c
    return Multivector(a.space, out)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(data=st.data(), m=st.integers(0, 12))
def test_wedge_matches_inversion_counting(data, m):
    t = TowerSpec(1, 2)
    sp = GeneratorSpace([f"g{i}" for i in range(m)], t)
    coeff = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda c: t.elem(c[0], 0, c[1], 0))
    terms = st.dictionaries(st.integers(0, (1 << m) - 1), coeff, max_size=12)
    a, b = (Multivector(sp, data.draw(terms)) for _ in range(2))
    assert wedge(a, b) == _reference_wedge(a, b)


@settings(deadline=None, derandomize=True, max_examples=80)
@given(data=st.data(), m=st.integers(0, 10))
def test_wedge_unit_and_k_coefficients_match_inversion_counting(data, m):
    # coefficients +-1 (a product by them needs no arithmetic) beside
    # K-valued ones over a tower with q = 7/3, in both orientations
    t = TowerSpec(2, Fraction(7, 3))
    sp = GeneratorSpace([f"g{i}" for i in range(m)], t)
    unit = st.sampled_from([t.one(), -t.one()])
    k_val = st.tuples(*[st.integers(-3, 3)] * 4).map(lambda c: t.elem(c[0], Fraction(c[1], 2), c[2], c[3]))
    terms = st.dictionaries(st.integers(0, (1 << m) - 1), st.one_of(unit, k_val), max_size=10)
    a, b = (Multivector(sp, data.draw(terms)) for _ in range(2))
    assert wedge(a, b) == _reference_wedge(a, b)
    assert wedge(b, a) == _reference_wedge(b, a)


@settings(deadline=None, derandomize=True, max_examples=120)
@given(data=st.data(), m=st.integers(0, 12), scale=st.sampled_from([1, 2**62 + 3]))
def test_int_wedge_matches_wedge(data, m, scale):
    # rational factors, empty and one-term small factors included; a scale of
    # 2^62 + 3 puts numerators of at least 2^62 in the large factor, so with
    # sum |w| >= 2 the product runs on Python ints
    t = TowerSpec(1, 2)
    sp = GeneratorSpace([f"g{i}" for i in range(m)], t)
    coeff = st.tuples(st.integers(-5, 5), st.integers(1, 6)).map(lambda c: t.scalar(Fraction(*c)))
    mask = st.integers(0, (1 << m) - 1)
    a = Multivector(sp, data.draw(st.dictionaries(mask, coeff, max_size=16))).scale(scale)
    b = Multivector(sp, data.draw(st.dictionaries(mask, coeff, max_size=3)))
    ia, ib = IntMultivector.of(a), IntMultivector.of(b)
    assert ia.to_multivector() == a and ib.to_multivector() == b
    prod = ia.wedge(ib)
    assert prod.to_multivector() == wedge(a, b)
    assert len(np.unique(prod.masks)) == len(prod.masks) and (prod.nums != 0).all()
    if not (a.is_zero() or b.is_zero()):
        big = ia.height() * sum(abs(w) for w in ib.nums.tolist()) >= 2**63
        assert prod.nums.dtype == (object if big else np.int64)
    # an exact quotient keeps the value up to the factor; a remainder raises
    if all(x % 3 == 0 for x in ia.nums.tolist()):
        assert ia.exact_quotient(3).to_multivector() == a.scale(Fraction(1, 3))
    else:
        with pytest.raises(ArithmeticError):
            ia.exact_quotient(3)


@pytest.mark.parametrize("h, w, dtype", [
    ((2**63 - 1) // 7, (3, 4), np.int64),  # the sum is 2^63 - 1: int64, exact
    (2**61, (1, 3), object),  # the sum is 2^63
    (2**62, (1, 3), object),  # the sum is 2^64, and 2^62 * 4 wraps to 0 in int64
])
def test_int_wedge_guard_on_the_int64_boundary(h, w, dtype):
    # a x b with a = h g0 - h g2 and b = w0 g2 + w1 g0: both pairs reach
    # g0 ^ g2 with coefficient + h w, so the one sum is h (w0 + w1), the
    # guard height(a) * sum |w| itself; it is formed on Python ints
    sp = GeneratorSpace(["g0", "g1", "g2"], TowerSpec(1, 2))
    a = Multivector(sp, {0b001: sp.scalar(h), 0b100: sp.scalar(-h)})
    b = Multivector(sp, {0b100: sp.scalar(w[0]), 0b001: sp.scalar(w[1])})
    prod = IntMultivector.of(a).wedge(IntMultivector.of(b))
    assert prod.nums.dtype == dtype
    assert prod.masks.tolist() == [0b101] and prod.nums.tolist() == [h * sum(w)]
    assert prod.to_multivector() == wedge(a, b)


def test_equal_distinct_generator_spaces(rng):
    # two spaces built separately (over equal, distinct towers) are one space
    s1 = GeneratorSpace(["a", "b", "c"], TowerSpec(2, Fraction(7, 3)))
    s2 = GeneratorSpace(["a", "b", "c"], TowerSpec(2, Fraction(7, 3)))
    assert s1 == s2 and s1 is not s2 and hash(s1) == hash(s2)
    assert s1 != GeneratorSpace(["a", "b", "d"], s1.tower)
    for _ in range(10):
        a, b = rand_mv(rng, s1), rand_mv(rng, s2)
        b1 = Multivector(s1, b.terms)
        assert wedge(a, b) == wedge(a, b1) == _reference_wedge(a, b1)
        assert a + b == a + b1 and b == b1
    with pytest.raises(ValueError):
        wedge(s1.gen(0), GeneratorSpace(["a", "b", "d"], s1.tower).gen(0))


def test_degree_two_masks_ascending():
    for m in range(9):
        assert degree_two_masks(m) == [x for x in range(1 << m) if x.bit_count() == 2]


# -- canonical span bases against a dense rref over all 2^m masks ------------

SPAN_TOWERS = [TowerSpec(1, 2), TowerSpec(2, 1)]
small = st.integers(-2, 2)
term_dicts = st.dictionaries(st.integers(0, 15), st.tuples(small, small, small, small), max_size=5)


def dense(mv):
    """The coordinates of mv over all 2^m masks."""
    zero = mv.space.tower.zero()
    return [mv.terms.get(m, zero) for m in range(1 << mv.space.m)]


@settings(deadline=None, derandomize=True)
@given(
    tower=st.sampled_from(SPAN_TOWERS),
    gens=st.lists(term_dicts, min_size=1, max_size=4),
    probe=term_dicts,
    mix=st.lists(small, min_size=4, max_size=4),
)
def test_span_basis_matches_dense_rref(tower, gens, probe, mix):
    space = GeneratorSpace([f"e{i}" for i in range(4)], tower)

    def mv_of(terms):
        return Multivector(space, {m: tower.elem(*c) for m, c in terms.items()})

    mvs = [mv_of(t) for t in gens]
    basis = span_basis(mvs)
    red, piv = linalg.rref([dense(mv) for mv in mvs], tower)
    assert [dense(b) for b in basis] == red
    # another generating set of the same span, reordered and with a zero
    other = [mvs[0]] + [mv + mvs[0].scale(k) for mv, k in zip(mvs[1:], mix)]
    assert span_basis(other[::-1] + [space.zero()]) == basis
    # membership of an arbitrary element and of a combination of the generators
    v = mv_of(probe)
    assert in_span(basis, v) == row_in_span(red, piv, dense(v), tower)
    member = space.zero()
    for mv, k in zip(mvs, mix):
        member = member + mv.scale(k)
    assert in_span(basis, member)
    x = coordinates(basis, member)
    total = space.zero()
    for b, c in zip(basis, x):
        total = total + b.scale(c)
    assert total == member
    # rational parts are rational and recombine with the tower basis
    units = [tower.one(), tower.sqrt_p(), tower.sqrt_minus_q(), tower.sqrt_p() * tower.sqrt_minus_q()]
    for mv in mvs + [v]:
        parts = rational_parts(mv)
        assert all(c.is_rational() for part in parts for c in part.terms.values())
        total = space.zero()
        for part, unit in zip(parts, units):
            total = total + part.scale(unit)
        assert total == mv
