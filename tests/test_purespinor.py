from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilspin import linalg
from weilspin.clifford import HyperbolicSpace, clifford_action, vector_rep_reflection
from weilspin.exteralg import Multivector, degree_two_masks, exp_even, wedge
from weilspin.fieldtower import TowerSpec
from weilspin.purespinor import (
    IsotropicSubspace,
    annihilator,
    is_pure,
    pure_spinor_of,
)

from conftest import in_span, pure_spinor_solve, type_space, zassenhaus_intersect


@pytest.fixture()
def hs1(tiny_tower):
    return HyperbolicSpace(1, tiny_tower)


def test_annihilator_of_extremes(hs1, tiny_tower):
    ann = annihilator(hs1.sspace.one(), hs1)
    y_span = [hs1.vector([0, 0, 1, 0]), hs1.vector([0, 0, 0, 1])]
    assert linalg.spans_equal(ann.basis, y_span, tiny_tower)
    top = wedge(hs1.sspace.gen(0), hs1.sspace.gen(1))
    ann2 = annihilator(top, hs1)
    x_span = [hs1.vector([1, 0, 0, 0]), hs1.vector([0, 1, 0, 0])]
    assert linalg.spans_equal(ann2.basis, x_span, tiny_tower)
    with pytest.raises(ValueError):
        annihilator(hs1.sspace.zero(), hs1)


def test_annihilator_solved_example(hs1, tiny_tower):
    # lam = 1 + sqrt(-1) x1^x2 at q=1: annihilated by y1 - i x2 and y2 + i x1
    i = tiny_tower.sqrt_minus_q()
    lam = hs1.sspace.one() + wedge(hs1.sspace.gen(0), hs1.sspace.gen(1)).scale(i)
    ann = annihilator(lam, hs1)
    expected = [
        [tiny_tower.zero(), -i, tiny_tower.one(), tiny_tower.zero()],
        [i, tiny_tower.zero(), tiny_tower.zero(), tiny_tower.one()],
    ]
    assert linalg.spans_equal(ann.basis, expected, tiny_tower)


def test_is_pure(hs1):
    flag, cert = is_pure(hs1.sspace.one(), hs1)
    assert flag and cert.dim == 2
    # purity is scale invariant
    flag2, _ = is_pure(hs1.sspace.one().scale(7), hs1)
    assert flag2
    # 1 + x1^x2^x3^x4 at n=2 is not pure: the annihilator is zero
    hs2 = HyperbolicSpace(2, TowerSpec(1, 1))
    lam = hs2.sspace.one() + Multivector(hs2.sspace, {0b1111: hs2.tower.one()})
    flag3, cert3 = is_pure(lam, hs2)
    assert not flag3 and cert3.dim == 0


def test_exponential_is_pure():
    for q in (1, 2, 3):
        t = TowerSpec(1, q)
        hs = HyperbolicSpace(3, t)
        theta = Multivector(hs.sspace, {0b001001: t.one(), 0b010010: t.one(), 0b100100: t.one()})
        e = exp_even(theta.scale(t.sqrt_minus_q()))
        flag, cert = is_pure(e, hs)
        assert flag and cert.dim == 6


def test_pure_spinor_of(hs1, tiny_tower):
    y_span = IsotropicSubspace(hs1, [hs1.vector([0, 0, 1, 0]), hs1.vector([0, 0, 0, 1])])
    assert pure_spinor_of(y_span, hs1) == hs1.sspace.one()
    # round trip on an exponential line
    i = tiny_tower.sqrt_minus_q()
    lam = hs1.sspace.one() + wedge(hs1.sspace.gen(0), hs1.sspace.gen(1)).scale(i)
    w = annihilator(lam, hs1)
    assert pure_spinor_of(w, hs1) == lam
    # odd spinor: span{x1, y2} gives the line of x1
    w_odd = IsotropicSubspace(hs1, [hs1.vector([1, 0, 0, 0]), hs1.vector([0, 0, 0, 1])])
    lam_odd = pure_spinor_of(w_odd, hs1)
    assert lam_odd == hs1.sspace.gen(0)
    assert lam_odd.degrees() == [1]
    for sub in (y_span, w, w_odd):
        assert pure_spinor_of(sub, hs1) == pure_spinor_solve(sub, hs1)
    # a non-maximal subspace has no spinor line
    small = IsotropicSubspace(hs1, [hs1.vector([0, 0, 1, 0])])
    with pytest.raises(ValueError):
        pure_spinor_of(small, hs1)


SOLVE_TOWERS = [TowerSpec(1, 1), TowerSpec(1, 2), TowerSpec(2, Fraction(7, 3))]


@settings(deadline=None, derandomize=True, max_examples=40)
@given(n=st.integers(1, 3), tower=st.sampled_from(SOLVE_TOWERS), data=st.data())
def test_pure_spinor_of_matches_solve(n, tower, data):
    # v_1 ... v_k exp(b) for non-null v_i is pure, of parity k, and with no
    # degree-0 term its annihilator is not a graph over the y-block
    hs = HyperbolicSpace(n, tower)
    small = st.integers(-2, 2)
    coeff = st.builds(tower.elem, small, small, small, small)
    b = Multivector(hs.sspace, {m: data.draw(coeff) for m in degree_two_masks(2 * n)})
    lam = exp_even(b)
    # (v, v) = 2 sum x_i y_i
    non_null = st.lists(small, min_size=4 * n, max_size=4 * n).filter(
        lambda v: sum(v[i] * v[i + 2 * n] for i in range(2 * n)) != 0)
    for _ in range(data.draw(st.integers(0, 3))):
        lam = clifford_action(hs.vector_to_mv(hs.vector(data.draw(non_null))), lam, hs)
    w = annihilator(lam, hs)
    assert w.is_maximal()
    got = pure_spinor_of(w, hs)
    assert got == pure_spinor_solve(w, hs)
    assert got == lam.scale(lam.terms[min(lam.terms)].inv())


def test_parity_concentration(hs1, tiny_tower):
    i = tiny_tower.sqrt_minus_q()
    lam = hs1.sspace.one() + wedge(hs1.sspace.gen(0), hs1.sspace.gen(1)).scale(i)
    assert all(d % 2 == 0 for d in lam.degrees())


def test_isotropy_certificate(hs1):
    with pytest.raises(ValueError):
        IsotropicSubspace(hs1, [hs1.vector([1, 0, 1, 0])])  # (x1+y1, x1+y1) = 2


def test_subspace_ops(hs1, tiny_tower):
    w_y = annihilator(hs1.sspace.one(), hs1)
    w_x = annihilator(Multivector(hs1.sspace, {0b11: tiny_tower.one()}), hs1)
    assert len(zassenhaus_intersect(w_y.basis, w_y.basis, tiny_tower)) == 2
    assert zassenhaus_intersect(w_y.basis, w_x.basis, tiny_tower) == []
    assert w_y.dim == w_x.dim == 2
    red, piv = linalg.rref(w_y.basis, tiny_tower)
    assert all(in_span(red, piv, v, tiny_tower) for v in w_y.basis)
    assert not any(in_span(red, piv, v, tiny_tower) for v in w_x.basis)
    # the two halves span V
    assert len(linalg.rref(w_y.basis + w_x.basis, tiny_tower)[0]) == 4
    # equal spans, not equal dimensions
    assert w_y == annihilator(hs1.sspace.one().scale(tiny_tower.scalar(3)), hs1)
    assert w_y != w_x
    assert linalg.spans_equal(w_y.basis, w_y.basis[::-1], tiny_tower)
    assert not linalg.spans_equal(w_y.basis, w_x.basis, tiny_tower)


def test_wt_conjugate_intersection_trivial(ws6):
    # dim(W_T cap W_Tbar) = 0 on the e=2 preset
    types = ws6.cm_types
    tow = ws6.datum.tower
    assert zassenhaus_intersect(type_space(ws6, types[0]).basis, type_space(ws6, types[1]).basis, tow) == []


def test_reflection_equivariance(hs1, tiny_tower):
    i = tiny_tower.sqrt_minus_q()
    lam = hs1.sspace.one() + wedge(hs1.sspace.gen(0), hs1.sspace.gen(1)).scale(i)
    w = annihilator(lam, hs1)
    for idx in (0, 1):
        v = [tiny_tower.zero()] * 4
        v[idx] = tiny_tower.one()
        v[idx + 2] = tiny_tower.one()
        lam2 = clifford_action(hs1.vector_to_mv(v), lam, hs1)
        assert not lam2.is_zero()
        ann2 = annihilator(lam2, hs1)
        reflected = [vector_rep_reflection(hs1, v, row) for row in w.basis]
        assert linalg.spans_equal(ann2.basis, reflected, tiny_tower)

