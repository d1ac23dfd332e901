from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilspin.fieldtower import (
    Embedding,
    FieldElem,
    TowerSpec,
    enumerate_cm_types,
    f_embeddings,
    k_embeddings,
    trace_to_Q,
)

from conftest import rand_elem


def test_tower_validation():
    TowerSpec(1, 1)
    TowerSpec(2, Fraction(3, 7))
    TowerSpec(5, 2)
    with pytest.raises(ValueError):
        TowerSpec(4, 1)  # not square-free
    with pytest.raises(ValueError):
        TowerSpec(12, 1)
    with pytest.raises(ValueError):
        TowerSpec(2, 0)
    with pytest.raises(ValueError):
        TowerSpec(2, -3)
    assert TowerSpec(1, 1).e == 2
    assert TowerSpec(2, 1).e == 4


def test_defining_relations():
    t = TowerSpec(2, 3)
    assert t.sqrt_minus_q() * t.sqrt_minus_q() == t.elem(-3)
    assert t.sqrt_p() * t.sqrt_p() == t.elem(2)
    # iota fixes F pointwise and negates the sqrt(-q) pair
    assert t.elem(3, 0, 2, 0).iota() == t.elem(3, 0, -2, 0)
    assert t.sqrt_p().iota() == t.sqrt_p()


def test_field_laws(rng):
    for tower in (TowerSpec(1, 2), TowerSpec(2, 1), TowerSpec(3, Fraction(5, 2))):
        for _ in range(30):
            a, b, c = (rand_elem(rng, tower) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).iota() == a.iota() * b.iota()
            assert a.iota().iota() == a
            assert (a.iota() == a) == a.in_subfield("F")
            if not a.is_zero():
                assert a * a.inv() == tower.one()
                assert (tower.one() / a) * a == tower.one()
        with pytest.raises(ZeroDivisionError):
            tower.zero().inv()


def test_p1_degenerate_coordinates():
    t = TowerSpec(1, 5)
    # sqrt(1) folds into the rational coordinate
    assert t.sqrt_p() == t.one()
    assert t.elem(1, 2, 3, 4) == t.elem(3, 0, 7, 0)


def test_traces():
    t2 = TowerSpec(2, 1)
    assert trace_to_Q(t2.sqrt_p(), "F") == 0
    assert trace_to_Q(t2.one(), "F") == 2
    assert trace_to_Q(t2.sqrt_minus_q(), "K") == 0
    assert trace_to_Q(t2.elem(3), "K") == 12
    t1 = TowerSpec(1, 1)
    assert trace_to_Q(t1.one(), "F") == 1
    assert trace_to_Q(t1.sqrt_minus_q(), "K") == 0
    with pytest.raises(ValueError):
        trace_to_Q(t2.sqrt_minus_q(), "F")  # not in F


def test_norm_positivity(rng):
    for tower in (TowerSpec(1, 2), TowerSpec(2, 1), TowerSpec(5, Fraction(7, 3))):
        for _ in range(40):
            a = rand_elem(rng, tower)
            tr = trace_to_Q(a * a.iota(), "K")
            if a.is_zero():
                assert tr == 0
            else:
                assert tr > 0


def test_embeddings():
    t = TowerSpec(2, 1)
    embs = k_embeddings(t)
    assert len(embs) == 4
    # sigma o iota flips only the sign on sqrt(-q)
    for sigma in embs:
        x = t.elem(1, 2, 3, 4)
        assert sigma(x.iota()) == Embedding(sigma.sign_p, -sigma.sign_q)(x)
    assert len(k_embeddings(TowerSpec(1, 1))) == 2
    # embeddings are ring maps
    a, b = t.elem(1, 1, 0, 0), t.elem(0, 2, 1, 1)
    for sigma in embs:
        assert sigma(a * b) == sigma(a) * sigma(b)


@pytest.mark.parametrize("p,q,count", [(1, 1, 2), (1, 2, 2), (2, 1, 4), (3, 2, 4)])
def test_cm_type_count(p, q, count):
    tower = TowerSpec(p, q)
    types = enumerate_cm_types(tower)
    # independent oracle: choice functions over the F-embeddings
    assert len(types) == 2 ** len(f_embeddings(tower)) == count
    assert len(set(types)) == count


def test_cm_type_conjugation():
    for tower in (TowerSpec(1, 1), TowerSpec(2, 1)):
        for T in enumerate_cm_types(tower):
            assert T.conjugate().conjugate() == T
            assert T.conjugate() != T  # fixed-point free
            assert T.overlap(T) == tower.e // 2
            assert T.overlap(T.conjugate()) == 0


def test_json_round_trip():
    t = TowerSpec(2, Fraction(3, 5))
    assert TowerSpec.from_json(t.to_json()) == t
    x = t.elem(Fraction(1, 6), Fraction(-2, 3), 0, Fraction(5, 4))
    assert x.to_json() == [[1, 6], [-2, 3], [0, 1], [5, 4]]


def test_hash_agrees_with_equality():
    t = TowerSpec(2, 3)
    assert t.one() == 1 and hash(t.one()) == hash(1)
    assert t.zero() == 0 and hash(t.zero()) == hash(0)
    half = t.scalar(Fraction(-3, 4))
    assert half == Fraction(-3, 4) and hash(half) == hash(Fraction(-3, 4))
    assert {1: "one", Fraction(-3, 4): "x"}[t.one()] == "one"
    assert {Fraction(-3, 4): "x"}[half] == "x"
    x = t.elem(1, 2, 3, 4) * t.elem(Fraction(1, 2))
    y = t.elem(Fraction(1, 2), 1, Fraction(3, 2), 2)
    assert x == y and hash(x) == hash(y)


def test_component_accessor():
    t = TowerSpec(2, 1)
    x = t.elem(Fraction(1, 6), Fraction(-2, 3), 0, Fraction(5, 4))
    assert [x.component(k) for k in range(4)] == [Fraction(1, 6), Fraction(-2, 3), 0, Fraction(5, 4)]
    assert all(x.component(k).is_rational() for k in range(4))


def test_tower_mismatch():
    a, b = TowerSpec(2, 1).one(), TowerSpec(2, 3).one()
    assert a != b
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b):
        with pytest.raises(ValueError):
            op()
    # an equal tower built separately is the same field
    assert TowerSpec(2, 1).sqrt_p() * a == TowerSpec(2, 1).sqrt_p()


# -- property tests against an independent 4-Fraction reference -----------

TOWERS = [TowerSpec(p, q) for p in (1, 2, 3, 5) for q in (1, 2, Fraction(7, 3), Fraction(10**9 + 7, 3))]

rationals = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-100, max_value=100, max_denominator=60),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
)
coords = st.tuples(rationals, rationals, rationals, rationals)


def ref_fold(tower, c):
    if tower.p == 1:
        return (c[0] + c[1], Fraction(0), c[2] + c[3], Fraction(0))
    return tuple(c)


def ref_mul(tower, a, b):
    p, q = tower.p, tower.q
    return (
        a[0] * b[0] + p * a[1] * b[1] - q * a[2] * b[2] - p * q * a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] - q * (a[2] * b[3] + a[3] * b[2]),
        a[0] * b[2] + a[2] * b[0] + p * (a[1] * b[3] + a[3] * b[1]),
        a[0] * b[3] + a[3] * b[0] + a[1] * b[2] + a[2] * b[1],
    )


def ref_inv(tower, a):
    # a * iota(a) = f0 + f1 sqrt(p); its inverse is (f0 - f1 sqrt(p)) / N(f)
    ab = (a[0], a[1], -a[2], -a[3])
    f = ref_mul(tower, a, ab)
    nrm = f[0] * f[0] - tower.p * f[1] * f[1]
    return ref_mul(tower, ab, (f[0] / nrm, -f[1] / nrm, Fraction(0), Fraction(0)))


def coords_of(x):
    return tuple(Fraction(k, x.d) for k in x.n)


def assert_canonical(x):
    assert x.d > 0 and gcd(*x.n, x.d) == 1
    if x.tower.p == 1:
        assert x.n[1] == 0 and x.n[3] == 0


@settings(deadline=None, derandomize=True)
@given(tower=st.sampled_from(TOWERS), ca=coords, cb=coords)
def test_arithmetic_matches_reference(tower, ca, cb):
    a, b = tower.elem(*ca), tower.elem(*cb)
    ra, rb = ref_fold(tower, ca), ref_fold(tower, cb)
    assert coords_of(a) == ra and coords_of(b) == rb
    results = {
        "+": (a + b, tuple(x + y for x, y in zip(ra, rb))),
        "-": (a - b, tuple(x - y for x, y in zip(ra, rb))),
        "*": (a * b, ref_mul(tower, ra, rb)),
        "neg": (-a, tuple(-x for x in ra)),
        "iota": (a.iota(), (ra[0], ra[1], -ra[2], -ra[3])),
    }
    if any(rb):
        results["/"] = (a / b, ref_mul(tower, ra, ref_inv(tower, rb)))
        results["inv"] = (b.inv(), ref_inv(tower, rb))
        assert b * b.inv() == tower.one()
    else:
        with pytest.raises(ZeroDivisionError):
            b.inv()
    for op, (got, want) in results.items():
        assert coords_of(got) == want, op
        assert_canonical(got)
        # canonical form: equality is coordinate equality
        assert (got == a * b) == (coords_of(got) == coords_of(a * b))


@settings(deadline=None, derandomize=True)
@given(tower=st.sampled_from(TOWERS), ca=coords, r=rationals)
def test_rational_operands_and_json(tower, ca, r):
    a = tower.elem(*ca)
    ra = ref_fold(tower, ca)
    assert coords_of(a * r) == coords_of(r * a) == tuple(x * r for x in ra)
    assert coords_of(a + r) == (ra[0] + r,) + ra[1:]
    assert tower.scalar(r) == r and hash(tower.scalar(r)) == hash(r)
    assert tower.scalar(r).as_rational() == r
    assert_canonical(tower.scalar(r))
    assert TowerSpec.from_json(tower.to_json()) == tower


# -- operands with a known result: 0, +-1 and 1/3 (same n as 1, d = 3) -----

SPECIAL = [1, -1, 0, Fraction(1, 3)]


def special_forms(tower, s):
    """s as an int or Fraction, as a fresh element, and as the shared one or
    zero where it is one of those."""
    forms = [s, tower.scalar(s)]
    if s in (1, -1):
        forms.append(tower.one() if s == 1 else -tower.one())
    if s == 0:
        forms.append(tower.zero())
    return forms


@settings(deadline=None, derandomize=True)
@given(tower=st.sampled_from(TOWERS), ca=coords, s=st.sampled_from(SPECIAL), t=st.sampled_from(SPECIAL))
def test_special_operands_match_reference(tower, ca, s, t):
    rs, rt = (Fraction(s), 0, 0, 0), (Fraction(t), 0, 0, 0)
    # a K-valued element, and a special element, against each special operand
    for a, ra in ((tower.elem(*ca), ref_fold(tower, ca)), (tower.scalar(t), rt)):
        for x in special_forms(tower, s):
            results = {
                "a*s": (a * x, ref_mul(tower, ra, rs)),
                "s*a": (x * a, ref_mul(tower, rs, ra)),
                "a+s": (a + x, tuple(u + v for u, v in zip(ra, rs))),
                "s+a": (x + a, tuple(u + v for u, v in zip(rs, ra))),
                "a-s": (a - x, tuple(u - v for u, v in zip(ra, rs))),
                "s-a": (x - a, tuple(u - v for u, v in zip(rs, ra))),
            }
            if s != 0:
                results["inv"] = (tower.scalar(x).inv(), ref_inv(tower, rs))
            for op, (got, want) in results.items():
                assert coords_of(got) == want, (op, s)
                assert_canonical(got)
        # sign flips skip the gcd: each matches the reference, and its (n, d)
        # is that of a freshly reduced element
        for b, rb in ((a, ra), (tower.scalar(s), rs)):
            flips = {"neg": (-b, tuple(-v for v in rb)), "iota": (b.iota(), (rb[0], rb[1], -rb[2], -rb[3]))}
            for sp in (1, -1):
                for sq in (1, -1):
                    flips[(sp, sq)] = (Embedding(sp, sq)(b), (rb[0], sp * rb[1], sq * rb[2], sp * sq * rb[3]))
            for op, (got, want) in flips.items():
                fresh = FieldElem(tower, got.n, got.d)
                assert coords_of(got) == want and (got.n, got.d) == (fresh.n, fresh.d), (op, s)
    # 1 and -1 are their own inverses, returned without arithmetic
    for x in (tower.one(), -tower.one(), tower.scalar(1), tower.scalar(-1)):
        assert x.inv() is x
    with pytest.raises(ZeroDivisionError):
        tower.zero().inv()
    # the shared constants are never changed by the arithmetic above
    assert tower.one() is tower.one() and tower.zero() is tower.zero()
    assert (tower.one().n, tower.one().d) == ((1, 0, 0, 0), 1)
    assert (tower.zero().n, tower.zero().d) == ((0, 0, 0, 0), 1)


@pytest.mark.parametrize("tower", TOWERS, ids=str)
def test_products_by_one_of_an_equal_tower(tower, rng):
    # an equal but distinct TowerSpec has its own one; products stay exact
    twin = TowerSpec(tower.p, tower.q)
    assert twin == tower and twin is not tower and twin.one() is not tower.one()
    for _ in range(5):
        a = rand_elem(rng, tower)
        assert a * twin.one() == twin.one() * a == a
        assert a * -twin.one() == -twin.one() * a == -a
        assert coords_of(a - twin.one()) == (coords_of(a)[0] - 1,) + coords_of(a)[1:]
        assert (a * twin.zero()).is_zero() and a + twin.zero() == a
    # +-1 and 0 need no arithmetic: the result is the other operand itself
    a = rand_elem(rng, tower)
    assert a * tower.one() is a and tower.one() * a is a and a + tower.zero() is a
