import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilspin import linalg
from weilspin.clifford import (
    DerivationOperators,
    HyperbolicSpace,
    SoPair,
    clifford_action,
    clifford_mul,
    derivation_int,
    desymbol,
    vector_rep_reflection,
)
from weilspin.exteralg import GeneratorSpace, Multivector, wedge
from weilspin.fieldtower import TowerSpec

from conftest import (
    contract,
    int_derivation_cols,
    leibniz_derivation,
    mat_vec,
    mv_to_vector,
    rand_elem,
    rand_mv,
    rand_vec,
    reflection_reference,
    walk_act,
    walk_action,
    walk_mul,
)


@pytest.fixture()
def hs1(tiny_tower):
    return HyperbolicSpace(1, tiny_tower)


@pytest.fixture(scope="module")
def hs2():
    return HyperbolicSpace(2, TowerSpec(1, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_relation_all_pairs(n):
    hs = HyperbolicSpace(n, TowerSpec(1, 2))
    for i in range(hs.dim_v):
        for j in range(hs.dim_v):
            gi, gj = hs.vspace.gen(i), hs.vspace.gen(j)
            lhs = clifford_mul(gi, gj, hs) + clifford_mul(gj, gi, hs)
            assert lhs == hs.vspace.one().scale(hs.gram(i, j))


GAMMA_TOWERS = [TowerSpec(1, 2), TowerSpec(2, 1)]


def _unit(i, m):
    return [int(j == i) for j in range(m)]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tower", GAMMA_TOWERS, ids=["p1q2", "p2q1"])
def test_gamma_is_wedge_or_contraction(n, tower):
    # x_i wedges the i-th spinor generator on the left, y_i contracts it
    hs = HyperbolicSpace(n, tower)
    n2 = 2 * n
    for k in range(hs.dim_v):
        for mask in range(1 << n2):
            lam = Multivector(hs.sspace, {mask: tower.one()})
            ref = wedge(hs.sspace.gen(k), lam) if hs.is_x(k) else contract(_unit(k - n2, n2), lam)
            hit = hs.act(1 << k, mask)
            got = hs.sspace.zero() if hit is None else Multivector(hs.sspace, {hit[1]: tower.scalar(hit[0])})
            assert got == ref, (k, mask)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(n=st.sampled_from([1, 2]), tower=st.sampled_from(GAMMA_TOWERS), data=st.data())
def test_action_matches_wedge_contract_reference(n, tower, data):
    # reference: x_A y_B contracts by the y_j of B in descending j, with
    # `contract` on unit vectors, then wedges the monomial x_A on the left
    hs = HyperbolicSpace(n, tower)
    n2 = 2 * n
    coeff = st.tuples(*[st.integers(-3, 3)] * 4).map(lambda c: tower.elem(*c))
    elem = Multivector(hs.vspace, data.draw(st.dictionaries(st.integers(0, (1 << hs.dim_v) - 1), coeff, max_size=5)))
    lam = Multivector(hs.sspace, data.draw(st.dictionaries(st.integers(0, (1 << n2) - 1), coeff, max_size=5)))
    expected = hs.sspace.zero()
    for mono, c in elem.terms.items():
        img = lam
        for j in reversed(range(n2)):
            if mono >> (n2 + j) & 1:
                img = contract(_unit(j, n2), img)
        x_a = Multivector(hs.sspace, {mono & ((1 << n2) - 1): tower.one()})
        expected = expected + wedge(x_a, img).scale(c)
    assert clifford_action(elem, lam, hs) == expected


def test_action_anticommutation(hs1, rng):
    x1, y1 = hs1.vspace.gen(0), hs1.vspace.gen(2)
    for _ in range(10):
        lam = rand_mv(rng, hs1.sspace)
        lhs = clifford_action(x1, clifford_action(y1, lam, hs1), hs1) + clifford_action(
            y1, clifford_action(x1, lam, hs1), hs1
        )
        assert lhs == lam


def test_action_examples(hs1):
    one = hs1.sspace.one()
    assert clifford_action(hs1.vspace.gen(0), one, hs1) == hs1.sspace.gen(0)
    top = wedge(hs1.sspace.gen(0), hs1.sspace.gen(1))
    assert clifford_action(hs1.vspace.gen(2), top, hs1) == hs1.sspace.gen(1)


def test_normal_form_examples(hs1):
    x1, x2, y1 = hs1.vspace.gen(0), hs1.vspace.gen(1), hs1.vspace.gen(2)
    assert clifford_mul(x1, y1, hs1) + clifford_mul(y1, x1, hs1) == hs1.vspace.one()
    assert clifford_mul(x1, x2, hs1) == wedge(x1, x2)


MUL_TOWERS = [TowerSpec(1, 1), TowerSpec(2, 1)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tower", MUL_TOWERS, ids=["p1q1", "p2q1"])
def test_mul_matches_composed_action(n, tower, rng):
    # the composed spin action is the reference for the product
    hs = HyperbolicSpace(n, tower)
    for _ in range(12):
        a, b = rand_mv(rng, hs.vspace), rand_mv(rng, hs.vspace)
        lam = rand_mv(rng, hs.sspace)
        lhs = clifford_action(clifford_mul(a, b, hs), lam, hs)
        rhs = clifford_action(a, clifford_action(b, lam, hs), hs)
        assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tower", MUL_TOWERS, ids=["p1q1", "p2q1"])
def test_mul_associative(n, tower, rng):
    hs = HyperbolicSpace(n, tower)
    for _ in range(8):
        a, b, c = (rand_mv(rng, hs.vspace, 3) for _ in range(3))
        assert clifford_mul(clifford_mul(a, b, hs), c, hs) == clifford_mul(
            a, clifford_mul(b, c, hs), hs
        )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tower", GAMMA_TOWERS, ids=["p1q2", "p2q1"])
def test_act_matches_generator_walk(n, tower):
    # every normal-ordered monomial on every basis spinor
    hs = HyperbolicSpace(n, tower)
    for mono in range(1 << hs.dim_v):
        for mask in range(1 << (2 * n)):
            assert hs.act(mono, mask) == walk_act(hs, mono, mask), (mono, mask)


@pytest.mark.parametrize("n", [1, 2])
def test_mul_matches_generator_walk_on_monomial_pairs(n):
    hs = HyperbolicSpace(n, TowerSpec(1, 1))
    monos = [Multivector(hs.vspace, {m: hs.tower.one()}) for m in range(1 << hs.dim_v)]
    for a in monos:
        for b in monos:
            assert clifford_mul(a, b, hs) == walk_mul(a, b, hs), (a, b)


def test_closed_forms_match_walks_on_k_valued_elements(rng):
    # n = 3 over K = Q(sqrt 2, sqrt -1), every tower coordinate drawn
    tower = TowerSpec(2, 1)
    hs = HyperbolicSpace(3, tower)

    def draw(space, nterms):
        return Multivector(space, {rng.randrange(1 << space.m): rand_elem(rng, tower, 3) for _ in range(nterms)})

    for _ in range(6):
        a, b, lam = draw(hs.vspace, 8), draw(hs.vspace, 8), draw(hs.sspace, 8)
        assert clifford_action(a, lam, hs) == walk_action(a, lam, hs)
        assert clifford_mul(a, b, hs) == walk_mul(a, b, hs)
    for _ in range(2):
        c = draw(hs.vspace, 6)
        assert desymbol(_symbol(c, hs), hs) == c


def test_reflection_examples(hs1):
    v = hs1.vector([1, 0, 1, 0])  # x1 + y1, norm 2
    assert vector_rep_reflection(hs1, v, hs1.vector([1, 0, 0, 0])) == hs1.vector([0, 0, 1, 0])
    assert vector_rep_reflection(hs1, v, hs1.vector([0, 1, 0, 0])) == hs1.vector([0, -1, 0, 0])
    with pytest.raises(ValueError):
        vector_rep_reflection(hs1, hs1.vector([1, 0, 0, 0]), hs1.vector([0, 1, 0, 0]))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tower", GAMMA_TOWERS, ids=["p1q2", "p2q1"])
def test_reflection_matches_two_product_reference(n, tower):
    # v = sum a_j x_j + sum b_j y_j has (v, v) = 2 sum a_j b_j: draw a and b
    # in K, then a_i = 1 and b_i solves for (v, v) = +-2; w is K-valued
    hs = HyperbolicSpace(n, tower)
    n2 = 2 * n
    rng = random.Random(31 * n + tower.p)
    for _ in range(12):
        i, s = rng.randrange(n2), rng.choice((1, -1))
        v = [rand_elem(rng, tower, 2) for _ in range(hs.dim_v)]
        v[i] = tower.one()
        v[i + n2] = tower.scalar(s) - sum((v[j] * v[j + n2] for j in range(n2) if j != i), tower.zero())
        assert hs.pair(v, v) == tower.scalar(2 * s)
        w = [rand_elem(rng, tower) for _ in range(hs.dim_v)]
        assert vector_rep_reflection(hs, v, w) == reflection_reference(hs, v, w)


def test_reflection_is_isometry(hs2, rng):
    v = hs2.vector([1, 0, 0, 0, 1, 0, 0, 0])
    for _ in range(8):
        w, w2 = rand_vec(rng, hs2), rand_vec(rng, hs2)
        rw = vector_rep_reflection(hs2, v, w)
        rw2 = vector_rep_reflection(hs2, v, w2)
        assert hs2.pair(rw, rw2) == hs2.pair(w, w2)


def test_so_pair_example(hs1):
    xi = wedge(hs1.vspace.gen(0), hs1.vspace.gen(1))  # x1 ^ x2
    so = SoPair(hs1, xi)
    assert so.ad_vector(hs1.vector([0, 0, 1, 0])) == hs1.vector([0, -1, 0, 0])
    with pytest.raises(ValueError):
        SoPair(hs1, hs1.vspace.gen(0))


def test_so_pair_bracket_and_isometry(hs2, rng):
    deg2 = [m for m in range(1 << hs2.dim_v) if bin(m).count("1") == 2]
    for _ in range(8):
        terms = {m: hs2.tower.scalar(rng.randint(-2, 2)) for m in rng.sample(deg2, 3)}
        xi = Multivector(hs2.vspace, terms)
        if xi.is_zero():
            continue
        so = SoPair(hs2, xi)
        v, w = rand_vec(rng, hs2), rand_vec(rng, hs2)
        assert (hs2.pair(so.ad_vector(v), w) + hs2.pair(v, so.ad_vector(w))).is_zero()
        lam = rand_mv(rng, hs2.sspace)
        vmv = hs2.vector_to_mv(v)
        lhs = so.spin(clifford_action(vmv, lam, hs2)) - clifford_action(vmv, so.spin(lam), hs2)
        assert lhs == clifford_action(hs2.vector_to_mv(so.ad_vector(v)), lam, hs2)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tower", [TowerSpec(1, 2), TowerSpec(2, 1)], ids=["p1q2", "p2q1"])
def test_so_pair_ad_matches_clifford_commutator(n, tower):
    hs = HyperbolicSpace(n, tower)
    dim = hs.dim_v
    deg2 = [m for m in range(1 << dim) if bin(m).count("1") == 2]
    rng = random.Random(7 * n + tower.p)
    pairs = [(1 << i) | (1 << hs.partner(i)) for i in range(2 * n)]  # the x_i y_i
    elems = [{m: tower.one()} for m in deg2]
    elems += [{m: rand_elem(rng, tower) for m in rng.sample(deg2, 4)} for _ in range(6)]
    elems += [{m: rand_elem(rng, tower) for m in pairs + rng.sample(deg2, 2)} for _ in range(3)]
    constants = 0
    for terms in elems:
        so = SoPair(hs, Multivector(hs.vspace, terms))
        constants += not so.constant.is_zero()
        # the reference: column j is xi.e_j - e_j.xi, normal-ordered by clifford_mul
        cols = [mv_to_vector(hs, clifford_mul(so.xi, hs.vspace.gen(j), hs)
                             - clifford_mul(hs.vspace.gen(j), so.xi, hs)) for j in range(dim)]
        assert so.ad == [[cols[j][i] for j in range(dim)] for i in range(dim)]
    assert constants >= len(pairs)


@pytest.mark.parametrize("n", [1, 2])
def test_wedge2_to_so_bijective(n):
    hs = HyperbolicSpace(n, TowerSpec(1, 1))
    deg2 = [m for m in range(1 << hs.dim_v) if bin(m).count("1") == 2]
    rows = []
    for m in deg2:
        so = SoPair(hs, Multivector(hs.vspace, {m: hs.tower.one()}))
        rows.append([x for row in so.ad for x in row])
    assert linalg.rank(rows, hs.tower) == len(deg2)


def _symbol(elem, hs):
    """The action of a Clifford element on basis spinors, as `desymbol` takes it."""
    return lambda m: clifford_action(elem, Multivector(hs.sspace, {m: hs.tower.one()}), hs)


def test_desymbol_examples(hs1):
    assert desymbol(lambda m: Multivector(hs1.sspace, {m: hs1.tower.one()}), hs1) == hs1.vspace.one()
    assert desymbol(_symbol(hs1.vspace.gen(0), hs1), hs1) == hs1.vspace.gen(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbol_desymbol_round_trip(n, rng):
    hs = HyperbolicSpace(n, TowerSpec(1, 2))
    for _ in range(3):
        c = rand_mv(rng, hs.vspace, 5)
        assert desymbol(_symbol(c, hs), hs) == c


@pytest.mark.parametrize("n", [1, 2])
def test_action_is_faithful_rank(n):
    # the 2^(4n) normal-ordered monomials act by linearly independent operators;
    # a full-rank minor over a prime field certifies full rank over Q
    hs = HyperbolicSpace(n, TowerSpec(1, 1))
    dim_s = 1 << (2 * n)
    rows = []
    for mono in range(1 << hs.dim_v):
        elem = Multivector(hs.vspace, {mono: hs.tower.one()})
        flat = []
        for mask in range(dim_s):
            img = clifford_action(elem, Multivector(hs.sspace, {mask: hs.tower.one()}), hs)
            flat.extend(int(img.terms[m].as_rational()) if m in img.terms else 0 for m in range(dim_s))
        rows.append(flat)
    p, ncols = linalg.MOD_PRIMES[0], dim_s * dim_s
    assert ncols - linalg.modp_kernel(rows, ncols, p).shape[1] == 1 << hs.dim_v


@pytest.mark.parametrize("tower", GAMMA_TOWERS, ids=["p1q2", "p2q1"])
def test_derivation_int_matches_leibniz(tower, rng):
    # K-valued matrices, one column zero, on K-valued term dicts of mixed degree
    vspace = HyperbolicSpace(2, tower).vspace
    dim = vspace.m
    for trial in range(8):
        mat = [[rand_elem(rng, tower) if rng.random() < 0.3 else tower.zero() for _ in range(dim)]
               for _ in range(dim)]
        for row in mat:
            row[trial] = tower.zero()
        cols = int_derivation_cols(mat)
        assert cols[trial] == []
        # several dicts, one of them empty, share one operator: each image
        # equals the dict's own
        terms = [rand_mv(rng, vspace, 6).terms for _ in range(3)] + [{}]
        assert all(len({m.bit_count() for m in t}) > 1 for t in terms[:3])
        assert derivation_int(cols, terms) == [leibniz_derivation(vspace, cols, t) for t in terms]
        assert derivation_int(cols, [{}]) == [{}] and derivation_int(cols, []) == []


_SMALL = st.integers(-3, 3).filter(bool)
_WIDE = st.one_of(_SMALL, st.integers(2**62, 2**66), st.integers(-2**66, -2**62))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(data=st.data(), dim=st.integers(2, 6), ngens=st.integers(1, 3), wide=st.booleans())
def test_derivation_table_matches_leibniz(data, dim, ngens, wide):
    # a random sparse integer generator set, with a generator of no entries and
    # an empty column, bound to random starts (one empty): every image, on
    # object, int64 (when its bound allows; coefficients of 2^62 and more
    # force Python ints) and mod-p columns, against Leibniz
    space = GeneratorSpace([f"e{i}" for i in range(dim)], TowerSpec(1, 1))
    coef = _WIDE if wide else _SMALL
    column = st.dictionaries(st.integers(0, dim - 1), coef, max_size=2).map(lambda c: sorted(c.items()))
    gens = data.draw(st.lists(st.lists(column, min_size=dim, max_size=dim), min_size=ngens, max_size=ngens))
    gens.insert(data.draw(st.integers(0, ngens)), [[] for _ in range(dim)])
    gens[data.draw(st.integers(0, ngens))][data.draw(st.integers(0, dim - 1))] = []
    table = DerivationOperators(gens)
    assert table.count == ngens + 1 and table.dim == dim
    assert table.cmax == max((abs(c) for cols in gens for col in cols for _, c in col), default=0)
    p = linalg.MOD_PRIMES[0]
    starts = [[], sorted(data.draw(st.sets(st.integers(0, (1 << dim) - 1), min_size=1)))]
    for start in starts:
        ops = table.bind(start)
        rows = st.lists(st.integers(-5, 5), min_size=2, max_size=2)
        X = np.array(data.draw(st.lists(rows, min_size=len(start), max_size=len(start))), dtype=object)
        X = X.reshape(-1, 2)
        whole = ops.image(X, range(table.count))
        for j, cols in enumerate(gens):
            rows = slice(ops.rows[j], ops.rows[j + 1])
            dst = ops.dst[rows].tolist()
            assert dst == sorted(set(dst)) and (ops.gen[rows] == j).all()
            # object columns, and residues under the entries mod p
            paths = [(X, None), ((X % p).astype(np.int64), p)]
            if dim * dim * table.cmax * 5 < 2**63:  # the bound of `image`, over the whole table
                paths.append((X.astype(np.int64), None))
            for Y, q in paths:
                got = ops.image(Y, range(j, j + 1), p=q)
                assert got.dtype == (np.int64 if q else Y.dtype) and got.shape == (len(dst), 2)
                if q is None:
                    assert (got == whole[rows]).all()
                for c in range(2):
                    terms = {m: int(x) for m, x in zip(start, Y[:, c].tolist()) if x}
                    want = leibniz_derivation(space, cols, terms)
                    want = {m: int(x.as_rational()) for m, x in want.items()}
                    have = dict(zip(dst, got[:, c].tolist()))
                    if q:
                        want, have = ({m: x % q for m, x in d.items() if x % q} for d in (want, have))
                    assert {m: x for m, x in have.items() if x} == want


@settings(deadline=None, derandomize=True, max_examples=40)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), tower=st.sampled_from(GAMMA_TOWERS))
def test_so_pair_columns_are_the_sparse_form_of_ad(data, n, tower):
    hs = HyperbolicSpace(n, tower)
    deg2 = [m for m in range(1 << hs.dim_v) if m.bit_count() == 2]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    terms = {m: rand_elem(rng, tower) for m in rng.sample(deg2, data.draw(st.integers(0, min(8, len(deg2)))))}
    so = SoPair(hs, Multivector(hs.vspace, terms))
    assert so.cols == int_derivation_cols(so.ad)
    v = rand_vec(rng, hs)
    assert so.ad_vector(v) == mat_vec(so.ad, v, tower)
