"""The exact kernels against dense references, and the modular certificate
path against exact Python-integer arithmetic."""

import itertools
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilspin import linalg
from weilspin.fieldtower import TowerSpec

from conftest import in_span, mat_mul, mat_scale, mat_vec, zassenhaus_intersect

P = linalg.MOD_PRIMES[0]
#: the largest prime below 2^26: (P_BIG - 1)^2 is close to 2^53, so
#: `_matmul_mod` sums at most 2 inner terms per block
P_BIG = 67108859


def _block(p):
    return ((1 << 53) - 1) // (p - 1) ** 2


def _rank_mod_p(rows, p):
    """Rank by plain Gaussian elimination on Python ints mod p."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rand_rows(rng, nrows, ncols, p):
    """Rows with entries in [p-1000, p), the largest residues; about a third
    of them repeat an earlier row so that ranks are not simply row counts."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([rng.randrange(p - 1000, p) for _ in range(ncols)])
    return rows


def _as_array(rows):
    return np.array(rows, dtype=np.float64)


@pytest.mark.parametrize("p, inner", [(P, _block(P) + 9), (P_BIG, 9)])
def test_matmul_mod_matches_exact_products(p, inner):
    assert _block(p) < inner  # more than one block is summed
    rng = random.Random(p)
    a = [[rng.randrange(p - 1000, p) for _ in range(inner)] for _ in range(3)]
    b = [[rng.randrange(p - 1000, p) for _ in range(4)] for _ in range(inner)]
    exact = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    got = linalg._matmul_mod(_as_array(a), _as_array(b), p)
    assert got.dtype == np.float64
    assert got.astype(np.int64).tolist() == exact


def _operator(rows):
    """X |-> M X for the integer matrix M with the given rows; int64 holds
    every product, since ncols (p-1)^2 < 2^63 for the sizes used here."""
    mat = np.array(rows, dtype=np.int64)
    return lambda X: mat @ X


def _start(ncols, cols):
    """Identity columns of F_p^ncols at the given coordinates."""
    K = np.zeros((ncols, len(cols)), dtype=np.int64)
    K[cols, np.arange(len(cols))] = 1
    return K


@pytest.mark.parametrize("p", [P, P_BIG])
@pytest.mark.parametrize("seed", range(4))
def test_joint_kernel_matches_python_elimination(p, seed):
    rng = random.Random(seed)
    ncols = 24
    mats = [_rand_rows(rng, rng.randrange(1, 6), ncols, p) for _ in range(4)]
    expected = ncols - _rank_mod_p([row for m in mats for row in m], p)
    assert 0 < expected < ncols
    got = linalg.modp_joint_kernel_dim(_start(ncols, range(ncols)), map(_operator, mats), p, 0)
    assert got == expected
    # inside a coordinate subspace: the kernel of the columns kept
    cols = sorted(rng.sample(range(ncols), 18))
    restricted = [[row[c] for c in cols] for m in mats for row in m]
    got = linalg.modp_joint_kernel_dim(_start(ncols, cols), map(_operator, mats), p, 0)
    assert got == len(cols) - _rank_mod_p(restricted, p)


def test_start_is_used_without_elimination(monkeypatch):
    calls = []
    real = linalg._matmul_mod
    monkeypatch.setattr(linalg, "_matmul_mod", lambda *a: calls.append(1) or real(*a))
    rng = random.Random(11)
    rows = _rand_rows(rng, 7, 15, P)
    start = _start(15, range(15))
    seen = []

    def op(X):
        seen.append(X.copy())
        return _operator(rows)(X)

    assert linalg.modp_joint_kernel_dim(start, [op], P, 0) == 15 - _rank_mod_p(rows, P)
    # the first operator sees the start itself; on an identity start the
    # kernel basis becomes K, with no product
    assert seen[0].tolist() == start.tolist()
    assert calls == []
    # on a proper coordinate start, K @ KB is the one product
    cols = list(range(0, 15, 2))
    start = _start(15, cols)
    restricted = [[row[c] for c in cols] for row in rows]
    assert linalg.modp_joint_kernel_dim(start, [op], P, 0) == len(cols) - _rank_mod_p(restricted, P)
    assert seen[1].tolist() == start.tolist()
    assert calls == [1]


@pytest.mark.parametrize("ncols, cols", [(6, range(6)), (6, [0, 2, 4])])
def test_operator_killing_the_span_makes_no_product(ncols, cols, monkeypatch):
    calls = []
    real = linalg._matmul_mod
    monkeypatch.setattr(linalg, "_matmul_mod", lambda *a: calls.append(1) or real(*a))
    rows = [[1, 2, 0, 0, 0, 5], [0, 0, 0, 3, 1, 0]]
    seen = []

    def recorded(op):
        return lambda X: seen.append(X.copy()) or op(X)

    zero = recorded(lambda X: P * X[:4])  # a nonzero integer matrix, 0 mod p
    start = _start(ncols, cols)
    restricted = [[row[c] for c in cols] for row in rows]
    ops = [zero, recorded(_operator(rows)), zero]
    assert linalg.modp_joint_kernel_dim(start, ops, P, 0) == len(cols) - _rank_mod_p(restricted, P)
    # an operator that is 0 mod p leaves K as it was, so the second one sees the start;
    # only a proper start is multiplied, once, by the second one's kernel
    assert seen[0].tolist() == seen[1].tolist() == start.tolist()
    assert calls == ([] if len(cols) == ncols else [1])


def test_joint_kernel_stops_when_empty():
    rng = random.Random(5)
    consumed = []

    def ops():
        for i in range(5):
            consumed.append(i)
            yield _operator([[rng.randrange(P - 1000, P) for _ in range(6)] for _ in range(4)])

    # 4 + 4 generic rows already span all of F_p^6
    assert linalg.modp_joint_kernel_dim(_start(6, range(6)), ops(), P, 0) == 0
    assert consumed == [0, 1]


def test_no_matrices_leaves_everything():
    assert linalg.modp_joint_kernel_dim(_start(5, [0, 2, 4]), iter(()), P, 0) == 3


class Untouchable:
    """An operator iterable that fails if an operator is taken from it."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("an operator was consumed past the floor")


def test_empty_start_consumes_no_operator():
    # a start with no columns has joint kernel 0 whatever the operators are
    assert linalg.modp_joint_kernel_dim(_start(6, []), Untouchable(), P, 0) == 0


def test_joint_kernel_stops_at_its_floor():
    # once K is at most `floor` wide no operator is taken: the joint kernel of
    # all of them lies inside the kernel so far
    rng = random.Random(0)
    mats = [_rand_rows(rng, 2, 10, P) for _ in range(3)]
    widths = [10 - _rank_mod_p([row for m in mats[:i] for row in m], P) for i in range(4)]
    assert widths == [10, 8, 6, 4]
    for floor in (10, 12):
        assert linalg.modp_joint_kernel_dim(_start(10, range(10)), Untouchable(), P, floor) == 10
    for i, floor in enumerate((8, 6, 4)):
        ops = itertools.chain(map(_operator, mats[:i + 1]), Untouchable())
        assert linalg.modp_joint_kernel_dim(_start(10, range(10)), ops, P, floor) == widths[i + 1]
    # on a proper start, the 8 columns of cols cut to their kernel
    cols = list(range(8))
    restricted = [[row[c] for c in cols] for row in mats[0]]
    ops = itertools.chain([_operator(mats[0])], Untouchable())
    assert linalg.modp_joint_kernel_dim(_start(10, cols), ops, P, 6) == 8 - _rank_mod_p(restricted, P) == 6
    # floor 0 takes every operator; a floor of 7, passed in one step from 8 to 6, returns 6
    assert linalg.modp_joint_kernel_dim(_start(10, range(10)), map(_operator, mats), P, 0) == 4
    ops = itertools.chain(map(_operator, mats[:2]), Untouchable())
    assert linalg.modp_joint_kernel_dim(_start(10, range(10)), ops, P, 7) == 6


def test_modp_rank_and_kernel_take_big_ints_and_arrays():
    big = 10**30
    rows = [[big + 1, -big, 3], [2 * (big + 1), -2 * big, 6], [big * big, 0, 1]]
    assert 3 - linalg.modp_kernel(rows, 3, P).shape[1] == _rank_mod_p(rows, P) == 2
    reduced = np.array([[x % P for x in row] for row in rows], dtype=np.int64)
    for given in (rows, reduced, reduced.astype(np.float64)):
        K = linalg.modp_kernel(given, 3, P)
        assert K.shape == (3, 1)
        assert not (reduced @ K % P).any()
    for empty in ([], np.zeros((0, 3))):
        assert linalg.modp_kernel(empty, 3, P).tolist() == np.eye(3, dtype=np.int64).tolist()


def test_matrix_to_int_global_matches_fraction_clearing():
    # reference: the least common denominator of the Fractions, times each
    rng = random.Random(11)
    for tower in (TowerSpec(1, 2), TowerSpec(2, 1)):
        for _ in range(20):
            fracs = [[Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(4)] for _ in range(3)]
            fracs[0][0] = Fraction(2**70 + 1, 3**5)
            den = 1
            for f in (f for row in fracs for f in row):
                den = den * f.denominator // gcd(den, f.denominator)
            got = linalg.int_form([[tower.scalar(f) for f in row] for row in fracs])[0]
            assert got == [[int(f * den) for f in row] for row in fracs]
        with pytest.raises(ValueError, match="not rational"):
            linalg.int_form([[tower.one(), tower.sqrt_minus_q()]])
    assert linalg.int_form([])[0] == []


# -- exact kernels: sparse elimination against a dense reference ------------

KERNEL_TOWERS = [TowerSpec(1, 2), TowerSpec(2, 1)]
small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def sparse_rows(draw, tower, nrows, ncols):
    """Rows with at least half of their entries zero, mixed with zero rows
    and repeats of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("sparse", "sparse", "zero", "repeat")))
        if kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "zero":
            rows.append([tower.zero()] * ncols)
        else:
            support = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
            rows.append([tower.elem(*draw(st.tuples(small, small, small, small)))
                         if j in support else tower.zero() for j in range(ncols)])
    return rows


def _dense_rref(rows):
    """Gauss-Jordan that rewrites every entry of every row at each step."""
    mat = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _dense_nullspace(rows, ncols, tower):
    red, pivots = _dense_rref(rows)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [tower.zero()] * ncols
        v[f] = tower.one()
        for row, pc in zip(red, pivots):
            v[pc] = -row[f]
        out.append(v)
    return out


def _dense_solve(rows, rhs, tower):
    ncols = len(rows[0])
    red, pivots = _dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [tower.zero()] * ncols
    for row, pc in zip(red, pivots):
        x[pc] = row[-1]
    return x


def _dense_in_span(red, pivots, v):
    for row, pc in zip(red, pivots):
        f = v[pc]
        v = [a - f * b for a, b in zip(v, row)]
    return all(x.is_zero() for x in v)


def _dense_intersect(a, b, tower):
    n = len(a[0])
    red, _ = _dense_rref([r + r for r in a] + [r + [tower.zero()] * n for r in b])
    tails = [row[n:] for row in red if all(x.is_zero() for x in row[:n])]
    return _dense_rref([t for t in tails if not all(x.is_zero() for x in t)])[0]


def _dense_mat_mul(a, b, tower):
    return [[sum((row[t] * b[t][j] for t in range(len(b))), tower.zero())
             for j in range(len(b[0]))] for row in a]


def _dense_inverse(mat, tower):
    n = len(mat)
    ident = [[tower.one() if i == j else tower.zero() for j in range(n)] for i in range(n)]
    red, pivots = _dense_rref([r + e for r, e in zip(mat, ident)])
    return [row[n:] for row in red] if pivots[:n] == list(range(n)) else None


@settings(deadline=None, derandomize=True, max_examples=50)
@given(tower=st.sampled_from(KERNEL_TOWERS), data=st.data())
def test_exact_kernels_match_dense_reference(tower, data):
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 7))
    a = data.draw(sparse_rows(tower, nrows, ncols))
    b = data.draw(sparse_rows(tower, data.draw(st.integers(1, 5)), ncols))
    vec = data.draw(sparse_rows(tower, 1, ncols))[0]
    rhs = data.draw(sparse_rows(tower, 1, nrows + 1))[0][:nrows]
    square = data.draw(sparse_rows(tower, ncols, ncols))
    for i in range(ncols):  # make most draws invertible
        square[i][i] = square[i][i] + 1
    bt = [list(c) for c in zip(*b)]
    inputs = [a, b, bt, [vec], [rhs], square]
    before = [[list(r) for r in m] for m in inputs]

    def same(got, expected):
        assert got == expected
        # elimination runs in place, but only on rref's own copies
        assert [[list(r) for r in m] for m in inputs] == before

    red, pivots = _dense_rref(a)
    same(linalg.rref(a, tower), (red, pivots))
    same(linalg.nullspace(a, ncols, tower), _dense_nullspace(a, ncols, tower))
    same(linalg.solve(a, rhs, tower), _dense_solve(a, rhs, tower))
    member = [sum((c * row[j] for c, row in zip(rhs, a)), tower.zero()) for j in range(ncols)]
    same(in_span(red, pivots, member, tower), True)
    same(in_span(red, pivots, vec, tower), _dense_in_span(red, pivots, vec))
    same(zassenhaus_intersect(a, b, tower), _dense_intersect(a, b, tower))
    same(mat_mul(a, bt, tower), _dense_mat_mul(a, bt, tower))
    for v in (vec, [Fraction(j % 3 - 1, 2) for j in range(ncols)]):  # rationals are coerced
        column = _dense_mat_mul(a, [[tower.scalar(x)] for x in v], tower)
        same(mat_vec(a, v, tower), [row[0] for row in column])
    inverse = _dense_inverse(square, tower)
    if inverse is None:
        with pytest.raises(ValueError):
            linalg.mat_inverse(square, tower)
    else:
        same(linalg.mat_inverse(square, tower), inverse)


def _from_k(arr):
    """A K-valued array of matrices back to `FieldElem` rows."""
    (nums, den), tower = arr
    nums = np.concatenate([nums, np.zeros((4 - len(nums),) + nums.shape[1:], dtype=nums.dtype)])
    return [[tower.elem(*(Fraction(int(c), den) for c in nums[:, i, j])) for j in range(nums.shape[2])]
            for i in range(nums.shape[1])]


@pytest.mark.parametrize("tower", [TowerSpec(1, Fraction(5, 2)), TowerSpec(2, Fraction(7, 3)), TowerSpec(3, 1)])
@pytest.mark.parametrize("scale", [1, 2**62 + 3])
def test_k_arrays_match_fieldelem_products(tower, scale):
    # K-valued integer arrays against FieldElem matrix products, sums and
    # scalar multiples; a scale of 2^62 + 3 puts every product past int64
    rng = random.Random(tower.p * 97 + scale % 89)

    def rand(rows, cols):
        return [[tower.elem(*(Fraction(rng.randint(-4, 4) * scale, rng.randint(1, 3)) for _ in range(4)))
                 for _ in range(cols)] for _ in range(rows)]

    a, b, c, s = rand(3, 4), rand(4, 2), rand(3, 2), rand(1, 1)[0][0]
    ka, kb, kc = linalg.k_form(a), linalg.k_form(b), linalg.k_form(c)
    prod = linalg.k_mul(tower, ka, kb)
    assert (prod[0].dtype == object) == (scale > 1)
    assert _from_k((prod, tower)) == mat_mul(a, b, tower)
    total = linalg.k_stack([prod, kc], total=True)
    assert _from_k((total, tower)) == [[x + y for x, y in zip(r, t)] for r, t in zip(mat_mul(a, b, tower), c)]
    scalar = (np.array(s.n, dtype=object), s.d)
    assert _from_k((linalg.k_mul(tower, scalar, kc, np.multiply), tower)) == mat_scale(c, s)
    # a rational operand may hold coordinate 0 alone
    r = [[tower.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)] for _ in range(3)]
    kr = linalg.k_form(r)
    assert _from_k((linalg.k_mul(tower, (kr[0][:1], kr[1]), ka), tower)) == mat_mul(r, a, tower)
