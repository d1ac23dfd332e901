"""The modular certificate path against exact Python-integer arithmetic."""

import random

import numpy as np
import pytest

from weilspin import linalg

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
    got = linalg.modp_joint_kernel_dim(_start(ncols, range(ncols)), map(_operator, mats), p)
    assert got == expected
    # inside a coordinate subspace: the kernel of the columns kept
    cols = sorted(rng.sample(range(ncols), 18))
    restricted = [[row[c] for c in cols] for m in mats for row in m]
    got = linalg.modp_joint_kernel_dim(_start(ncols, cols), map(_operator, mats), p)
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

    assert linalg.modp_joint_kernel_dim(start, [op], P) == 15 - _rank_mod_p(rows, P)
    # the first operator sees the start itself, and K @ KB is the one product
    assert seen[0].tolist() == start.tolist()
    assert calls == [1]


def test_joint_kernel_stops_when_empty():
    rng = random.Random(5)
    consumed = []

    def ops():
        for i in range(5):
            consumed.append(i)
            yield _operator([[rng.randrange(P - 1000, P) for _ in range(6)] for _ in range(4)])

    # 4 + 4 generic rows already span all of F_p^6
    assert linalg.modp_joint_kernel_dim(_start(6, range(6)), ops(), P) == 0
    assert consumed == [0, 1]


def test_no_matrices_leaves_everything():
    assert linalg.modp_joint_kernel_dim(_start(5, [0, 2, 4]), iter(()), P) == 3


def test_modp_rank_and_kernel_take_big_ints_and_arrays():
    big = 10**30
    rows = [[big + 1, -big, 3], [2 * (big + 1), -2 * big, 6], [big * big, 0, 1]]
    assert linalg.modp_rank(rows, P) == _rank_mod_p(rows, P) == 2
    reduced = np.array([[x % P for x in row] for row in rows], dtype=np.int64)
    assert linalg.modp_rank(reduced, P) == 2
    for given in (rows, reduced, reduced.astype(np.float64)):
        K = linalg.modp_kernel(given, 3, P)
        assert K.shape == (3, 1)
        assert not (reduced @ K % P).any()
    assert linalg.modp_rank(np.zeros((0, 3)), P) == 0
    assert linalg.modp_kernel([], 3, P).tolist() == np.eye(3, dtype=np.int64).tolist()
