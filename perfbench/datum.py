"""Seeded custom datum for the eightfold-lie workload.

A principal polarization J = sum_i y_i ^ y_{i+n} on an abelian n-fold with
F = Q, moved to another lattice basis: for g in SL(2n, Z), Theta = g^T J g
and the dual F-basis is the columns of g^{-1}.  Then
b_a^T Theta b_c = (g^{-1} e_a)^T g^T J g (g^{-1} e_c) = J[a][c], which is 0
for a, c < n, so the first half of the basis stays Theta-isotropic, as
WeilDatum requires (the identity basis would not be).

g = g0 P.  g0 is a fixed product of elementary column operations that
makes Theta dense with small entries; P is a seeded signed permutation of
determinant 1.  So every seed gives a relabelling of the same Theta, with
entries of the same sizes, and the cost of a run depends little on the seed.
"""

from __future__ import annotations

import random

N = 4
Q = 2
BASE_SEED = 0  # draws g0; fixed, so that only the relabelling depends on --seed
OPS = 10  # elementary column operations per draw of g0
MAX_ENTRY = 3  # redraw g0 until every |Theta| entry is at most this
NONZERO = 16  # ... and this many of the C(2n, 2) upper entries are nonzero


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _identity(dim: int):
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def principal_form(n: int):
    dim = 2 * n
    j = [[0] * dim for _ in range(dim)]
    for i in range(n):
        j[i][i + n] = 1
        j[i + n][i] = -1
    return j


def random_basis_change(rng: random.Random, dim: int, ops: int):
    """(g, g^{-1}) for g a product of elementary column operations col_j += c col_i."""
    g = _identity(dim)
    ginv = _identity(dim)
    for _ in range(ops):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        for r in range(dim):
            g[r][j] += c * g[r][i]
        # the inverse of (I + c E_ij), applied on the right, is (I - c E_ij) on the left
        for col in range(dim):
            ginv[i][col] -= c * ginv[j][col]
    return g, ginv


def base_change(n: int):
    """The fixed g0 (and its inverse): dense Theta0 = g0^T J g0 with small entries."""
    rng = random.Random(BASE_SEED)
    dim = 2 * n
    j = principal_form(n)
    while True:
        g, ginv = random_basis_change(rng, dim, OPS)
        theta = _matmul(_matmul(_transpose(g), j), g)
        entries = [abs(theta[a][b]) for a in range(dim) for b in range(a + 1, dim)]
        if sum(1 for x in entries if x) == NONZERO and max(entries) <= MAX_ENTRY:
            return g, ginv


def signed_permutation(rng: random.Random, dim: int):
    """A seeded signed permutation matrix of determinant 1."""
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((-1, 1)) for _ in range(dim)]
    inversions = sum(1 for a in range(dim) for b in range(a + 1, dim) if perm[a] > perm[b])
    sign_product = 1
    for s in signs:
        sign_product *= s
    if (-1) ** inversions * sign_product < 0:
        signs[0] = -signs[0]
    p = [[0] * dim for _ in range(dim)]
    for col, (row, s) in enumerate(zip(perm, signs)):
        p[row][col] = s
    return p


def generate(seed: int, n: int = N, q: int = Q) -> dict:
    """Datum JSON (the `weilspin verify --input` format) for a seed."""
    dim = 2 * n
    g0, g0inv = base_change(n)
    p = signed_permutation(random.Random(seed), dim)
    g = _matmul(g0, p)
    ginv = _matmul(_transpose(p), g0inv)
    if _matmul(g, ginv) != _identity(dim):
        raise AssertionError("basis change inverse is wrong")
    theta = _matmul(_matmul(_transpose(g), principal_form(n)), g)
    return {
        "name": f"eightfold-lie-s{seed}",
        "tower": {"p": 1, "q": {"num": q, "den": 1}},
        "n": n,
        "eta_hat": _identity(dim),
        "theta": [[[x, 0] for x in row] for row in theta],
        "dual_f_basis": _transpose(ginv),
    }
