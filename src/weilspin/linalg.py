"""Exact linear algebra over the tower field.

One rule: `FieldElem` rows for elimination, K-valued integer arrays for
products.  A subspace is a list of coordinate rows (lists of FieldElem),
reduced by exact elimination (`rref`, `rank`, `nullspace`, `solve`,
`spans_equal`, `mat_inverse`).  Elimination touches only the
nonzero entries: the arithmetic is exact, a - f * 0 = a, and FieldElem is
canonical, so every row, pivot and kernel vector is that of a dense pass.

For large rank/kernel-dimension questions there is a separate modular
certificate path (`modp_kernel`, `modp_joint_kernel_dim`):
ranks computed over a prime field only ever *lower-bound* the rational
rank, so combining a modular kernel dimension with exactly exhibited kernel
vectors yields a fully rigorous dimension count at a fraction of the cost.
Products mod p run in float64 through BLAS, where floats serve only as
exact integers below 2^53 (see `_matmul_mod`); no float reaches a verdict.

Matrices over the tower are multiplied in their exact integer form, the
K-valued arrays (nums, den) below: `k_mul` multiplies them coordinate by
coordinate on integers, `k_equal` compares them, `bilinear` evaluates a Gram
matrix on rational vectors, `preserves_graph` decides whether block
matrices preserve graphs and `graph_meet` intersects two graphs.  `k_form`
and `k_rows` convert to and from rows, and `graph_rows` gives the rows of a
graph.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from .fieldtower import FieldElem, TowerSpec


def rref(rows, tower: TowerSpec):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    Zero rows are dropped; pivots are normalized to 1.  The copied rows are
    reduced in place over the pivot row's nonzero columns (all >= c).
    """
    if not rows:
        return [], []
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not mat[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        prow = mat[r]
        inv = prow[c].inv()
        support = [j for j in range(c, ncols) if not prow[j].is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for i in range(nrows):
            row = mat[i]
            if i != r and not row[c].is_zero():
                f = row[c]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat[:r], pivots


def rank(rows, tower: TowerSpec) -> int:
    return len(rref(rows, tower)[0])


def nullspace(rows, ncols: int, tower: TowerSpec):
    """Basis of {v : M v = 0} for the matrix M with the given rows."""
    red, pivots = rref(rows, tower)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    zero, one = tower.zero(), tower.one()
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, pc in zip(red, pivots):
            v[pc] = -r[f]
        basis.append(v)
    return basis


def solve(rows, rhs, tower: TowerSpec):
    """One solution x of M x = b, or None when inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, tower)
    zero = tower.zero()
    x = [zero] * ncols
    for r, pc in zip(red, pivots):
        if pc == ncols:
            return None  # pivot in augmented column
        x[pc] = r[-1]
    return x


def spans_equal(a_rows, b_rows, tower: TowerSpec) -> bool:
    return rref(a_rows, tower)[0] == rref(b_rows, tower)[0]


def mat_inverse(mat, tower: TowerSpec):
    n, zero, one = len(mat), tower.zero(), tower.one()
    aug = [list(row) + [one if j == i else zero for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = rref(aug, tower)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def int_dtype(bound: int):
    """int64 for integers bounded by `bound` below 2^63, else Python ints; the
    bound is formed on Python ints, so it cannot wrap."""
    return np.int64 if bound >> 63 == 0 else object


# -- K-valued arrays in exact integer form -----------------------------------
#
# A K-valued array is (nums, den): nums[k] holds the integer numerators of its
# coordinate k over the tower basis e = (1, sqrt p, sqrt -q, sqrt p sqrt -q),
# over one positive den, as in `FieldElem`: int64 under the bound of
# `int_dtype`, else Python ints.  The coordinate axis may stop early: a
# rational array may hold e_0 alone.


def int_form(rows):
    """(integer rows, den): a rational matrix as integer numerators over the
    lcm of its denominators, read straight off each entry's lowest-terms
    (n, d); raises ValueError on an irrational entry."""
    bad = next((x for row in rows for x in row if x.n[1] or x.n[2] or x.n[3]), None)
    if bad is not None:
        raise ValueError(f"{bad} is not rational")
    den = lcm(*{x.d for row in rows for x in row})
    return [[x.n[0] * (den // x.d) for x in row] for row in rows], den


def _height(nums) -> int:
    return int(abs(nums).max(initial=0))


def k_form(rows):
    """A matrix of `FieldElem`s as a K-valued array."""
    den = lcm(*(x.d for row in rows for x in row))
    ints = [[[c * (den // x.d) for c in x.n] for x in row] for row in rows]
    return np.array(ints, dtype=int_dtype(max(abs(c) for row in ints for x in row for c in x))).transpose(2, 0, 1), den


def k_rows(tower: TowerSpec, arr):
    """A K-valued array of one matrix as rows of `FieldElem`s."""
    nums, den = arr
    pad = (0,) * (4 - len(nums))
    return [[FieldElem(tower, tuple(x) + pad, den) for x in row] for row in np.moveaxis(nums, 0, -1).tolist()]


def k_mul(tower: TowerSpec, x, y, op=np.matmul):
    """op(x, y) for K-valued arrays, op a matmul or an elementwise product (a
    shorter operand gains axes after its coordinate axis).

    e_a e_b = p^(a & b & 1) (-q)^(a & b >> 1) e_(a ^ b), bit 0 of an index
    standing for sqrt p and bit 1 for sqrt -q.  With -q = -qn / qd, each pair
    of nonzero coordinates is one integer op times qd or -qn (and p), over
    den x den y qd; a coordinate sums at most 4 of them, each below
    inner p max(qn, qd) max|x| max|y|, inner the length of a matmul's sums."""
    (xn, xd), (yn, yd) = x, y
    nd, p, qn, qd = max(xn.ndim, yn.ndim), tower.p, tower.qn, tower.qd
    xn, yn = (n.reshape(n.shape[:1] + (1,) * (nd - n.ndim) + n.shape[1:]) for n in (xn, yn))
    dtype = int_dtype(4 * (xn.shape[-1] if op is np.matmul else 1) * p * max(qn, qd) * _height(xn) * _height(yn))
    xs, ys = ([a for a in range(len(n)) if n[a].any()] for n in (xn, yn))
    terms = op(xn[xs].astype(dtype)[:, None], yn[ys].astype(dtype)[None])
    out = np.zeros((4,) + terms.shape[2:], dtype=dtype)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[a ^ b] += (p if a & b & 1 else 1) * (-qn if a & b & 2 else qd) * terms[i, j]
    return out, xd * yd * qd


def k_stack(arrays, total=False):
    """K-valued arrays (their shapes broadcast) stacked on a new axis after
    the coordinate axis over the lcm of their denominators, or their sum."""
    den = lcm(*(d for _, d in arrays))
    dtype = int_dtype(sum(_height(n) * (den // d) for n, d in arrays))
    out = np.zeros((4, len(arrays)) + np.broadcast_shapes(*(n.shape[1:] for n, _ in arrays)), dtype=dtype)
    for i, (n, d) in enumerate(arrays):
        out[:len(n), i] = n.astype(dtype) * (den // d)
    return (out.sum(axis=1) if total else out), den


def k_equal(x, y) -> bool:
    """Whether two K-valued arrays (their shapes broadcast) are equal."""
    return not k_stack([x, (-y[0], y[1])], total=True)[0].any()


def bilinear(tower: TowerSpec, form, u, v):
    """u^T G v for the K-valued Gram matrix G of `form` and rational vectors
    u, v, lists of ints or of `FieldElem`s, as a `FieldElem`.  G may be a
    stack (`k_stack`) and u, v equal-length lists of vectors, taken in
    pairs: the values are then an object array, by Gram matrix and then by
    pair.  Each coordinate is one integer product, below
    dim^2 max|u| max|G| max|v|.  A coordinate outside Q raises ValueError."""
    nums, den = form
    single = not isinstance(u[0], list)
    rows = ([w] if single else w for w in (u, v))
    (un, ud), (vn, vd) = (int_form(r) if isinstance(r[0][0], FieldElem) else (r, 1) for r in rows)
    hu, hv = (max(max(map(max, w)), -min(map(min, w))) for w in (un, vn))
    dtype = int_dtype(nums.shape[-1] ** 2 * _height(nums) * hu * hv)
    U, V = np.array(un, dtype=dtype), np.array(vn, dtype=dtype)
    out = (U.T * (nums.astype(dtype, copy=False) @ V.T)).sum(axis=-2)
    vals, pad = np.empty(out.shape[1:], dtype=object), (0,) * (4 - len(out))
    vals.flat = [FieldElem(tower, tuple(c) + pad, den * ud * vd) for c in out.reshape(len(out), -1).T.tolist()]
    return vals[..., 0][()] if single else vals


def preserves_graph(tower: TowerSpec, mats, graphs) -> bool:
    """Whether every rational matrix of the integer stack `mats` maps the
    graph {(M y, y)} of every K-valued matrix M of the stack `graphs` into
    itself.  [[P, Q], [R, S]] (x-block first) sends (M y, y) to
    (P M y + Q y, R M y + S y), which is (M z, z) for z = (R M + S) y exactly
    when P M y + Q y = M (R M + S) y: for every y, P M + Q = M (R M + S).
    Both sides scale with the matrix, so its integer form decides it."""
    n2 = graphs[0].shape[-1]
    M = graphs[0][..., None, :, :], graphs[1]
    P, Q, R, S = ((mats[:, i:i + n2, j:j + n2][None], 1) for i in (0, n2) for j in (0, n2))
    lhs = k_stack([k_mul(tower, P, M), Q], total=True)
    return k_equal(lhs, k_mul(tower, M, k_stack([k_mul(tower, R, M), S], total=True)))


def graph_rows(tower: TowerSpec, A, ys=None):
    """The rows (A y, y) of the graph {(A y, y)} of a K-valued square matrix
    A, as rows of `FieldElem`s, for y in the rows ys (the unit vectors by
    default, a basis of the graph)."""
    nums, den = A
    ys = [[tower.scalar(int(i == j)) for i in range(len(nums[0]))] for j in range(len(nums[0]))] if ys is None else ys
    if not ys:
        return []
    ay = k_rows(tower, k_mul(tower, k_form(ys), (nums.swapaxes(-1, -2), den)))
    return [x + y for x, y in zip(ay, ys)]


def graph_meet(tower: TowerSpec, A, B):
    """A basis of {(A y, y)} meet {(B y, y)} for K-valued square matrices A
    and B over one denominator, as rows of `FieldElem`s: the rows (A y, y)
    for y in the kernel of A - B, the difference of their numerators.  A
    common vector has one y-part, so it is (A y, y) with A y = B y."""
    (a, den), (b, _) = A, B
    dtype = int_dtype(2 * max(_height(a), _height(b)))
    diff = a.astype(dtype) - b.astype(dtype), den
    return graph_rows(tower, A, nullspace(k_rows(tower, diff), a.shape[-1], tower))


# -- modular certificates ----------------------------------------------------

#: primes just below 2^20.  Any prime with (p-1)^2 < 2^53 keeps the float64
#: products of `_matmul_mod` exact; a larger one only shrinks their blocks.
MOD_PRIMES = (1048573, 1048571, 1048559, 1048549)


def _residues(rows, p: int) -> np.ndarray:
    """int64 array of the entries mod p.

    Python ints are reduced before numpy sees them, so entries of any size
    are accepted; an ndarray is reduced in numpy.
    """
    if isinstance(rows, np.ndarray):
        return rows.astype(np.int64) % p
    return np.array([[x % p for x in row] for row in rows], dtype=np.int64)


def _rref_mod_p(M: np.ndarray, p: int):
    """In-place row reduction of an int64 array with entries in [0, p);
    returns the pivot column list."""
    nrows, ncols = M.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        col_all = M[:, c].copy()
        col_all[r] = 0
        nzrows = np.nonzero(col_all)[0]
        if nzrows.size:
            M[nzrows] = (M[nzrows] - np.outer(col_all[nzrows], M[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p for float64 arrays with integer entries in [0, p),
    for a prime p with (p-1)^2 < 2^53.

    Exactness: every product of two entries is an integer in [0, (p-1)^2],
    so a block of at most (2^53 - 1) // (p-1)^2 inner terms sums to an
    integer below 2^53.  float64 holds every integer below 2^53 exactly, and
    every partial sum of such a block is one of them, so BLAS returns the
    exact integer in whatever order it adds.  Each block is reduced mod p
    (exact for nonnegative floats) before it is added to the running sum,
    which stays below 2p; the result is exact for any inner dimension.
    Floats here are only exact integers; no rounding can occur.
    """
    step = ((1 << 53) - 1) // (p - 1) ** 2
    out = np.zeros((A.shape[0], B.shape[1]))
    for s in range(0, A.shape[1], step):
        out = (out + (A[:, s:s + step] @ B[s:s + step]) % p) % p
    return out


def modp_kernel(rows, ncols: int, p: int) -> np.ndarray:
    """Kernel basis mod p, as columns of an (ncols x k) int64 array."""
    if len(rows) == 0:
        return np.eye(ncols, dtype=np.int64)
    M = _residues(rows, p)
    pivots = _rref_mod_p(M, p)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    K = np.zeros((ncols, len(free)), dtype=np.int64)
    K[free, np.arange(len(free))] = 1
    if pivots:
        K[pivots] = (-M[: len(pivots), free]) % p
    return K


def modp_joint_kernel_dim(K: np.ndarray, ops, p: int, floor: int) -> int:
    """dim of the joint kernel mod p of several operators inside the column
    span of K, or the first width at most `floor` that K reaches.

    `K` is an int64 array with entries in [0, p) whose columns are linearly
    independent mod p; they span the start subspace S.  `ops` is an iterable
    of callables, each mapping an int64 array X with entries in [0, p) to an
    int64 array congruent to M X mod p for one integer matrix M; it is
    consumed one operator at a time, so no matrix of M need ever exist.
    Each M restricts K to K @ ker(M K), which keeps the columns independent.
    Stops once K is at most `floor` wide (0: empty), taking no operator if
    it starts so.  While K is a square identity, K @ ker(M K) is the kernel
    basis itself, and an M with M K = 0 mod p leaves K as is.

    Soundness: let K be the reduction of an integer matrix, such as
    identity columns, spanning a rational subspace S.  Its columns are
    independent mod p, hence over Q, so the result is the dimension of the
    kernel mod p of the integer stack of the M K, and the rational joint
    kernel inside S has the dimension of that stack's kernel over Q.  A rank
    over a prime field never exceeds the rank over Q, so the result
    upper-bounds the dimension of the rational joint kernel inside S, also
    after an early stop: the joint kernel of all the operators lies inside
    that of the ones taken.
    """
    if K.shape[1] <= floor:
        return K.shape[1]
    identity = K.shape[0] == K.shape[1] == np.count_nonzero(K) and (K.diagonal() == 1).all()
    for op in ops:
        MK = op(K) % p
        # a sparse operator leaves most rows 0 mod p; they do not change the kernel
        rows = MK[MK.any(axis=1)]
        if len(rows) == 0:
            continue
        KB = modp_kernel(rows, K.shape[1], p)
        K = KB if identity else _matmul_mod(K.astype(np.float64), KB.astype(np.float64), p).astype(np.int64)
        identity = False
        if K.shape[1] <= floor:
            break
    return K.shape[1]
