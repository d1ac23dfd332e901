"""Clifford algebra of the hyperbolic space V = H1(X) + H1(Xhat).

V has basis x_1..x_2n, y_1..y_2n with (x_i, y_j) = delta_ij and both blocks
isotropic.  C(V) is stored in normal order: each monomial is a subset of the
4n generators read as the ascending x-block followed by the ascending
y-block, i.e. exterior-algebra data on V with a rewriting product.  The
generators satisfy v.w + w.v = (v, w) * 1.

The spinor module S is the exterior algebra on the x-block: x's act by
wedging, y's by contraction.  `HyperbolicSpace.act` is the one definition
of the action, in closed form: a normal-ordered monomial x_A y_B sends a
basis spinor to one signed basis spinor or to 0 (Chevalley 1954), so the
interior product with sum theta_i x_i^* is the action of sum theta_i y_i.
The product `clifford_mul` is Wick's theorem, one signed sum over the
subsets of y's that contract, and desymbol (operator -> normal-ordered
element) is Wick extraction by annihilation degree instead of a dense
matrix inversion.

so(V) also acts on the exterior algebra of V by derivations (the
Fourier-Mukai side).  `DerivationOperators` is the one applier of
derivations on masks: `derivation_int`, `SoPair.derivation`, the g_B
invariant certificate and `WeilStructure.gb_kills` all go through it.  Its
entry table is built once per generator set and bound to each start.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

import numpy as np

from .exteralg import GeneratorSpace, Multivector, below_parity
from .fieldtower import FieldElem, TowerSpec
from .linalg import int_dtype


class HyperbolicSpace:
    """The rank-4n quadratic space with its spinor exterior algebra."""

    __slots__ = ("n", "tower", "vspace", "sspace")

    def __init__(self, n: int, tower: TowerSpec):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.tower = tower
        xs = [f"x{i+1}" for i in range(2 * n)]
        ys = [f"y{i+1}" for i in range(2 * n)]
        self.vspace = GeneratorSpace(xs + ys, tower)
        self.sspace = GeneratorSpace(xs, tower)

    @property
    def dim_v(self) -> int:
        return 4 * self.n

    def is_x(self, i: int) -> bool:
        return i < 2 * self.n

    def partner(self, i: int) -> int:
        """Index of the unique generator pairing nontrivially with i."""
        return i + 2 * self.n if self.is_x(i) else i - 2 * self.n

    def act(self, mono: int, mask: int):
        """The normal-ordered monomial x_A y_B of `mono` = A | B << 2n on the
        basis spinor x_M of `mask`: (sign, mask') with x_A y_B x_M = sign
        x_mask', or None when it is 0; on 1 << k, x_k wedges and y_k contracts.

        The generators act in descending order, so y_B contracts and then x_A
        wedges: the image is nonzero exactly when B lies in M and A misses
        R = M - B, and mask' = R | A.  Each y_b passes the bits of M below b
        (only bits above b are gone), and each x_a the bits of R below a (the
        x's wedged before it lie above a), so the sign is -1 when
        popcount(B & below_parity(M)) + popcount(A & below_parity(R)) is odd.
        """
        n2 = 2 * self.n
        a, b = mono & ((1 << n2) - 1), mono >> n2
        rest = mask ^ b
        if b & ~mask or a & rest:
            return None
        odd = (b & below_parity(mask, n2)).bit_count() + (a & below_parity(rest, n2)).bit_count()
        return -1 if odd & 1 else 1, rest | a

    def gram(self, i: int, j: int) -> int:
        return 1 if self.partner(i) == j else 0

    def pair(self, u, v) -> FieldElem:
        """The bilinear pairing of two coordinate vectors."""
        acc = self.tower.zero()
        for i, ui in enumerate(u):
            if isinstance(ui, FieldElem) and ui.is_zero():
                continue
            vj = v[self.partner(i)]
            acc = acc + self.tower.scalar(ui) * self.tower.scalar(vj)
        return acc

    def vector(self, coords) -> list:
        if len(coords) != self.dim_v:
            raise ValueError("coordinate vector has wrong length")
        return [self.tower.scalar(c) for c in coords]

    def vector_to_mv(self, coords) -> Multivector:
        return Multivector(
            self.vspace,
            {1 << i: self.tower.scalar(c) for i, c in enumerate(coords)},
        )


def clifford_action(elem: Multivector, lam: Multivector, space: HyperbolicSpace) -> Multivector:
    """Apply a normal-ordered element of C(V) to a spinor in S, by
    `HyperbolicSpace.act` on each pair of a monomial and a basis spinor."""
    out = {}
    for mono, coeff in elem.terms.items():
        for mask, c in lam.terms.items():
            hit = space.act(mono, mask)
            if hit is not None:
                sign, m = hit
                term = coeff * c if sign > 0 else -(coeff * c)
                out[m] = out[m] + term if m in out else term
    return Multivector(lam.space, out)


def clifford_mul(a: Multivector, b: Multivector, space: HyperbolicSpace) -> Multivector:
    """Normal-ordered product in C(V) by Wick's theorem: x_A y_B . x_C y_D is
    the sum over S in B & C of (-1)^P x_(A | X) y_(R | D), with X = C - S and
    R = B - S, over the S with A & X = R & D = 0.

    S is the set of y_b that contract their x_b.  Let sign(U.Z), for
    disjoint U and Z, be the sign of sorting U followed by Z into U | Z: -1
    when U & below_parity(Z) has odd popcount.  In the term of S, y_B =
    sign(S.R) y_S y_R; y_R passes x_C uncontracted, (-1)^(|R| |C|); y_S
    contracts into x_C as on the spinor x_C, with the sign of
    `HyperbolicSpace.act`, popcount(S & below_parity(C)); and x_A x_X =
    sign(A.X) x_(A | X), y_R y_D = sign(R.D) y_(R | D).  P is the sum.
    """
    if a.space != space.vspace or b.space != space.vspace:
        raise ValueError("operands must live on the Clifford generator space")
    n2 = 2 * space.n
    low, out = (1 << n2) - 1, {}
    for ma, ca in a.terms.items():
        A, B = ma & low, ma >> n2
        for mb, cb in b.terms.items():
            C, D = mb & low, mb >> n2
            c, below_c, below_d = ca * cb, below_parity(C, n2), below_parity(D, n2)
            both = S = B & C
            while True:  # S runs over the subsets of B & C
                X, R = C ^ S, B ^ S
                if not (A & X or R & D):
                    odd = ((S & below_parity(R, n2)).bit_count() + R.bit_count() * C.bit_count()
                           + (S & below_c).bit_count() + (A & below_parity(X, n2)).bit_count()
                           + (R & below_d).bit_count())
                    m, t = A | X | (R | D) << n2, -c if odd & 1 else c
                    out[m] = out[m] + t if m in out else t
                if not S:
                    break
                S = (S - 1) & both
    return Multivector(space.vspace, out)


def vector_rep_reflection(space: HyperbolicSpace, v, w) -> list:
    """rho_v(w) = v.w.v^(-1) in C(V) for (v,v) = +-2, as a coordinate vector.

    v.w + w.v = (v, w) gives v.w.v = (v, w) v - v.v.w with v.v = (v,v)/2,
    and v^(-1) = 2v/(v,v), so rho_v(w) = 2(v,w)/(v,v) v - w: minus the
    reflection through the hyperplane orthogonal to v.  2/(v,v) = +-1.
    """
    v, w = space.vector(v), space.vector(w)
    vv = space.pair(v, v)
    if not (vv == 2 or vv == -2):
        raise ValueError("reflection requires (v,v) = +-2")
    c = space.pair(v, w) if vv == 2 else -space.pair(v, w)
    return [c * a - b for a, b in zip(v, w)]


class SoPair:
    """A degree-2 Clifford element with its spin and vector incarnations.

    spin(lam) is the Clifford action minus the scalar normal-ordering
    constant of xi (the degree-2 monomials x_i y_i each contribute half
    their coefficient), which is the derivative of the spin representation
    of the group.  cols is v -> xi.v - v.xi on V in sparse-column form (ad
    is its dense matrix), and derivation extends it to the exterior algebra
    of V.
    """

    __slots__ = ("space", "xi", "constant", "cols")

    def __init__(self, space: HyperbolicSpace, xi: Multivector):
        if any(bin(m).count("1") != 2 for m in xi.terms):
            raise ValueError("so_pair requires a homogeneous degree-2 element")
        self.space = space
        self.xi = xi
        n2 = 2 * space.n
        const = space.tower.zero()
        # [e_a e_b, v] = (e_b, v) e_a - (e_a, v) e_b by v.w + w.v = (v, w), and
        # (e_b, e_g) = 1 exactly for g = partner(b).  Distinct terms fill distinct
        # entries and no term of xi is 0, so nothing is summed and no zero kept.
        cols = [[] for _ in range(space.dim_v)]
        for m, c in xi.terms.items():
            a, b = (m & -m).bit_length() - 1, m.bit_length() - 1
            if b - a == n2 and a < n2:  # an x_i y_i monomial
                const = const + c
            cols[space.partner(b)].append((a, c))
            cols[space.partner(a)].append((b, -c))
        self.constant = const * Fraction(1, 2)
        #: cols[g], the (i, c) with c != 0 the coefficient of e_i in xi.e_g - e_g.xi, by i
        self.cols = [sorted(col) for col in cols]

    @property
    def ad(self):
        """The dense matrix of `cols`: ad[i][g] is the coefficient of e_i in xi.e_g - e_g.xi."""
        ad = [[self.space.tower.zero()] * len(self.cols) for _ in self.cols]
        for g, col in enumerate(self.cols):
            for i, c in col:
                ad[i][g] = c
        return ad

    def spin(self, lam: Multivector) -> Multivector:
        out = clifford_action(self.xi, lam, self.space)
        if not self.constant.is_zero():
            out = out - lam.scale(self.constant)
        return out

    def ad_vector(self, coords) -> list:
        out = [self.space.tower.zero()] * len(self.cols)
        for col, b in zip(self.cols, map(self.space.tower.scalar, coords)):
            for i, c in () if b.is_zero() else col:
                out[i] += c * b
        return out

    def derivation(self, mvs) -> list:
        """The unique derivation of the exterior algebra on V extending ad,
        applied to each multivector in the list `mvs` by one operator."""
        images = derivation_int(self.cols, [a.terms for a in mvs])
        return [Multivector._nonzero(a.space, img) for a, img in zip(mvs, images)]


class DerivationOperators:
    """The derivations of matrices in sparse-column form, as one table of
    their entries (i, g, c) built once, bound by `bind` to the span of each
    start: a sparse matrix with a column per start mask and a row per
    (matrix, destination mask), so each operator has rows only over the
    masks it reaches.  The entries are integers, or any field elements
    when applied to object columns.

    The derivation extending the matrix unit E_ig (g is sent to i) maps a
    mask m holding g to (-1)^odd (m - g + i) when m - g lacks i, and every
    other mask to 0: pulling g to the front of m passes the bits of m below
    g, and putting i in place passes the bits of m - g below i.  For i = g
    this is m with sign +1, so a diagonal entry acts by its weight.  A
    matrix's derivation is the sum of c times these over its entries
    (i, g, c), so one vectorised pass over the pairs (start mask, entry)
    gives every nonzero of every operator; no nmask x nmask matrix and no
    table over all masks of the degree is built.
    """

    def __init__(self, int_cols):
        entries = sorted((g, i, j, c) for j, cols in enumerate(int_cols)
                         for g, col in enumerate(cols) for i, c in col)
        self.coefs = [e[3] for e in entries]
        #: each entry's column, row and matrix, sorted by column
        self.eg, self.ei, self.ej = np.array([e[:3] for e in entries], dtype=np.int64).reshape(-1, 3).T
        self.count, self.dim = len(int_cols), len(int_cols[0]) if int_cols else 0
        #: the entries of column g are first[g] to first[g + 1]
        self.first = np.searchsorted(self.eg, np.arange(self.dim + 1))
        self._values = {}  # coefficient arrays by dtype or prime, shared by every binding

    @cached_property
    def cmax(self) -> int:  # of an integer table
        return max(map(abs, self.coefs), default=0)

    def dense(self):
        """The matrices of an integer table, stacked as (count, dim, dim)."""
        a = np.zeros((self.count, self.dim, self.dim), dtype=int_dtype(self.cmax))
        a[self.ej, self.ei, self.eg] = self.coefs
        return a

    def bind(self, start):
        """A copy sharing this table, with its operators on the span of `start`."""
        ops, start = object.__new__(DerivationOperators), np.asarray(start, dtype=np.int64)
        ops.__dict__.update(self.__dict__)
        # each (start mask, bit g) pair meets the run of entries in column g
        src, g = np.nonzero((start[:, None] >> np.arange(self.dim)) & 1)
        count = self.first[g + 1] - self.first[g]
        src = np.repeat(src, count)
        e = np.arange(len(src)) + np.repeat(self.first[g] - (np.cumsum(count) - count), count)
        gbit = 1 << self.eg[e]
        rest = start[src] ^ gbit
        keep = (rest >> self.ei[e]) & 1 == 0
        src, e, gbit, rest = src[keep], e[keep], gbit[keep], rest[keep]
        ibit = 1 << self.ei[e]
        odd = np.bitwise_count(start[src] & (gbit - 1)) + np.bitwise_count(rest & (ibit - 1))
        key = self.ej[e] << self.dim | rest | ibit  # the row (matrix j, mask m) as j 2^dim + m
        order = np.argsort(key)  # any order within a row: its sum is exact
        ops.cols, ops.entry, ops.odd, key = src[order], e[order], (odd[order] & 1).astype(bool), key[order]
        new_row = np.ones(len(order) + 1, dtype=bool)
        new_row[1:-1] = key[1:] != key[:-1]
        #: the first nonzero of each row, then their count; each row's mask and matrix
        ops.row_start = np.flatnonzero(new_row)
        ops.dst, ops.gen = key[ops.row_start[:-1]] % (1 << self.dim), key[ops.row_start[:-1]] >> self.dim
        #: the rows of matrix j are rows[j] to rows[j + 1]
        ops.rows = np.searchsorted(ops.gen, np.arange(self.count + 1))
        return ops

    def image(self, X, gens: range, p=None):
        """The operators of the matrices in `gens`, a range of their
        indices, applied to the columns of X, an int64 or object array whose
        rows are the coefficients of the start masks: one row per (matrix,
        destination mask); with a prime p, the entries are residues mod p.

        An image row sums at most one term per entry of its matrix, since
        the entry (i, g) reaches a mask from one mask only; so it is below
        dim^2 max|c| max|X| in absolute value: exact on int64 while that is
        below 2^63, and always on Python ints (object arrays).
        """
        key = str(X.dtype) if p is None else p
        if key not in self._values:
            self._values[key] = np.array(self.coefs if p is None else [c % p for c in self.coefs], dtype=X.dtype)
        r0, r1 = self.rows[gens.start], self.rows[gens.stop]
        lo, hi = self.row_start[[r0, r1]]
        vals = self._values[key][self.entry[lo:hi]]
        vals[self.odd[lo:hi]] *= -1
        return np.add.reduceat(vals[:, None] * X[self.cols[lo:hi]], self.row_start[r0:r1] - lo, axis=0)


def derivation_int(cols, terms: list) -> list:
    """The derivation of a matrix in sparse-column form (cols[g] the (i, c)
    of the nonzero entries of column g) on each {mask: scalar} term dict in
    `terms`, the scalars ints or any field elements: its
    `DerivationOperators` bound to the sorted union of their masks, an
    object column per dict (0 off its masks), zero images dropped."""
    entries = [(m, j, c) for j, t in enumerate(terms) for m, c in t.items()]
    if not entries:
        return [{} for _ in terms]
    masks, where, x = zip(*entries)
    start = sorted(set(masks))
    X = np.zeros((len(start), len(terms)), dtype=object)
    X[np.searchsorted(start, masks), where] = x
    ops = DerivationOperators([cols]).bind(start)
    image, dst = ops.image(X, range(1)).T.tolist(), ops.dst.tolist()
    return [{m: c for m, c in zip(dst, col) if c != 0} for col in image]


def desymbol(op, space: HyperbolicSpace) -> Multivector:
    """Normal-ordered Clifford element with the prescribed action on S.

    `op`: a callable taking a basis spinor's mask to its image, a
    Multivector in S.  Coefficients are peeled off by annihilation degree: the
    value on the basis spinor x_B determines the coefficients of the
    monomials x_A y_B once all y-subsets of B are known.
    """
    n2 = 2 * space.n
    acc = space.vspace.zero()  # element built so far
    order = sorted(range(1 << n2), key=lambda m: (bin(m).count("1"), m))
    one = space.tower.one()
    for bmask in order:
        lam = Multivector(space.sspace, {bmask: one})
        target = op(bmask)
        if not isinstance(target, Multivector):
            raise TypeError("operator values must be multivectors in S")
        resid = target - clifford_action(acc, lam, space)
        if resid.is_zero():
            continue
        # y_B sends x_B to the sign (-1)^C(|B|, 2), its own inverse
        s = space.act(bmask << n2, bmask)[0]
        acc = acc + Multivector(space.vspace, {amask | bmask << n2: c if s > 0 else -c
                                               for amask, c in resid.terms.items()})
    return acc
