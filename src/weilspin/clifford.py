"""Clifford algebra of the hyperbolic space V = H1(X) + H1(Xhat).

V has basis x_1..x_2n, y_1..y_2n with (x_i, y_j) = delta_ij and both blocks
isotropic.  C(V) is stored in normal order: each monomial is a subset of the
4n generators read as the ascending x-block followed by the ascending
y-block, i.e. exterior-algebra data on V with a rewriting product.  The
generators satisfy v.w + w.v = (v, w) * 1.

The spinor module S is the exterior algebra on the x-block: x's act by
wedging, y's by contraction (`HyperbolicSpace.gamma`, the one definition
of the action on basis spinors), so desymbol (operator -> normal-ordered
element) is Wick extraction by annihilation degree instead of a dense
matrix inversion.
"""

from __future__ import annotations

from fractions import Fraction

from .exteralg import GeneratorSpace, Multivector
from .fieldtower import FieldElem, TowerSpec
from .linalg import mat_vec


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

    def gamma(self, k: int, mask: int):
        """The generator k on the basis spinor of `mask`: (sign, mask') with
        gamma_k x_mask = sign x_mask', or None when it is 0.  x_i wedges and
        y_i contracts x_i, each passing the bits of the mask below i."""
        i = k % (2 * self.n)
        bit = 1 << i
        if self.is_x(k) == bool(mask & bit):
            return None
        return -1 if (mask & (bit - 1)).bit_count() & 1 else 1, mask ^ bit

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

    def mv_to_vector(self, mv: Multivector) -> list:
        out = [self.tower.zero()] * self.dim_v
        for m, c in mv.terms.items():
            if bin(m).count("1") != 1:
                raise ValueError("not a degree-1 element")
            out[m.bit_length() - 1] = c
        return out


def clifford_action(elem: Multivector, lam: Multivector, space: HyperbolicSpace) -> Multivector:
    """Apply a normal-ordered element of C(V) to a spinor in S.

    A monomial x_A y_B is the product of its generators in ascending index
    order, so it acts through `HyperbolicSpace.gamma` in descending order:
    the y-contractions first, then the x-wedges.
    """
    out = {}
    for mono, coeff in elem.terms.items():
        gens = [k for k in reversed(range(mono.bit_length())) if mono >> k & 1]
        for mask, c in lam.terms.items():
            sign = 1
            for k in gens:
                hit = space.gamma(k, mask)
                if hit is None:
                    break
                sign, mask = sign * hit[0], hit[1]
            else:
                term = coeff * c if sign > 0 else -(coeff * c)
                out[mask] = out[mask] + term if mask in out else term
    return Multivector(lam.space, out)


def _mono_times_x(space: HyperbolicSpace, xmask: int, ymask: int, i: int):
    """Normal-order (x_A y_B) * x_i; yields (xmask, ymask, sign) triples."""
    if not ymask:
        bit = 1 << i
        if xmask & bit:
            return
        sign = -1 if (xmask >> (i + 1)).bit_count() & 1 else 1
        yield xmask | bit, 0, sign
        return
    b = ymask.bit_length() - 1  # largest y index present
    rest = ymask ^ (1 << b)
    if b == i:
        yield xmask, rest, 1
    for xm, ym, s in _mono_times_x(space, xmask, rest, i):
        # re-append y_b at the end of the (smaller) y-block
        yield xm, ym | (1 << b), -s


def clifford_mul(a: Multivector, b: Multivector, space: HyperbolicSpace) -> Multivector:
    """Normal-ordered product in C(V)."""
    if a.space != space.vspace or b.space != space.vspace:
        raise ValueError("operands must live on the Clifford generator space")
    n2 = 2 * space.n
    tower = space.tower
    out = {}
    for bmask, bcoeff in b.terms.items():
        # current partial products: (xmask, ymask) -> coefficient
        cur = {}
        for amask, acoeff in a.terms.items():
            key = (amask & ((1 << n2) - 1), amask >> n2)
            cur[key] = cur.get(key, tower.zero()) + acoeff * bcoeff
        # multiply by each generator of the b-monomial in normal order
        gens = [i for i in range(4 * space.n) if bmask >> i & 1]
        for g in gens:
            nxt = {}
            if g < n2:
                for (xm, ym), c in cur.items():
                    if c.is_zero():
                        continue
                    for xm2, ym2, s in _mono_times_x(space, xm, ym, g):
                        key = (xm2, ym2)
                        add = c if s > 0 else -c
                        nxt[key] = nxt.get(key, tower.zero()) + add
            else:
                j = g - n2
                bit = 1 << j
                for (xm, ym), c in cur.items():
                    if c.is_zero() or ym & bit:
                        continue
                    above = bin(ym >> (j + 1)).count("1")
                    add = -c if above & 1 else c
                    key = (xm, ym | bit)
                    nxt[key] = nxt.get(key, tower.zero()) + add
            cur = nxt
        for (xm, ym), c in cur.items():
            if c.is_zero():
                continue
            key = xm | (ym << n2)
            out[key] = out.get(key, tower.zero()) + c
    return Multivector(space.vspace, out)


def main_involution(a: Multivector) -> Multivector:
    """Negate the odd part of C(V)."""
    return Multivector(
        a.space,
        {m: -c if bin(m).count("1") & 1 else c for m, c in a.terms.items()},
    )


def main_antiinvolution(a: Multivector, space: HyperbolicSpace) -> Multivector:
    """Reverse each monomial v_1...v_r to v_r...v_1 and re-normal-order."""
    out = space.vspace.zero()
    for mask, coeff in a.terms.items():
        gens = [i for i in range(4 * space.n) if mask >> i & 1]
        prod = space.vspace.one()
        for g in reversed(gens):
            prod = clifford_mul(prod, space.vspace.gen(g), space)
        out = out + prod.scale(coeff)
    return out


def vector_rep_reflection(space: HyperbolicSpace, v, w) -> list:
    """rho_v(w) = v.w.v^(-1) in C(V) for (v,v) = +-2, restricted to V.

    This is minus the reflection through the hyperplane orthogonal to v.
    """
    vv = space.pair(v, v)
    if not (vv == 2 or vv == -2):
        raise ValueError("reflection requires (v,v) = +-2")
    vmv = space.vector_to_mv(v)
    wmv = space.vector_to_mv(w)
    # v^2 = (v,v)/2 = +-1, so v^(-1) = v / (v^2)
    prod = clifford_mul(clifford_mul(vmv, wmv, space), vmv, space)
    half = space.tower.scalar(Fraction(2) / vv)
    prod = prod.scale(half)
    return space.mv_to_vector(prod)


class SoPair:
    """A degree-2 Clifford element with its spin and vector incarnations.

    spin(lam) is the Clifford action minus the scalar normal-ordering
    constant of xi (the degree-2 monomials x_i y_i each contribute half
    their coefficient), which is the derivative of the spin representation
    of the group.  ad is the matrix of v -> xi.v - v.xi on V, and
    derivation extends ad to the exterior algebra of V.
    """

    __slots__ = ("space", "xi", "constant", "ad")

    def __init__(self, space: HyperbolicSpace, xi: Multivector):
        if any(bin(m).count("1") != 2 for m in xi.terms):
            raise ValueError("so_pair requires a homogeneous degree-2 element")
        self.space = space
        self.xi = xi
        n2 = 2 * space.n
        const = space.tower.zero()
        for m, c in xi.terms.items():
            lo = (m & -m).bit_length() - 1
            hi = m.bit_length() - 1
            if hi - lo == n2 and lo < n2:  # an x_i y_i monomial
                const = const + c
        self.constant = const * Fraction(1, 2)
        self.ad = self._ad_matrix()

    def _ad_matrix(self):
        """ad[i][j], the coefficient of e_i in xi.e_j - e_j.xi, in closed form:
        v.w + w.v = (v, w) gives [e_a e_b, v] = (e_b, v) e_a - (e_a, v) e_b,
        and (e_b, e_j) = 1 exactly for j = partner(b).  Exact arithmetic on
        canonical FieldElems: the same entries as the `clifford_mul` commutator."""
        sp = self.space
        ad = [[sp.tower.zero()] * sp.dim_v for _ in range(sp.dim_v)]
        for m, c in self.xi.terms.items():
            a, b = (m & -m).bit_length() - 1, m.bit_length() - 1
            ad[a][sp.partner(b)] += c
            ad[b][sp.partner(a)] -= c
        return ad

    def spin(self, lam: Multivector) -> Multivector:
        out = clifford_action(self.xi, lam, self.space)
        if not self.constant.is_zero():
            out = out - lam.scale(self.constant)
        return out

    def ad_vector(self, coords) -> list:
        return mat_vec(self.ad, coords, self.space.tower)

    def derivation(self, a: Multivector) -> Multivector:
        """The unique derivation of the exterior algebra on V extending ad."""
        return matrix_derivation(self.ad, a)


def matrix_derivation(mat, a: Multivector) -> Multivector:
    """Derivation of the exterior algebra induced by a matrix on generators."""
    return Multivector(a.space, derivation_int(int_derivation_cols(mat), a.terms))


def int_derivation_cols(mat):
    """Sparse column form of a generator matrix: for each generator g, the
    (i, entry) pairs of the nonzero entries of column g."""
    n = len(mat)
    return [[(i, mat[i][j]) for i in range(n) if mat[i][j] != 0] for j in range(n)]


def derivation_int(cols, terms: dict) -> dict:
    """The derivation of a matrix in `int_derivation_cols` form on a
    {mask: scalar} term dict; the scalars may be ints or any field elements.

    g_S goes to the sum over g in S of the sign pulling g to the front times
    the image of g wedged onto g_(S without g).
    """
    out = {}
    for m, c in terms.items():
        pos = 0
        mm = m
        while mm:
            g = (mm & -mm).bit_length() - 1
            rest = m ^ (1 << g)
            base = -c if pos & 1 else c
            for i, mij in cols[g]:
                bit = 1 << i
                if rest & bit:
                    continue
                coeff = base * mij
                if (rest & (bit - 1)).bit_count() & 1:
                    coeff = -coeff
                key = bit | rest
                out[key] = out.get(key, 0) + coeff
            pos += 1
            mm &= mm - 1
    return {k: v for k, v in out.items() if v != 0}


def symbol(elem: Multivector, space: HyperbolicSpace) -> dict:
    """Materialize the action of a Clifford element on all basis spinors."""
    out = {}
    for mask in range(1 << (2 * space.n)):
        lam = Multivector(space.sspace, {mask: space.tower.one()})
        out[mask] = clifford_action(elem, lam, space)
    return out


def desymbol(op, space: HyperbolicSpace) -> Multivector:
    """Normal-ordered Clifford element with the prescribed action on S.

    `op`: either a dict {spinor mask -> Multivector} or a callable taking a
    basis mask.  Coefficients are peeled off by annihilation degree: the
    value on the basis spinor x_B determines the coefficients of the
    monomials x_A y_B once all y-subsets of B are known.
    """
    n2 = 2 * space.n
    get = op.__getitem__ if isinstance(op, dict) else op
    acc = space.vspace.zero()  # element built so far
    order = sorted(range(1 << n2), key=lambda m: (bin(m).count("1"), m))
    one = space.tower.one()
    for bmask in order:
        lam = Multivector(space.sspace, {bmask: one})
        target = get(bmask)
        if not isinstance(target, Multivector):
            raise TypeError("operator values must be multivectors in S")
        resid = target - clifford_action(acc, lam, space)
        if resid.is_zero():
            continue
        # sign of y_B applied to x_B
        s = clifford_action(Multivector(space.vspace, {bmask << n2: one}), lam, space).terms.get(0)
        if s is None:
            raise RuntimeError("contraction sign vanished unexpectedly")
        sinv = s.inv()
        add = {}
        for amask, c in resid.terms.items():
            add[amask | (bmask << n2)] = c * sinv
        acc = acc + Multivector(space.vspace, add)
    return acc
