"""Cohomological integral transforms on Kunneth exterior algebras.

The cohomology of a product is the graded tensor product of the factors'
exterior algebras; transforms are maps defined on sparse basis monomials and
materialized lazily.  Every map of the chain is a signed-mask formula on
monomials:

    the correspondence transform along a Poincare kernel, x_S -> +-y_(S^c),
      in both directions,
    the derived-equivalence shadow Phi_H: the pullback along the shear
      (x, y) -> (x + y, y) of X x X, then the inverse kernel transform on
      the second factor, as one signed sum over the subsets of the first
      factor's generators,
    the equivariant normalization phi_tilde,
    Chevalley's bilinear-form construction, for cross-checking,
    the filtration by lowest exterior degree, and
    the grading of the secant tensor square by CM-type overlap.

The closed forms are derived next to their code from the defining recipes
(pull back, wedge with the kernel, integrate over the first factor; the
shear extended multiplicatively; the kernel transform inverted), which the
tests keep as the reference: the kernel integrals, the shear and Phi_H's
inverse built from them.

Sign conventions (orientation of the fiber integration, the sign of the
Poincare class on each product, the half-twist in phi_tilde) are not forced
by any single definition; they are pinned operationally.  The frozen values
below all represent one geometric class, c1(P) = sum_i x_i ^ y_i read in
the two factor orders: with them the double transform equals (-1)^g times
the antipodal pullback, and phi_tilde intertwines the diagonal spin action
on the tensor square with the derivation action on the exterior algebra of
the vector representation.  The tests reject every other combination.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .clifford import HyperbolicSpace, clifford_mul, desymbol
from .exteralg import GeneratorSpace, Multivector, below_parity, coordinates, exp_even, kunneth, s_pairing, wedge
from .fieldtower import TowerSpec

#: frozen orientation constants: one class c1(P) = sum x_i ^ y_i everywhere
POINCARE_SIGN_HAT_FIRST = -1  # its expression on Xhat x X (y-block first)
POINCARE_SIGN_UN_FIRST = 1    # its expression on X x Xhat
PHI_TILDE_TWIST_SIGN = 1      # phi_tilde twists by exp(-c1(P)/2)


class ProductAlgebra:
    """The exterior algebra of a two-factor product, with factor bookkeeping."""

    __slots__ = ("first", "second", "space", "shift")

    def __init__(self, first: GeneratorSpace, second: GeneratorSpace):
        if first.tower != second.tower:
            raise ValueError("tower mismatch")
        self.first = first
        self.second = second
        self.space = GeneratorSpace(first.labels + second.labels, first.tower)
        self.shift = first.m

    def split_mask(self, mask: int):
        return mask & ((1 << self.shift) - 1), mask >> self.shift

    def box(self, a: Multivector, b: Multivector) -> Multivector:
        """Kunneth product a (x) b."""
        return kunneth(a, b, self.space)


class TransformMap:
    """A linear map between generator spaces, stored by its basis action.

    Images of basis monomials are computed lazily and memoized; applying the
    map sums the images, scaled, into one term dict.
    """

    __slots__ = ("src", "dst", "_fn", "_memo")

    def __init__(self, src: GeneratorSpace, dst: GeneratorSpace, fn):
        self.src = src
        self.dst = dst
        self._fn = fn
        self._memo = {}

    def image_of_mask(self, mask: int) -> Multivector:
        got = self._memo.get(mask)
        if got is None:
            got = self._fn(mask)
            self._memo[mask] = got
        return got

    def __call__(self, mv: Multivector) -> Multivector:
        if mv.space != self.src:
            raise ValueError("argument lives on the wrong space")
        out = {}
        for m, c in mv.terms.items():
            for mm, cc in self.image_of_mask(m).terms.items():
                x = out.get(mm)
                out[mm] = cc * c if x is None else x + cc * c
        return Multivector(self.dst, out)


def poincare_class(pa: ProductAlgebra, sign: int) -> Multivector:
    """The canonical pairing class on a product of dual factors.

    Generator i of each factor is paired with generator i of the other;
    the class restricts to zero on either factor by construction.
    """
    if pa.first.m != pa.second.m:
        raise ValueError("Poincare class needs factors of equal rank")
    c = pa.space.tower.one() if sign > 0 else -pa.space.tower.one()
    return Multivector(pa.space, {(1 << i) | (1 << (pa.shift + i)): c for i in range(pa.first.m)})


def complement_transform(src: GeneratorSpace, dst: GeneratorSpace, sign: int) -> TransformMap:
    """The correspondence transform src -> dst along the kernel
    exp(poincare_class(src x dst, sign)): pull back, multiply by the kernel,
    integrate over src.  With g_i, h_i the generators of src and dst:

    - exp(sign sum_i g_i h_i) = prod_i (1 + sign g_i h_i), because the
      factors are even and commute;
    - from g_S, only the term of U = S^c reaches the top of src;
    - prod_(i in U) g_i h_i = (-1)^C(|U|,2) g_U h_U (each h_i passes the
      later g_j), and g_S ^ g_U = (-1)^merge(S, U) g_top with the merge sign
      merge(S, U) = popcount(S & below_parity(U));
    - so g_S -> (-1)^(C(|U|,2) + merge(S, U)) sign^|U| h_U.
    """
    one = src.tower.one()
    signs = (one, -one)
    flip = 1 if sign < 0 else 0

    def fn(mask):
        u = src.top_mask ^ mask
        k = u.bit_count()
        parity = k * (k - 1) // 2 + (mask & below_parity(u, src.m)).bit_count() + k * flip
        return Multivector._nonzero(dst, {u: signs[parity & 1]})

    return TransformMap(src, dst, fn)


class OrlovTransform:
    """The full transform stack for an abelian n-fold at desk scale."""

    def __init__(self, n: int, tower: TowerSpec):
        self.n = n
        self.tower = tower
        self.hyper = HyperbolicSpace(n, tower)
        sx = self.hyper.sspace
        sy = GeneratorSpace([f"y{i+1}" for i in range(2 * n)], tower)
        sx2 = GeneratorSpace([f"x{i+1}'" for i in range(2 * n)], tower)
        self.sx, self.sy, self.sx2 = sx, sy, sx2
        self.pa_xx = ProductAlgebra(sx, sx2)      # H*(X x X)
        self.pa_xy = ProductAlgebra(sx, sy)       # H*(X x Xhat) = wedge* V
        if self.pa_xy.space != self.hyper.vspace:
            raise AssertionError("product algebra misaligned with the Clifford space")
        # correspondence transforms in the two directions
        self.phi_hat_to_un = complement_transform(sy, sx, POINCARE_SIGN_HAT_FIRST)  # H*(Xhat)->H*(X)
        self.phi_un_to_hat = complement_transform(sx, sy, POINCARE_SIGN_UN_FIRST)   # H*(X)->H*(Xhat)

    def box(self, a: Multivector, b: Multivector) -> Multivector:
        """a (x) b in H*(X x X) for two classes a, b in H*(X)."""
        return self.pa_xx.box(a, Multivector(self.sx2, dict(b.terms)))

    # -- the derived-equivalence shadow ----------------------------------------

    @cached_property
    def phiH(self) -> TransformMap:
        """H*(X x X) -> H*(X x Xhat): the shear pullback mu^*, then the inverse
        of phi_hat_to_un on the second factor, in one signed subset sum.

        mu: (x, y) -> (x + y, y) pulls g_i back to g_i + h_i and h_i to h_i.
        In prod_(i in m1) (g_i + h_i), choosing h_i for i in T leaves
        g_(m1-T) h_T after merge(m1 - T, T) transpositions (each h_i passes
        the later g_j), and h_T ^ h_(m2) = (-1)^merge(T, m2) h_U with
        U = T | m2 when T misses m2, else 0.  phi_hat_to_un sends y_(U^c) to
        (-1)^(C(|U|,2) + merge(U^c, U)) sign^|U| x_U with
        sign = POINCARE_SIGN_HAT_FIRST (`complement_transform`), a signed
        bijection of monomials, so its inverse sends x_U back with the same
        sign.  Together g_(m1) h_(m2) goes to the sum over T in m1 - m2 of
        (-1)^P x_(m1-T) y_(U^c), where
        P = merge(m1 - T, T) + merge(T, m2) + C(|U|,2) + merge(U^c, U)
        + |U| [sign < 0].  The images of distinct T are distinct monomials.
        """
        m = self.pa_xx.shift
        top, space = self.sx.top_mask, self.pa_xy.space
        one = self.tower.one()
        signs = (one, -one)
        flip = 1 if POINCARE_SIGN_HAT_FIRST < 0 else 0

        def fn(mask):
            m1, m2 = mask & top, mask >> m
            free = m1 & ~m2
            below2 = below_parity(m2, m)
            out = {}
            t = free
            while True:  # every subset t of free, down to 0
                rest, u = m1 ^ t, t | m2
                uc, k = top ^ u, u.bit_count()
                parity = ((rest & below_parity(t, m)).bit_count() + (t & below2).bit_count()
                          + k * (k - 1) // 2 + (uc & below_parity(u, m)).bit_count() + k * flip)
                out[rest | (uc << m)] = signs[parity & 1]
                if not t:
                    return Multivector._nonzero(space, out)
                t = (t - 1) & free

        return TransformMap(self.pa_xx.space, space, fn)

    @cached_property
    def id_tensor_tau(self) -> TransformMap:
        pa = self.pa_xx
        signs = (self.tower.one(), -self.tower.one())

        def fn(mask):
            k = pa.split_mask(mask)[1].bit_count()
            return Multivector._nonzero(pa.space, {mask: signs[k * (k - 1) // 2 & 1]})

        return TransformMap(pa.space, pa.space, fn)

    @cached_property
    def phi_tilde(self) -> TransformMap:
        """The equivariant normalization: half-twist after phiH after (id (x) tau).

        Intertwines the diagonal (corrected) spin action on the source with
        the derivation action of the same generator on the target.
        """
        phi, idt = self.phiH, self.id_tensor_tau
        twist = exp_even(poincare_class(self.pa_xy, -PHI_TILDE_TWIST_SIGN).scale(Fraction(1, 2)))

        def fn(mask):
            return wedge(twist, phi(idt.image_of_mask(mask)))

        return TransformMap(self.pa_xx.space, self.pa_xy.space, fn)

    # -- Chevalley's construction ----------------------------------------------

    @cached_property
    def chevalley(self) -> TransformMap:
        """s (x) s' -> the Clifford element acting as lam -> (s', lam)_S s."""
        pa, sx, one = self.pa_xx, self.sx, self.tower.one()

        def fn(mask):
            m1, m2 = pa.split_mask(mask)
            a = Multivector(sx, {m1: one})
            b = Multivector(sx, {m2: one})
            return desymbol(lambda lam: a.scale(s_pairing(b, Multivector(sx, {lam: one}))), self.hyper)

        return TransformMap(pa.space, self.pa_xy.space, fn)

    # -- actions used by the equivariance check ---------------------------------

    def conjugation(self, xi: Multivector):
        """u -> xi u - u xi through the normal-order identification with C(V)."""

        def op(u: Multivector) -> Multivector:
            return clifford_mul(xi, u, self.hyper) - clifford_mul(u, xi, self.hyper)

        return op

    def diagonal_spin(self, so_pair_obj):
        """The corrected spin action applied in each tensor slot."""
        pa = self.pa_xx
        sx = self.sx

        def op(c: Multivector) -> Multivector:
            out = pa.space.zero()
            for m, coeff in c.terms.items():
                m1, m2 = pa.split_mask(m)
                a = Multivector(sx, {m1: self.tower.one()})
                b = Multivector(sx, {m2: self.tower.one()})
                sa = so_pair_obj.spin(a)
                sb = so_pair_obj.spin(b)
                term = pa.box(sa, b) + pa.box(a, sb)
                out = out + term.scale(coeff)
            return out

        return op


def filtration_level(a: Multivector) -> int:
    """Largest k with a in the span of degrees >= k, i.e. the lowest degree."""
    if a.is_zero():
        raise ValueError("the zero class has no filtration level")
    return a.min_degree()


def bb_decompose(orlov: OrlovTransform, ell_by_type: dict, c: Multivector):
    """Express c in the basis of boxed pure-spinor lines and grade by overlap.

    ell_by_type maps CM-types to their normalized pure spinors.  Returns
    (components by overlap size, refined components by ordered type pair).
    Raises if c lies outside the tensor square of the secant space.
    """
    pa = orlov.pa_xx
    types = sorted(ell_by_type, key=lambda T: T.choices)
    basis = {}
    for t1 in types:
        for t2 in types:
            basis[(t1, t2)] = orlov.box(ell_by_type[t1], ell_by_type[t2])
    keys = list(basis)
    sol = coordinates([basis[k] for k in keys], c)
    if sol is None:
        raise ValueError("class does not lie in the secant tensor square")
    refined = {}
    graded = {}
    for coeff, key in zip(sol, keys):
        t1, t2 = key
        comp = basis[key].scale(coeff)
        refined[key] = comp
        k = t1.overlap(t2)
        graded[k] = graded.get(k, pa.space.zero()) + comp
    return graded, refined


def pi_to_weil(orlov: OrlovTransform, d: int, gamma: Multivector) -> Multivector:
    """Degree-d graded piece of the transform of (id (x) tau)(gamma)."""
    return orlov.phiH(orlov.id_tensor_tau(gamma)).degree_part(d)
