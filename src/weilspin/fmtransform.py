"""Cohomological integral transforms on Kunneth exterior algebras.

The cohomology of a product is the graded tensor product of the factors'
exterior algebras; transforms are maps defined on sparse basis monomials and
materialized lazily.  The chain assembled here:

    correspondence transform along a Poincare kernel  (both directions),
    the shear automorphism (x, y) -> (x + y, y) of X x X,
    their composition's inverse (the derived-equivalence shadow),
    the equivariant normalization phi_tilde,
    Chevalley's bilinear-form construction, for cross-checking,
    the filtration by lowest exterior degree, and
    the grading of the secant tensor square by CM-type overlap.

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

from .clifford import HyperbolicSpace, clifford_mul, desymbol
from .exteralg import GeneratorSpace, Multivector, coordinates, exp_even, kunneth, s_pairing, wedge
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

    def embed_first(self, mv: Multivector) -> Multivector:
        if mv.space != self.first:
            raise ValueError("not a first-factor element")
        return Multivector(self.space, dict(mv.terms))

    def split_mask(self, mask: int):
        return mask & ((1 << self.shift) - 1), mask >> self.shift

    def box(self, a: Multivector, b: Multivector) -> Multivector:
        """Kunneth product a (x) b."""
        return kunneth(a, b, self.space)

    def pushforward_first(self, mv: Multivector) -> Multivector:
        """Integrate over the first factor: coefficient of its top monomial."""
        top1 = self.first.top_mask
        out = {}
        for m, c in mv.terms.items():
            m1, m2 = self.split_mask(m)
            if m1 == top1:
                out[m2] = c
        return Multivector(self.second, out)


class TransformMap:
    """A linear map between generator spaces, stored by its basis action.

    Images are computed lazily and memoized; composition is by chaining.
    An inverse, when attached, is itself a TransformMap and round-trips are
    asserted by the tests rather than trusted.
    """

    __slots__ = ("src", "dst", "_fn", "_memo", "inverse")

    def __init__(self, src: GeneratorSpace, dst: GeneratorSpace, fn, inverse=None):
        self.src = src
        self.dst = dst
        self._fn = fn
        self._memo = {}
        self.inverse = inverse

    def image_of_mask(self, mask: int) -> Multivector:
        got = self._memo.get(mask)
        if got is None:
            got = self._fn(mask)
            self._memo[mask] = got
        return got

    def __call__(self, mv: Multivector) -> Multivector:
        if mv.space != self.src:
            raise ValueError("argument lives on the wrong space")
        out = self.dst.zero()
        for m, c in mv.terms.items():
            out = out + self.image_of_mask(m).scale(c)
        return out

    def compose(self, inner: "TransformMap") -> "TransformMap":
        """self after inner."""
        if inner.dst != self.src:
            raise ValueError("composition mismatch")

        def fn(mask):
            return self(inner.image_of_mask(mask))

        return TransformMap(inner.src, self.dst, fn)

    def scale(self, s) -> "TransformMap":
        return TransformMap(self.src, self.dst, lambda m: self.image_of_mask(m).scale(s))


def antipode(space: GeneratorSpace) -> TransformMap:
    """Pullback of inversion: (-1)^k on exterior degree k."""

    def fn(mask):
        c = space.tower.one()
        if bin(mask).count("1") & 1:
            c = -c
        return Multivector(space, {mask: c})

    return TransformMap(space, space, fn)


def poincare_class(pa: ProductAlgebra, sign: int) -> Multivector:
    """The canonical pairing class on a product of dual factors.

    Generator i of each factor is paired with generator i of the other;
    the class restricts to zero on either factor by construction.
    """
    if pa.first.m != pa.second.m:
        raise ValueError("Poincare class needs factors of equal rank")
    one = pa.space.tower.one()
    c = one if sign > 0 else -one
    terms = {}
    for i in range(pa.first.m):
        terms[(1 << i) | (1 << (pa.shift + i))] = c
    return Multivector(pa.space, terms)


def fm_along(pa: ProductAlgebra, kernel: Multivector) -> TransformMap:
    """The correspondence transform from the first factor to the second:
    pull back, multiply by the kernel, integrate over the first factor."""
    one = pa.space.tower.one()

    def fn(mask):
        emb = pa.embed_first(Multivector(pa.first, {mask: one}))
        return pa.pushforward_first(wedge(emb, kernel))

    return TransformMap(pa.first, pa.second, fn)


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
        self.pa_hx = ProductAlgebra(sy, sx)       # Xhat x X, carries the kernel
        if self.pa_xy.space != self.hyper.vspace:
            raise AssertionError("product algebra misaligned with the Clifford space")
        # correspondence transforms in the two directions
        k_hx = exp_even(poincare_class(self.pa_hx, POINCARE_SIGN_HAT_FIRST))
        k_xy = exp_even(poincare_class(self.pa_xy, POINCARE_SIGN_UN_FIRST))
        self.phi_hat_to_un = fm_along(self.pa_hx, k_hx)   # H*(Xhat)->H*(X)
        self.phi_un_to_hat = fm_along(self.pa_xy, k_xy)   # H*(X)->H*(Xhat)
        sgn = self.tower.one() if n % 2 == 0 else -self.tower.one()
        self.phi_hat_to_un_inv = antipode(sy).compose(self.phi_un_to_hat).scale(sgn)
        self.phi_un_to_hat_inv = antipode(sx).compose(self.phi_hat_to_un).scale(sgn)
        self.phi_hat_to_un.inverse = self.phi_hat_to_un_inv
        self.phi_un_to_hat.inverse = self.phi_un_to_hat_inv
        self._phiH = None
        self._chevalley = None

    def box(self, a: Multivector, b: Multivector) -> Multivector:
        """a (x) b in H*(X x X) for two classes a, b in H*(X)."""
        return self.pa_xx.box(a, Multivector(self.sx2, dict(b.terms)))

    # -- shear automorphism ---------------------------------------------------

    def shear(self, sign: int) -> TransformMap:
        """Multiplicative extension of the pullback of (x, y) -> (x + sign y, y).

        sign = 1 is the pullback of the shear mu, sign = -1 that of its
        inverse, which is mu's pushforward.
        """
        pa = self.pa_xx
        one = self.tower.one()
        sone = one if sign > 0 else -one

        def fn(mask):
            m1, m2 = pa.split_mask(mask)
            out = pa.space.one()
            mm = m1
            while mm:
                i = (mm & -mm).bit_length() - 1
                g = Multivector(pa.space, {1 << i: one, 1 << (pa.shift + i): sone})
                out = wedge(out, g)
                mm &= mm - 1
            mm = m2
            while mm:
                i = (mm & -mm).bit_length() - 1
                out = wedge(out, Multivector(pa.space, {1 << (pa.shift + i): one}))
                mm &= mm - 1
            return out

        return TransformMap(pa.space, pa.space, fn)

    # -- the derived-equivalence shadow ----------------------------------------

    def phiH(self) -> TransformMap:
        """H*(X x X) -> H*(X x Xhat): inverse of mu_* after (id (x) Phi_P)."""
        if self._phiH is not None:
            return self._phiH
        pa_xx, pa_xy = self.pa_xx, self.pa_xy
        mu_pull, mu_push = self.shear(1), self.shear(-1)
        t_inv = self.phi_hat_to_un_inv

        def fn(mask):
            sheared = mu_pull.image_of_mask(mask)
            out = pa_xy.space.zero()
            for m, c in sheared.terms.items():
                m1, m2 = pa_xx.split_mask(m)
                img = t_inv.image_of_mask(m2)  # second factor X -> Xhat
                out = out + Multivector(
                    pa_xy.space,
                    {m1 | (mm << pa_xy.shift): cc * c for mm, cc in img.terms.items()},
                )
            return out

        fwd = TransformMap(pa_xx.space, pa_xy.space, fn)

        def fn_inv(mask):
            m1, m2 = pa_xy.split_mask(mask)
            img = self.phi_hat_to_un.image_of_mask(m2)
            back = Multivector(
                pa_xx.space,
                {m1 | (mm << pa_xx.shift): cc for mm, cc in img.terms.items()},
            )
            return mu_push(back)

        inv = TransformMap(pa_xy.space, pa_xx.space, fn_inv)
        fwd.inverse = inv
        inv.inverse = fwd
        self._phiH = fwd
        return fwd

    def id_tensor_tau(self) -> TransformMap:
        pa = self.pa_xx

        def fn(mask):
            m1, m2 = pa.split_mask(mask)
            k = bin(m2).count("1")
            c = self.tower.one()
            if (k * (k - 1) // 2) & 1:
                c = -c
            return Multivector(pa.space, {mask: c})

        return TransformMap(pa.space, pa.space, fn)

    def phi_tilde(self) -> TransformMap:
        """The equivariant normalization: half-twist after phiH after (id (x) tau).

        Intertwines the diagonal (corrected) spin action on the source with
        the derivation action of the same generator on the target.
        """
        phi = self.phiH()
        twist = exp_even(
            poincare_class(self.pa_xy, -PHI_TILDE_TWIST_SIGN).scale(Fraction(1, 2))
        )
        idt = self.id_tensor_tau()

        def fn(mask):
            return wedge(twist, phi(idt.image_of_mask(mask)))

        return TransformMap(self.pa_xx.space, self.pa_xy.space, fn)

    # -- Chevalley's construction ----------------------------------------------

    def chevalley(self) -> TransformMap:
        """s (x) s' -> the Clifford element acting as lam -> (s', lam)_S s."""
        if self._chevalley is not None:
            return self._chevalley
        pa = self.pa_xx
        sx = self.sx
        one = self.tower.one()

        def fn(mask):
            m1, m2 = pa.split_mask(mask)
            a = Multivector(sx, {m1: one})
            b = Multivector(sx, {m2: one})
            op = {}
            for lam_mask in range(1 << sx.m):
                lam = Multivector(sx, {lam_mask: one})
                op[lam_mask] = a.scale(s_pairing(b, lam))
            return desymbol(op, self.hyper)

        self._chevalley = TransformMap(pa.space, self.pa_xy.space, fn)
        return self._chevalley

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
    phi = orlov.phiH()
    idt = orlov.id_tensor_tau()
    return phi(idt(gamma)).degree_part(d)
