"""Pure spinors and isotropic subspaces.

The annihilator of a spinor under Clifford multiplication is always
isotropic; the spinor is pure exactly when the annihilator is maximal
(dimension 2n), and then the spinor line and the subspace determine each
other.  Both directions have closed forms (Chevalley, *The Algebraic Theory
of Spinors*, 1954):

* the annihilator of exp(b), for a 2-form b on the x-block, is the graph
  {(M y, y)} of b's matrix M, spanned by the y_j - iota_(y_j) b (`weilcm.build_W`);
* the spinor line of a maximal isotropic W is w_1 ... w_2n x_S for a basis
  w_i of W and a monomial x_S whose subspace meets W trivially
  (`pure_spinor_of`).

`annihilator` is the one solve, exact over the tower field; subspace bases
are kept in reduced echelon form so serialized output is canonical.
"""

from __future__ import annotations

from . import linalg
from .clifford import HyperbolicSpace, clifford_action
from .exteralg import Multivector, column_rows


class IsotropicSubspace:
    """A certified-isotropic subspace of V over the tower field."""

    __slots__ = ("space", "basis", "dim")

    def __init__(self, space: HyperbolicSpace, basis):
        red, _ = linalg.rref(basis, space.tower)
        self.space = space
        self.basis = red
        self.dim = len(red)
        for i, u in enumerate(red):
            for v in red[i:]:
                if not space.pair(u, v).is_zero():
                    raise ValueError("basis does not span an isotropic subspace")

    def is_maximal(self) -> bool:
        return self.dim == 2 * self.space.n

    def __eq__(self, other):
        return (
            isinstance(other, IsotropicSubspace)
            and self.space is other.space
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"IsotropicSubspace(dim={self.dim})"


def annihilator(lam: Multivector, space: HyperbolicSpace) -> IsotropicSubspace:
    """The subspace of V over the tower field annihilating a nonzero spinor."""
    if lam.is_zero():
        raise ValueError("the zero spinor has no annihilator subspace")
    images = [clifford_action(space.vspace.gen(k), lam, space) for k in range(space.dim_v)]
    kernel = linalg.nullspace(column_rows(images), space.dim_v, space.tower)
    return IsotropicSubspace(space, kernel)


def is_pure(lam: Multivector, space: HyperbolicSpace):
    """Purity test; returns (flag, annihilator) so the certificate travels along."""
    ann = annihilator(lam, space)
    return ann.dim == 2 * space.n, ann


def pure_spinor_of(w: IsotropicSubspace, space: HyperbolicSpace) -> Multivector:
    """The spinor line of a maximal isotropic subspace, normalized.

    It is w_1 ... w_2n x_S for the rows w_i of `w.basis`, where S is the
    set of x-indices that are not pivots of that reduced echelon basis.
    Normalization: the lowest-mask nonzero coefficient equals 1, making
    reports byte-stable.

    Soundness.  W is isotropic, so the w_i anticommute and square to 0
    (v w + w v = (v, w)), and each w_i kills the product.  x_S is the pure
    spinor of L = span{x_j : j not in I} + span{y_i : i in I}, I the
    x-pivots.  Take w in W meet L: its x-part has no coordinate at a
    pivot, and in echelon form that coordinate is the coefficient of the
    pivot's row, so w is a combination of the rows with y-pivots, which
    vanish on the x-block.  Then w is supported on y_I, and pairing it with
    the row of pivot i (whose x-part is x_i plus non-pivot terms) gives
    its y_i-coordinate, 0 by isotropy; so W meets L trivially.  Then the
    pairing between W and L is perfect; for a basis l_i of L dual to the
    w_i, l_i x_S = 0 and l_i w_j + w_j l_i = delta_ij bring the product
    back to +-x_S, so it is nonzero.  W is maximal, so its spinor is a
    line, and the product spans it.
    """
    if not w.is_maximal():
        raise ValueError("pure spinor lines exist only for maximal isotropic subspaces")
    # the bits of the y-pivots lie above the spinor top mask
    pivots = sum(1 << next(i for i, c in enumerate(row) if not c.is_zero()) for row in w.basis)
    lam = Multivector(space.sspace, {space.sspace.top_mask & ~pivots: space.tower.one()})
    for row in reversed(w.basis):
        lam = clifford_action(space.vector_to_mv(row), lam, space)
    lead = min(lam.terms)
    return lam.scale(lam.terms[lead].inv())
