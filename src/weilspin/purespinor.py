"""Pure spinors and isotropic subspaces.

The annihilator of a spinor under Clifford multiplication is always
isotropic; the spinor is pure exactly when the annihilator is maximal
(dimension 2n), and then the spinor line and the subspace determine each
other.  All solves are exact over the tower field; subspace bases are kept
in reduced echelon form so serialized output is canonical.
"""

from __future__ import annotations

from . import linalg
from .clifford import HyperbolicSpace, clifford_action
from .exteralg import Multivector, column_rows


class IsotropicSubspace:
    """A certified-isotropic subspace of V over a tower coefficient field."""

    __slots__ = ("space", "coeff", "basis", "dim")

    def __init__(self, space: HyperbolicSpace, basis, coeff: str = "K", check: bool = True):
        red, _ = linalg.rref(basis, space.tower)
        self.space = space
        self.coeff = coeff
        self.basis = red
        self.dim = len(red)
        if check:
            for i, u in enumerate(red):
                for v in red[i:]:
                    if not space.pair(u, v).is_zero():
                        raise ValueError("basis does not span an isotropic subspace")
            for row in red:
                for x in row:
                    if not x.in_subfield(coeff):
                        raise ValueError(f"coordinate {x} outside subfield {coeff}")

    def is_maximal(self) -> bool:
        return self.dim == 2 * self.space.n

    def __eq__(self, other):
        return (
            isinstance(other, IsotropicSubspace)
            and self.space is other.space
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"IsotropicSubspace(dim={self.dim}, coeff={self.coeff})"

    def map_rows(self, f) -> "IsotropicSubspace":
        return IsotropicSubspace(
            self.space, [[f(x) for x in row] for row in self.basis], self.coeff, check=False
        )

    def to_json(self) -> list:
        return [[x.to_json() for x in row] for row in self.basis]


def annihilator(lam: Multivector, space: HyperbolicSpace, coeff: str = "K") -> IsotropicSubspace:
    """The subspace of V tensor coeff annihilating a nonzero spinor."""
    if lam.is_zero():
        raise ValueError("the zero spinor has no annihilator subspace")
    images = [clifford_action(space.vspace.gen(k), lam, space) for k in range(space.dim_v)]
    kernel = linalg.nullspace(column_rows(images), space.dim_v, space.tower)
    return IsotropicSubspace(space, kernel, coeff)


def is_pure(lam: Multivector, space: HyperbolicSpace, coeff: str = "K"):
    """Purity test; returns (flag, annihilator) so the certificate travels along."""
    ann = annihilator(lam, space, coeff)
    return ann.dim == 2 * space.n, ann


def pure_spinor_of(w: IsotropicSubspace, space: HyperbolicSpace) -> Multivector:
    """The spinor line of a maximal isotropic subspace, normalized.

    Normalization: the lowest-mask nonzero coefficient equals 1, making
    reports byte-stable.  Raises when the solution space is not a line.
    """
    if not w.is_maximal():
        raise ValueError("pure spinor lines exist only for maximal isotropic subspaces")
    dim_s = 1 << (2 * space.n)
    basis = [Multivector(space.sspace, {mask: space.tower.one()}) for mask in range(dim_s)]
    rows = []
    for vec in w.basis:
        # m_v as a matrix acting on spinor coordinates
        vmv = space.vector_to_mv(vec)
        rows.extend(column_rows([clifford_action(vmv, lam, space) for lam in basis]))
    kernel = linalg.nullspace(rows, dim_s, space.tower)
    if len(kernel) != 1:
        raise ValueError(f"spinor solution space has dimension {len(kernel)}, not 1")
    lam = Multivector(space.sspace, dict(enumerate(kernel[0])))
    lead = min(lam.terms)
    return lam.scale(lam.terms[lead].inv())
