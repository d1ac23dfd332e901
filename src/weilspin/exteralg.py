"""Sparse exterior algebra over a tower field.

Basis elements of the exterior algebra on m generators are subsets of
{0..m-1} packed as bitmasks; a multivector is a sparse map mask -> FieldElem.
All Koszul signs come from inversion-counting between masks, one popcount
per pair (`below_parity`): `wedge`, the general product, is a Python loop
over term pairs.  A rational multivector also has an exact integer form,
`IntMultivector` (int64 masks, integer numerators, one denominator), whose
product with a small factor is one vectorised numpy pass per term of it.

The fixed orientation is g_1 ^ ... ^ g_m |-> 1: the top monomial has
integral one, and the spinor pairing refers to it.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import linalg
from .fieldtower import FieldElem, TowerSpec
from .linalg import int_dtype


def below_parity(b: int, m: int) -> int:
    """The mask whose bit i < m is set when an odd number of bits of `b` lie
    below i, by an xor prefix scan.  Sorting the concatenation of disjoint
    ascending masks a, b moves each bit i of a past the bits of b below i, so
    its sign is -1 exactly when a & below_parity(b, m) has odd popcount."""
    x = b << 1
    s = 1
    while s < m:
        x ^= x << s
        s <<= 1
    return x


def degree_two_masks(m: int) -> list:
    """The masks of degree 2 on m generators, in ascending order."""
    return [(1 << i) | (1 << j) for j in range(m) for i in range(j)]


class GeneratorSpace:
    """An ordered list of generator names over a tower field."""

    __slots__ = ("labels", "tower", "m", "top_mask")

    def __init__(self, labels, tower: TowerSpec):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be distinct")
        self.labels = labels
        self.tower = tower
        self.m = len(labels)
        self.top_mask = (1 << self.m) - 1

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GeneratorSpace)
            and self.labels == other.labels
            and self.tower == other.tower
        )

    def __hash__(self):
        return hash((self.labels, self.tower))

    def __repr__(self):
        return f"GeneratorSpace({','.join(self.labels)})"

    def scalar(self, x) -> FieldElem:
        return self.tower.scalar(x)

    def zero(self) -> "Multivector":
        return Multivector(self, {})

    def one(self) -> "Multivector":
        return Multivector(self, {0: self.tower.one()})

    def gen(self, i: int) -> "Multivector":
        if not 0 <= i < self.m:
            raise IndexError(i)
        return Multivector(self, {1 << i: self.tower.one()})


class Multivector:
    """Sparse exterior-algebra element; terms hold no zero coefficients."""

    __slots__ = ("space", "terms")

    def __init__(self, space: GeneratorSpace, terms: dict):
        self.space = space
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def _nonzero(cls, space: GeneratorSpace, terms: dict) -> "Multivector":
        """A multivector owning `terms`, a fresh dict with no zero coefficient
        (a product of nonzero field elements is nonzero), built unfiltered."""
        mv = object.__new__(cls)
        mv.space, mv.terms = space, terms
        return mv

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        if self.space != other.space:
            raise ValueError("generator space mismatch")
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = out[m] + c
                if s.is_zero():
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Multivector._nonzero(self.space, out)

    def __neg__(self):
        return Multivector._nonzero(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "Multivector":
        s = self.space.scalar(s)
        if s.is_zero():
            return self.space.zero()
        return Multivector._nonzero(self.space, {m: c * s for m, c in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms):
            names = [self.space.labels[i] for i in range(self.space.m) if m >> i & 1]
            mono = "^".join(names) if names else "1"
            bits.append(f"({self.terms[m]})*{mono}")
        return " + ".join(bits)

    # -- grading -------------------------------------------------------------

    def degree_part(self, k: int) -> "Multivector":
        return Multivector(
            self.space, {m: c for m, c in self.terms.items() if bin(m).count("1") == k}
        )

    def degrees(self):
        return sorted({bin(m).count("1") for m in self.terms})

    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero multivector has no degree")
        return min(bin(m).count("1") for m in self.terms)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    """The exterior product.  As e_mb ^ e_ma = (-1)^(|ma| |mb|) e_ma ^ e_mb, the
    `below_parity` scan runs once per term of the factor with fewer terms.
    Each scanned term keeps its coefficient c as the pair (c, -c), indexed
    by the parity of the Koszul sign, so no product negates its result."""
    if a.space != b.space:
        raise ValueError("generator space mismatch")
    swap = len(a.terms) < len(b.terms)
    outer, inner = (b, a) if swap else (a, b)
    scanned = [(mi, (ci, -ci), below_parity(mi, a.space.m), mi.bit_count() & swap)
               for mi, ci in inner.terms.items()]
    out = {}
    for mo, co in outer.terms.items():
        do = mo.bit_count() & swap
        for mi, signed, below, di in scanned:
            if mo & mi:
                continue
            c = co * signed[((mo & below).bit_count() + (do & di)) & 1]
            key = mo | mi
            if key in out:
                s = out[key] + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
    return Multivector._nonzero(a.space, out)


class IntMultivector:
    """A rational multivector in exact integer form: numerator nums[i] at mask
    masks[i] (int64; no mask twice, no zero numerator) over one positive
    denominator den.  nums is int64 under the bound of `int_dtype`, else an
    object array of Python ints."""

    __slots__ = ("space", "masks", "nums", "den")

    def __init__(self, space: GeneratorSpace, masks, nums, den: int):
        self.space, self.masks, self.nums, self.den = space, masks, nums, den

    @classmethod
    def of(cls, mv: Multivector) -> "IntMultivector":
        """mv over the lcm of its denominators; raises ValueError off Q."""
        (nums,), den = linalg.int_form([list(mv.terms.values())])
        return cls(mv.space, np.array(list(mv.terms), dtype=np.int64),
                   np.array(nums, dtype=int_dtype(max(map(abs, nums), default=0))), den)

    @classmethod
    def from_terms(cls, space: GeneratorSpace, masks, nums, den: int) -> "IntMultivector":
        """The sum of the terms nums[t] at masks[t], a mask possibly repeated:
        one stable argsort and `np.add.reduceat`; zero sums are dropped."""
        order = np.argsort(masks, kind="stable")
        masks, nums = masks[order], nums[order]
        first = np.flatnonzero(np.diff(masks, prepend=-1))
        sums = np.add.reduceat(nums, first) if len(first) else nums
        return cls(space, masks[first][sums != 0], sums[sums != 0], den)

    def to_multivector(self) -> Multivector:
        return Multivector._nonzero(self.space, {m: FieldElem(self.space.tower, (x, 0, 0, 0), self.den)
                                                 for m, x in zip(self.masks.tolist(), self.nums.tolist())})

    def is_zero(self) -> bool:
        return not len(self.masks)

    def height(self) -> int:
        """The largest |numerator|, as a Python int."""
        return int(np.abs(self.nums).max(initial=0))

    def exact_quotient(self, k: int) -> "IntMultivector":
        """The numerators divided by k; raises ArithmeticError on a remainder."""
        if (self.nums % k).any():
            raise ArithmeticError(f"a numerator is not divisible by {k}")
        return IntMultivector(self.space, self.masks, self.nums // k, self.den)

    def wedge(self, small: "IntMultivector") -> "IntMultivector":
        """self ^ small by one vectorised pass over the pairs (mask a of self,
        term (g, w) of `small`) with a & g = 0, each going to a | g with the
        sign of popcount(a & below_parity(g)); the pass holds an N x |small|
        boolean array, about 7.8 M entries at n = 7.  A mask gets at most one
        term per g, so every sum is at most height * sum |w|; the int64 bound,
        max(height, 1) * max(sum |w|, 1), also bounds each numerator and w."""
        dtype, top = int_dtype(max(self.height(), 1) * max(sum(map(abs, small.nums.tolist())), 1)), self.space.top_mask
        below = np.array([below_parity(g, self.space.m) & top for g in small.masks.tolist()], dtype=np.int64)
        i, j = np.nonzero((self.masks[:, None] & small.masks[None, :]) == 0)
        a, v = self.masks[i], self.nums.astype(dtype)[i] * small.nums.astype(dtype)[j]
        v[np.bitwise_count(a & below[j]) & 1 == 1] *= -1
        return IntMultivector.from_terms(self.space, a | small.masks[j], v, self.den * small.den)


def column_rows(images) -> list:
    """Rows of the matrix whose j-th column is images[j], a nonempty list of
    multivectors on one space, over the sorted union of their supports.

    This is how an operator given by its images becomes a matrix for
    `linalg.nullspace` or `linalg.solve`; masks outside every support would
    only add zero rows.
    """
    zero = images[0].space.tower.zero()
    support = sorted(set().union(*(img.terms for img in images)))
    return [[img.terms.get(m, zero) for img in images] for m in support]


def span_basis(mvs) -> list:
    """The canonical basis of the span of `mvs`, multivectors on one space.

    It is the reduced row echelon form over the sorted union of their
    supports, read back as multivectors: each element has coefficient 1 at
    its lowest mask, its pivot, and no other element has that mask.  Masks
    outside every support are zero columns, which elimination skips, so
    this is the rref over all masks; equal spans give equal lists.
    """
    mvs = [mv for mv in mvs if mv.terms]
    if not mvs:
        return []
    space = mvs[0].space
    support = sorted(set().union(*(mv.terms for mv in mvs)))
    zero = space.tower.zero()
    rows = [[mv.terms.get(m, zero) for m in support] for mv in mvs]
    red, _ = linalg.rref(rows, space.tower)
    return [Multivector(space, dict(zip(support, row))) for row in red]


def in_span(basis, mv: Multivector) -> bool:
    """Whether mv lies in the span of a canonical basis from `span_basis`."""
    for b in basis:
        c = mv.terms.get(min(b.terms))
        if c is not None:
            mv = mv - b.scale(c)
    return mv.is_zero()


def rational_parts(mv: Multivector) -> list:
    """The four rational multivectors whose combination with the tower basis
    1, sqrt p, sqrt -q, sqrt p sqrt -q is mv.  They span the smallest
    rational subspace whose span over the tower field holds mv."""
    return [
        Multivector(mv.space, {m: c.component(k) for m, c in mv.terms.items()})
        for k in range(4)
    ]


def coordinates(vectors, mv: Multivector):
    """Coefficients x with sum of x[j] vectors[j] equal to mv, or None when
    mv is outside their span; with independent vectors x is unique."""
    aug = column_rows(list(vectors) + [mv])
    if not aug:  # mv and every vector are zero
        return [mv.space.tower.zero()] * len(vectors)
    return linalg.solve([row[:-1] for row in aug], [row[-1] for row in aug], mv.space.tower)


def tau(a: Multivector) -> Multivector:
    """Degree-i part scaled by (-1)^(i(i-1)/2); an involution."""
    out = {}
    for m, c in a.terms.items():
        i = bin(m).count("1")
        out[m] = -c if (i * (i - 1) // 2) & 1 else c
    return Multivector(a.space, out)


def s_pairing(a: Multivector, b: Multivector) -> FieldElem:
    """Coefficient of the top monomial in tau(a) ^ b."""
    if a.space != b.space:
        raise ValueError("generator space mismatch")
    top, m = a.space.top_mask, a.space.m
    tower = a.space.tower
    acc = tower.zero()
    for ma, ca in a.terms.items():
        mb = top ^ ma
        cb = b.terms.get(mb)
        if cb is None:
            continue
        i = bin(ma).count("1")
        c = ca * cb
        if (i * (i - 1) // 2) & 1:
            c = -c
        if (ma & below_parity(mb, m)).bit_count() & 1:
            c = -c
        acc = acc + c
    return acc


def exp_even(a: Multivector) -> Multivector:
    """Sum of a^k / k! for a nilpotent element of even positive degrees."""
    for m in a.terms:
        d = bin(m).count("1")
        if d == 0 or d & 1:
            raise ValueError("exp_even requires even positive degrees only")
    out = a.space.one()
    term = a.space.one()
    k = 0
    max_k = a.space.m // 2
    while k < max_k:
        k += 1
        term = wedge(term, a).scale(Fraction(1, k))
        if term.is_zero():
            break
        out = out + term
    return out


def kunneth(a: Multivector, b: Multivector, target: GeneratorSpace = None) -> Multivector:
    """Graded tensor embedding of a (x) b into the algebra on the joint generators.

    The first factor occupies the low bit positions, so no Koszul sign appears
    in the embedding itself; signs show up in products, via wedge.
    """
    if a.space.tower != b.space.tower:
        raise ValueError("tower mismatch")
    if target is None:
        target = GeneratorSpace(a.space.labels + b.space.labels, a.space.tower)
    if target.m != a.space.m + b.space.m:
        raise ValueError("target space has the wrong arity")
    shift = a.space.m
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            out[ma | (mb << shift)] = ca * cb
    return Multivector(target, out)
