"""Exact arithmetic in the biquadratic tower Q <= F <= K.

F = Q(sqrt(p)) with p square-free (p = 1 is the sentinel for F = Q), and
K = F(sqrt(-q)) with q a positive rational.  Since q is rational the Galois
closure of K is K itself, so every embedding K -> C is realized exactly as
a pair of sign flips on sqrt(p) and sqrt(-q).

Every element of every subfield is stored in one fixed coordinate system,
the basis {1, sqrt(p), sqrt(-q), sqrt(p)*sqrt(-q)}, as four integer
numerators n over one positive integer denominator d in lowest terms
(gcd(*n, d) == 1).  That form is canonical, so equality is tuple equality,
and all arithmetic runs on Python ints: each result is normalised with at
most one gcd, none when d = 1 or for a sign flip (negation, iota, an
embedding), which keeps an element in lowest terms.  Results known without
arithmetic are not computed: a factor of exactly 0 or +-1 gives the zero,
the other factor or its negation, a term 0 gives the other term, and each
tower's zero() and one() are built once (elements are immutable).
Fractions appear only at the boundaries: `TowerSpec.elem`,
`FieldElem.as_rational`, JSON and repr.

When p = 1, `TowerSpec.elem` folds the sqrt(p) coordinates into the
rational ones, so n[1] = n[3] = 0; every operation keeps folded elements
folded, and degenerate towers share all code paths.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

#: subfield tags, ordered by inclusion
SUBFIELDS = ("Q", "F", "K")

_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 0, 0)


def _is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class TowerSpec:
    """The pair (p, q) defining the tower Q <= Q(sqrt p) <= Q(sqrt p, sqrt -q)."""

    __slots__ = ("p", "q", "qn", "qd", "_zero", "_one")

    def __init__(self, p: int, q: int | Fraction):
        p = int(p)
        q = Fraction(q)
        if p != 1:
            if p < 2 or not _is_squarefree(p):
                raise ValueError(f"p must be 1 or square-free >= 2, got {p}")
        if q <= 0:
            raise ValueError(f"q must be a positive rational, got {q}")
        self.p = p
        self.q = q
        self.qn = q.numerator
        self.qd = q.denominator
        # elements are immutable, so every zero() and one() can be these two
        self._zero = FieldElem(self, _ZERO)
        self._one = FieldElem(self, _ONE)

    @property
    def e(self) -> int:
        """Degree [K:Q]; 2 when F = Q, 4 otherwise."""
        return 2 if self.p == 1 else 4

    @property
    def f_degree(self) -> int:
        return 1 if self.p == 1 else 2

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, TowerSpec) and self.p == other.p and self.q == other.q
        )

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"TowerSpec(p={self.p}, q={self.q})"

    # -- elements ----------------------------------------------------------

    def elem(self, c0=0, c1=0, c2=0, c3=0) -> "FieldElem":
        """The element c0 + c1 sqrt(p) + c2 sqrt(-q) + c3 sqrt(p) sqrt(-q).

        The coordinates may be anything `Fraction` accepts.  When p = 1 the
        sqrt(p) coordinates fold into the rational ones.
        """
        cs = [Fraction(c) for c in (c0, c1, c2, c3)]
        d = lcm(*[c.denominator for c in cs])
        n0, n1, n2, n3 = [c.numerator * (d // c.denominator) for c in cs]
        if self.p == 1:  # sqrt(1) = 1
            n0, n1, n2, n3 = n0 + n1, 0, n2 + n3, 0
        return FieldElem(self, (n0, n1, n2, n3), d)

    def zero(self) -> "FieldElem":
        return self._zero

    def one(self) -> "FieldElem":
        return self._one

    def sqrt_p(self) -> "FieldElem":
        return self.elem(0, 1)

    def sqrt_minus_q(self) -> "FieldElem":
        return FieldElem(self, (0, 0, 1, 0))

    def scalar(self, x) -> "FieldElem":
        """Coerce an int/Fraction/FieldElem into this tower."""
        if isinstance(x, FieldElem):
            if x.tower is not self and x.tower != self:
                raise ValueError("element belongs to a different tower")
            return x
        if isinstance(x, int):
            return FieldElem(self, (x, 0, 0, 0))
        if isinstance(x, Fraction):
            return FieldElem(self, (x.numerator, 0, 0, 0), x.denominator)
        return self.elem(x)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "q": {"num": self.qn, "den": self.qd}}

    @classmethod
    def from_json(cls, data: dict) -> "TowerSpec":
        return cls(int(data["p"]), parse_rational(data["q"]))


def parse_rational(data) -> Fraction:
    """Accept an int, [num, den], or {"num":..,"den":..}."""
    if isinstance(data, dict):
        return Fraction(int(data["num"]), int(data["den"]))
    if isinstance(data, (list, tuple)):
        num, den = data
        return Fraction(int(num), int(den))
    if isinstance(data, (int, str)):
        return Fraction(data)
    raise ValueError(f"cannot parse rational from {data!r}")


class FieldElem:
    """Element (n0 + n1 sqrt p + n2 sqrt -q + n3 sqrt p sqrt -q) / d of the tower.

    `n` is a 4-tuple of ints and `d` a positive int; the constructor puts
    them in lowest terms, so two elements are equal exactly when their
    (n, d) are.  Build elements from rationals with `TowerSpec.elem`,
    which also folds p = 1.

    Immutable.  Arithmetic raises on tower mismatch; division by zero is
    signaled with ZeroDivisionError.
    """

    __slots__ = ("tower", "n", "d")

    def __init__(self, tower: TowerSpec, n: tuple, d: int = 1):
        if d != 1:  # gcd(*n, 1) == 1
            g = gcd(n[0], n[1], n[2], n[3], d)
            if g != 1:
                n = (n[0] // g, n[1] // g, n[2] // g, n[3] // g)
                d //= g
        self.tower = tower
        self.n = n
        self.d = d

    @classmethod
    def _reduced(cls, tower: TowerSpec, n: tuple, d: int) -> "FieldElem":
        """n / d, given in lowest terms, built without the gcd."""
        x = object.__new__(cls)
        x.tower, x.n, x.d = tower, n, d
        return x

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.n == _ZERO

    def is_rational(self) -> bool:
        n = self.n
        return not (n[1] or n[2] or n[3])

    def subfield(self) -> str:
        """Smallest tag in SUBFIELDS containing this element."""
        n = self.n
        if n[2] or n[3]:
            return "K"
        return "F" if n[1] else "Q"

    def in_subfield(self, tag: str) -> bool:
        return SUBFIELDS.index(self.subfield()) <= SUBFIELDS.index(tag)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.n[0], self.d)

    def component(self, k: int) -> "FieldElem":
        """The k-th coordinate over {1, sqrt p, sqrt -q, sqrt p sqrt -q}, as a rational element."""
        return FieldElem(self.tower, (self.n[k], 0, 0, 0), self.d)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.tower is not self.tower and other.tower != self.tower:
                raise ValueError("tower mismatch")
            return other
        return self.tower.scalar(other)

    def __add__(self, other):
        if other.__class__ is not FieldElem or other.tower is not self.tower:
            other = self._check(other)
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        if not (a0 or a1 or a2 or a3):  # adding zero needs no arithmetic
            return other
        if not (b0 or b1 or b2 or b3):
            return self
        da, db = self.d, other.d
        if da == db:
            return FieldElem(self.tower, (a0 + b0, a1 + b1, a2 + b2, a3 + b3), da)
        return FieldElem(
            self.tower,
            (a0 * db + b0 * da, a1 * db + b1 * da, a2 * db + b2 * da, a3 * db + b3 * da),
            da * db,
        )

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3 = self.n
        return FieldElem._reduced(self.tower, (-a0, -a1, -a2, -a3), self.d)

    def __sub__(self, other):
        if other.__class__ is not FieldElem or other.tower is not self.tower:
            other = self._check(other)
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        if da == db:
            return FieldElem(self.tower, (a0 - b0, a1 - b1, a2 - b2, a3 - b3), da)
        return FieldElem(
            self.tower,
            (a0 * db - b0 * da, a1 * db - b1 * da, a2 * db - b2 * da, a3 * db - b3 * da),
            da * db,
        )

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if other.__class__ is not FieldElem or other.tower is not self.tower:
            other = self._check(other)
        a0, a1, a2, a3 = self.n
        b0, b1, b2, b3 = other.n
        da, db = self.d, other.d
        a_rat, b_rat = not (a1 or a2 or a3), not (b1 or b2 or b3)
        # a factor of 0 or +-1 (so d = 1) needs no arithmetic
        if a_rat and da == 1 and -1 <= a0 <= 1:
            return other if a0 == 1 else -other if a0 else self
        if b_rat and db == 1 and -1 <= b0 <= 1:
            return self if b0 == 1 else -self if b0 else other
        if a_rat:  # rational fast paths
            return FieldElem(self.tower, (a0 * b0, a0 * b1, a0 * b2, a0 * b3), da * db)
        if b_rat:
            return FieldElem(self.tower, (a0 * b0, a1 * b0, a2 * b0, a3 * b0), da * db)
        # (a0 + a1 rp + a2 rq + a3 rp rq)(b0 + ...) with rp^2 = p, rq^2 = -qn/qd;
        # the qd of every sqrt(-q)^2 term goes into the denominator
        t = self.tower
        p, qn, qd = t.p, t.qn, t.qd
        u0 = a0 * b0 + p * a1 * b1
        v0 = a2 * b2 + p * a3 * b3
        u1 = a0 * b1 + a1 * b0
        v1 = a2 * b3 + a3 * b2
        c2 = a0 * b2 + a2 * b0 + p * (a1 * b3 + a3 * b1)
        c3 = a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1
        return FieldElem(t, (qd * u0 - qn * v0, qd * u1 - qn * v1, qd * c2, qd * c3), da * db * qd)

    __rmul__ = __mul__

    def inv(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in the tower field")
        a0, a1, a2, a3 = self.n
        # 1 and -1 (so d = 1) are their own inverses
        if not (a1 or a2 or a3) and self.d == 1 and (a0 == 1 or a0 == -1):
            return self
        # clear sqrt(-q) first: f = x * iota(x) lies in F, then invert in F
        xb = self.iota()
        f = self * xb
        f0, f1 = f.n[0], f.n[1]
        # 1/f = d_f (f0 - f1 sqrt p) / N with N = f0^2 - p f1^2 the rational
        # norm of d_f * f; f is a norm from the CM field K, so totally
        # positive, and N > 0
        nrm = f0 * f0 - self.tower.p * f1 * f1
        return xb * FieldElem(self.tower, (f.d * f0, -f.d * f1, 0, 0), nrm)

    def __truediv__(self, other):
        return self * self._check(other).inv()

    def __rtruediv__(self, other):
        return self._check(other) * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = self.tower.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- Galois -------------------------------------------------------------

    def iota(self) -> "FieldElem":
        """Conjugation over F: negates the sqrt(-q) coordinates."""
        a0, a1, a2, a3 = self.n
        return FieldElem._reduced(self.tower, (a0, a1, -a2, -a3), self.d)

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElem):
            return (
                self.n == other.n
                and self.d == other.d
                and (self.tower is other.tower or self.tower == other.tower)
            )
        if isinstance(other, int):
            return self.d == 1 and self.n == (other, 0, 0, 0)
        if isinstance(other, Fraction):
            return self.d == other.denominator and self.n == (other.numerator, 0, 0, 0)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())  # hashes like the equal int / Fraction
        return hash((self.n, self.d))

    def __repr__(self):
        parts = []
        names = ("", "*rp", "*rq", "*rp*rq")
        for coord, name in zip(self.n, names):
            if coord:
                parts.append(f"{Fraction(coord, self.d)}{name}")
        return "+".join(parts) if parts else "0"

    def to_json(self) -> list:
        out = []
        for x in self.n:
            g = gcd(x, self.d)
            out.append([x // g, self.d // g])
        return out


class Embedding:
    """An embedding of K into C at desk scale: a pair of sign flips.

    sign_p acts on sqrt(p), sign_q on sqrt(-q).  Composition with iota
    flips sign_q only.
    """

    __slots__ = ("sign_p", "sign_q")

    def __init__(self, sign_p: int, sign_q: int):
        if sign_p not in (1, -1) or sign_q not in (1, -1):
            raise ValueError("signs must be +-1")
        self.sign_p = sign_p
        self.sign_q = sign_q

    def __call__(self, a: FieldElem) -> FieldElem:
        n0, n1, n2, n3 = a.n
        sp, sq = self.sign_p, self.sign_q
        return FieldElem._reduced(a.tower, (n0, sp * n1, sq * n2, sp * sq * n3), a.d)

    def __eq__(self, other):
        return (
            isinstance(other, Embedding)
            and self.sign_p == other.sign_p
            and self.sign_q == other.sign_q
        )

    def __hash__(self):
        return hash((self.sign_p, self.sign_q))

    def __repr__(self):
        fmt = {1: "+", -1: "-"}
        return f"Embedding({fmt[self.sign_p]}rp,{fmt[self.sign_q]}rq)"


def f_embeddings(tower: TowerSpec) -> list:
    """Sign flips on sqrt(p); a single trivial one when F = Q."""
    return [1] if tower.p == 1 else [1, -1]


def k_embeddings(tower: TowerSpec) -> list:
    """All e embeddings of K, ordered deterministically."""
    return [Embedding(sp, sq) for sp in f_embeddings(tower) for sq in (1, -1)]


class CMType:
    """A choice, for each embedding of F, of one K-embedding above it.

    Stored as a tuple of sign_q values aligned with f_embeddings(tower).
    """

    __slots__ = ("tower", "choices")

    def __init__(self, tower: TowerSpec, choices: tuple):
        if len(choices) != tower.e // 2 or any(s not in (1, -1) for s in choices):
            raise ValueError("bad CM-type choices")
        self.tower = tower
        self.choices = tuple(choices)

    def conjugate(self) -> "CMType":
        return CMType(self.tower, tuple(-s for s in self.choices))

    def embeddings(self) -> list:
        return [Embedding(sp, sq) for sp, sq in zip(f_embeddings(self.tower), self.choices)]

    def overlap(self, other: "CMType") -> int:
        """|T cap T'|: the number of F-embeddings where the two choices agree."""
        return sum(1 for a, b in zip(self.choices, other.choices) if a == b)

    def __eq__(self, other):
        return (
            isinstance(other, CMType)
            and self.tower == other.tower
            and self.choices == other.choices
        )

    def __hash__(self):
        return hash((self.tower, self.choices))

    def __repr__(self):
        fmt = {1: "+", -1: "-"}
        return "CMType(" + "".join(fmt[s] for s in self.choices) + ")"


def enumerate_cm_types(tower: TowerSpec) -> list:
    """All 2^(e/2) CM-types, in lexicographic order with + before -."""
    half = tower.e // 2
    return [CMType(tower, ch) for ch in itertools.product((1, -1), repeat=half)]


def trace_to_Q(a: FieldElem, sub: str) -> Fraction:
    """Trace of a over Q, summing over the embeddings of the named subfield.

    Raises ValueError when a does not lie in the claimed subfield.
    """
    if sub not in ("F", "K"):
        raise ValueError(f"trace from {sub!r} not defined; use 'F' or 'K'")
    if not a.in_subfield(sub):
        raise ValueError(f"element {a} does not lie in {sub}")
    degree = a.tower.f_degree if sub == "F" else a.tower.e
    return degree * a.component(0).as_rational()
