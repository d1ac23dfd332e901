"""Layer micro-benchmarks, driven through weilspin's public functions.

Each timing is the median over REPEATS batches of the per-call time, so
one slow batch on a shared host does not set the value.
"""

from __future__ import annotations

import random
import statistics
import timeit
from fractions import Fraction

REPEATS = 7
RREF_RANK = 8


def _per_call(fn, number: int) -> float:
    return statistics.median(timeit.repeat(fn, number=number, repeat=REPEATS)) / number


def field_ops(tower) -> dict:
    """FieldElem K x K and Q x K multiply, add and inverse on a given tower, in us."""
    a = tower.elem(Fraction(3, 7), Fraction(-2, 5), Fraction(5, 3), Fraction(1, 4))
    b = tower.elem(Fraction(-4, 9), Fraction(1, 6), Fraction(2, 11), Fraction(-3, 8))
    r = tower.scalar(Fraction(5, 12))
    return {
        "fieldtower.mul_kk_us": 1e6 * _per_call(lambda: a * b, 2000),
        "fieldtower.mul_qk_us": 1e6 * _per_call(lambda: r * b, 2000),
        "fieldtower.add_us": 1e6 * _per_call(lambda: a + b, 2000),
        "fieldtower.inv_us": 1e6 * _per_call(a.inv, 500),
    }


def wedge_fixed(tower) -> float:
    """exteralg.wedge of two fixed 8-generator operands (28 x 56 terms), in us."""
    from weilspin.exteralg import GeneratorSpace, Multivector, wedge

    space = GeneratorSpace([f"e{i}" for i in range(8)], tower)
    masks2 = [m for m in range(256) if bin(m).count("1") == 2]
    masks3 = [m for m in range(256) if bin(m).count("1") == 3]
    a = Multivector(space, {m: tower.scalar(Fraction(i + 1, 3)) for i, m in enumerate(masks2)})
    b = Multivector(space, {m: tower.scalar(Fraction(2, i + 1)) for i, m in enumerate(masks3)})
    return 1e6 * _per_call(lambda: wedge(a, b), 5)


def rref_64(tower, seed: int) -> float:
    """linalg.rref of a seeded 64 x 64 rational matrix of rank RREF_RANK, in ms.

    The matrix is a product L R of 64 x r and r x 64 matrices of small
    rationals: rank-deficient like most of the program's eliminations, and
    quick enough to repeat.
    """
    from weilspin.linalg import rref

    rng = random.Random(seed)

    def small():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    left = [[small() for _ in range(RREF_RANK)] for _ in range(64)]
    right = [[small() for _ in range(64)] for _ in range(RREF_RANK)]
    rows = [[tower.scalar(sum(l[k] * right[k][j] for k in range(RREF_RANK))) for j in range(64)]
            for l in left]
    return 1e3 * statistics.median(timeit.repeat(lambda: rref(rows, tower), number=1, repeat=3))


def run(tower, seed: int) -> dict:
    out = field_ops(tower)
    out["exteralg.wedge_fixed_us"] = wedge_fixed(tower)
    out["linalg.rref64_ms"] = rref_64(tower, seed)
    return out
