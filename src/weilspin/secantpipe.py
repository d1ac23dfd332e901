"""End-to-end verification pipeline and report assembly.

A preset (or a datum read from JSON) is expanded into the full Weil
structure, every lemma-level identity is machine-checked in a fixed order,
and the results are collected into a deterministic report: same input and
seed, byte-identical output.

The quantitative core for F = Q: a pair of characters in B (alpha + beta
twice on the presets, else the first of `SHEAF_PAIRS` whose transform rank
|top coefficient of ch_1 ^ ch_2|, 8q on the principal presets, is nonzero)
is boxed, pushed through the derived-equivalence shadow, dualized to the
sheaf of nonzero rank, and its normalized character kappa is decomposed in
middle degree as (Weil part) + (polynomial part), with the Weil component
required to be nonzero.

The checks are declared once, in report order, by the `_check` decorator
on the runner's methods (`CHECKS`); `_Runner.record` is the one place a
check is run and its result or crash recorded.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cached_property, partial, reduce
from math import comb

import numpy as np

from . import linalg
from .clifford import SoPair, clifford_action, clifford_mul, desymbol, vector_rep_reflection
from .exteralg import (
    IntMultivector,
    Multivector,
    coordinates,
    degree_two_masks,
    exp_even,
    in_span,
    rational_parts,
    s_pairing,
    span_basis,
    tau,
    wedge,
)
from .fieldtower import TowerSpec, enumerate_cm_types, k_embeddings, trace_to_Q
from .fmtransform import OrlovTransform, bb_decompose, filtration_level, pi_to_weil
from .linalg import bilinear, int_dtype, k_equal, k_mul, k_stack, preserves_graph
from .purespinor import IsotropicSubspace, annihilator, is_pure, pure_spinor_of
from .weilcm import WeilDatum, WeilStructure, generated_subalgebra_degree


def transform_pair(orl: OrlovTransform, c1: Multivector, c2: Multivector, variant: str) -> Multivector:
    """Transform of a boxed pair of Chern characters; degree-0 part of the
    result is the rank."""
    if variant == "E":
        boxed = orl.box(c1, tau(c2))
    elif variant == "G":
        boxed = orl.box(c2, c1)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return orl.phiH(boxed)


def kappa(c: Multivector) -> IntMultivector:
    """The normalized character ch * exp(-c1/rank) of c = ch, on integer
    forms (ch lies in H^ev(X x Xhat, Q); a coefficient outside Q raises
    ValueError).  The degree-2 part of the result vanishes.

    With c = C / D and w = -c1/rank = W / R, kappa = sum_j c ^ w^j / j! is
    sum_j t_j over D R^j, where t_j = C ^ W^j / j! is t_(j-1) ^ W / j.  That
    division is exact: t_(j-1) ^ W = C ^ W^j / (j-1)! = j t_j, and W^j / j!
    of an integer 2-form is integral, a signed sum over the sets of j
    disjoint index pairs of the products of their coefficients
    (`exact_quotient` raises on a remainder).  The parts are summed once,
    over D R^J.
    """
    r = c.terms.get(0)
    if r is None:
        raise ValueError("kappa requires nonzero rank")
    w, parts = IntMultivector.of(c.degree_part(2).scale(-r.inv())), [IntMultivector.of(c)]
    while not parts[-1].is_zero():
        parts.append(parts[-1].wedge(w).exact_quotient(len(parts)))
    parts.pop()
    scale = [parts[-1].den // t.den for t in parts]
    dtype = int_dtype(sum(k * t.height() for k, t in zip(scale, parts)))
    return IntMultivector.from_terms(c.space, np.concatenate([t.masks for t in parts]),
                                     np.concatenate([t.nums.astype(dtype) * k for k, t in zip(scale, parts)]),
                                     parts[-1].den)


def dual_sheaf_character(ch_g: Multivector) -> Multivector:
    """Character of the sheaf representing the shifted dual of the transform."""
    return tau(ch_g).scale(-1)


def decompose_kappa(ws: WeilStructure, kd: Multivector):
    """kd = gamma + delta with gamma in the Weil space, delta a power of Xi.

    Returns (gamma, delta, gamma_coefficients).  Raises when kd lies outside
    the direct sum, which would contradict the invariance checks.
    """
    sym = generated_subalgebra_degree(ws.space, ws.a2_elements, ws.d)[ws.d]
    stack = ws.HW + sym
    if len(span_basis(stack)) != len(stack):
        raise ValueError("Weil space meets the polynomial part; sum is not direct")
    sol = coordinates(stack, kd)
    if sol is None:
        raise ValueError("middle character lies outside the invariant sum")
    coeffs = sol[: len(ws.HW)]
    gamma = ws.space.vspace.zero()
    for c, mv in zip(coeffs, ws.HW):
        gamma = gamma + mv.scale(c)
    return gamma, kd - gamma, coeffs


def nonvanish_from_tensor(ws: WeilStructure, orl: OrlovTransform, tensor: Multivector) -> bool:
    """The overlap-one criterion, evaluated on an element of the tensor square."""
    graded, refined = bb_decompose(orl, ws.ell, tensor)
    d = ws.d
    tow = ws.datum.tower
    for sigma in k_embeddings(tow):
        acc = ws.space.vspace.zero()
        for (t1, t2), comp in refined.items():
            common = [e for e in t1.embeddings() if e in t2.embeddings()]
            if common == [sigma]:
                acc = acc + pi_to_weil(orl, d, comp)
        if not acc.is_zero():
            return True
    return False


# -- presets --------------------------------------------------------------------


def _sixfold_datum(q: int) -> WeilDatum:
    tow = TowerSpec(1, q)
    n = 3
    eta_hat = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    theta = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 3), (1, 4), (2, 5)):
        theta[i][j] = 1
        theta[j][i] = -1
    return WeilDatum(tow, n, eta_hat, theta, name=f"sixfold-q{q}")


def _fourfold_rm2_datum() -> WeilDatum:
    tow = TowerSpec(2, 1)
    eta_hat = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]]
    h, qq = Fraction(1, 2), Fraction(1, 4)
    z = tow.zero()
    e = tow.elem
    theta = [
        [z, z, e(h), e(0, qq)],
        [z, z, e(0, qq), e(qq)],
        [e(-h), e(0, -qq), z, z],
        [e(0, -qq), e(-qq), z, z],
    ]
    dual_f = [[1, 0, 0, 0], [0, 0, 1, 0]]
    return WeilDatum(tow, 2, eta_hat, theta, dual_f_basis=dual_f, name="fourfold-rm2")


PRESETS = {
    "sixfold-q2": lambda: _sixfold_datum(2),
    "sixfold-q3": lambda: _sixfold_datum(3),
    "sixfold-q5": lambda: _sixfold_datum(5),
    "fourfold-rm2": _fourfold_rm2_datum,
}


# -- the check battery ------------------------------------------------------------


class Check:
    __slots__ = ("name", "anchor", "status", "witness")

    def __init__(self, name, anchor, status, witness):
        self.name = name
        self.anchor = anchor
        self.status = status
        self.witness = witness

    def to_json(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": "pass" if self.status else "fail",
            "witness": self.witness,
        }


class Report:
    def __init__(self, instance: dict, checks, seed: int):
        self.instance = instance
        self.checks = checks
        self.seed = seed

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.status)

    def all_pass(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "instance": dict(self.instance, seed=self.seed),
            "checks": [c.to_json() for c in self.checks],
            "summary": {"pass": self.passed, "fail": self.failed},
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def _rand_coords(rng, space):
    """A random coordinate vector of V, as plain ints."""
    return [rng.randint(-3, 3) for _ in range(space.dim_v)]


def _k_iota(arr):
    """iota of a K-valued array: it acts entrywise, negating the sqrt(-q) coordinates 2 and 3."""
    return np.concatenate([arr[0][:2], -arr[0][2:]]), arr[1]


def _rand_mv(rng, gspace, nterms=4):
    terms = {}
    for _ in range(nterms):
        terms[rng.randrange(1 << gspace.m)] = gspace.tower.elem(
            rng.randint(-3, 3), 0, rng.randint(-2, 2), 0
        )
    return Multivector(gspace, terms)


#: the declared checks in report order: (name, anchor, applies, method);
#: `applies(datum)` decides whether the check runs for a datum at all, and a
#: name holding "{k}" runs once per exterior degree k = 0..4n
CHECKS = []


def _always(datum) -> bool:
    return True


#: the sheaf pairs (ch_1, ch_2) tried in order, each ch by its coordinates against (alpha, beta);
#: the first pairs the ideal-sheaf character alpha + beta, coordinates (1, 1), with itself
SHEAF_PAIRS = (((1, 1), (1, 1)), ((1, 1), (1, 0)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1)))


def _sheaf_chain(datum) -> bool:
    """The sheaf-transform checks: F = Q, so B is spanned by alpha and beta,
    and d >= 4, below which the middle-degree pipeline is degenerate."""
    return datum.tower.p == 1 and datum.d >= 4


def _check(name, anchor, applies=_always):
    """Declare the decorated runner method as a check; definition order is report order."""

    def declare(method):
        CHECKS.append((name, anchor, applies, method))
        return method

    return declare


class InputError(ValueError):
    """An input that resolves to nothing to run: an unknown preset, or a
    check filter that no applicable check name contains.  Raised before the
    structure is built, so the CLI can tell it from a fault in the build."""


class _Runner:
    """Executes the ordered suite for one instance; collects Check objects."""

    def __init__(self, datum: WeilDatum, seed: int, check_filter=None):
        self.datum = datum
        self.seed = seed
        self.filter = check_filter
        self.rng = random.Random(seed)
        self.checks = []
        self.ws = None
        self.orl = None

    def record(self, name, anchor, fn):
        if self.filter and self.filter not in name:
            return
        try:
            status, witness = fn()
        except Exception as exc:  # a crash is a failed check with the reason recorded
            status, witness = False, {"error": f"{type(exc).__name__}: {exc}"}
        self.checks.append(Check(name, anchor, bool(status), witness))

    def run(self) -> Report:
        todo = [(name.format(k=k), anchor, partial(method, self, k) if "{k}" in name else partial(method, self))
                for name, anchor, applies, method in CHECKS if applies(self.datum)
                for k in (range(4 * self.datum.n + 1) if "{k}" in name else [0])]
        if self.filter and not any(self.filter in name for name, _, _ in todo):
            raise InputError(f"no applicable check name contains {self.filter!r}")
        self.ws = WeilStructure(self.datum)
        self.orl = OrlovTransform(self.datum.n, self.datum.tower)
        for name, anchor, fn in todo:
            self.record(name, anchor, fn)
        tow = self.datum.tower
        return Report(
            {"name": self.datum.name or "custom", "p": tow.p,
             "q": f"{tow.q.numerator}/{tow.q.denominator}", "n": self.datum.n, "e": tow.e,
             "d": self.datum.d},
            self.checks, self.seed,
        )

    # -- the sheaf chain, computed once and shared by the pipeline checks -------

    @cached_property
    def _pair(self):
        """(coordinates, characters) of the sheaf pair (ch_1, ch_2): the first of
        `SHEAF_PAIRS` whose transform G has a nonzero predicted rank
        |s_pairing(tau(ch_1), ch_2)|, as kappa needs one."""
        for coords in SHEAF_PAIRS:
            chs = [self.ws.alpha.scale(a) + self.ws.beta.scale(b) for a, b in coords]
            if not s_pairing(tau(chs[0]), chs[1]).is_zero():
                return coords, chs
        raise ValueError("no sheaf pair in SHEAF_PAIRS has a transform of nonzero rank")

    def _named(self, witness: dict) -> dict:
        """A chain check's witness, naming the pair's coordinates when it is not the default."""
        coords = self._pair[0]
        return witness if coords == SHEAF_PAIRS[0] else dict(witness, pair=[list(c) for c in coords])

    @cached_property
    def _g(self) -> Multivector:
        return transform_pair(self.orl, *self._pair[1], "G")

    @cached_property
    def _kappa(self) -> IntMultivector:
        return kappa(dual_sheaf_character(self._g))

    # -- individual checks ------------------------------------------------------

    @_check("tower.cm-types", "CM-types of a CM field")
    def _cm_types(self):
        tow = self.datum.tower
        types = enumerate_cm_types(tow)
        ok = len(types) == 2 ** (tow.e // 2)
        ok &= all(T.conjugate().conjugate() == T and T.conjugate() != T for T in types)
        return ok, {"count": len(types)}

    @_check("tower.involution", "Galois conjugation over the totally real subfield")
    def _involution(self):
        rng = self.rng
        tow = self.datum.tower
        ok = True
        for _ in range(20):
            a = tow.elem(rng.randint(-5, 5), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
            b = tow.elem(rng.randint(-5, 5), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
            ok &= (a * b).iota() == a.iota() * b.iota()
            ok &= (a.iota() == a) == a.in_subfield("F")
            if not a.is_zero():
                ok &= (a * a.inv()) == tow.one()
        return ok, {}

    @_check("tower.norm-positivity", "positivity of the norm form")
    def _norm_positivity(self):
        rng = self.rng
        tow = self.datum.tower
        ok = True
        for _ in range(20):
            a = tow.elem(rng.randint(-5, 5), rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-2, 2))
            tr = trace_to_Q(a * a.iota(), "K")
            ok &= tr > 0 if not a.is_zero() else tr == 0
        return ok, {}

    @_check("exterior.algebra-laws", "exterior algebra identities")
    def _exterior_laws(self):
        hs = self.ws.space
        sp = hs.sspace
        ok = True
        for _ in range(8):
            a, b, c = (_rand_mv(self.rng, sp) for _ in range(3))
            ok &= wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            th = [self.rng.randint(-2, 2) for _ in range(sp.m)]
            # contraction with sum th_i x_i^* is the spin action of sum th_i y_i
            contract = partial(clifford_action, hs.vector_to_mv([0] * sp.m + th), space=hs)
            ok &= contract(contract(a)).is_zero()
            lhs = contract(wedge(a, b))
            rhs = sp.zero()
            # graded derivation: split a by degree so the sign is well defined
            for kdeg in (a.degrees() if not a.is_zero() else []):
                part = a.degree_part(kdeg)
                term = wedge(part, contract(b))
                if kdeg & 1:
                    term = -term
                rhs = rhs + wedge(contract(part), b) + term
            ok &= lhs == rhs
            ok &= tau(tau(a)) == a
            ev = a.degree_part(2)
            if not ev.is_zero():
                ok &= wedge(exp_even(ev), exp_even(-ev)) == sp.one()
        return ok, {}

    @_check("exterior.pairing", "spinor pairing symmetry and nondegeneracy")
    def _pairing(self):
        # s_pairing(e_a, e_b) is the top coefficient of tau(e_a) ^ e_b, which is 0 or
        # +-e_(a | b): nonzero only for b = top ^ a.  So the Gram is a signed permutation
        # matrix (rank dim) of symmetry sign (-1)^n iff each such pairing is +-1 of that sign.
        sp = self.ws.space.sspace
        one = sp.tower.one()
        sym_sign = 1 if self.datum.n % 2 == 0 else -1
        dim = 1 << sp.m
        good = 0  # the complement pairs that pass; dim exactly when all do
        for a in range(dim):
            ea, eb = Multivector(sp, {a: one}), Multivector(sp, {sp.top_mask ^ a: one})
            v = s_pairing(ea, eb)
            good += v in (one, -one) and s_pairing(eb, ea) == (v if sym_sign > 0 else -v)
        return good == dim, {"gram_rank": good, "symmetric_sign": sym_sign}

    @_check("clifford.defining-relation", "Clifford defining relation")
    def _clifford_relation(self):
        hs = self.ws.space
        ok = True
        dim = hs.dim_v
        for i in range(dim):
            for j in range(dim):
                gi, gj = hs.vspace.gen(i), hs.vspace.gen(j)
                lhs = clifford_mul(gi, gj, hs) + clifford_mul(gj, gi, hs)
                ok &= lhs == hs.vspace.one().scale(hs.gram(i, j))
        # operator anticommutation on every basis spinor: a generator sends one to a signed basis
        # spinor or 0 (`act` on 1 << k), so composed (sign, mask) tables give both terms of {v_i, v_j},
        # i <= j; with -g_ij at the mask itself the terms must sum to 0 at each destination
        masks = np.arange(1 << (2 * hs.n))
        hits = [[hs.act(1 << k, mask) or (0, mask) for mask in masks.tolist()] for k in range(dim)]
        sign, dest = np.moveaxis(np.array(hits, dtype=np.int64), 2, 0)
        i, j = np.triu_indices(dim)
        g = np.array([hs.gram(a, b) for a, b in zip(i.tolist(), j.tolist())])[:, None]
        s1, d1 = sign[j] * np.take_along_axis(sign[i], dest[j], 1), np.take_along_axis(dest[i], dest[j], 1)
        s2, d2 = sign[i] * np.take_along_axis(sign[j], dest[i], 1), np.take_along_axis(dest[j], dest[i], 1)
        terms = [(s1, d1), (s2, d2), (-g, masks)]
        for s, d in terms:
            ok &= not sum(t * (e == d) for t, e in terms).any()
        return ok, {"pairs": dim * dim}

    @_check("clifford.spin-isomorphism", "symbol and Wick extraction round trip")
    def _spin_iso(self):
        hs = self.ws.space
        one = hs.tower.one()
        ok = True
        for _ in range(3):
            c = _rand_mv(self.rng, hs.vspace, 5)
            ok &= desymbol(lambda m: clifford_action(c, Multivector(hs.sspace, {m: one}), hs), hs) == c
        return ok, {}

    @_check("clifford.so-bracket", "spin and vector actions are compatible")
    def _so_bracket(self):
        rng = self.rng
        hs = self.ws.space
        tow = hs.tower
        ok = True
        deg2 = degree_two_masks(hs.dim_v)
        for _ in range(6):
            xi = Multivector(hs.vspace, {rng.choice(deg2): tow.one(), rng.choice(deg2): tow.scalar(rng.randint(-2, 2))})
            if xi.is_zero() or any(bin(m).count("1") != 2 for m in xi.terms):
                continue
            so = SoPair(hs, xi)
            v = hs.vector(_rand_coords(rng, hs))
            w = hs.vector(_rand_coords(rng, hs))
            # infinitesimal isometry
            ok &= (hs.pair(so.ad_vector(v), w) + hs.pair(v, so.ad_vector(w))).is_zero()
            # [spin(xi), m_v] = m_(ad v) on a random spinor
            lam = _rand_mv(rng, hs.sspace)
            vmv = hs.vector_to_mv(v)
            lhs = so.spin(clifford_action(vmv, lam, hs)) - clifford_action(vmv, so.spin(lam), hs)
            rhs = clifford_action(hs.vector_to_mv(so.ad_vector(v)), lam, hs)
            ok &= lhs == rhs
        return ok, {}

    @_check("spinor.exponential-pure", "exponential spinor is pure")
    def _exp_pure(self):
        flag, ann = is_pure(self.ws.exp_spinor, self.ws.space)
        return flag and ann.dim == 2 * self.datum.n, {"annihilator_dim": ann.dim}

    @_check("spinor.annihilator-graph", "annihilator equals the contraction graph")
    def _annihilator_graph(self):
        ok, dims = True, []
        for k, T in enumerate(self.ws.cm_types):
            ann = annihilator(self.ws.ell[T], self.ws.space)
            w = IsotropicSubspace(self.ws.space, linalg.graph_rows(self.datum.tower, self.ws.type_graph(k)))
            ok &= ann == w and pure_spinor_of(w, self.ws.space) == self.ws.ell[T]
            dims.append(ann.dim)
        return ok, {"dim": min(dims)}

    @_check("spinor.conjugate-transverse", "the graph meets its conjugate trivially")
    def _conjugate_transverse(self):
        m = self.ws.type_graph()  # W is the graph of the all-plus M, iota(W) of iota(M)
        inter = linalg.graph_meet(self.datum.tower, m, _k_iota(m))
        return len(inter) == 0, {"intersection_dim": len(inter)}

    @_check("spinor.reflection-equivariance", "annihilator transforms along reflections")
    def _reflection_equivariance(self):
        hs, tow = self.ws.space, self.datum.tower
        ok, w = True, linalg.graph_rows(tow, self.ws.type_graph())  # W, the graph of the all-plus M
        for i in range(min(2 * hs.n, 3)):
            v = [tow.zero()] * hs.dim_v
            v[i] = tow.one()
            v[i + 2 * hs.n] = tow.one()  # x_i + y_i, norm 2
            lam2 = clifford_action(hs.vector_to_mv(v), self.ws.exp_spinor, hs)
            if lam2.is_zero():
                continue
            ann2 = annihilator(lam2, hs)
            reflected = [vector_rep_reflection(hs, v, row) for row in w]
            ok &= linalg.spans_equal(ann2.basis, reflected, tow)
        return ok, {}

    @_check("cm.ring-homomorphism", "complex multiplication is a ring action")
    def _cm_ring(self):
        # on the integer forms D eta(e_k) = E[k]: eta(sqrt -q)^2 = -q, eta(sqrt p)^2 = p, and they commute.
        # E / D is rational by construction: `CmAction` reads it off `int_form`, which raises otherwise
        tow, (E, D) = self.datum.tower, self.ws.eta.ints
        dtype = int_dtype(len(E[0]) * int(abs(E).max()) ** 2 * tow.p * max(tow.qn, tow.qd))
        E, eye = E.astype(dtype), np.eye(len(E[0]), dtype=dtype) * D * D
        ok = np.array_equal(tow.qd * E[2] @ E[2], -tow.qn * eye)
        if tow.p != 1:
            ok &= np.array_equal(E[1] @ E[1], tow.p * eye) and np.array_equal(E[1] @ E[2], E[2] @ E[1])
        return ok, {"rational": True}

    @_check("cm.adjoint", "conjugate scalars act adjointly")
    def _cm_adjoint(self):
        # (eta_t x, y) = x^T eta_t^T J y and (x, eta_tbar y) = x^T J eta_tbar y, where
        # J, the Gram matrix of the pairing, permutes partners: X J = X[:, partner]
        hs, tow = self.ws.space, self.datum.tower
        partner = (np.arange(hs.dim_v) + hs.dim_v // 2) % hs.dim_v
        ok = True
        for t_el in self.ws.eta.k_basis():
            (m, den), (madj, den_adj) = self.ws.eta.int_of(t_el), self.ws.eta.int_of(t_el.iota())
            xy = [_rand_coords(self.rng, hs) for _ in range(8)]
            grams = k_stack([(m.swapaxes(-1, -2)[..., partner], den), (madj[:, partner], den_adj)])
            left, right = bilinear(tow, grams, xy[::2], xy[1::2])
            ok &= bool((left == right).all())
        return ok, {}

    @_check("cm.type-spaces", "isotropic family indexed by CM-types")
    def _type_spaces(self):
        tow, (nums, den) = self.datum.tower, self.ws.type_graphs
        ok = nums.shape[1] == 2 ** (tow.e // 2)
        # each graph {(M_T y, y)} is 2n-dimensional, and maximal isotropic exactly when M_T = -M_T^T (`build_W`)
        ok &= k_equal((nums, den), (-nums.swapaxes(-1, -2), den))
        # eta-invariance of every W_T: each eta(e_k) on the tower basis (`preserves_graph`)
        ok &= preserves_graph(tow, self.ws.eta.ints[0], self.ws.type_graphs)
        # conjugate pair at e=2: W_Tbar = iota(W_T), the graph of iota(M_T); two graphs over
        # the same y-block are equal exactly when their matrices are
        if tow.e == 2:  # the all-plus type is listed first, its conjugate second
            ok &= k_equal(_k_iota((nums[:, 0], den)), (nums[:, 1], den))
        return ok, {repr(T): 2 * self.datum.n for T in self.ws.cm_types}

    @_check("secant.dimension", "secant space dimension")
    def _secant_dim(self):
        tow = self.datum.tower
        dim = len(self.ws.B)
        even = all(bin(m).count("1") % 2 == 0 for b in self.ws.B for m in b.terms)
        ok = dim == 2 ** (tow.e // 2) and even
        if tow.e == 2:
            ok &= span_basis([self.ws.alpha, self.ws.beta]) == self.ws.B
        return ok, {"dim": dim, "even": even}

    @_check("forms.xi", "alternating invariant two-forms")
    def _xi_forms(self):
        # each Gram matrix G is rational by construction (`xi_form_matrix`); Xi_t is alternating
        # exactly when G = -G^T, and the Xi_t span what their numerators span, flattened to rows
        tow, grams = self.datum.tower, [g for _, g in self.ws.xi_grams]
        ok = all(k_equal(g, (-g[0].swapaxes(-1, -2), g[1])) for g in grams)
        dim = linalg.rank(linalg.k_rows(tow, (np.stack([g[0].ravel() for g in grams])[None], 1)), tow)
        ok &= dim == tow.e // 2
        return ok, {"xi_span_dim": dim}

    @_check("forms.xi-value", "contraction value on dual basis pairs")
    def _xi_value(self):
        tow = self.datum.tower
        n2 = 2 * self.datum.n
        ok = True
        # Xi_t(y_j, y_k) is the (y_j, y_k) entry of the Gram matrix of Xi_t (`xi_form_matrix`)
        for t_el, (nums, den) in self.ws.xi_grams:
            c, block = -t_el * tow.sqrt_minus_q(), nums[0, n2:, n2:].tolist()
            for j in range(n2):
                for k in range(n2):
                    val = c * self.datum.theta_f[j][k]
                    ok &= val.in_subfield("F") and Fraction(block[j][k], den) == trace_to_Q(val, "F")
        return ok, {}

    @_check("forms.hermitian", "hermitian sesquilinear form")
    def _hermitian(self):
        tow = self.datum.tower
        hs = self.ws.space
        kb = self.ws.eta.k_minus_basis()
        t_el = kb[0] if len(kb) == 1 else kb[0] + kb[1]
        g = self.ws.hermitian_gram(t_el)
        # H_t(y, x) = x^T G_t^T y, H_t(eta_s x, y) = x^T eta_s^T G_t y and
        # H_t(x, eta_s y) = x^T G_t eta_s y, for the s in the K-basis
        basis = self.ws.eta.k_basis()
        m, den = k_stack([self.ws.eta.int_of(s) for s in basis])
        xy = [_rand_coords(self.rng, hs) for _ in range(12)]
        x, y = xy[::2], xy[1::2]
        (hxy, hyx), hxx = bilinear(tow, k_stack([g, (g[0].swapaxes(-1, -2), g[1])]), x, y), bilinear(tow, g, x, x)
        hsx = bilinear(tow, k_mul(tow, (m.swapaxes(-1, -2), den), g), x, y)
        hsy = bilinear(tow, k_mul(tow, g, (m, den)), x, y)
        ok = all(b == a.iota() for a, b in zip(hxy, hyx)) and all(h.in_subfield("F") for h in hxx)
        for s, sx, sy in zip(basis, hsx, hsy):
            ok &= all(c == s.iota() * h for c, h in zip(sx, hxy)) and all(c == s * h for c, h in zip(sy, hxy))
        return ok, {"t": str(t_el)}

    @_check("forms.split-witness", "isotropic witness of half dimension")
    def _split_witness(self):
        tow = self.datum.tower
        zrows = self.ws.split_witness()
        kb = self.ws.eta.k_minus_basis()
        ok = len(zrows) == (self.ws.d // 2) * tow.e
        # H_t vanishes on the witness Z exactly when the Gram matrix Z G_t Z^T of its restriction does
        z, den = linalg.int_form(zrows)
        z = np.array(z, dtype=int_dtype(max(abs(x) for row in z for x in row)))[None], den
        for t_el in kb:
            ok &= not k_mul(tow, k_mul(tow, z, self.ws.hermitian_gram(t_el)), (z[0].swapaxes(-1, -2), den))[0].any()
        return ok, {"z_rational_dim": len(zrows), "z_cm_dim": self.ws.d // 2}

    @_check("weil.dimension", "Weil subspace dimension")
    def _weil_dim(self):
        return len(self.ws.HW) == self.datum.tower.e, {"dim": len(self.ws.HW)}

    @_check("lie.annihilator-dimension", "annihilator algebra of the secant space")
    def _gb_dim(self):
        tow = self.datum.tower
        d = self.ws.d
        expected = (tow.e // 2) * (d * d - 1)
        dim = len(self.ws.gB)
        # every generator kills the secant space pointwise (re-verified)
        ok = dim == expected
        for so in self.ws.gB:
            for b in self.ws.B:
                ok &= so.spin(b).is_zero()
        return ok, {"dim": dim, "special_unitary_dim": expected}

    @_check("lie.commutes-with-cm", "annihilator algebra commutes with the CM action")
    def _gb_commutes(self):
        # rational factors: a nonzero rescaling of either rescales A M and M A alike,
        # so they commute exactly when their integer forms (denominators cleared) do.
        # Every g_B matrix A (`DerivationOperators.dense`) against every eta(e_k) (`CmAction.ints`) is one
        # stacked product: an entry of A M sums dim terms, so it is below dim max|a| max|m|,
        # exact on int64 while that is below 2^63 and on Python ints otherwise
        table, (mats, _) = self.ws.gb_table, self.ws.eta.ints
        dtype = int_dtype(table.dim * table.cmax * int(abs(mats).max()))
        a, m = table.dense().astype(dtype)[:, None], mats.astype(dtype)
        return np.array_equal(a @ m, m @ a), {}

    @_check("lie.preserves-type-spaces", "type spaces are infinitesimally invariant")
    def _gb_preserves_wt(self):
        # one exact identity for every generator and type space at once (`preserves_graph`)
        return preserves_graph(self.datum.tower, self.ws.gb_table.dense(), self.ws.type_graphs), {}

    @_check("lie.kills-generators", "invariant generators are annihilated")
    def _gb_kills(self):
        return self.ws.generators_invariant, {}

    @_check("invariants.k={k}", "invariant classes equal the generated subalgebra")
    def _invariants(self, k):
        dim, generated, flag, method = self.ws.invariants_and_generation(k)
        return flag, {"invariant_dim": dim, "generated_dim": len(generated), "method": method}

    @_check("bb.dimensions", "overlap grading dimensions")
    def _bb_dims(self):
        tow = self.datum.tower
        e = tow.e
        # each ordered type pair contributes one boxed line, so dim BB_k is the
        # number of ordered pairs with overlap exactly k
        counts = {}
        for t1 in self.ws.cm_types:
            for t2 in self.ws.cm_types:
                k = t1.overlap(t2)
                counts[k] = counts.get(k, 0) + 1
        expected = {k: comb(e // 2, k) * (2 ** (e // 2)) for k in range(e // 2 + 1)}
        ok = {k: counts.get(k, 0) for k in expected} == expected
        ok &= sum(counts.values()) == (2 ** (e // 2)) ** 2
        return ok, {"dims": {str(k): counts.get(k, 0) for k in sorted(expected)},
                    "bb1": counts.get(1, 0)}

    @_check("fm.mukai-inversion", "double transform equals the antipode up to sign")
    def _mukai(self):
        ok = True
        wit = {}
        for n_small in (1, 2):
            orl = OrlovTransform(n_small, self.datum.tower)
            sgn = 1 if n_small % 2 == 0 else -1
            good = True
            for mask in range(1 << (2 * n_small)):
                b = Multivector(orl.sy, {mask: self.datum.tower.one()})
                k = bin(mask).count("1")
                good &= orl.phi_un_to_hat(orl.phi_hat_to_un(b)) == b.scale(sgn * (-1) ** k)
                a = Multivector(orl.sx, {mask: self.datum.tower.one()})
                good &= orl.phi_hat_to_un(orl.phi_un_to_hat(a)) == a.scale(sgn * (-1) ** k)
            wit[f"n={n_small}"] = good
            ok &= good
        return ok, wit

    @_check("fm.equivariance-basis", "transform equivariance over the full basis")
    def _equivariance_basis(self):
        tow = self.datum.tower
        orl = OrlovTransform(1, tow)
        pt = orl.phi_tilde
        ok = True
        for m in degree_two_masks(4):
            xi = Multivector(orl.hyper.vspace, {m: tow.one()})
            so = SoPair(orl.hyper, xi)
            diag = orl.diagonal_spin(so)
            cs = [orl.pa_xx.box(
                Multivector(orl.sx, {self.rng.randrange(4): tow.one()}),
                Multivector(orl.sx2, {self.rng.randrange(4): tow.one()}),
            ) for _ in range(3)]
            ok &= [pt(diag(c)) for c in cs] == so.derivation([pt(c) for c in cs])
        return ok, {"basis_size": 6}

    @_check("fm.equivariance-sampled", "transform equivariance, seeded sample", _sheaf_chain)
    def _equivariance_sampled(self):
        tow = self.datum.tower
        orl = self.orl
        pt = orl.phi_tilde
        deg2 = degree_two_masks(orl.hyper.dim_v)
        ok = True
        count = 0
        for _ in range(20):
            terms = {}
            for m in self.rng.sample(deg2, 3):
                terms[m] = tow.scalar(self.rng.randint(-2, 2))
            xi = Multivector(orl.hyper.vspace, terms)
            if xi.is_zero():
                continue
            so = SoPair(orl.hyper, xi)
            diag = orl.diagonal_spin(so)
            c = orl.pa_xx.box(
                Multivector(orl.sx, {self.rng.randrange(1 << orl.sx.m): tow.one()}),
                Multivector(orl.sx2, {self.rng.randrange(1 << orl.sx2.m): tow.one()}),
            )
            ok &= [pt(diag(c))] == so.derivation([pt(c)])
            count += 1
        return ok and count >= 15, {"sampled": count}

    @_check("fm.chevalley", "bilinear-form construction cross-check")
    def _chevalley(self):
        rng = self.rng
        tow = self.datum.tower
        orl = OrlovTransform(1, tow)
        chev = orl.chevalley
        ok = True
        # equivariance with the Clifford-commutator target
        for m in degree_two_masks(4):
            xi = Multivector(orl.hyper.vspace, {m: tow.one()})
            so = SoPair(orl.hyper, xi)
            diag = orl.diagonal_spin(so)
            conj = orl.conjugation(xi)
            for am in range(4):
                for bm in range(4):
                    c = orl.pa_xx.box(
                        Multivector(orl.sx, {am: tow.one()}),
                        Multivector(orl.sx2, {bm: tow.one()}),
                    )
                    ok &= chev(diag(c)) == conj(chev(c))
        # scalar part reproduces the spinor pairing
        for _ in range(6):
            am, bm = rng.randrange(4), rng.randrange(4)
            a = Multivector(orl.sx, {am: tow.one()})
            b = Multivector(orl.sx, {bm: tow.one()})
            c = orl.pa_xx.box(a, Multivector(orl.sx2, {bm: tow.one()}))
            img = chev(c)
            op0 = clifford_action(img, orl.sx.one(), orl.hyper)
            ok &= op0 == a.scale(s_pairing(b, orl.sx.one()))
        return ok, {"relation": "commutator-equivariant; filtration-transposed to the derived transform"}

    @_check("lemma.filtration-pairs", "filtration level and graded image of boxed lines")
    def _filtration_pairs(self):
        tow, orl, d = self.datum.tower, self.orl, self.ws.d
        ok, wit, m = True, {}, [self.ws.type_graph(i) for i in range(len(self.ws.cm_types))]
        # W_T1 meet W_T2 once per unordered pair, as graph meets are symmetric, and W_T itself
        # for (T, T); `span_basis` compares their lines, so any basis of a meet serves
        meets = {(i, j): linalg.graph_rows(tow, m[i]) if i == j else linalg.graph_meet(tow, m[i], m[j])
                 for i in range(len(m)) for j in range(i, len(m))}
        lines = {key: span_basis([reduce(wedge, map(orl.hyper.vector_to_mv, rows), orl.hyper.vspace.one())])
                 for key, rows in meets.items()}
        for i, t1 in enumerate(self.ws.cm_types):
            for j, t2 in enumerate(self.ws.cm_types):
                k = t1.overlap(t2)
                img = orl.phiH(orl.box(self.ws.ell[t1], tau(self.ws.ell[t2])))
                lev = filtration_level(img)
                ok &= lev >= d * k and span_basis([img.degree_part(d * k)]) == lines[min(i, j), max(i, j)]
                wit[f"{t1!r}|{t2!r}"] = {"k": k, "level": lev}
        return ok, wit

    @_check("lemma.pi-image", "middle-degree image equals the Weil subspace")
    def _pi_image(self):
        tow = self.datum.tower
        orl = self.orl
        d = self.ws.d
        parts = []
        bb1 = 0
        for t1 in self.ws.cm_types:
            for t2 in self.ws.cm_types:
                if t1.overlap(t2) != 1:
                    continue
                bb1 += 1
                img = pi_to_weil(orl, d, orl.box(self.ws.ell[t1], self.ws.ell[t2]))
                parts.extend(rational_parts(img))
        image = span_basis(parts)
        iso = bb1 == len(self.ws.HW)
        ok = image == self.ws.HW and iso == (tow.e == 2)
        return ok, {"image_dim": len(image), "bb1_lines": bb1, "iso": iso}

    @_check("pipeline.secant-chern", "ideal-sheaf character lies in the secant space", _sheaf_chain)
    def _secant_chern(self):
        tow, (coords, chs) = self.datum.tower, self._pair
        ok, sols = True, []
        for (a, b), ch in zip(coords, chs):
            sol, a, b = coordinates([self.ws.alpha, self.ws.beta], ch), tow.scalar(a), tow.scalar(b)
            # the rank is the degree-0 coefficient: alpha's is one, beta's zero
            ok &= in_span(self.ws.B, ch) and ch.terms.get(0, tow.zero()) == a and sol == [a, b]
            sols.append([str(x) for x in (sol or [])])
        return ok, self._named({"coords": sols[0]})

    @_check("pipeline.dual", "dual character", _sheaf_chain)
    def _dual(self):
        ok = True
        for (a, b), ch in zip(*self._pair):
            dual = tau(ch)
            ok &= dual == self.ws.alpha.scale(a) - self.ws.beta.scale(b) and tau(dual) == ch
            ok &= in_span(self.ws.B, dual)
        return ok, self._named({})

    # The expected ranks come from the spinor pairing, not from the transform:
    # |rank G| is the top coefficient of ch_1 ^ ch_2, which is s_pairing(tau(ch_1), ch_2),
    # and |rank E| is |s_pairing(ch_1, ch_2)|.  On the principal sixfold presets,
    # with ch_1 = ch_2 = alpha + beta, they are 8q and 0.

    @_check("pipeline.rank", "transform rank", _sheaf_chain)
    def _rank(self):
        tow, (c1, c2) = self.datum.tower, self._pair[1]
        r = self._g.terms.get(0, tow.zero()).as_rational()
        expected = abs(s_pairing(tau(c1), c2).as_rational())
        return abs(r) == expected, self._named({"rank": str(r), "expected_abs": str(expected)})

    @_check("pipeline.mixed-rank", "rank of the mixed-dual transform", _sheaf_chain)
    def _mixed_rank(self):
        tow, (c1, c2) = self.datum.tower, self._pair[1]
        r = transform_pair(self.orl, c1, c2, "E").terms.get(0, tow.zero()).as_rational()
        return abs(r) == abs(s_pairing(c1, c2).as_rational()), self._named({"rank": str(r)})

    @_check("pipeline.kappa-invariant", "normalized character is invariant", _sheaf_chain)
    def _kappa_invariant(self):
        kap = self._kappa.to_multivector()
        ok = kap.degree_part(2).is_zero() and self.ws.gb_kills(self._kappa)
        return ok, self._named({"rank": str(kap.terms[0].as_rational())})

    @_check("pipeline.kappa-decomposition",
            "middle character splits with nonzero Weil part", _sheaf_chain)
    def _kappa_decomposition(self):
        kd = self._kappa.to_multivector().degree_part(self.ws.d)
        gamma, delta, coeffs = decompose_kappa(self.ws, kd)
        ok = not gamma.is_zero() and (gamma + delta) == kd
        return ok, self._named({"gamma_coords": [str(x.as_rational()) for x in coeffs],
                                "gamma_nonzero": not gamma.is_zero()})

    @_check("pipeline.nonvanish", "overlap-one component criterion", _sheaf_chain)
    def _nonvanish(self):
        ok = nonvanish_from_tensor(self.ws, self.orl, self.orl.box(*self._pair[1]))
        # degenerate tensor inside the overlap-zero part must fail the criterion
        t_plus, ell = self.ws.cm_types[0], self.ws.ell
        pm = ell[t_plus], ell[t_plus.conjugate()]
        degenerate = (self.orl.box(*pm) + self.orl.box(*pm[::-1])).scale(Fraction(1, 2))
        for c in degenerate.terms.values():
            if not c.is_rational():
                return False, {"error": "degenerate tensor not rational"}
        ok_false = not nonvanish_from_tensor(self.ws, self.orl, degenerate)
        return ok and ok_false, self._named({"preset_pair": ok, "degenerate_pair": not ok_false})


def run_all(datum_or_name, seed: int = 0, check_filter=None) -> Report:
    """Run the ordered verification suite; deterministic for a fixed seed."""
    if isinstance(datum_or_name, str):
        try:
            datum = PRESETS[datum_or_name]()
        except KeyError:
            raise InputError(f"unknown preset {datum_or_name!r}")
    else:
        datum = datum_or_name
    return _Runner(datum, seed, check_filter).run()
