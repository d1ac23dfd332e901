"""End-to-end verification pipeline and report assembly.

A preset (or a datum read from JSON) is expanded into the full Weil
structure, every lemma-level identity is machine-checked in a fixed order,
and the results are collected into a deterministic report: same input and
seed, byte-identical output.

The quantitative core for the sixfold presets: the ideal-sheaf Chern class
alpha + beta is boxed with itself, pushed through the derived-equivalence
shadow (transform rank |top coefficient of ch ^ ch|, which is 8q on the
principal presets), dualized to the sheaf of nonzero rank, and its
normalized character kappa is decomposed in middle degree as (Weil part) +
(polynomial part), with the Weil component required to be nonzero.

The checks are declared once, in report order, by the `_check` decorator
on the runner's methods (`CHECKS`); `_Runner.record` is the one place a
check is run and its result or crash recorded.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cached_property, partial
from math import comb

from . import linalg
from .clifford import SoPair, clifford_action, clifford_mul, desymbol, symbol, vector_rep_reflection
from .exteralg import Multivector, contract, exp_even, s_pairing, tau, wedge
from .fieldtower import TowerSpec, enumerate_cm_types, k_embeddings, trace_to_Q
from .fmtransform import OrlovTransform, bb_decompose, filtration_level, pi_to_weil
from .purespinor import annihilator, is_pure, pure_spinor_of
from .weilcm import (
    WeilDatum,
    WeilStructure,
    generated_subalgebra_degree,
    hermitian_form,
    rational_component_rows,
)


class SheafClass:
    """A coherent sheaf represented by its Chern character."""

    __slots__ = ("ch",)

    def __init__(self, ch: Multivector):
        self.ch = ch

    @property
    def rank(self):
        return self.ch.terms.get(0, self.ch.space.tower.zero())

    def dual(self) -> "SheafClass":
        return SheafClass(tau(self.ch))


def preset_ch_ideal_curves(ws: WeilStructure) -> SheafClass:
    """Chern character of the twisted ideal sheaf of translated curves.

    For the principal sixfold presets this is alpha + beta, which lies in
    the secant space with coordinates (1, 1) and has rank one.
    """
    return SheafClass(ws.alpha + ws.beta)


def dualize(c: SheafClass) -> SheafClass:
    return c.dual()


def transform_pair(orl: OrlovTransform, c1: SheafClass, c2: SheafClass, variant: str) -> Multivector:
    """Transform of a boxed pair; degree-0 part of the result is the rank."""
    if variant == "E":
        boxed = orl.box(c1.ch, tau(c2.ch))
    elif variant == "G":
        boxed = orl.box(c2.ch, c1.ch)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return orl.phiH()(boxed)


def kappa(c: Multivector) -> Multivector:
    """ch * exp(-c1/rank); degree-2 part of the result vanishes."""
    r = c.terms.get(0)
    if r is None or r.is_zero():
        raise ValueError("kappa requires nonzero rank")
    return wedge(c, exp_even(c.degree_part(2).scale(-r.inv())))


def dual_sheaf_character(ch_g: Multivector) -> Multivector:
    """Character of the sheaf representing the shifted dual of the transform."""
    return tau(ch_g).scale(-1)


def decompose_kappa(ws: WeilStructure, kd: Multivector):
    """kd = gamma + delta with gamma in the Weil space, delta a power of Xi.

    Returns (gamma, delta, gamma_coefficients).  Raises when kd lies outside
    the direct sum, which would contradict the invariance checks.
    """
    tow = ws.datum.tower
    sym = sym_power_rows(ws)
    stack = [list(r) for r in ws.HW_rows] + sym
    if linalg.rank(stack, tow) != len(ws.HW_rows) + len(sym):
        raise ValueError("Weil space meets the polynomial part; sum is not direct")
    rows = [list(col) for col in zip(*stack)]
    sol = linalg.solve(rows, kd.to_coords(), tow)
    if sol is None:
        raise ValueError("middle character lies outside the invariant sum")
    nhw = len(ws.HW_rows)
    gamma_coords = [tow.zero()] * len(kd.to_coords())
    for c, row in zip(sol[:nhw], ws.HW_rows):
        for i, x in enumerate(row):
            gamma_coords[i] = gamma_coords[i] + c * x
    gamma = Multivector.from_coords(ws.space.vspace, gamma_coords)
    delta = kd - gamma
    return gamma, delta, sol[:nhw]


def sym_power_rows(ws: WeilStructure):
    """Row basis of the degree-d part of the subalgebra generated by the Xi
    classes, in coordinates over all masks (an rref basis over the degree-d
    masks stays one when the other coordinates are added as zero columns)."""
    rows, masks = generated_subalgebra_degree(ws.space, ws.a2_elements, ws.d)
    return [Multivector(ws.space.vspace, dict(zip(masks, row))).to_coords() for row in rows]


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


def nonvanish_criterion(ws: WeilStructure, orl: OrlovTransform, c1: SheafClass, c2: SheafClass) -> bool:
    return nonvanish_from_tensor(ws, orl, orl.box(c1.ch, c2.ch))


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


def _rand_vec(rng, space):
    return space.vector([rng.randint(-3, 3) for _ in range(space.dim_v)])


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
        self.ws = WeilStructure(self.datum)
        self.orl = OrlovTransform(self.datum.n, self.datum.tower)
        for name, anchor, applies, method in CHECKS:
            if not applies(self.datum):
                continue
            if "{k}" in name:
                for k in range(4 * self.datum.n + 1):
                    self.record(name.format(k=k), anchor, partial(method, self, k))
            else:
                self.record(name, anchor, partial(method, self))
        tow = self.datum.tower
        return Report(
            {"name": self.datum.name or "custom", "p": tow.p,
             "q": f"{tow.q.numerator}/{tow.q.denominator}", "n": self.datum.n, "e": tow.e,
             "d": self.datum.d},
            self.checks, self.seed,
        )

    # -- the sheaf chain, computed once and shared by the pipeline checks -------

    @cached_property
    def _ch(self) -> SheafClass:
        return preset_ch_ideal_curves(self.ws)

    @cached_property
    def _g(self) -> Multivector:
        return transform_pair(self.orl, self._ch, self._ch, "G")

    @cached_property
    def _kappa(self) -> Multivector:
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
        sp = self.ws.space.sspace
        ok = True
        for _ in range(8):
            a, b, c = (_rand_mv(self.rng, sp) for _ in range(3))
            ok &= wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            th = [self.rng.randint(-2, 2) for _ in range(sp.m)]
            ok &= contract(th, contract(th, a)).is_zero()
            lhs = contract(th, wedge(a, b))
            rhs = sp.zero()
            # graded derivation: split a by degree so the sign is well defined
            for kdeg in (a.degrees() if not a.is_zero() else []):
                part = a.degree_part(kdeg)
                term = wedge(part, contract(th, b))
                if kdeg & 1:
                    term = -term
                rhs = rhs + wedge(contract(th, part), b) + term
            ok &= lhs == rhs
            ok &= tau(tau(a)) == a
            ev = a.degree_part(2)
            if not ev.is_zero():
                ok &= wedge(exp_even(ev), exp_even(-ev)) == sp.one()
        return ok, {}

    @_check("exterior.pairing", "spinor pairing symmetry and nondegeneracy")
    def _pairing(self):
        sp = self.ws.space.sspace
        tow = sp.tower
        dim = 1 << sp.m
        gram = []
        for i in range(dim):
            a = Multivector(sp, {i: tow.one()})
            row = []
            for j in range(dim):
                b = Multivector(sp, {j: tow.one()})
                row.append(s_pairing(a, b))
            gram.append(row)
        rank = linalg.rank(gram, tow)
        sym_sign = 1 if self.datum.n % 2 == 0 else -1
        symmetric = all(
            gram[i][j] == (gram[j][i] if sym_sign > 0 else -gram[j][i])
            for i in range(dim) for j in range(dim)
        )
        return rank == dim and symmetric, {"gram_rank": rank, "symmetric_sign": sym_sign}

    @_check("clifford.defining-relation", "Clifford defining relation")
    def _clifford_relation(self):
        hs = self.ws.space
        tow = hs.tower
        ok = True
        dim = hs.dim_v
        for i in range(dim):
            for j in range(dim):
                gi, gj = hs.vspace.gen(i), hs.vspace.gen(j)
                lhs = clifford_mul(gi, gj, hs) + clifford_mul(gj, gi, hs)
                ok &= lhs == hs.vspace.one().scale(hs.gram(i, j))
        # operator anticommutation on all basis spinors; the action is linear,
        # so each generator's images of the basis spinors are built once
        basis = [Multivector(hs.sspace, {mask: tow.one()}) for mask in range(1 << (2 * hs.n))]
        images = [[clifford_action(hs.vspace.gen(i), lam, hs) for lam in basis] for i in range(dim)]

        def act(i, lam):
            out = hs.sspace.zero()
            for m, c in lam.terms.items():
                out = out + images[i][m].scale(c)
            return out

        for i in range(dim):
            for j in range(i, dim):
                for mask, lam in enumerate(basis):
                    lhs = act(i, images[j][mask]) + act(j, images[i][mask])
                    if lhs != lam.scale(hs.gram(i, j)):
                        ok = False
        return ok, {"pairs": dim * dim}

    @_check("clifford.spin-isomorphism", "symbol and Wick extraction round trip")
    def _spin_iso(self):
        hs = self.ws.space
        ok = True
        for _ in range(3):
            c = _rand_mv(self.rng, hs.vspace, 5)
            ok &= desymbol(symbol(c, hs), hs) == c
        return ok, {}

    @_check("clifford.so-bracket", "spin and vector actions are compatible")
    def _so_bracket(self):
        rng = self.rng
        hs = self.ws.space
        tow = hs.tower
        ok = True
        deg2 = [m for m in range(1 << hs.dim_v) if bin(m).count("1") == 2]
        for _ in range(6):
            xi = Multivector(hs.vspace, {rng.choice(deg2): tow.one(), rng.choice(deg2): tow.scalar(rng.randint(-2, 2))})
            if xi.is_zero() or any(bin(m).count("1") != 2 for m in xi.terms):
                continue
            so = SoPair(hs, xi)
            v = _rand_vec(rng, hs)
            w = _rand_vec(rng, hs)
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
        ann = annihilator(self.ws.exp_spinor, self.ws.space)
        ok = linalg.spans_equal(ann.basis, self.ws.W.basis, self.datum.tower)
        lam = pure_spinor_of(self.ws.W, self.ws.space)
        ok &= lam == self.ws.exp_spinor
        return ok, {"dim": ann.dim}

    @_check("spinor.conjugate-transverse", "the graph meets its conjugate trivially")
    def _conjugate_transverse(self):
        iw = self.ws.W.map_rows(lambda c: c.iota())
        inter = linalg.intersect(self.ws.W.basis, iw.basis, self.datum.tower)
        return len(inter) == 0, {"intersection_dim": len(inter)}

    @_check("spinor.reflection-equivariance", "annihilator transforms along reflections")
    def _reflection_equivariance(self):
        hs = self.ws.space
        tow = self.datum.tower
        ok = True
        for i in range(min(2 * hs.n, 3)):
            v = [tow.zero()] * hs.dim_v
            v[i] = tow.one()
            v[i + 2 * hs.n] = tow.one()  # x_i + y_i, norm 2
            lam2 = clifford_action(hs.vector_to_mv(v), self.ws.exp_spinor, hs)
            if lam2.is_zero():
                continue
            ann2 = annihilator(lam2, hs)
            reflected = [vector_rep_reflection(hs, v, row) for row in self.ws.W.basis]
            ok &= linalg.spans_equal(ann2.basis, reflected, tow)
        return ok, {}

    @_check("cm.ring-homomorphism", "complex multiplication is a ring action")
    def _cm_ring(self):
        tow = self.datum.tower
        eta = self.ws.eta
        dim = self.ws.space.dim_v
        rq = eta.mats["rq"]
        sq = linalg.mat_mul(rq, rq, tow)
        ok = linalg.mat_eq(sq, linalg.mat_scale(linalg.identity_matrix(dim, tow), tow.scalar(-tow.q)))
        if tow.p != 1:
            rp = eta.mats["rp"]
            ok &= linalg.mat_eq(
                linalg.mat_mul(rp, rp, tow),
                linalg.mat_scale(linalg.identity_matrix(dim, tow), tow.scalar(tow.p)),
            )
            ok &= linalg.mat_eq(linalg.mat_mul(rp, rq, tow), linalg.mat_mul(rq, rp, tow))
        rational = all(x.is_rational() for row in rq for x in row)
        return ok and rational, {"rational": rational}

    @_check("cm.adjoint", "conjugate scalars act adjointly")
    def _cm_adjoint(self):
        rng = self.rng
        tow = self.datum.tower
        hs = self.ws.space
        ok = True
        for t_el in self.ws.eta.k_basis():
            m = self.ws.eta.of(t_el)
            madj = self.ws.eta.of(t_el.iota())
            for _ in range(4):
                x, y = _rand_vec(rng, hs), _rand_vec(rng, hs)
                ok &= hs.pair(linalg.mat_vec(m, x, tow), y) == hs.pair(x, linalg.mat_vec(madj, y, tow))
        return ok, {}

    @_check("cm.type-spaces", "isotropic family indexed by CM-types")
    def _type_spaces(self):
        tow = self.datum.tower
        ok = len(self.ws.WT) == 2 ** (tow.e // 2)
        wit = {}
        mats = [self.ws.eta.of(t_el) for t_el in self.ws.eta.k_basis()]
        for T, w in self.ws.WT.items():
            ok &= w.is_maximal()
            # eta-invariance of W_T
            red, piv = linalg.rref(w.basis, tow)
            for m in mats:
                for row in w.basis:
                    img = linalg.mat_vec(m, row, tow)
                    ok &= linalg.in_span(red, piv, img, tow)
            wit[repr(T)] = w.dim
        # conjugate pair at e=2: W_Tbar = iota(W_T)
        if tow.e == 2:
            t_plus = [T for T in self.ws.cm_types if T.choices == (1,)][0]
            t_minus = t_plus.conjugate()
            iw = self.ws.WT[t_plus].map_rows(lambda c: c.iota())
            ok &= linalg.spans_equal(iw.basis, self.ws.WT[t_minus].basis, tow)
        return ok, wit

    @_check("secant.dimension", "secant space dimension")
    def _secant_dim(self):
        tow = self.datum.tower
        dim = len(self.ws.B_rows)
        even = all(
            bin(m).count("1") % 2 == 0
            for row in self.ws.B_rows
            for m, x in enumerate(row)
            if not x.is_zero()
        )
        ok = dim == 2 ** (tow.e // 2) and even
        if tow.e == 2:
            ok &= linalg.spans_equal(
                self.ws.B_rows,
                [self.ws.alpha.to_coords(), self.ws.beta.to_coords()],
                tow,
            )
        return ok, {"dim": dim, "even": even}

    @_check("forms.xi", "alternating invariant two-forms")
    def _xi_forms(self):
        tow = self.datum.tower
        ok = True
        rows = []
        for t_el, form in self.ws.a2_forms:
            for i in range(len(form)):
                ok &= form[i][i].is_zero()
                for j in range(len(form)):
                    ok &= form[i][j] == -form[j][i]
                    ok &= form[i][j].is_rational()
            rows.append([x for row in form for x in row])
        dim = linalg.rank(rows, tow)
        ok &= dim == tow.e // 2
        return ok, {"xi_span_dim": dim}

    @_check("forms.xi-value", "contraction value on dual basis pairs")
    def _xi_value(self):
        tow = self.datum.tower
        hs = self.ws.space
        n2 = 2 * self.datum.n
        ok = True
        for t_el in self.ws.eta.k_minus_basis():
            m = self.ws.eta.of(t_el)
            for j in range(n2):
                for k in range(n2):
                    u = [tow.zero()] * n2 + [tow.scalar(1 if i == j else 0) for i in range(n2)]
                    v = [tow.zero()] * n2 + [tow.scalar(1 if i == k else 0) for i in range(n2)]
                    lhs = hs.pair(linalg.mat_vec(m, u, tow), v)
                    val = -t_el * tow.sqrt_minus_q() * self.datum.theta_f[j][k]
                    ok &= val.in_subfield("F") and lhs == tow.scalar(trace_to_Q(val, "F"))
        return ok, {}

    @_check("forms.hermitian", "hermitian sesquilinear form")
    def _hermitian(self):
        tow = self.datum.tower
        hs = self.ws.space
        kb = self.ws.eta.k_minus_basis()
        t_el = kb[0] if len(kb) == 1 else kb[0] + kb[1]
        ok = True
        mats = [(s, self.ws.eta.of(s)) for s in self.ws.eta.k_basis()]
        for _ in range(6):
            x, y = _rand_vec(self.rng, hs), _rand_vec(self.rng, hs)
            hxy = hermitian_form(hs, self.ws.eta, t_el, x, y)
            ok &= hermitian_form(hs, self.ws.eta, t_el, y, x) == hxy.iota()
            ok &= hermitian_form(hs, self.ws.eta, t_el, x, x).in_subfield("F")
            for s, m in mats:
                sx = linalg.mat_vec(m, x, tow)
                sy = linalg.mat_vec(m, y, tow)
                ok &= hermitian_form(hs, self.ws.eta, t_el, sx, y) == s.iota() * hxy
                ok &= hermitian_form(hs, self.ws.eta, t_el, x, sy) == s * hxy
        return ok, {"t": str(t_el)}

    @_check("forms.split-witness", "isotropic witness of half dimension")
    def _split_witness(self):
        tow = self.datum.tower
        zrows = self.ws.split_witness()
        kb = self.ws.eta.k_minus_basis()
        ok = len(zrows) == (self.ws.d // 2) * tow.e
        for t_el in kb:
            for u in zrows:
                for v in zrows:
                    ok &= hermitian_form(self.ws.space, self.ws.eta, t_el, u, v).is_zero()
        return ok, {"z_rational_dim": len(zrows), "z_cm_dim": self.ws.d // 2}

    @_check("weil.dimension", "Weil subspace dimension")
    def _weil_dim(self):
        return len(self.ws.HW_rows) == self.datum.tower.e, {"dim": len(self.ws.HW_rows)}

    @_check("lie.annihilator-dimension", "annihilator algebra of the secant space")
    def _gb_dim(self):
        tow = self.datum.tower
        d = self.ws.d
        expected = (tow.e // 2) * (d * d - 1)
        dim = len(self.ws.gB)
        # every generator kills the secant space pointwise (re-verified)
        ok = dim == expected
        secant = self.ws.secant_multivectors()
        for so in self.ws.gB:
            for b in secant:
                ok &= so.spin(b).is_zero()
        return ok, {"dim": dim, "special_unitary_dim": expected}

    @_check("lie.commutes-with-cm", "annihilator algebra commutes with the CM action")
    def _gb_commutes(self):
        tow = self.datum.tower
        ok = True
        mats = [self.ws.eta.of(t_el) for t_el in self.ws.eta.k_basis()]
        for so in self.ws.gB:
            for m in mats:
                ok &= linalg.mat_eq(
                    linalg.mat_mul(so.ad, m, tow), linalg.mat_mul(m, so.ad, tow)
                )
        return ok, {}

    @_check("lie.preserves-type-spaces", "type spaces are infinitesimally invariant")
    def _gb_preserves_wt(self):
        tow = self.datum.tower
        ok = True
        spans = [(w.basis, *linalg.rref(w.basis, tow)) for w in self.ws.WT.values()]
        for so in self.ws.gB:
            for basis, red, piv in spans:
                for row in basis:
                    ok &= linalg.in_span(red, piv, so.ad_vector(row), tow)
        return ok, {}

    @_check("lie.kills-generators", "invariant generators are annihilated")
    def _gb_kills(self):
        gens = list(self.ws.a2_elements) + self.ws.hw_multivectors()
        return all(self.ws.gb_kills(mv) for mv in gens), {}

    @_check("invariants.k={k}", "invariant classes equal the generated subalgebra")
    def _invariants(self, k):
        dim, gen_rows, flag, method = self.ws.invariants_and_generation(k)
        gen_dim = len(gen_rows) if k > 0 else 1
        return flag, {"invariant_dim": dim, "generated_dim": gen_dim, "method": method}

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
            # projection formula for the pushforward
            wit[f"n={n_small}"] = good
            ok &= good
        return ok, wit

    @_check("fm.equivariance-basis", "transform equivariance over the full basis")
    def _equivariance_basis(self):
        tow = self.datum.tower
        orl = OrlovTransform(1, tow)
        pt = orl.phi_tilde()
        ok = True
        for m in [m for m in range(1 << 4) if bin(m).count("1") == 2]:
            xi = Multivector(orl.hyper.vspace, {m: tow.one()})
            so = SoPair(orl.hyper, xi)
            diag = orl.diagonal_spin(so)
            for _ in range(3):
                c = orl.pa_xx.box(
                    Multivector(orl.sx, {self.rng.randrange(4): tow.one()}),
                    Multivector(orl.sx2, {self.rng.randrange(4): tow.one()}),
                )
                ok &= pt(diag(c)) == so.derivation(pt(c))
        return ok, {"basis_size": 6}

    @_check("fm.equivariance-sampled", "transform equivariance, seeded sample", _sheaf_chain)
    def _equivariance_sampled(self):
        tow = self.datum.tower
        orl = self.orl
        pt = orl.phi_tilde()
        deg2 = [m for m in range(1 << orl.hyper.dim_v) if bin(m).count("1") == 2]
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
            ok &= pt(diag(c)) == so.derivation(pt(c))
            count += 1
        return ok and count >= 15, {"sampled": count}

    @_check("fm.chevalley", "bilinear-form construction cross-check")
    def _chevalley(self):
        rng = self.rng
        tow = self.datum.tower
        orl = OrlovTransform(1, tow)
        chev = orl.chevalley()
        ok = True
        # equivariance with the Clifford-commutator target
        for m in [m for m in range(1 << 4) if bin(m).count("1") == 2]:
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
        tow = self.datum.tower
        orl = self.orl
        d = self.ws.d
        ok = True
        wit = {}
        for t1 in self.ws.cm_types:
            for t2 in self.ws.cm_types:
                k = t1.overlap(t2)
                img = orl.phiH()(orl.box(self.ws.ell[t1], tau(self.ws.ell[t2])))
                lev = filtration_level(img)
                bottom = img.degree_part(d * k)
                inter = linalg.intersect(self.ws.WT[t1].basis, self.ws.WT[t2].basis, tow)
                line = orl.hyper.vspace.one()
                for row in inter:
                    line = wedge(line, orl.hyper.vector_to_mv(row))
                good = lev >= d * k and linalg.spans_equal(
                    [bottom.to_coords()], [line.to_coords()], tow
                )
                wit[f"{t1!r}|{t2!r}"] = {"k": k, "level": lev}
                ok &= good
        return ok, wit

    @_check("lemma.pi-image", "middle-degree image equals the Weil subspace")
    def _pi_image(self):
        tow = self.datum.tower
        orl = self.orl
        d = self.ws.d
        rows = []
        bb1 = 0
        for t1 in self.ws.cm_types:
            for t2 in self.ws.cm_types:
                if t1.overlap(t2) != 1:
                    continue
                bb1 += 1
                img = pi_to_weil(orl, d, orl.box(self.ws.ell[t1], self.ws.ell[t2]))
                rows.extend(rational_component_rows([img.to_coords()]))
        red, _ = linalg.rref(rows, tow)
        eq = linalg.spans_equal(red, self.ws.HW_rows, tow)
        iso = bb1 == len(self.ws.HW_rows)
        return eq and (iso == (tow.e == 2)), {"image_dim": len(red), "bb1_lines": bb1,
                                              "iso": iso}

    @_check("pipeline.secant-chern", "ideal-sheaf character lies in the secant space", _sheaf_chain)
    def _secant_chern(self):
        tow = self.datum.tower
        ch = self._ch
        red, piv = linalg.rref(self.ws.B_rows, tow)
        ok = linalg.in_span(red, piv, ch.ch.to_coords(), tow)
        ok &= ch.rank == tow.one()
        # coordinates (1, 1) against (alpha, beta)
        sol = linalg.solve(
            [list(col) for col in zip(*[self.ws.alpha.to_coords(), self.ws.beta.to_coords()])],
            ch.ch.to_coords(), tow,
        )
        ok &= sol is not None and sol[0] == tow.one() and sol[1] == tow.one()
        return ok, {"coords": [str(x) for x in (sol or [])]}

    @_check("pipeline.dual", "dual character", _sheaf_chain)
    def _dual(self):
        ch = self._ch
        dual = dualize(ch)
        ok = dual.ch == self.ws.alpha - self.ws.beta
        ok &= dualize(dual).ch == ch.ch
        tow = self.datum.tower
        red, piv = linalg.rref(self.ws.B_rows, tow)
        ok &= linalg.in_span(red, piv, dual.ch.to_coords(), tow)
        return ok, {}

    # The expected ranks come from the spinor pairing, not from the transform:
    # |rank G| is the top coefficient of ch ^ ch, which is s_pairing(tau(ch), ch),
    # and |rank E| is |s_pairing(ch, ch)|.  On the principal sixfold presets
    # they are 8q and 0.

    @_check("pipeline.rank", "transform rank", _sheaf_chain)
    def _rank(self):
        tow = self.datum.tower
        ch = self._ch.ch
        r = self._g.terms.get(0, tow.zero()).as_rational()
        expected = abs(s_pairing(tau(ch), ch).as_rational())
        return abs(r) == expected, {"rank": str(r), "expected_abs": str(expected)}

    @_check("pipeline.mixed-rank", "rank of the mixed-dual transform", _sheaf_chain)
    def _mixed_rank(self):
        tow = self.datum.tower
        ch = self._ch
        r = transform_pair(self.orl, ch, ch, "E").terms.get(0, tow.zero()).as_rational()
        return abs(r) == abs(s_pairing(ch.ch, ch.ch).as_rational()), {"rank": str(r)}

    @_check("pipeline.kappa-invariant", "normalized character is invariant", _sheaf_chain)
    def _kappa_invariant(self):
        kap = self._kappa
        ok = kap.degree_part(2).is_zero() and self.ws.gb_kills(kap)
        return ok, {"rank": str(kap.terms[0].as_rational())}

    @_check("pipeline.kappa-decomposition",
            "middle character splits with nonzero Weil part", _sheaf_chain)
    def _kappa_decomposition(self):
        kd = self._kappa.degree_part(self.ws.d)
        gamma, delta, coeffs = decompose_kappa(self.ws, kd)
        ok = not gamma.is_zero()
        ok &= (gamma + delta) == kd
        return ok, {"gamma_coords": [str(x.as_rational()) for x in coeffs],
                    "gamma_nonzero": not gamma.is_zero()}

    @_check("pipeline.nonvanish", "overlap-one component criterion", _sheaf_chain)
    def _nonvanish(self):
        ok = nonvanish_criterion(self.ws, self.orl, self._ch, self._ch)
        # degenerate tensor inside the overlap-zero part must fail the criterion
        types = self.ws.cm_types
        t_plus = types[0]
        t_minus = t_plus.conjugate()
        ell = self.ws.ell
        boxed_pm = self.orl.box(ell[t_plus], ell[t_minus])
        boxed_mp = self.orl.box(ell[t_minus], ell[t_plus])
        degenerate = (boxed_pm + boxed_mp).scale(Fraction(1, 2))
        for c in degenerate.terms.values():
            if not c.is_rational():
                return False, {"error": "degenerate tensor not rational"}
        ok_false = not nonvanish_from_tensor(self.ws, self.orl, degenerate)
        return ok and ok_false, {"preset_pair": ok, "degenerate_pair": not ok_false}


def run_all(datum_or_name, seed: int = 0, check_filter=None) -> Report:
    """Run the ordered verification suite; deterministic for a fixed seed."""
    if isinstance(datum_or_name, str):
        try:
            datum = PRESETS[datum_or_name]()
        except KeyError:
            raise ValueError(f"unknown preset {datum_or_name!r}")
    else:
        datum = datum_or_name
    return _Runner(datum, seed, check_filter).run()
