"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance here is exact equality; the time budgets are asserted
directly against wall-clock measurements.
"""

import random
import time
from fractions import Fraction

import pytest

from weilspin import linalg
from weilspin.clifford import (
    HyperbolicSpace,
    SoPair,
    clifford_action,
    clifford_mul,
    derivation_int,
)
from weilspin.exteralg import Multivector, in_span, rational_parts, span_basis, tau, wedge
from weilspin.fieldtower import TowerSpec
from weilspin.fmtransform import OrlovTransform, filtration_level, pi_to_weil
from weilspin.linalg import bilinear
from weilspin.purespinor import annihilator, is_pure
from weilspin.secantpipe import (
    PRESETS,
    decompose_kappa,
    dual_sheaf_character,
    kappa,
    run_all,
    transform_pair,
)
from weilspin.weilcm import WeilStructure

from conftest import eta_of, iota_rows, mat_vec, preset_ch_ideal_curves, type_space, zassenhaus_intersect


def _report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def structures():
    built = {}
    for name in ("sixfold-q2", "sixfold-q3", "sixfold-q5", "fourfold-rm2"):
        built[name] = WeilStructure(PRESETS[name]())
    return built


@pytest.fixture(scope="module")
def orlovs(structures):
    return {
        name: OrlovTransform(ws.datum.n, ws.datum.tower)
        for name, ws in structures.items()
    }


def test_criterion_1_clifford_relations():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        hs = HyperbolicSpace(n, TowerSpec(1, 2))
        tow = hs.tower
        for i in range(hs.dim_v):
            for j in range(hs.dim_v):
                gi, gj = hs.vspace.gen(i), hs.vspace.gen(j)
                rel = clifford_mul(gi, gj, hs) + clifford_mul(gj, gi, hs)
                ok &= rel == hs.vspace.one().scale(hs.gram(i, j))
        for i in range(hs.dim_v):
            for j in range(i, hs.dim_v):
                gi, gj = hs.vspace.gen(i), hs.vspace.gen(j)
                gram = hs.gram(i, j)
                for mask in range(1 << (2 * n)):
                    lam = Multivector(hs.sspace, {mask: tow.one()})
                    anti = clifford_action(gi, clifford_action(gj, lam, hs), hs) + \
                        clifford_action(gj, clifford_action(gi, lam, hs), hs)
                    ok &= anti == lam.scale(gram)
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    _report(1, f"clifford relation suite ({elapsed:.2f}s)", ok)


def test_criterion_2_pure_spinors(structures):
    start = time.time()
    ok = True
    for name, ws in structures.items():
        tow = ws.datum.tower
        flag, ann = is_pure(ws.exp_spinor, ws.space)
        ok &= flag
        w = type_space(ws)
        ok &= linalg.spans_equal(ann.basis, w.basis, tow)
        ok &= zassenhaus_intersect(w.basis, iota_rows(w.basis), tow) == []
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    _report(2, f"pure-spinor suite, all presets ({elapsed:.2f}s)", ok)


def test_criterion_3_dimension_ledger(structures):
    ok = True
    for name, expect in (("sixfold-q2", (2, 2, 2, 1)), ("fourfold-rm2", (4, 8, 4, 2))):
        ws = structures[name]
        b_dim, bb1, hw, xi = expect
        ok &= len(ws.B) == b_dim
        pairs1 = sum(
            1 for t1 in ws.cm_types for t2 in ws.cm_types if t1.overlap(t2) == 1
        )
        ok &= pairs1 == bb1
        ok &= len(ws.HW) == hw
        rows = [[x for row in linalg.k_rows(ws.datum.tower, gram) for x in row] for _, gram in ws.xi_grams]
        ok &= linalg.rank(rows, ws.datum.tower) == xi
    _report(3, "dimension ledger (B, BB1, HW, Xi)", ok)


def test_criterion_4_forms_suite(structures):
    rng = random.Random(7)
    ok = True
    for name in ("sixfold-q2", "fourfold-rm2"):
        ws = structures[name]
        tow = ws.datum.tower
        hs = ws.space
        n2 = 2 * ws.datum.n
        # Xi alternating on a randomized basis
        for t_el in ws.eta.k_minus_basis():
            m = eta_of(ws.eta, t_el)
            for _ in range(6):
                x = hs.vector([rng.randint(-4, 4) for _ in range(hs.dim_v)])
                y = hs.vector([rng.randint(-4, 4) for _ in range(hs.dim_v)])
                xi_xy = hs.pair(mat_vec(m, x, tow), y)
                xi_yx = hs.pair(mat_vec(m, y, tow), x)
                ok &= xi_xy == -xi_yx
                ok &= hs.pair(mat_vec(m, x, tow), x).is_zero()
        # eta-adjointness
        for t_el in ws.eta.k_basis():
            m = eta_of(ws.eta, t_el)
            madj = eta_of(ws.eta, t_el.iota())
            for _ in range(4):
                x = hs.vector([rng.randint(-4, 4) for _ in range(hs.dim_v)])
                y = hs.vector([rng.randint(-4, 4) for _ in range(hs.dim_v)])
                ok &= hs.pair(mat_vec(m, x, tow), y) == hs.pair(x, mat_vec(madj, y, tow))
        # hermitian sesquilinear
        kb = ws.eta.k_minus_basis()
        t_el = kb[0] if len(kb) == 1 else kb[0] + kb[1]
        for _ in range(4):
            x = hs.vector([rng.randint(-3, 3) for _ in range(hs.dim_v)])
            y = hs.vector([rng.randint(-3, 3) for _ in range(hs.dim_v)])
            hxy = bilinear(tow, ws.hermitian_gram(t_el), x, y)
            ok &= bilinear(tow, ws.hermitian_gram(t_el), y, x) == hxy.iota()
            for s in ws.eta.k_basis():
                sx = mat_vec(eta_of(ws.eta, s), x, tow)
                ok &= bilinear(tow, ws.hermitian_gram(t_el), sx, y) == s.iota() * hxy
        # split witness with the contraction-value identity
        zrows = ws.split_witness()
        ok &= len(zrows) == (ws.d // 2) * tow.e
        for t_el in kb:
            for u in zrows:
                for v in zrows:
                    ok &= bilinear(tow, ws.hermitian_gram(t_el), u, v).is_zero()
            mt = eta_of(ws.eta, t_el)
            from weilspin.fieldtower import trace_to_Q
            for j in range(n2):
                for k in range(n2):
                    u = [tow.zero()] * n2 + [tow.scalar(1 if i == j else 0) for i in range(n2)]
                    v = [tow.zero()] * n2 + [tow.scalar(1 if i == k else 0) for i in range(n2)]
                    lhs = hs.pair(mat_vec(mt, u, tow), v)
                    val = -t_el * tow.sqrt_minus_q() * ws.datum.theta_f[j][k]
                    ok &= val.in_subfield("F") and lhs == tow.scalar(trace_to_Q(val, "F"))
    _report(4, "forms suite (Xi, adjointness, hermitian, split witness)", ok)


def test_criterion_5_invariant_algebra(structures):
    start = time.time()
    ws = structures["sixfold-q2"]
    ok = True
    dims = []
    for k in range(0, 13):
        dim, gen_rows, flag, method = ws.invariants_and_generation(k)
        dims.append(dim)
        ok &= flag
    elapsed = time.time() - start
    ok &= elapsed < 600.0
    ok &= dims == [1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 1, 0, 1]
    _report(5, f"invariant algebra equals generated, k=0..12 ({elapsed:.1f}s)", ok)


def test_criterion_6_equivariance_and_inversion():
    rng = random.Random(7)
    ok = True
    tow = TowerSpec(1, 2)
    # all 6 basis generators at n = 1
    orl1 = OrlovTransform(1, tow)
    pt1 = orl1.phi_tilde
    for m in [m for m in range(16) if bin(m).count("1") == 2]:
        xi = Multivector(orl1.hyper.vspace, {m: tow.one()})
        so = SoPair(orl1.hyper, xi)
        diag = orl1.diagonal_spin(so)
        for am in range(4):
            for bm in range(4):
                c = orl1.pa_xx.box(
                    Multivector(orl1.sx, {am: tow.one()}),
                    Multivector(orl1.sx2, {bm: tow.one()}),
                )
                ok &= [pt1(diag(c))] == so.derivation([pt1(c)])
    # 20 seeded random generators at n = 3
    orl3 = OrlovTransform(3, tow)
    pt3 = orl3.phi_tilde
    deg2 = [m for m in range(1 << 12) if bin(m).count("1") == 2]
    count = 0
    while count < 20:
        terms = {m: tow.scalar(rng.randint(-2, 2)) for m in rng.sample(deg2, 3)}
        xi = Multivector(orl3.hyper.vspace, terms)
        if xi.is_zero():
            continue
        so = SoPair(orl3.hyper, xi)
        diag = orl3.diagonal_spin(so)
        c = orl3.pa_xx.box(
            Multivector(orl3.sx, {rng.randrange(64): tow.one()}),
            Multivector(orl3.sx2, {rng.randrange(64): tow.one()}),
        )
        ok &= [pt3(diag(c))] == so.derivation([pt3(c)])
        count += 1
    # Mukai inversion at n = 1, 2
    for n in (1, 2):
        orl = OrlovTransform(n, tow)
        sgn = 1 if n % 2 == 0 else -1
        for mask in range(1 << (2 * n)):
            k = bin(mask).count("1")
            b = Multivector(orl.sy, {mask: tow.one()})
            ok &= orl.phi_un_to_hat(orl.phi_hat_to_un(b)) == b.scale(sgn * (-1) ** k)
            a = Multivector(orl.sx, {mask: tow.one()})
            ok &= orl.phi_hat_to_un(orl.phi_un_to_hat(a)) == a.scale(sgn * (-1) ** k)
    _report(6, "equivariance suite and double-transform inversion", ok)


def test_criterion_7_filtration_lemma(structures, orlovs):
    ok = True
    for name in ("sixfold-q2", "fourfold-rm2"):
        ws, orl = structures[name], orlovs[name]
        tow = ws.datum.tower
        d = ws.d
        for t1 in ws.cm_types:
            for t2 in ws.cm_types:
                k = t1.overlap(t2)
                boxed = orl.pa_xx.box(
                    ws.ell[t1], Multivector(orl.sx2, dict(tau(ws.ell[t2]).terms))
                )
                img = orl.phiH(boxed)
                ok &= filtration_level(img) >= d * k
                bottom = img.degree_part(d * k)
                inter = zassenhaus_intersect(type_space(ws, t1).basis, type_space(ws, t2).basis, tow)
                line = orl.hyper.vspace.one()
                for row in inter:
                    line = wedge(line, orl.hyper.vector_to_mv(row))
                ok &= span_basis([bottom]) == span_basis([line])
        # Pi(BB1) = HW
        parts = []
        for t1 in ws.cm_types:
            for t2 in ws.cm_types:
                if t1.overlap(t2) != 1:
                    continue
                boxed = orl.pa_xx.box(
                    ws.ell[t1], Multivector(orl.sx2, dict(ws.ell[t2].terms))
                )
                parts.extend(rational_parts(pi_to_weil(orl, d, boxed)))
        ok &= span_basis(parts) == ws.HW
    _report(7, "filtration lemma and Weil-image suite, both presets", ok)


def test_criterion_8_rank_values(structures, orlovs):
    ok = True
    times = {}
    for q in (2, 3, 5):
        start = time.time()
        name = f"sixfold-q{q}"
        ws, orl = structures[name], orlovs[name]
        ch = preset_ch_ideal_curves(ws)
        g = transform_pair(orl, ch, ch, "G")
        r = abs(g.terms.get(0).as_rational())
        ok &= r == 8 * q
        times[q] = time.time() - start
        ok &= times[q] < 60.0
    _report(8, f"rank values 16/24/40 ({max(times.values()):.2f}s worst)", ok)


def test_criterion_9_headline_pipeline(structures, orlovs):
    start = time.time()
    ws, orl = structures["sixfold-q2"], orlovs["sixfold-q2"]
    tow = ws.datum.tower
    ch = preset_ch_ideal_curves(ws)
    che = dual_sheaf_character(transform_pair(orl, ch, ch, "G"))
    ok = not che.terms[0].is_zero()
    kap = kappa(che)
    kint = dict(zip(kap.masks.tolist(), kap.nums.tolist()))
    for cols in ws.gb_cols:
        ok &= derivation_int(cols, [kint]) == [{}]
    kd = kap.to_multivector().degree_part(ws.d)
    gamma, delta, coeffs = decompose_kappa(ws, kd)  # raises if not direct/member
    ok &= gamma + delta == kd
    ok &= not gamma.is_zero()
    ok &= in_span(ws.HW, gamma)
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    _report(9, f"headline pipeline: kappa invariant, gamma != 0 ({elapsed:.1f}s)", ok)


def test_criterion_10_determinism():
    r1 = run_all("sixfold-q2", seed=7)
    r2 = run_all("sixfold-q2", seed=7)
    ok = r1.dumps() == r2.dumps()
    ok &= r1.all_pass()
    _report(10, "byte-identical reports for repeated seeded runs", ok)
