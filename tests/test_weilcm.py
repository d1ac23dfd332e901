import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilspin import linalg, secantpipe, weilcm
from weilspin.clifford import DerivationOperators, HyperbolicSpace, derivation_int
from weilspin.exteralg import IntMultivector, Multivector, span_basis, wedge
from weilspin.fieldtower import TowerSpec, enumerate_cm_types, k_embeddings, trace_to_Q
from weilspin.linalg import bilinear, k_mul, k_stack
from weilspin.purespinor import IsotropicSubspace, annihilator
from weilspin.secantpipe import PRESETS
from weilspin.weilcm import (
    CmAction,
    WeilDatum,
    WeilStructure,
    build_spinor,
    build_WT,
    eigenspaces,
    form_to_element,
    theta_cm_twist,
    xi_form_matrix,
)

from conftest import (
    contract,
    eigenspace_reference,
    eta_of,
    eta_of_reference,
    eta_reference,
    eta_rq_reference,
    hermitian_form,
    identity_matrix,
    in_span,
    iota_rows,
    large_integer_datum,
    leibniz_derivation,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_vec,
    pair_f,
    rand_vec,
    random_f_q_datum,
    type_graph,
    type_space,
    type_space_reference,
    xi_f,
    xi_form_reference,
    zassenhaus_intersect,
)


def _sixfold_inputs(q):
    eta_hat = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    theta = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 3), (1, 4), (2, 5)):
        theta[i][j] = 1
        theta[j][i] = -1
    return TowerSpec(1, q), eta_hat, theta


def test_datum_validation():
    tow, eta_hat, theta = _sixfold_inputs(2)
    WeilDatum(tow, 3, eta_hat, theta)
    bad_eta = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="does not square to p"):
        WeilDatum(tow, 3, bad_eta, theta)
    bad_theta = [row[:] for row in theta]
    bad_theta[0][3] = 2  # no longer matches the -1 transpose entry
    with pytest.raises(ValueError, match="must be alternating"):
        WeilDatum(tow, 3, eta_hat, bad_theta)
    # Theta(y_2, y_5) = 1 pairs the second and third vectors of the first half
    unit = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    with pytest.raises(ValueError, match="not Theta-isotropic"):
        WeilDatum(tow, 3, eta_hat, theta, [unit[i] for i in (0, 1, 4, 3, 2, 5)])
    # degenerate theta: eta(sqrt(-q)) needs Theta^-1
    thin = [[0] * 6 for _ in range(6)]
    thin[0][3] = 1
    thin[3][0] = -1
    with pytest.raises(ValueError, match="Theta is degenerate"):
        WeilDatum(tow, 3, eta_hat, thin)


def test_rm_bilinearity_validation(ws4):
    datum = ws4.datum
    tow = datum.tower
    # breaking one theta entry destroys F-bilinearity
    theta = [row[:] for row in datum.theta_f]
    theta[0][3] = tow.elem(1)
    theta[3][0] = tow.elem(-1)
    with pytest.raises(ValueError, match="not F-bilinear"):
        WeilDatum(tow, 2, datum.eta_hat, theta, dual_f_basis=datum.dual_f_basis)
    # sqrt(p) times the identity squares to p but is not rational
    root = [[tow.sqrt_p() if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError, match="must be a rational matrix"):
        WeilDatum(tow, 2, root, datum.theta_f, dual_f_basis=datum.dual_f_basis)
    # b_0 and b_2 eta_hat pair to sqrt(p) Theta(b_0, b_2) = sqrt(p) / 2, in the sqrt(p) coordinate alone
    rm8 = _datum("eightfold-rm2")
    b = rm8.dual_f_basis
    twisted = [sum((b[2][i] * rm8.eta_hat[i][k] for i in range(8)), tow.zero()) for k in range(8)]
    with pytest.raises(ValueError, match="not Theta-isotropic"):
        WeilDatum(rm8.tower, 4, rm8.eta_hat, rm8.theta_f, dual_f_basis=[b[0], twisted, b[2], b[3]])


def test_datum_validation_on_large_integers(monkeypatch):
    # the fourfold with q and Theta scaled past 2^62: every product of the
    # validation runs on Python ints, and a broken entry is still caught
    data = PRESETS["fourfold-rm2"]().to_json()
    big = 2**62 + 1
    data["tower"]["q"] = {"num": big + 2, "den": 1}
    data["theta"] = [[[[c[0] * big, c[1]] for c in x] for x in row] for row in data["theta"]]
    dtypes, real = [], weilcm.k_mul

    def recording(*args):
        out = real(*args)
        dtypes.append(out[0].dtype)
        return out

    monkeypatch.setattr(weilcm, "k_mul", recording)
    datum = WeilDatum.from_json(data)
    # eta_hat^2, eta_hat Theta and sqrt(p) Theta, and the two products of the isotropy Gram matrix
    assert len(dtypes) == 5 and set(dtypes) == {np.dtype(object)}
    assert CmAction(datum).ints[0].dtype == object
    data["theta"][0][3], data["theta"][3][0] = [[1, 1], [0, 1]], [[-1, 1], [0, 1]]
    with pytest.raises(ValueError, match="not F-bilinear"):
        WeilDatum.from_json(data)


def test_spinor_halves_power_series_coefficients(ws6):
    # q = 2: alpha = 1 - Theta^2, beta = Theta - Theta^3 / 3
    th = theta_cm_twist(ws6.datum, ws6.space, ws6.cm_types[0])
    th2 = wedge(th, th)
    th3 = wedge(th2, th)
    assert ws6.alpha == ws6.space.sspace.one() - th2
    assert ws6.beta == th - th3.scale(Fraction(1, 3))
    assert ws6.exp_spinor == ws6.alpha + ws6.beta.scale(ws6.datum.tower.sqrt_minus_q())


def test_w_is_annihilator_and_transverse(ws6, ws4):
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        ann, w = annihilator(ws.exp_spinor, ws.space), type_space(ws)
        assert linalg.spans_equal(ann.basis, w.basis, tow)
        assert zassenhaus_intersect(w.basis, iota_rows(w.basis), tow) == []
        assert w.is_maximal()


def test_w_graph_formula_tiny(tiny_tower):
    # n = 1: W = span{y1 - rq x2, y2 + rq x1}
    datum = WeilDatum(tiny_tower, 1, [[1, 0], [0, 1]], [[0, 1], [-1, 0]])
    ws = WeilStructure(datum)
    i = tiny_tower.sqrt_minus_q()
    expected = [
        [tiny_tower.zero(), -i, tiny_tower.one(), tiny_tower.zero()],
        [i, tiny_tower.zero(), tiny_tower.zero(), tiny_tower.one()],
    ]
    assert linalg.spans_equal(type_space(ws).basis, expected, tiny_tower)


def test_eta_ring_and_adjoint(ws6, ws4, rng):
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        dim = ws.space.dim_v
        rq = eta_of(ws.eta, tow.sqrt_minus_q())
        assert mat_eq(
            mat_mul(rq, rq, tow),
            mat_scale(identity_matrix(dim, tow), tow.scalar(-tow.q)),
        )
        assert all(x.is_rational() for row in rq for x in row)
        if tow.p != 1:
            rp = eta_of(ws.eta, tow.sqrt_p())
            assert mat_eq(
                mat_mul(rp, rp, tow),
                mat_scale(identity_matrix(dim, tow), tow.scalar(tow.p)),
            )
            assert mat_eq(mat_mul(rp, rq, tow), mat_mul(rq, rp, tow))
        for t_el in ws.eta.k_basis():
            m = eta_of(ws.eta, t_el)
            madj = eta_of(ws.eta, t_el.iota())
            for _ in range(4):
                x, y = rand_vec(rng, ws.space), rand_vec(rng, ws.space)
                assert ws.space.pair(mat_vec(m, x, tow), y) == ws.space.pair(
                    x, mat_vec(madj, y, tow)
                )


def test_eta_contraction_formula(ws6):
    # eta_{rq}(0, y_j) = (q * contraction of Theta by y_j, 0)
    tow = ws6.datum.tower
    n2 = 6
    rq = eta_of(ws6.eta, tow.sqrt_minus_q())
    for j in range(n2):
        amb = [tow.zero()] * n2 + [tow.scalar(1 if k == j else 0) for k in range(n2)]
        img = mat_vec(rq, amb, tow)
        cont = contract([int(i == j) for i in range(n2)], theta_cm_twist(ws6.datum, ws6.space, ws6.cm_types[0]))
        expected = [tow.zero()] * (2 * n2)
        for m, c in cont.terms.items():
            expected[m.bit_length() - 1] = c * tow.q
        assert img == expected


def _theta_twist_reference(datum, space, cm_type):
    """Theta_T from the eta_hat one-slot twist: the sqrt(p)-eigencomponents
    of Theta are (Theta +- twist / sqrt p) / 2, with twist the symmetrized
    application of eta_hat to one slot of each term of Theta."""
    t = datum.tower
    cq = datum.theta_q_matrix()
    n2 = 2 * datum.n
    theta = Multivector(space.sspace, {(1 << i) | (1 << j): cq[i][j] for i in range(n2) for j in range(i + 1, n2)})
    if t.p == 1:
        return theta.scale(cm_type.choices[0])
    h = [Multivector(space.sspace, {1 << k: datum.eta_hat[k][i] for k in range(n2)}) for i in range(n2)]
    twist = space.sspace.zero()
    for i in range(n2):
        for j in range(i + 1, n2):
            gi, gj = space.sspace.gen(i), space.sspace.gen(j)
            twist = twist + (wedge(h[i], gj) + wedge(gi, h[j])).scale(cq[i][j] * Fraction(1, 2))
    inv_rp = t.sqrt_p().inv()
    plus = (theta + twist.scale(inv_rp)).scale(Fraction(1, 2))
    minus = (theta - twist.scale(inv_rp)).scale(Fraction(1, 2))
    s_plus, s_minus = cm_type.choices
    return plus.scale(s_plus) + minus.scale(s_minus)


def _datum(source):
    if source in PRESETS:
        return PRESETS[source]()
    return WeilDatum.from_json(json.loads((Path(__file__).parent / "data" / f"{source}.json").read_text()))


@pytest.mark.parametrize("source", ["fourfold-rm2", "sixfold-q2", "eightfold-q2", "eightfold-rm2",
                                    "eightfold-lie-seed1"])
def test_theta_cm_twist_matches_eta_twist(source):
    datum = _datum(source)
    space = HyperbolicSpace(datum.n, datum.tower)
    for cm_type in enumerate_cm_types(datum.tower):
        got = theta_cm_twist(datum, space, cm_type)
        assert not got.is_zero() and got == _theta_twist_reference(datum, space, cm_type)


@pytest.mark.parametrize("source", ["fourfold-rm2", "sixfold-q2", "eightfold-rm2", "eightfold-lie-seed1"])
def test_wt_graph_is_annihilator(source):
    # the contraction graph of sqrt(-q) Theta_T against the solved annihilator of its exponential
    datum = _datum(source)
    space = HyperbolicSpace(datum.n, datum.tower)
    for cm_type in enumerate_cm_types(datum.tower):
        ell, graph = build_WT(datum, space, cm_type)
        w_t = IsotropicSubspace(space, linalg.graph_rows(datum.tower, graph))
        assert w_t.is_maximal() and w_t == annihilator(ell, space)


def _type_space_of(ws, T):
    """`type_space_reference` of b_T = sqrt(-q) Theta_T, the degree-2 part of ell_T."""
    b = theta_cm_twist(ws.datum, ws.space, T).scale(ws.datum.tower.sqrt_minus_q())
    return type_space_reference(ws.space, b)


@pytest.mark.parametrize("source", ["fourfold-rm2", "sixfold-q2", "eightfold-rm2"])
def test_type_graphs_are_the_type_spaces(source):
    # W_T is spanned by the columns (M_T e_j, e_j) of its graph, for each CM type in order
    ws = WeilStructure(_datum(source))
    tow, n2 = ws.datum.tower, 2 * ws.datum.n
    nums, den = ws.type_graphs
    ref = {T: _type_space_of(ws, T).basis for T in ws.cm_types}
    for k, T in enumerate(ws.cm_types):
        m = [[tow.elem(*(Fraction(int(c), den) for c in nums[:, k, i, j])) for j in range(n2)] for i in range(n2)]
        rows = [[m[i][j] for i in range(n2)] + [tow.scalar(int(i == j)) for i in range(n2)] for j in range(n2)]
        assert linalg.spans_equal(rows, ref[T], tow)
        assert not linalg.spans_equal(rows, ref[T.conjugate()], tow)


@pytest.mark.parametrize("source", [*PRESETS, "eightfold-q2", "eightfold-rm2", "tenfold-q2",
                                    "eightfold-lie-seed1", "fourfold-q1", "random-0", "random-1", "random-2"])
def test_graph_rows_match_type_space_reference(source):
    # the rows (M_T e_j, e_j) of each stacked graph against the rows y_j - iota_(y_j) b_T
    # of the annihilator of ell_T, for every CM type; and with explicit y, (M_T y, y)
    rng = random.Random(sum(map(ord, source)))
    ws = WeilStructure(random_f_q_datum(rng, rng.randint(1, 3)) if source.startswith("random") else _datum(source))
    tow, n2 = ws.datum.tower, 2 * ws.datum.n
    assert ws.type_graphs[0].shape == (4, len(ws.cm_types), n2, n2)
    for T in ws.cm_types:
        rows, ref = linalg.graph_rows(tow, type_graph(ws, T)), _type_space_of(ws, T)
        assert len(rows) == n2 and linalg.spans_equal(rows, ref.basis, tow)
        assert ws.ell[T].degree_part(2) == theta_cm_twist(ws.datum, ws.space, T).scale(tow.sqrt_minus_q())
        ys = [[tow.scalar(rng.randint(-2, 2)) for _ in range(n2)] for _ in range(2)]
        combos = [[sum((y[j] * row[i] for j, row in enumerate(rows)), tow.zero()) for i in range(2 * n2)] for y in ys]
        assert linalg.graph_rows(tow, type_graph(ws, T), ys) == combos
    assert linalg.graph_rows(tow, type_graph(ws), []) == []


def test_structure_builds_no_isotropic_subspace(monkeypatch):
    # every type space is held as its graph matrix alone
    def boom(*args):
        raise AssertionError("IsotropicSubspace built")

    monkeypatch.setattr(IsotropicSubspace, "__init__", boom)
    for source in ("fourfold-rm2", "sixfold-q2"):
        ws = WeilStructure(_datum(source))
        assert not any(hasattr(ws, name) for name in ("W", "WT", "theta"))


@pytest.mark.parametrize("source", [*PRESETS, "eightfold-q2", "eightfold-rm2", "tenfold-q2",
                                    "eightfold-lie-seed1", "random-0", "random-1", "random-2"])
def test_graph_meet_matches_zassenhaus(source):
    # W_T1 meet W_T2 from the graphs M_T against the Zassenhaus meet of the rows of
    # W_T, for every ordered pair of CM types and for each type with its iota
    rng = random.Random(sum(map(ord, source)))
    ws = WeilStructure(random_f_q_datum(rng, rng.randint(1, 3)) if source.startswith("random") else _datum(source))
    tow, (nums, den) = ws.datum.tower, ws.type_graphs
    graphs = {T: (nums[:, k], den) for k, T in enumerate(ws.cm_types)}
    rows = {T: type_space(ws, T).basis for T in ws.cm_types}
    pairs = [(graphs[a], graphs[b], rows[a], rows[b]) for a in ws.cm_types for b in ws.cm_types]
    pairs += [(graphs[T], secantpipe._k_iota(graphs[T]), rows[T], iota_rows(rows[T])) for T in ws.cm_types]
    for a, b, rows_a, rows_b in pairs:
        meet, expected = linalg.graph_meet(tow, a, b), zassenhaus_intersect(rows_a, rows_b, tow)
        assert len(meet) == len(expected) and linalg.rref(meet, tow)[0] == expected


def test_wt_family(ws6, ws4):
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        assert ws.type_graphs[0].shape[1] == len(ws.cm_types) == 2 ** (tow.e // 2)
        for T in ws.cm_types:
            assert type_space(ws, T).is_maximal()
        # W and its spinor are the all-plus member of the family
        plus = ws.cm_types[0]
        assert plus.choices == (1,) * len(plus.choices)
        assert type_space(ws) == type_space(ws, plus) and ws.exp_spinor is ws.ell[plus]
    # e = 2: W_T = W and W_Tbar = iota(W)
    tow, w = ws6.datum.tower, type_space(ws6)
    plus = [T for T in ws6.cm_types if T.choices == (1,)][0]
    assert linalg.spans_equal(type_space(ws6, plus).basis, w.basis, tow)
    assert linalg.spans_equal(type_space(ws6, plus.conjugate()).basis, iota_rows(w.basis), tow)
    # eta acts on W by multiplication by sqrt(-q)
    rq = eta_of(ws6.eta, tow.sqrt_minus_q())
    i = tow.sqrt_minus_q()
    for row in w.basis:
        assert mat_vec(rq, row, tow) == [i * x for x in row]


def test_eta_eigenspaces(ws4):
    tow = ws4.datum.tower
    for sigma, basis in zip(k_embeddings(tow), eigenspaces(ws4.space, type_graph(ws4), ws4.eta)):
        assert len(basis) == ws4.d
        rq = eta_of(ws4.eta, tow.sqrt_minus_q())
        for row in basis:
            img = mat_vec(rq, row, tow)
            scal = sigma(tow.sqrt_minus_q())
            assert img == [scal * x for x in row]


def _assert_cm_stage_matches_references(datum):
    # eta(sqrt(-q)), each V_sigma and (alpha, beta) from their closed forms
    # against M D M^-1, the joint kernels and the spinor's conjugation halves
    tow = datum.tower
    space = HyperbolicSpace(datum.n, tow)
    expo, graph = build_WT(datum, space, enumerate_cm_types(tow)[0])
    eta, w = CmAction(datum), IsotropicSubspace(space, linalg.graph_rows(tow, graph))
    assert eta_of(eta, tow.sqrt_minus_q()) == eta_rq_reference(datum, w)
    for sigma, basis in zip(k_embeddings(tow), eigenspaces(space, graph, eta)):
        assert len(basis) == datum.d
        assert linalg.spans_equal(basis, eigenspace_reference(eta, sigma), tow)
    alpha, beta = build_spinor(expo)
    conj = Multivector(expo.space, {m: c.iota() for m, c in expo.terms.items()})
    assert alpha == (expo + conj).scale(Fraction(1, 2))
    assert beta == (expo - conj).scale(tow.sqrt_minus_q().inv() * Fraction(1, 2))


@pytest.mark.parametrize("source", [*PRESETS, "eightfold-q2", "eightfold-rm2", "tenfold-q2",
                                    "eightfold-lie-seed1"])
def test_cm_stage_matches_references(source):
    _assert_cm_stage_matches_references(_datum(source))


@pytest.mark.parametrize("source", [*PRESETS, "eightfold-q2", "eightfold-rm2", "tenfold-q2",
                                    "eightfold-lie-seed1", "random-0", "random-1", "random-2", "large"])
def test_eta_matches_block_reference(source):
    # the closed-form integer eta(e_k) against the FieldElem block assembly,
    # for every tower basis element; "large" is past int64 (object arrays)
    if source.startswith("random"):
        rng = random.Random(sum(map(ord, source)))
        datum = random_f_q_datum(rng, rng.randint(1, 3))
    else:
        datum = large_integer_datum() if source == "large" else _datum(source)
    tow, eta = datum.tower, CmAction(datum)
    E, _ = eta.ints
    assert (E.dtype == object) == (source == "large")
    for k, ref in enumerate(eta_reference(datum)):
        if ref is None:  # e_1 and e_3 are outside K when F = Q
            assert tow.p == 1 and not E[k].any()
        else:
            assert eta_of(eta, tow.elem(*(int(i == k) for i in range(4)))) == ref


@settings(deadline=None, derandomize=True, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
def test_cm_stage_on_random_data(seed, n):
    _assert_cm_stage_matches_references(random_f_q_datum(random.Random(seed), n))


def test_secant_dimensions(ws6, ws4):
    assert len(ws6.B) == 2
    assert len(ws4.B) == 4
    assert span_basis([ws6.alpha, ws6.beta]) == ws6.B
    for ws in (ws6, ws4):
        for b in ws.B:
            for m in b.terms:
                assert bin(m).count("1") % 2 == 0


def test_hw_dimensions(ws6, ws4):
    assert len(ws6.HW) == 2
    assert len(ws4.HW) == 4


def test_xi_forms(ws6, ws4):
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        rows = []
        for t_el, gram in ws.xi_grams:
            assert len(gram[0]) == 1  # rational: the e_0 coordinate alone
            form = linalg.k_rows(tow, gram)
            assert form == xi_form_reference(ws.eta, t_el, ws.space)
            for i in range(len(form)):
                for j in range(len(form)):
                    assert form[i][j] == -form[j][i]
                    assert form[i][j].is_rational()
            rows.append([x for row in form for x in row])
            # the defining formula Xi_t(e_i, e_j) = (eta_t e_i, e_j)
            basis = identity_matrix(ws.space.dim_v, tow)
            m = eta_of(ws.eta, t_el)
            assert form == [[ws.space.pair(mat_vec(m, u, tow), v) for v in basis] for u in basis]
        assert linalg.rank(rows, tow) == tow.e // 2


@pytest.mark.parametrize("source", [*PRESETS, "eightfold-q2", "eightfold-rm2", "tenfold-q2",
                                    "eightfold-lie-seed1", "random-0", "random-1", "random-2"])
def test_xi_elements_match_reference(source):
    # each Xi_t as an element of wedge^2 V, from the Gram array, against the
    # FieldElem matrix of the reference: x_i ^ x_j carries its (partner(i), partner(j)) entry
    rng = random.Random(sum(map(ord, source)))
    datum = random_f_q_datum(rng, rng.randint(1, 3)) if source.startswith("random") else _datum(source)
    eta, space = CmAction(datum), HyperbolicSpace(datum.n, datum.tower)
    for t_el in eta.k_minus_basis():
        gram, ref = xi_form_matrix(eta, t_el), xi_form_reference(eta, t_el, space)
        assert linalg.k_rows(datum.tower, gram) == ref
        p, dim = space.partner, space.dim_v
        terms = {(1 << i) | (1 << j): ref[p(i)][p(j)] for i in range(dim) for j in range(i + 1, dim)}
        expected = Multivector(space.vspace, {m: c for m, c in terms.items() if not c.is_zero()})
        got = form_to_element(space, gram)
        assert not got.is_zero() and got == expected and list(got.terms) == list(expected.terms)
    with pytest.raises(ValueError, match="-1 eigenspace"):
        xi_form_matrix(eta, datum.tower.one())


def test_xi_value_identity(ws6, ws4):
    # Xi_t((0,y_j),(0,y_k)) = tr_{F/Q}(-t sqrt(-q) Theta^F(y_j, y_k))
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        n2 = 2 * ws.datum.n
        for t_el in ws.eta.k_minus_basis():
            m = eta_of(ws.eta, t_el)
            for j in range(n2):
                for k in range(n2):
                    u = [tow.zero()] * n2 + [tow.scalar(1 if i == j else 0) for i in range(n2)]
                    v = [tow.zero()] * n2 + [tow.scalar(1 if i == k else 0) for i in range(n2)]
                    lhs = ws.space.pair(mat_vec(m, u, tow), v)
                    val = -t_el * tow.sqrt_minus_q() * ws.datum.theta_f[j][k]
                    assert val.in_subfield("F")
                    assert lhs == tow.scalar(trace_to_Q(val, "F"))


def test_hermitian_form(ws6, ws4, rng):
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        kb = ws.eta.k_minus_basis()
        t_el = kb[0] if len(kb) == 1 else kb[0] + kb[1]
        g = ws.hermitian_gram(t_el)
        for _ in range(5):
            x, y = rand_vec(rng, ws.space), rand_vec(rng, ws.space)
            hxy = bilinear(tow, g, x, y)
            assert bilinear(tow, g, y, x) == hxy.iota()
            assert bilinear(tow, g, x, x).in_subfield("F")
            for s in ws.eta.k_basis():
                sx = mat_vec(eta_of(ws.eta, s), x, tow)
                sy = mat_vec(eta_of(ws.eta, s), y, tow)
                # conjugate-linear in the first slot, linear in the second
                assert bilinear(tow, g, sx, y) == s.iota() * hxy
                assert bilinear(tow, g, x, sy) == s * hxy
        with pytest.raises(ValueError):
            ws.hermitian_gram(tow.zero())
        with pytest.raises(ValueError):
            ws.hermitian_gram(tow.one())  # not in K_-


def test_split_witness(ws6, ws4):
    for ws, zdim in ((ws6, 3), (ws4, 1)):
        tow = ws.datum.tower
        zrows = ws.split_witness()
        assert len(zrows) == zdim * tow.e
        for t_el in ws.eta.k_minus_basis():
            for u in zrows:
                for v in zrows:
                    assert bilinear(tow, ws.hermitian_gram(t_el), u, v).is_zero()


@pytest.mark.parametrize("source", [*PRESETS, "eightfold-q2", "eightfold-rm2", "tenfold-q2",
                                    "eightfold-lie-seed1", "random-0", "random-1", "random-2"])
def test_gram_forms_match_references(source):
    # every Gram matrix against the vector formulas of tests/conftest.py, on
    # seeded rational vectors, for each t in the K_- basis, their sum and a multiple
    rng = random.Random(sum(map(ord, source)))
    datum = random_f_q_datum(rng, rng.randint(1, 3)) if source.startswith("random") else _datum(source)
    ws = WeilStructure(datum)
    tow, space = datum.tower, ws.space
    kb = ws.eta.k_minus_basis()
    xs, ys = ([space.vector([rng.randint(-4, 4) for _ in range(space.dim_v)]) for _ in range(3)] for _ in range(2))
    ys[0] = [c * Fraction(1, 3) for c in ys[0]]  # a denominator
    for t_el in kb + [sum(kb[1:], kb[0]), kb[-1] * Fraction(2, 3)]:
        assert eta_of(ws.eta, t_el) == eta_of_reference(ws.eta, t_el)
        m, den = ws.eta.int_of(t_el)
        xi = k_mul(tow, (m.swapaxes(-1, -2), den), ws.pairing_gram)
        g = ws.hermitian_gram(t_el)
        for x, y in zip(xs, ys):
            assert bilinear(tow, ws.pairing_gram, x, y) == pair_f(space, ws.eta, x, y)
            assert bilinear(tow, xi, x, y) == xi_f(space, ws.eta, t_el, x, y)
            assert bilinear(tow, g, x, y) == hermitian_form(space, ws.eta, t_el, x, y)
        # a stack of Gram matrices on a list of pairs: by matrix, then by pair
        stacked = bilinear(tow, k_stack([g, xi]), xs, ys)
        assert stacked.shape == (2, 3)
        assert list(stacked[0]) == [bilinear(tow, g, x, y) for x, y in zip(xs, ys)]
        assert list(stacked[1]) == [bilinear(tow, xi, x, y) for x, y in zip(xs, ys)]
    # vectors of plain ints give the values of their FieldElem forms
    ints = [[int(c.as_rational()) for c in x] for x in xs]
    assert list(bilinear(tow, g, ints, ys)) == list(bilinear(tow, g, xs, ys))
    assert bilinear(tow, g, ints[0], ints[1]) == bilinear(tow, g, xs[0], xs[1])
    irrational = list(xs[0])
    irrational[0] = tow.sqrt_minus_q()
    with pytest.raises(ValueError):
        bilinear(tow, ws.hermitian_gram(kb[0]), irrational, ys[0])
    with pytest.raises(ValueError):
        bilinear(tow, ws.pairing_gram, ys[0], irrational)
    for bad in (tow.zero(), tow.one(), tow.sqrt_minus_q() + 1):
        with pytest.raises(ValueError):
            ws.hermitian_gram(bad)


def test_gb(ws6, ws4):
    # dimension of the product of special unitary algebras, one per real place
    assert len(ws6.gB) == 35
    assert len(ws4.gB) == 6
    for ws in (ws6, ws4):
        tow = ws.datum.tower
        for so in ws.gB[:6]:
            for b in ws.B:
                assert so.spin(b).is_zero()
            for t_el in ws.eta.k_basis():
                m = eta_of(ws.eta, t_el)
                assert mat_eq(
                    mat_mul(so.ad, m, tow), mat_mul(m, so.ad, tow)
                )
            for T in ws.cm_types:
                w = type_space(ws, T)
                red, piv = linalg.rref(w.basis, tow)
                for row in w.basis:
                    assert in_span(red, piv, so.ad_vector(row), tow)


def test_gb_kills_invariant_generators(ws6, ws4):
    for ws in (ws6, ws4):
        for mv in list(ws.a2_elements) + ws.HW:
            for cols in ws.gb_cols:
                assert not leibniz_derivation(ws.space.vspace, cols, mv.terms)


def _rows_of(ops, j):
    """The destination masks and the row slice of matrix j in `ops`."""
    rows = slice(ops.rows[j], ops.rows[j + 1])
    assert (ops.gen[rows] == j).all()
    return ops.dst[rows].tolist(), rows


def test_gb_kills_matches_derivation_int(ws6, ws4, rng):
    # the Leibniz rule on term dicts is the reference for the operators, one
    # over the masks of every degree; a coefficient of 2^80 takes the
    # Python-int path instead of int64
    big = 2**80 + 1
    for ws in (ws6, ws4):
        vspace, tower, dim = ws.space.vspace, ws.datum.tower, ws.space.dim_v
        gens = list(ws.a2_elements) + ws.HW
        noise = [Multivector(vspace, {rng.randrange(1 << dim): tower.scalar(rng.randint(1, 3))
                                      for _ in range(3)}) for _ in range(6)]
        mixed = vspace.one().scale(tower.scalar(5)) + gens[0] + gens[-1]  # degrees 0, 2 and d
        bad = noise[0].scale(tower.scalar(big))
        samples = gens + noise + [mixed, mixed.scale(tower.scalar(big)), bad, gens[0] + bad, bad + gens[0]]
        verdicts = []
        for mv in samples:
            form = IntMultivector.of(mv)
            iterms = dict(zip(form.masks.tolist(), form.nums.tolist()))
            images = [leibniz_derivation(vspace, cols, iterms) for cols in ws.gb_cols]
            verdicts.append(not any(images))
            assert ws.gb_kills(mv) == ws.gb_kills(form) == verdicts[-1]
            ops = ws.gb_table.bind(list(iterms))
            small = max(map(abs, iterms.values())) < 2**40
            for dtype in (np.int64, object) if small else (object,):
                x = np.array(list(iterms.values()), dtype=dtype)
                got = ops.image(x[:, None], range(len(ws.gb_cols)))
                assert got.dtype == x.dtype and got.shape == (len(ops.dst), 1)
                for j, image in enumerate(images):
                    dst, rows = _rows_of(ops, j)
                    assert {m: c for m, c in zip(dst, got[rows, 0].tolist()) if c} == image
        assert verdicts[len(gens) + len(noise):] == [True, True, False, False, False]


@pytest.mark.parametrize("structure", ["ws6", "ws4"])
def test_batched_containment_matches_each_element(structure, request):
    # gb_kills maps a degree's whole basis as one block of columns; its
    # verdict must be the conjunction of the verdicts on single elements
    ws = request.getfixturevalue(structure)
    vspace, one = ws.space.vspace, ws.datum.tower.one()
    for k, basis in enumerate(ws.generated):
        assert ws.gb_kills(*basis) and all(ws.gb_kills(mv) for mv in basis)
        if not basis or k in (0, ws.space.dim_v):
            continue  # every mask of degree 0 or 4n is invariant
        # a basis mask not killed: one that some generator moves
        bad = next(Multivector(vspace, {m: one}) for m in range(1 << ws.space.dim_v)
                   if m.bit_count() == k and any(leibniz_derivation(vspace, cols, {m: 1})
                                                 for cols in ws.gb_cols))
        for mvs in (basis + [bad], [bad] + basis, basis[:1] + [bad + basis[0]] + basis[1:]):
            assert ws.gb_kills(*mvs) is False
            assert not all(ws.gb_kills(mv) for mv in mvs)
    # mixed degrees in one call: the invariant generators and kappa-like sums
    gens = list(ws.a2_elements) + ws.HW
    assert ws.gb_kills(*gens) and ws.gb_kills(gens[0] + gens[-1], *gens)


def test_invariants_selected_degrees(ws4):
    # full sweep is in the acceptance suite; spot-check the rm fourfold here
    dim2, gen2, flag2, _ = ws4.invariants_and_generation(2)
    assert flag2 and dim2 == 6  # Xi span (2) + the Weil space (4) at d = 2
    dim1, gen1, flag1, _ = ws4.invariants_and_generation(1)
    assert flag1 and dim1 == 0
    dim0, _, flag0, _ = ws4.invariants_and_generation(0)
    assert flag0 and dim0 == 1


@pytest.mark.parametrize("structure, dims", [
    ("ws6", [1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 1, 0, 1]),
    ("ws4", [1, 0, 6, 0, 11, 0, 6, 0, 1]),
])
def test_generated_matches_product_enumeration(structure, dims, request):
    # reference: every product of generators, enumerated as a multiset of
    # factors and grouped by degree, then reduced by span_basis
    ws = request.getfixturevalue(structure)
    gens = ws.a2_elements + ws.HW
    top = ws.space.dim_v
    products = {0: [ws.space.vspace.one()]}
    frontier = [(0, ws.space.vspace.one(), 0)]
    while frontier:
        start, acc, deg = frontier.pop()
        for i in range(start, len(gens)):
            nxt, k = wedge(acc, gens[i]), deg + gens[i].min_degree()
            if k <= top and not nxt.is_zero():
                products.setdefault(k, []).append(nxt)
                frontier.append((i, nxt, k))
    assert [len(basis) for basis in ws.generated] == dims
    for k, basis in enumerate(ws.generated):
        expected = span_basis(products.get(k, []))
        assert [mv.terms for mv in basis] == [mv.terms for mv in expected]


def test_exact_fallback_agrees_with_modular(ws4, monkeypatch):
    from weilspin.weilcm import invariant_dimension_certificate

    cols = ws4.gb_split
    for k in (1, 2):  # 8 and 28 masks
        expected = ws4.invariants_and_generation(k)[0]
        dim, method = invariant_dimension_certificate(ws4.space, cols, k, expected)
        assert method.startswith("modular certificate")
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "MOD_PRIMES", ())
            assert invariant_dimension_certificate(ws4.space, cols, k, expected) == (
                dim, "exact elimination")


@pytest.mark.parametrize("structure", ["ws6", "ws4"])
def test_table_operators_match_derivation_int(structure, request):
    # the Leibniz rule is the independent reference for the mask operators
    ws = request.getfixturevalue(structure)
    p = linalg.MOD_PRIMES[0]
    dim = ws.space.dim_v
    for k in (3, dim // 2):
        masks = [m for m in range(1 << dim) if m.bit_count() == k]
        index = {m: i for i, m in enumerate(masks)}
        identity = np.eye(len(masks), dtype=np.int64)
        ops = ws.gb_table.bind(masks)
        # a table of the entries reduced mod p has the same rows, so one
        # binding serves every prime, as in the certificate
        reduced = DerivationOperators([[[(i, c % p) for i, c in col] for col in cols]
                                       for cols in ws.gb_cols]).bind(masks)
        if k == 3:  # the exact fallback's rows, on every column
            exact_rows = ops.image(np.eye(len(masks), dtype=object), range(len(ws.gb_cols)))
        for j, cols in enumerate(ws.gb_cols):
            entries = [(index[mm], jj, int(c.as_rational())) for jj, m in enumerate(masks)
                       for mm, c in leibniz_derivation(ws.space.vspace, cols, {m: 1}).items()]
            expected = np.zeros_like(identity)
            for i, jj, c in entries:
                expected[i, jj] = c % p
            dst, rows = _rows_of(ops, j)
            assert dst == sorted(set(dst)) and _rows_of(reduced, j)[0] == dst
            assert {i for i, _, _ in entries} <= {index[m] for m in dst}
            got = np.zeros_like(identity)
            got[[index[m] for m in dst]] = ops.image(identity, range(j, j + 1), p=p)
            assert (got % p == expected).all()
            assert (reduced.image(identity, range(j, j + 1)) == got[[index[m] for m in dst]]).all()
            if k == 3:
                exact = [[0] * len(masks) for _ in masks]
                for i, jj, c in entries:
                    exact[i][jj] = c
                full = [[0] * len(masks) for _ in masks]
                for m, row in zip(dst, exact_rows[rows].tolist()):
                    full[index[m]] = row
                assert full == exact


def test_operator_rows_are_per_matrix():
    # two matrices reaching the same mask keep a row each, keyed by (matrix, mask)
    unit = [[(1, 3)], [], [], []]  # 3 E_10 on four generators: g = 0 goes to i = 1
    assert derivation_int(unit, [{0b0101: 2}]) == [{0b0110: 6}]
    ops = DerivationOperators([unit, unit]).bind([0b0101])
    assert ops.dst.tolist() == [0b0110, 0b0110] and ops.gen.tolist() == [0, 1]
    X = np.array([[2]], dtype=np.int64)
    assert ops.image(X, range(2)).tolist() == [[6], [6]]
    assert ops.image(X, range(1, 2)).tolist() == [[6]]


def test_tenfold_middle_degree_certificate():
    # the principal tenfold (n = 5): wedge^10 V has C(20, 10) = 184756
    # masks, and the operators have rows only over the masks they reach
    data = json.loads((Path(__file__).parent / "data" / "tenfold-q2.json").read_text())
    ws = WeilStructure(WeilDatum.from_json(data))
    assert ws.space.dim_v == 20 and ws.datum.tower == TowerSpec(1, 2)
    dim, generated, flag, method = ws.invariants_and_generation(10)
    assert (dim, len(generated), flag) == (3, 3, True)
    assert method == f"modular certificate (p={linalg.MOD_PRIMES[0]})"


def _sheared_sixfold():
    """The principal sixfold J = sum_a y_a ^ y_(a+3) in the lattice basis of
    g in SL(6, Z), a product of elementary column operations col_j += col_i:
    Theta = g^T J g, with the columns of g^-1 as the dual F-basis."""
    dim = 6
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    ginv = [row[:] for row in g]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)):
        for r in range(dim):
            g[r][j] += g[r][i]
        for c in range(dim):
            ginv[i][c] -= ginv[j][c]
    assert all(sum(g[a][b] * ginv[b][c] for b in range(dim)) == int(a == c)
               for a in range(dim) for c in range(dim))
    J = [[0] * dim for _ in range(dim)]
    for a in range(3):
        J[a][a + 3], J[a + 3][a] = 1, -1
    gtj = [[sum(g[b][a] * J[b][c] for b in range(dim)) for c in range(dim)] for a in range(dim)]
    theta = [[sum(gtj[a][b] * g[b][c] for b in range(dim)) for c in range(dim)] for a in range(dim)]
    eta_hat = [[int(i == j) for j in range(dim)] for i in range(dim)]
    dual = [list(col) for col in zip(*ginv)]
    return WeilDatum(TowerSpec(1, 2), 3, eta_hat, theta, dual, name="sheared-sixfold")


def test_certificate_without_diagonal_generator():
    # no g_B generator is diagonal in this basis, so the certificate starts
    # from every mask and must still reach the sixfold's dimensions
    ws = WeilStructure(_sheared_sixfold())
    assert all(any(i != g for g, col in enumerate(cols) for i, _ in col) for cols in ws.gb_cols)
    for k, expected in ((2, 1), (4, 1), (6, 3)):
        dim, _, flag, method = ws.invariants_and_generation(k)
        assert (dim, flag, method) == (expected, True, f"modular certificate (p={linalg.MOD_PRIMES[0]})")


def test_weight_zero_start_is_exact_for_huge_weights(ws6):
    # a diagonal generator 2^62 w stays on Python ints (dim max|D| >= 2^63):
    # four entries +1 sum to 2^64, which is 0 on int64 but not a weight 0
    from weilspin.weilcm import invariant_dimension_certificate

    w = [1, 1, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0]
    cols = [[[(g, c << 62)] if c else [] for g, c in enumerate(w)]]
    split = WeilStructure.gb_split.func(SimpleNamespace(gb_cols=cols, gb_table=DerivationOperators(cols)))
    assert split[1].dtype == object and split[2].count == 0
    for k in range(1, 7):
        expected = sum(1 for m in range(1 << 12)
                       if m.bit_count() == k and sum(c for g, c in enumerate(w) if m >> g & 1) == 0)
        assert invariant_dimension_certificate(ws6.space, split, k, expected) == (
            expected, f"modular certificate (p={linalg.MOD_PRIMES[0]})")


def test_split_reads_the_one_gb_table(ws6, ws4):
    # the certificate's split holds gb_table itself, the diagonal weights and
    # the table of the other generators, in order
    for ws in (ws6, ws4):
        table, weights, others = ws.gb_split
        assert table is ws.gb_table
        diagonal = [j for j, cols in enumerate(ws.gb_cols) if all(i == g for g, col in enumerate(cols) for i, _ in col)]
        rest = [j for j in range(table.count) if j not in diagonal]
        assert len(weights) == len(diagonal) and others.count == len(rest) > 0
        for row, j in zip(weights, diagonal):
            assert row.tolist() == [col[0][1] if col else 0 for col in ws.gb_cols[j]]
        ref = DerivationOperators([ws.gb_cols[j] for j in rest])
        assert others.coefs == ref.coefs and others.dim == table.dim
        assert all((getattr(others, f) == getattr(ref, f)).all() for f in ("eg", "ei", "ej", "first"))


def test_certificate_reports_a_kernel_below_the_bound(ws6):
    # one operator, 3 E_10 on 12 generators, cuts the 66 masks of degree 2 to a
    # kernel of 56 in one step: past a claimed bound of 60, which is then reported
    from weilspin.weilcm import invariant_dimension_certificate

    cols = [[(1, 3)]] + [[] for _ in range(11)]
    table = DerivationOperators([cols])
    split = table, np.zeros((0,), dtype=np.int64), table
    p = linalg.MOD_PRIMES[0]
    assert invariant_dimension_certificate(ws6.space, split, 2, 56) == (56, f"modular certificate (p={p})")
    assert invariant_dimension_certificate(ws6.space, split, 2, 60) == (
        56, f"modular dimension below exhibited bound (p={p})")


def test_pair_f_recovers_pairing(ws4, rng):
    tow = ws4.datum.tower
    for _ in range(6):
        x, y = rand_vec(rng, ws4.space), rand_vec(rng, ws4.space)
        refined = bilinear(tow, ws4.pairing_gram, x, y)
        assert refined.in_subfield("F")
        assert tow.scalar(trace_to_Q(refined, "F")) == ws4.space.pair(x, y)


def test_datum_json_round_trip(ws4):
    datum = ws4.datum
    again = WeilDatum.from_json(datum.to_json())
    assert again.tower == datum.tower
    assert mat_eq(again.eta_hat, datum.eta_hat)
    assert mat_eq(again.theta_f, datum.theta_f)
