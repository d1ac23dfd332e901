import hashlib
import inspect
import json
import random
from types import SimpleNamespace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from weilspin import linalg
from weilspin.cli import main
from weilspin.clifford import DerivationOperators, HyperbolicSpace, SoPair
from weilspin.exteralg import GeneratorSpace, Multivector, exp_even, in_span, s_pairing, tau, wedge
from weilspin.fieldtower import TowerSpec
from weilspin.fmtransform import OrlovTransform
from weilspin import clifford, secantpipe, weilcm
from weilspin.secantpipe import (
    CHECKS,
    PRESETS,
    SHEAF_PAIRS,
    Report,
    decompose_kappa,
    dual_sheaf_character,
    kappa,
    nonvanish_from_tensor,
    run_all,
    transform_pair,
)
from weilspin.weilcm import WeilDatum, WeilStructure, gb_int_cols, theta_cm_twist

from conftest import (
    eta_of,
    int_derivation_cols,
    kappa_reference,
    large_integer_datum,
    mat_eq,
    mat_mul,
    preset_ch_ideal_curves,
    random_f_q_datum,
)


def test_preset_names():
    assert set(PRESETS) == {"sixfold-q2", "sixfold-q3", "sixfold-q5", "fourfold-rm2"}
    for name, build in PRESETS.items():
        datum = build()
        assert datum.name == name


def test_preset_chern_character(ws6):
    ch = preset_ch_ideal_curves(ws6)
    tow = ws6.datum.tower
    # q = 2: ch = 1 + Theta - Theta^2 - Theta^3/3
    th = theta_cm_twist(ws6.datum, ws6.space, ws6.cm_types[0])
    th2 = wedge(th, th)
    th3 = wedge(th2, th)
    expected = ws6.space.sspace.one() + th - th2 - th3.scale(Fraction(1, 3))
    assert ch == expected
    assert ch.terms[0] == tow.one()
    assert in_span(ws6.B, ch)


def test_dualize(ws6):
    ch = preset_ch_ideal_curves(ws6)
    dual = tau(ch)
    assert dual == ws6.alpha - ws6.beta
    assert tau(dual) == ch
    assert in_span(ws6.B, dual)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_transform_rank_8q(q):
    ws = WeilStructure(PRESETS[f"sixfold-q{q}"]())
    orl = OrlovTransform(3, ws.datum.tower)
    ch = preset_ch_ideal_curves(ws)
    g = transform_pair(orl, ch, ch, "G")
    r = g.terms.get(0).as_rational()
    assert abs(r) == 8 * q
    # the mixed-dual boxing transforms to a rank-zero class (frozen regression)
    e_var = transform_pair(orl, ch, ch, "E")
    assert 0 not in e_var.terms
    # linearity in each argument
    assert transform_pair(orl, ch.scale(2), ch, "G") == g.scale(2)


def test_kappa(ws6, orl6):
    tow = ws6.datum.tower
    sp = orl6.pa_xy.space
    r5 = Multivector(sp, {0: tow.scalar(5)})
    assert kappa(r5).to_multivector() == r5
    with pytest.raises(ValueError):
        kappa(sp.gen(0))  # rank zero
    ch = preset_ch_ideal_curves(ws6)
    che = dual_sheaf_character(transform_pair(orl6, ch, ch, "G"))
    kap = kappa(che).to_multivector()
    assert kap.degree_part(2).is_zero()
    assert kap.terms[0] == che.terms[0]


def _kappa_by_exp(c):
    """kappa as c ^ exp_even(-c1/rank), the product of two whole series."""
    return wedge(c, exp_even(c.degree_part(2).scale(-c.terms[0].inv())))


def test_kappa_equals_product_with_exponential(ws6, orl6):
    # kappa's domain is rational (ch lies in H^ev(X x Xhat, Q)), so the draws
    # are; the Horner sum on FieldElems is a second reference
    ch = preset_ch_ideal_curves(ws6)
    che = dual_sheaf_character(transform_pair(orl6, ch, ch, "G"))
    assert kappa(che).to_multivector() == _kappa_by_exp(che) == kappa_reference(che)
    rng = random.Random(3)
    for tow in (TowerSpec(1, 2), TowerSpec(2, 1)):
        for m in (2, 5, 8):
            sp = GeneratorSpace([f"g{i}" for i in range(m)], tow)
            even = [x for x in range(1, 1 << m) if x.bit_count() % 2 == 0]
            for _ in range(4):
                terms = {x: tow.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
                         for x in rng.sample(even, min(len(even), 9))}
                terms[0] = tow.scalar(Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3)))
                c = Multivector(sp, terms)
                assert kappa(c).to_multivector() == _kappa_by_exp(c) == kappa_reference(c)
                with pytest.raises(ValueError):  # a sqrt(-q) part: ch is rational
                    kappa(c + Multivector(sp, {rng.choice(even): tow.elem(0, 0, 1, 0)}))


@pytest.mark.parametrize("source", ["sixfold-q2", "fourfold-rm2", "eightfold-q2"])
def test_kappa_matches_horner_reference(source):
    # the pipeline's c on the F = Q data; fourfold-rm2 (F != Q) runs no sheaf
    # chain, and there ch is the sum of the rational secant basis (rank -3)
    if source in PRESETS:
        datum = PRESETS[source]()
    else:
        datum = WeilDatum.from_json(json.loads((Path(__file__).parent / "data" / f"{source}.json").read_text()))
    ws, orl = WeilStructure(datum), OrlovTransform(datum.n, datum.tower)
    ch = preset_ch_ideal_curves(ws) if datum.tower.p == 1 else sum(ws.B[1:], ws.B[0])
    che = dual_sheaf_character(transform_pair(orl, ch, ch, "G"))
    assert kappa(che).to_multivector() == kappa_reference(che)


def test_dual_sheaf_rank(ws6, orl6):
    ch = preset_ch_ideal_curves(ws6)
    g = transform_pair(orl6, ch, ch, "G")
    che = dual_sheaf_character(g)
    assert che.terms[0].as_rational() == 16


def test_decompose_kappa(ws6, orl6):
    ch = preset_ch_ideal_curves(ws6)
    kap = kappa(dual_sheaf_character(transform_pair(orl6, ch, ch, "G")))
    kd = kap.to_multivector().degree_part(ws6.d)
    gamma, delta, coeffs = decompose_kappa(ws6, kd)
    assert gamma + delta == kd
    assert not gamma.is_zero()
    # gamma lies in the Weil space, delta in the polynomial line
    assert in_span(ws6.HW, gamma)
    # zero decomposes to (0, 0)
    g0, d0, _ = decompose_kappa(ws6, ws6.space.vspace.zero())
    assert g0.is_zero() and d0.is_zero()


def test_nonvanish(ws6, orl6):
    ch = preset_ch_ideal_curves(ws6)
    assert nonvanish_from_tensor(ws6, orl6, orl6.box(ch, tau(ch)))
    assert nonvanish_from_tensor(ws6, orl6, orl6.box(ch, ch))
    # the symmetrized overlap-zero tensor fails the criterion
    t_plus, t_minus = ws6.cm_types[0], ws6.cm_types[1]
    pm = orl6.pa_xx.box(ws6.ell[t_plus], Multivector(orl6.sx2, dict(ws6.ell[t_minus].terms)))
    mp = orl6.pa_xx.box(ws6.ell[t_minus], Multivector(orl6.sx2, dict(ws6.ell[t_plus].terms)))
    degenerate = (pm + mp).scale(Fraction(1, 2))
    assert all(c.is_rational() for c in degenerate.terms.values())
    assert not nonvanish_from_tensor(ws6, orl6, degenerate)


def test_run_all_filter_deterministic():
    r1 = run_all("sixfold-q2", seed=7, check_filter="secant")
    r2 = run_all("sixfold-q2", seed=7, check_filter="secant")
    assert r1.dumps() == r2.dumps()
    assert r1.all_pass()
    assert all("secant" in c.name for c in r1.checks)


def test_run_all_unknown_preset():
    with pytest.raises(ValueError):
        run_all("sevenfold-q9")


def test_report_shape():
    rep = run_all("sixfold-q2", seed=1, check_filter="tower.cm-types")
    data = rep.to_json()
    assert set(data) == {"instance", "checks", "summary"}
    assert data["summary"] == {"pass": 1, "fail": 0}
    check = data["checks"][0]
    assert set(check) == {"name", "anchor", "status", "witness"}
    assert check["status"] == "pass"
    assert data["instance"]["seed"] == 1


def test_report_exit_logic():
    good = Report({"name": "x"}, [], 0)
    assert good.all_pass()
    from weilspin.secantpipe import Check

    bad = Report({"name": "x"}, [Check("a", "b", False, {})], 0)
    assert not bad.all_pass() and bad.failed == 1


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "--preset", "fourfold-rm2", "--seed", "3",
                 "--check", "tower", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["fail"] == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--input", str(bad)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"tower": {"p": 1, "q": {"num": 1, "den": 1}}}))
    assert main(["verify", "--input", str(incomplete)]) == 2


def test_cli_custom_input(tmp_path):
    datum = PRESETS["fourfold-rm2"]()
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum.to_json()))
    out = tmp_path / "rep.json"
    code = main(["verify", "--input", str(path), "--check", "weil.dimension",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["witness"] == {"dim": 4}


def _theta_outside_f(data):
    # 1 + sqrt(-q) at (0, 3) and its negative at (3, 0): alternating, not in F
    data["theta"][0][3] = [[1, 1], [0, 1], [1, 1], [0, 1]]
    data["theta"][3][0] = [[-1, 1], [0, 1], [-1, 1], [0, 1]]


def _theta_degenerate(data):
    # Theta(y_3, y_6) = 0 leaves y_3 and y_6 in the kernel of Theta
    data["theta"][2][5] = data["theta"][5][2] = [[0, 1], [0, 1]]


def _rm_sixfold(data):
    # n = 3 over F = Q(sqrt 2): fourfold-rm2's eta_hat and Theta on the first
    # four coordinates, a third eta_hat block and Theta 0 on the last two;
    # Theta is alternating and F-bilinear, and d = 3 is odd
    zero, zero_f = [0, 1], [[0, 1], [0, 1]]
    data["n"] = 3
    data["eta_hat"] = [row + [zero] * 2 for row in data["eta_hat"]] + [
        [zero] * 4 + [zero, [2, 1]], [zero] * 4 + [[1, 1], zero]]
    data["theta"] = [row + [zero_f] * 2 for row in data["theta"]] + [[zero_f] * 6] * 2
    data["dual_f_basis"] = [[[int(j == i), 1] for j in range(6)] for i in (0, 2, 4)]


def _dual_rows_of_length(length):
    def edit(data):
        data["dual_f_basis"] = [(row + [[0, 1]])[:length] for row in data["dual_f_basis"]]
    return edit


@pytest.mark.parametrize("preset, edit, reason", [
    ("sixfold-q2", _theta_outside_f, "theta entries must lie in F"),
    ("sixfold-q2", _theta_degenerate, "Theta is degenerate"),
    ("fourfold-rm2", _dual_rows_of_length(3), "dual_f_basis rows must have 2n entries"),
    ("fourfold-rm2", _dual_rows_of_length(5), "dual_f_basis rows must have 2n entries"),
    ("fourfold-rm2", _rm_sixfold,
     "d = dim_F H^1(X) must be even, as Theta is a nondegenerate alternating F-form (d = 3)\n"),
], ids=["theta-outside-F", "theta-degenerate", "dual-rows-3", "dual-rows-5", "odd-d"])
def test_cli_rejects_invalid_datum(preset, edit, reason, tmp_path, capsys):
    data = PRESETS[preset]().to_json()
    edit(data)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 2
    assert f"error: invalid datum: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("preset, check", [
    ("sixfold-q2", "secnat"),  # a typo
    ("fourfold-rm2", "nosuchcheck"),
    ("fourfold-rm2", "pipeline."),  # d = 2: no sheaf-chain check applies
])
def test_cli_rejects_filter_matching_no_check(preset, check, monkeypatch, capsys):
    def boom(datum):
        raise AssertionError("structure built for an empty check list")

    monkeypatch.setattr(secantpipe, "WeilStructure", boom)
    assert main(["verify", "--preset", preset, "--check", check]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no applicable check name contains {check!r}\n"
    assert captured.out == ""


def test_cli_reports_internal_error_in_one_line(monkeypatch, capsys):
    def boom(self, datum):
        raise RuntimeError("structure build broke")

    monkeypatch.setattr(WeilStructure, "__init__", boom)
    assert main(["verify", "--preset", "fourfold-rm2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal: RuntimeError: structure build broke\n"
    assert captured.out == ""

    def out_of_memory(self, datum):
        raise MemoryError

    # a resource failure is not reported as an internal error
    monkeypatch.setattr(WeilStructure, "__init__", out_of_memory)
    assert main(["verify", "--preset", "fourfold-rm2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: resource: MemoryError: \n"
    assert captured.out == ""


def test_cli_reports_memory_error_in_build_as_resource(monkeypatch, capsys, tmp_path):
    # an oversized datum exits 2 with one line and no traceback or report
    def oversized(space, graph, eta):
        raise MemoryError("Unable to allocate 3.34 GiB for an array")

    monkeypatch.setattr(weilcm, "build_HW", oversized)
    out = tmp_path / "report.json"
    assert main(["verify", "--preset", "fourfold-rm2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: resource: MemoryError: Unable to allocate 3.34 GiB for an array\n"
    assert captured.out == "" and not out.exists()


def test_cli_reports_value_error_in_build_as_internal(monkeypatch, capsys):
    # a ValueError from the structure build is a fault of the program, not of
    # the input; only input resolution exits 2
    def boom(space, graph, eta):
        raise ValueError("eta character space has wrong dimension")

    monkeypatch.setattr(weilcm, "build_HW", boom)
    assert main(["verify", "--preset", "fourfold-rm2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal: ValueError: eta character space has wrong dimension\n"
    assert captured.out == ""
    assert main(["verify", "--preset", "fourfold-rm2", "--check", "nosuchcheck"]) == 2
    assert capsys.readouterr().err == "error: no applicable check name contains 'nosuchcheck'\n"


def test_clifford_relation_check_sees_unsigned_generators(ws4, monkeypatch):
    # without their Koszul signs, x_i and x_j (i != j) commute instead of
    # anticommuting on spinors; the operator half of the check must say so
    runner = secantpipe._Runner(ws4.datum, 0)
    runner.ws = ws4
    assert runner._clifford_relation()[0]
    signed = HyperbolicSpace.act

    def unsigned(self, mono, mask):
        hit = signed(self, mono, mask)
        return hit and (1, hit[1])

    monkeypatch.setattr(HyperbolicSpace, "act", unsigned)
    assert not runner._clifford_relation()[0]


def test_clifford_relation_check_sees_dropped_wick_sign(ws4, monkeypatch):
    # the product with the (-1)^(|R| |C|) of y_R passing x_C dropped from
    # its Wick parity: y_i and x_j (i != j) then commute, which the check must see
    runner = secantpipe._Runner(ws4.datum, 0)
    runner.ws = ws4
    source = inspect.getsource(clifford.clifford_mul)
    term = " + R.bit_count() * C.bit_count()"
    assert source.count(term) == 1
    scope = dict(vars(clifford))
    exec(source.replace(term, ""), scope)
    monkeypatch.setattr(secantpipe, "clifford_mul", scope["clifford_mul"])
    assert not runner._clifford_relation()[0]


def test_annihilator_graph_check_sees_every_cm_type(ws4, monkeypatch):
    runner = secantpipe._Runner(ws4.datum, 0)
    runner.ws = ws4
    assert runner._annihilator_graph() == (True, {"dim": 4})
    first, last = ws4.cm_types[0], ws4.cm_types[-1]
    # twice the spinor has the same annihilator but is not the normalized line
    monkeypatch.setitem(ws4.ell, last, ws4.ell[last].scale(2))
    assert not runner._annihilator_graph()[0]
    monkeypatch.undo()
    # the first type's graph in place of the last one's, in a copy
    nums, den = ws4.type_graphs
    nums = nums.copy()
    nums[:, -1] = nums[:, 0]
    monkeypatch.setattr(ws4, "type_graphs", (nums, den))
    assert not runner._annihilator_graph()[0]


def test_lie_checks_never_build_the_generated_subalgebra(monkeypatch):
    def boom(*args):
        raise AssertionError("generated subalgebra built by a lie. check")

    monkeypatch.setattr(weilcm, "generated_subalgebra_degree", boom)
    report = run_all("sixfold-q2", check_filter="lie.")
    assert len(report.checks) == 4 and report.all_pass()


def test_invariants_on_large_integer_datum():
    # the cleared g_B generators have entries far beyond int64, which must be
    # reduced mod p before numpy
    datum = large_integer_datum()
    report = run_all(datum, seed=0, check_filter="invariants.k=1")
    assert [c.name for c in report.checks] == [f"invariants.k={k}" for k in (1, 10, 11, 12)]
    for check in report.checks:
        assert check.status, check.witness
        assert check.witness["method"] == f"modular certificate (p={linalg.MOD_PRIMES[0]})"


@pytest.mark.parametrize("family, sha256", [
    ("cm.", "6d233b034f0a87fe3d3af8727eeb4de729bdc6c456139e9c16aefef593f4db54"),
    ("forms.", "d153a592033433dcd1e004c257b280b0e8c46f16b9e66c71abf0b101ca02f356"),
    ("lie.", "e99f42e82d376f1b917e9497c455734383028342ee351258f5d2282cc420fa76"),
])
def test_form_checks_on_large_integer_datum(family, sha256):
    # eta and the Gram matrices are past int64 here, so the integer forms run on
    # Python ints; the reports are pinned to those of the vector formulas they replaced
    datum = large_integer_datum()
    ws = WeilStructure(datum)
    assert ws.eta.ints[0].dtype == object and ws.hermitian_gram(ws.eta.k_minus_basis()[0])[0].dtype == object
    report = run_all(datum, seed=0, check_filter=family)
    assert report.all_pass() and hashlib.sha256(report.dumps().encode()).hexdigest() == sha256


def _assert_report_matches_fixture(preset, tmp_path):
    # the committed fixture is the report of an earlier implementation, so a
    # change in how rationals are stored or printed, or in what a certificate
    # decides, shows up as a byte diff
    expected = (Path(__file__).parent / "data" / f"{preset}-seed0.json").read_bytes()
    out = tmp_path / "rep.json"
    assert main(["verify", "--preset", preset, "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == expected


def test_fourfold_report_bytes_match_fixture(tmp_path):
    _assert_report_matches_fixture("fourfold-rm2", tmp_path)


def test_sixfold_report_bytes_match_fixture(tmp_path):
    _assert_report_matches_fixture("sixfold-q2", tmp_path)


@pytest.mark.parametrize("preset, seed, sha256", [
    ("sixfold-q2", 0, "c1aa5879aff3f667625f51d8e87864df82229323caf05dfb8736cac4d446da02"),
    ("sixfold-q2", 7, "060e1c73fd2f038b8753928068b352d2190e05c4497c39b0e8f81ff806514989"),
    ("sixfold-q3", 0, "651fe9b8495f67b005f86ebe47a8594b04a04444aa1ea8a65930428ee6ed4005"),
    ("sixfold-q3", 7, "5cc06cf46f9cba5deabcd0bb4adebaf8b4ef8e2ac117d79d17a3f7cb8921d5ae"),
    ("sixfold-q5", 0, "d43d6fd0adac7da4601ced68a7bba63a99a456ffc9094b87475509e870ba1061"),
    ("sixfold-q5", 7, "ee5f8a00667d27c33e29971ba1f6ae25862d20b2f09b648fd6441cd985297c24"),
    ("fourfold-rm2", 0, "9bbf3c254f2d596b253f670c8e3bed81721a8ec28b2876ca2aa62068a14184f9"),
    ("fourfold-rm2", 7, "b8c1467791863507a506bc3520e363207be046e4e41cf8b25d20bb776f14ea67"),
])
def test_preset_report_sha256(preset, seed, sha256, tmp_path):
    # every preset at two seeds, pinned to the report of an earlier implementation
    out = tmp_path / "rep.json"
    assert main(["verify", "--preset", preset, "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("source, sha256", [
    ("eightfold-q2", "ad75e61e441c45f58d694879fb5e9a52eeea6f469761ecb9e69d36b8e4a5a948"),
    ("eightfold-rm2", "9a824b12cb8c3dc07db067554a24e2e353f36e987b6f6083957aedaf1eb3eeef"),
])
def test_committed_datum_report_sha256(source, sha256, tmp_path):
    # pinned to the report of an earlier implementation, like the preset fixtures
    out = tmp_path / "rep.json"
    datum = Path(__file__).parent / "data" / f"{source}.json"
    assert main(["verify", "--input", str(datum), "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("check, sha256", [
    ("lemma.", "fb2fbda227ade934b2eb41431a1133fdda98431098e44f37713313cebf6ba3ea"),
    ("fm.", "c22afdbfaf5e70601d509d99617c13d3c6f84eb3fe41e075d33797a92c0ad3bd"),
    ("pipeline.", "442efc18e6fccf9df7da2a01173c38108e30861e829e1e37b3ec8fdd9c430b41"),
])
def test_tenfold_transform_checks_sha256(check, sha256, tmp_path):
    # the transform lemmas and the sheaf chain at n = 5 (kappa there runs on
    # Python ints past int64), pinned to the report of an earlier implementation
    out = tmp_path / "rep.json"
    datum = Path(__file__).parent / "data" / "tenfold-q2.json"
    assert main(["verify", "--input", str(datum), "--seed", "0", "--check", check, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("check, sha256", [
    ("forms.", "93507b782a09f278efea6c594c26eea38b54c7e9cb3513856778fe7fec2689c1"),
    ("cm.", "24619e74201f5c1768054b30679cc040a5ce0a1cdea32959bb827afdb17cab30"),
])
def test_tenfold_form_and_cm_checks_sha256(check, sha256, tmp_path):
    # the Gram-matrix checks at n = 5, pinned to the report of the vector formulas they replaced
    out = tmp_path / "rep.json"
    datum = Path(__file__).parent / "data" / "tenfold-q2.json"
    assert main(["verify", "--input", str(datum), "--seed", "0", "--check", check, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("source, sha256", [
    ("tenfold-q2", "fe26a6014e7f88ef653ee0c5f9a955a23c8cbe8d0c52afae5f688878c33bfd39"),
    ("eightfold-lie-seed1", "c636de8468d6462f5990524fed06bcfdee76b56a6c20bf2092a08ea9437d83c1"),
])
def test_spinor_checks_sha256(source, sha256, tmp_path):
    # the type-space meets at n = 5 and on a dense Theta, pinned to the report of the
    # Zassenhaus intersection they replaced
    out = tmp_path / "rep.json"
    datum = Path(__file__).parent / "data" / f"{source}.json"
    assert main(["verify", "--input", str(datum), "--seed", "0", "--check", "spinor.", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def _standard_theta(n, scale=1):
    theta = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        theta[i][i + n] = scale
        theta[i + n][i] = -scale
    return theta


def _identity(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("n, scale, ranks", [(2, 1, ("2", "6")), (3, 2, ("-128", "0"))])
def test_pipeline_on_custom_data(n, scale, ranks):
    # a principal F = Q fourfold and a sixfold with Theta = 2 J, both q = 2:
    # valid data whose transform ranks are not the preset values 8q and 0
    datum = WeilDatum(TowerSpec(1, 2), n, _identity(2 * n), _standard_theta(n, scale))
    report = run_all(datum, seed=0, check_filter="pipeline.")
    names = [c.name for c in report.checks]
    assert names == [name for name, *_ in CHECKS if name.startswith("pipeline.")]
    for check in report.checks:
        assert check.status, (check.name, check.witness)
    by_name = {c.name: c.witness for c in report.checks}
    assert (by_name["pipeline.rank"]["rank"], by_name["pipeline.mixed-rank"]["rank"]) == ranks


def test_crashing_check_is_recorded_and_later_checks_run(monkeypatch):
    def boom(tower):
        raise RuntimeError("no CM-types today")

    monkeypatch.setattr(secantpipe, "enumerate_cm_types", boom)
    report = run_all("fourfold-rm2", seed=0, check_filter="tower.")
    first, *rest = report.checks
    assert first.name == "tower.cm-types" and not first.status
    assert first.witness == {"error": "RuntimeError: no CM-types today"}
    assert [c.name for c in rest] == ["tower.involution", "tower.norm-positivity"]
    assert all(c.status for c in rest)
    assert report.to_json()["summary"] == {"pass": 2, "fail": 1}


def test_declared_check_names_are_unique():
    names = [name for name, *_ in CHECKS]
    assert len(set(names)) == len(names)
    # the committed sixfold report runs every declared check, in order, with
    # invariants.k={k} expanded over k = 0..12
    expanded = []
    for name in names:
        expanded += [name.format(k=k) for k in range(13)] if "{k}" in name else [name]
    fixture = json.loads((Path(__file__).parent / "data" / "sixfold-q2-seed0.json").read_text())
    ran = [c["name"] for c in fixture["checks"]]
    assert ran == expanded
    assert len(set(ran)) == len(ran) == 52


def test_rm_eightfold_pi_image():
    # F = Q(sqrt 2) with d = 4: the overlap-one lines map onto the Weil space
    data = json.loads((Path(__file__).parent / "data" / "eightfold-rm2.json").read_text())
    report = run_all(WeilDatum.from_json(data), check_filter="lemma.pi-image")
    assert [c.name for c in report.checks] == ["lemma.pi-image"]
    check = report.checks[0]
    assert check.status and check.witness["image_dim"] == 4


def test_sheared_eightfold_spinor_checks():
    # Theta = g^T J g for g in SL(8, Z) (perfbench/datum.py, seed 1): a dense
    # Theta, so the annihilators solved by the checks have dense images
    data = json.loads((Path(__file__).parent / "data" / "eightfold-lie-seed1.json").read_text())
    report = run_all(WeilDatum.from_json(data), check_filter="spinor.")
    assert [c.name for c in report.checks] == [
        "spinor.exponential-pure", "spinor.annihilator-graph",
        "spinor.conjugate-transverse", "spinor.reflection-equivariance"]
    assert all(c.status for c in report.checks)


@pytest.mark.parametrize("fixture, sign", [("ws6", -1), ("ws4", 1)])
def test_pairing_check_matches_exhaustive_gram(fixture, sign, request, monkeypatch):
    ws = request.getfixturevalue(fixture)
    runner = secantpipe._Runner(ws.datum, 0)
    runner.ws = ws
    sp, tow = ws.space.sspace, ws.datum.tower
    dim = 1 << sp.m
    basis = [Multivector(sp, {a: tow.one()}) for a in range(dim)]
    gram = [[s_pairing(a, b) for b in basis] for a in basis]
    rank = linalg.rank(gram, tow)
    symmetric = all(gram[i][j] == (gram[j][i] if sign > 0 else -gram[j][i])
                    for i in range(dim) for j in range(dim))
    # the disjointness argument: only complement pairs pair nontrivially
    assert all(gram[i][j].is_zero() for i in range(dim) for j in range(dim) if j != sp.top_mask ^ i)
    assert runner._pairing() == (rank == dim and symmetric, {"gram_rank": rank, "symmetric_sign": sign})
    assert rank == dim and symmetric
    # one complement pairing set to 2: that pair fails in both orders
    real = secantpipe.s_pairing

    def patched(a, b):
        if (min(a.terms), min(b.terms)) == (5, sp.top_mask ^ 5):
            return tow.scalar(2)
        return real(a, b)

    monkeypatch.setattr(secantpipe, "s_pairing", patched)
    assert runner._pairing() == (False, {"gram_rank": dim - 2, "symmetric_sign": sign})
    # one complement pair doubled in both orders: still symmetric, not +-1

    def doubled(a, b):
        v = real(a, b)
        return v * tow.scalar(2) if {min(a.terms), min(b.terms)} == {5, sp.top_mask ^ 5} else v

    monkeypatch.setattr(secantpipe, "s_pairing", doubled)
    assert runner._pairing() == (False, {"gram_rank": dim - 2, "symmetric_sign": sign})


def test_clifford_relation_check_sees_each_flipped_sign(ws4, monkeypatch):
    # every nonzero entry of the generators' sign table takes part in
    # {x_i, y_i} = 1 on some mask, so flipping any one must fail the check
    runner = secantpipe._Runner(ws4.datum, 0)
    runner.ws = ws4
    hs = ws4.space
    signed = HyperbolicSpace.act
    entries = [(1 << k, mask) for k in range(hs.dim_v) for mask in range(1 << (2 * hs.n)) if hs.act(1 << k, mask)]
    assert len(entries) == hs.dim_v << (2 * hs.n - 1)
    for flip in entries:
        def flipped(self, mono, mask, flip=flip):
            hit = signed(self, mono, mask)
            return hit and ((-hit[0] if (mono, mask) == flip else hit[0]), hit[1])

        monkeypatch.setattr(HyperbolicSpace, "act", flipped)
        assert not runner._clifford_relation()[0], flip


def _anticommutation_holds(hs):
    """The operator half of clifford.defining-relation, one mask at a time."""
    for i in range(hs.dim_v):
        for j in range(i, hs.dim_v):
            for mask in range(1 << (2 * hs.n)):
                out = {}
                for a, b in ((i, j), (j, i)):
                    first = hs.act(1 << b, mask)
                    second = first and hs.act(1 << a, first[1])
                    if second:
                        out[second[1]] = out.get(second[1], 0) + first[0] * second[0]
                if {m: c for m, c in out.items() if c} != ({mask: 1} if hs.gram(i, j) else {}):
                    return False
    return True


def test_clifford_relation_tables_match_mask_loop(ws4, monkeypatch):
    # the generators' act with a few entries replaced by a random (sign, mask)
    # or by 0: the table check and the mask-by-mask loop must give the same verdict
    runner = secantpipe._Runner(ws4.datum, 0)
    runner.ws = ws4
    hs = ws4.space
    signed = HyperbolicSpace.act
    rng = random.Random(7)
    verdicts = set()
    for _ in range(40):
        bad = {(1 << rng.randrange(hs.dim_v), rng.randrange(16)):
               rng.choice([None, (rng.choice([-1, 1]), rng.randrange(16))]) for _ in range(rng.randint(1, 3))}

        def corrupted(self, mono, mask, bad=bad):
            return bad[mono, mask] if (mono, mask) in bad else signed(self, mono, mask)

        monkeypatch.setattr(HyperbolicSpace, "act", corrupted)
        expected = _anticommutation_holds(hs)
        assert runner._clifford_relation()[0] == expected, bad
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_commutes_with_cm_check_on_integer_forms(ws6, monkeypatch):
    runner = secantpipe._Runner(ws6.datum, 0)
    tow = ws6.datum.tower
    mats = [eta_of(ws6.eta, t) for t in ws6.eta.k_basis()]
    # the FieldElem products as reference, and a rescaled generator
    assert all(mat_eq(mat_mul(so.ad, m, tow), mat_mul(m, so.ad, tow))
               for so in ws6.gB for m in mats)

    def commutes(gens):
        runner.ws = SimpleNamespace(gb_table=DerivationOperators(gb_int_cols(gens)), eta=ws6.eta)
        return runner._gb_commutes()

    dtypes = []
    real = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: dtypes.append(a.dtype) or real(a, b))
    scaled = [SoPair(ws6.space, so.xi.scale(tow.scalar(Fraction(-2, 7)))) for so in ws6.gB]
    assert commutes(scaled) == (True, {}) and dtypes.pop() == np.int64
    # a matrix unit E_01 does not commute with eta(sqrt -q)
    unit = [[tow.scalar(int((r, c) == (0, 1))) for c in range(12)] for r in range(12)]
    perturbed = SimpleNamespace(cols=int_derivation_cols(unit))
    assert not mat_eq(mat_mul(unit, mats[1], tow), mat_mul(mats[1], unit, tow))
    assert commutes(scaled + [perturbed]) == (False, {}) and dtypes.pop() == np.int64
    # a generator scaled by 2^62 puts dim max|a| max|m| past 2^63: Python ints decide
    big = scaled[:-1] + [SoPair(ws6.space, scaled[-1].xi.scale(tow.scalar(2**62)))]
    assert commutes(big) == (True, {}) and dtypes.pop() == object
    assert commutes(big + [perturbed]) == (False, {}) and dtypes.pop() == object


def _fresh_runner(ws):
    # a runner on its own structure, so a perturbed cached form stays out of the session fixtures
    runner = secantpipe._Runner(ws.datum, 0)
    runner.ws = ws
    return runner


@pytest.mark.parametrize("preset", ["fourfold-rm2", "sixfold-q2"])
def test_form_and_cm_checks_see_perturbed_integer_forms(preset):
    ws = WeilStructure(PRESETS[preset]())
    checks = ("_hermitian", "_cm_ring", "_cm_adjoint", "_type_spaces", "_gb_preserves_wt")
    assert all(getattr(_fresh_runner(ws), name)()[0] for name in checks)
    # one sqrt(-q) numerator of the cached G_t
    kb = ws.eta.k_minus_basis()
    gram, _ = ws.hermitian_gram(kb[0] if len(kb) == 1 else kb[0] + kb[1])
    gram[2, 0, 1] += 1
    assert not _fresh_runner(ws)._hermitian()[0]
    # one entry of the integer eta(sqrt(-q)), which the ring check, eta(t) and W_T-invariance read
    E, _ = ws.eta.ints
    E[2, 0, 0] += 1
    assert _fresh_runner(ws)._cm_ring() == (False, {"rational": True})
    assert not _fresh_runner(ws)._cm_adjoint()[0]
    assert not _fresh_runner(ws)._type_spaces()[0]
    # G_t plus the identity over its denominator is positive on the witness, for each t
    for t_el in kb:
        ws = WeilStructure(PRESETS[preset]())
        assert _fresh_runner(ws)._split_witness()[0]
        gram, _ = ws.hermitian_gram(t_el)
        gram[0] += np.eye(len(gram[0]), dtype=gram.dtype)
        assert not _fresh_runner(ws)._split_witness()[0]


@pytest.mark.parametrize("preset", ["fourfold-rm2", "sixfold-q2"])
def test_xi_checks_see_a_perturbed_gram_entry(preset):
    ws = WeilStructure(PRESETS[preset]())
    assert _fresh_runner(ws)._xi_forms() == (True, {"xi_span_dim": ws.datum.tower.e // 2})
    assert _fresh_runner(ws)._xi_value()[0]
    # one (y_0, y_1) numerator of the Gram matrix of the first Xi_t
    n2 = 2 * ws.datum.n
    nums, _ = ws.xi_grams[0][1]
    nums[0, n2, n2 + 1] += 1
    assert not _fresh_runner(ws)._xi_forms()[0]
    assert not _fresh_runner(ws)._xi_value()[0]


@pytest.mark.parametrize("preset", ["fourfold-rm2", "sixfold-q2"])
def test_preserves_type_spaces_sees_a_perturbed_generator(preset):
    ws = WeilStructure(PRESETS[preset]())
    col = ws.gb_cols[0][0]  # before `gb_table` is built from the columns
    col[:1] = [(col[0][0], col[0][1] + 1)] if col else [(0, 1)]
    assert not _fresh_runner(ws)._gb_preserves_wt()[0]


@pytest.mark.parametrize("preset", ["fourfold-rm2", "sixfold-q2"])
def test_conjugate_transverse_sees_a_singular_graph_difference(preset):
    ws = WeilStructure(PRESETS[preset]())
    assert _fresh_runner(ws)._conjugate_transverse() == (True, {"intersection_dim": 0})
    # row and column 0 of the all-plus M_T zeroed in a copy: M - iota(M) is then singular
    nums, den = ws.type_graphs
    nums = nums.copy()
    nums[:, 0, 0, :] = nums[:, 0, :, 0] = 0
    ws.type_graphs = nums, den
    ok, witness = _fresh_runner(ws)._conjugate_transverse()
    assert not ok and witness["intersection_dim"] > 0


def test_type_spaces_check_sees_a_perturbed_conjugate_graph(monkeypatch):
    ws = WeilStructure(PRESETS["sixfold-q2"]())
    assert _fresh_runner(ws)._type_spaces()[0]
    # one sqrt(-q) entry of the conjugate M_T and its transpose partner, so M_T stays alternating
    nums, _ = ws.type_graphs
    k = ws.cm_types.index(ws.cm_types[0].conjugate())
    nums[2, k, 0, 1] += 1
    nums[2, k, 1, 0] -= 1
    assert not _fresh_runner(ws)._type_spaces()[0]
    # the conjugate-pair comparison alone also sees it
    monkeypatch.setattr(secantpipe, "preserves_graph", lambda *args: True)
    assert not _fresh_runner(ws)._type_spaces()[0]


def test_invariant_checks_fail_when_the_generators_are_not_killed(monkeypatch):
    # the containment of every G_k in the invariants rests on the one generator test
    monkeypatch.setattr(WeilStructure, "generators_invariant", False)
    report = run_all("fourfold-rm2", seed=0, check_filter="invariants.")
    assert [c.name for c in report.checks] == [f"invariants.k={k}" for k in range(9)]
    for check in report.checks:
        assert not check.status
        assert check.witness == {"error": "ValueError: generated class is not g_B-invariant"}
    kills = run_all("fourfold-rm2", seed=0, check_filter="lie.kills-generators").checks
    assert [(c.name, c.status) for c in kills] == [("lie.kills-generators", False)]


@pytest.mark.parametrize("preset", ["fourfold-rm2", "sixfold-q2"])
def test_type_space_checks_see_a_symmetric_graph_entry(preset):
    # M_T[n][0] set equal to M_T[0][n], nonzero, in a copy: the graph is then not isotropic
    ws = WeilStructure(PRESETS[preset]())
    runner = _fresh_runner(ws)
    assert runner._type_spaces()[0] and runner._annihilator_graph()[0]
    n, (nums, den) = ws.datum.n, ws.type_graphs
    assert nums[:, 0, 0, n].any()
    nums = nums.copy()
    nums[:, 0, n, 0] = nums[:, 0, 0, n]
    ws.type_graphs = nums, den
    runner = _fresh_runner(ws)
    for name, anchor, method in (("cm.type-spaces", "", runner._type_spaces),
                                 ("spinor.annihilator-graph", "", runner._annihilator_graph)):
        runner.record(name, anchor, method)
    assert [(c.name, c.status) for c in runner.checks] == [("cm.type-spaces", False),
                                                             ("spinor.annihilator-graph", False)]
    assert runner.checks[1].witness == {"error": "ValueError: basis does not span an isotropic subspace"}


@pytest.mark.parametrize("preset, meets", [("fourfold-rm2", 6), ("sixfold-q2", 1)])
def test_filtration_pairs_meet_each_unordered_pair_once(preset, meets, monkeypatch):
    # a meet of two distinct types per unordered pair; (t, t) is the graph itself
    ws = WeilStructure(PRESETS[preset]())
    runner = _fresh_runner(ws)
    runner.orl = OrlovTransform(ws.datum.n, ws.datum.tower)
    expected = runner._filtration_pairs()
    calls, meet = [], linalg.graph_meet
    monkeypatch.setattr(linalg, "graph_meet", lambda *args: calls.append(args) or meet(*args))
    runner = _fresh_runner(ws)
    runner.orl = OrlovTransform(ws.datum.n, ws.datum.tower)
    assert runner._filtration_pairs() == expected and expected[0]
    assert len(calls) == meets and len(expected[1]) == len(ws.cm_types) ** 2


def _principal(n, q):
    return WeilDatum(TowerSpec(1, q), n, _identity(2 * n), _standard_theta(n), name=f"principal-q{q}")


@pytest.mark.parametrize("n, rank", [(2, "2"), (4, "8")])
def test_q1_principal_data_take_the_next_sheaf_pair(n, rank):
    # Theta = J, q = 1: s_pairing(tau(alpha + beta), alpha + beta) = 0, so the
    # chain takes (alpha + beta, alpha) and every check passes
    report = run_all(_principal(n, 1), seed=0)
    assert report.all_pass(), [(c.name, c.witness) for c in report.checks if not c.status]
    chain = {c.name: c.witness for c in report.checks if c.name.startswith("pipeline.")}
    assert len(chain) == 7 and all(w["pair"] == [[1, 1], [1, 0]] for w in chain.values())
    assert chain["pipeline.rank"] == {"rank": rank, "expected_abs": rank, "pair": [[1, 1], [1, 0]]}
    assert chain["pipeline.secant-chern"]["coords"] == ["1", "1"]


def test_default_sheaf_pair_is_not_named(ws6):
    # the presets keep the pair (alpha + beta, alpha + beta), and their witnesses do not name it
    report = run_all("sixfold-q2", seed=0, check_filter="pipeline.")
    assert report.all_pass() and not any("pair" in c.witness for c in report.checks)
    assert SHEAF_PAIRS[0] == ((1, 1), (1, 1))
    assert preset_ch_ideal_curves(ws6) == ws6.alpha + ws6.beta


def test_sheaf_chain_without_a_pair_of_nonzero_rank(monkeypatch):
    # with the default pair alone the q = 1 fourfold has no pair: every chain check
    # that reads it fails with the reason, and nothing else is affected
    monkeypatch.setattr(secantpipe, "SHEAF_PAIRS", SHEAF_PAIRS[:1])
    report = run_all(_principal(2, 1), seed=0)
    failed = {c.name: c.witness for c in report.checks if not c.status}
    reason = {"error": "ValueError: no sheaf pair in SHEAF_PAIRS has a transform of nonzero rank"}
    assert failed == {name: reason for name, *_ in CHECKS if name.startswith("pipeline.")}


def test_dual_check_negates_the_beta_coordinate():
    # tau(c_a alpha + c_b beta) = c_a alpha - c_b beta, on every pair of the list
    ws = WeilStructure(_principal(2, 1))
    for coords in [*SHEAF_PAIRS, ((1, 1), (1, 2))]:
        runner = _fresh_runner(ws)
        runner._pair = coords, [ws.alpha.scale(a) + ws.beta.scale(b) for a, b in coords]
        assert runner._dual()[0] and runner._secant_chern()[0]
    # characters that are not the ones their coordinates name
    runner = _fresh_runner(ws)
    runner._pair = ((1, 1), (1, 2)), [ws.alpha + ws.beta, ws.alpha - ws.beta.scale(2)]
    assert not runner._dual()[0] and not runner._secant_chern()[0]


def test_q1_fourfold_report_sha256(tmp_path):
    # the committed q = 1 fourfold, pinned to the report of the first implementation that passes it
    out = tmp_path / "rep.json"
    datum = Path(__file__).parent / "data" / "fourfold-q1.json"
    assert main(["verify", "--input", str(datum), "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d2afffea65d1365c5aea9fc28c23c1fce80db38047de9012cf71896564cf1aaa")


def test_random_n2_data_pass_every_check():
    # seeded valid F = Q fourfolds (seeds 2 and 43 have q = 1), each run twice
    for seed in [*range(1, 41), 43]:
        datum = random_f_q_datum(random.Random(seed), 2)
        report = run_all(datum, seed=seed)
        assert report.all_pass(), (seed, [(c.name, c.witness) for c in report.checks if not c.status])
        assert run_all(datum, seed=seed).dumps() == report.dumps()
