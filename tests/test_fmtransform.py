from fractions import Fraction

import pytest

from weilspin import linalg
from weilspin.clifford import SoPair
from weilspin.exteralg import GeneratorSpace, Multivector, exp_even, rational_parts, span_basis, tau, wedge
from weilspin.fieldtower import TowerSpec
from weilspin.fmtransform import (
    OrlovTransform,
    ProductAlgebra,
    bb_decompose,
    filtration_level,
    pi_to_weil,
    poincare_class,
    POINCARE_SIGN_HAT_FIRST,
    POINCARE_SIGN_UN_FIRST,
)

from conftest import (
    embed_first,
    fm_along_reference,
    phiH_inverse_reference,
    pushforward_first,
    rand_mv,
    type_space,
    zassenhaus_intersect,
)


@pytest.fixture(scope="module")
def orl1():
    return OrlovTransform(1, TowerSpec(1, 1))


def test_pushforward_normalization(orl1, rng):
    pa = orl1.pa_xy
    for _ in range(8):
        b = rand_mv(rng, pa.second, 3)
        full = wedge(
            embed_first(pa, Multivector(pa.first, {pa.first.top_mask: pa.space.tower.one()})),
            pa.box(pa.first.one(), b),
        )
        assert pushforward_first(pa, full) == b
        # nothing survives without the full top of the integrated factor
        partial = pa.box(pa.first.one(), b)
        assert pushforward_first(pa, partial).is_zero()


def test_projection_formula(orl1, rng):
    pa = orl1.pa_xy
    for _ in range(10):
        c = rand_mv(rng, pa.second, 3)   # class on the target factor
        a = rand_mv(rng, pa.space, 4)    # class on the product
        lhs = pushforward_first(pa, wedge(pa.box(pa.first.one(), c), a))
        rhs_parts = pushforward_first(pa, a)
        # pullback(c) ^ a pushes to c ^ pushforward(a), degree by degree
        assert lhs == wedge(c, rhs_parts)


def test_poincare_class(orl1):
    c1 = poincare_class(orl1.pa_xy, POINCARE_SIGN_UN_FIRST)
    assert c1.degrees() == [2]
    # restricts trivially to either factor: every term mixes the blocks
    for m in c1.terms:
        assert m & orl1.pa_xy.first.top_mask and m >> orl1.pa_xy.shift
    with pytest.raises(ValueError):
        poincare_class(ProductAlgebra(orl1.sx, GeneratorSpace(["z"], orl1.tower)), 1)


@pytest.mark.parametrize("n,expected", [(1, -1), (2, 1)])
def test_poincare_top_integral(n, expected):
    orl = OrlovTransform(n, TowerSpec(1, 1))
    e = exp_even(poincare_class(orl.pa_xy, POINCARE_SIGN_UN_FIRST))
    top = orl.pa_xy.space.top_mask
    assert e.terms[top] == orl.tower.scalar(expected)


@pytest.mark.parametrize("n", [1, 2])
def test_poincare_transform_extremes(n):
    orl = OrlovTransform(n, TowerSpec(1, 1))
    sgn = orl.tower.scalar((-1) ** n)
    top_x = Multivector(orl.sx, {orl.sx.top_mask: orl.tower.one()})
    assert orl.phi_hat_to_un.image_of_mask(0) == top_x.scale(sgn)
    assert orl.phi_hat_to_un.image_of_mask(orl.sy.top_mask) == orl.sx.one()


@pytest.mark.parametrize("n", [1, 2])
def test_mukai_inversion(n):
    orl = OrlovTransform(n, TowerSpec(1, 2))
    tow = orl.tower
    sgn = 1 if n % 2 == 0 else -1
    for mask in range(1 << (2 * n)):
        k = bin(mask).count("1")
        b = Multivector(orl.sy, {mask: tow.one()})
        assert orl.phi_un_to_hat(orl.phi_hat_to_un(b)) == b.scale(sgn * (-1) ** k)
        a = Multivector(orl.sx, {mask: tow.one()})
        assert orl.phi_hat_to_un(orl.phi_un_to_hat(a)) == a.scale(sgn * (-1) ** k)


def test_phiH_regression_and_roundtrip(orl1, rng):
    phi = orl1.phiH
    inverse = phiH_inverse_reference(orl1)
    # frozen: the unit class maps to the top of the dual block
    img = phi.image_of_mask(0)
    assert img == Multivector(orl1.pa_xy.space, {0b1100: orl1.tower.one()})
    for _ in range(10):
        c = rand_mv(rng, orl1.pa_xx.space, 4)
        assert inverse(phi(c)) == c
        u = rand_mv(rng, orl1.pa_xy.space, 4)
        assert phi(inverse(u)) == u


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("tower", [TowerSpec(1, 1), TowerSpec(2, 1)], ids=str)
def test_closed_forms_match_references(n, tower):
    # every monomial: the signed complements against the kernel integrals, and
    # phiH's signed subset sum against the inverse built from the kernel
    # integral and the per-generator shear, in both orders
    orl = OrlovTransform(n, tower)
    hat_to_un = fm_along_reference(ProductAlgebra(orl.sy, orl.sx), POINCARE_SIGN_HAT_FIRST)
    un_to_hat = fm_along_reference(orl.pa_xy, POINCARE_SIGN_UN_FIRST)
    for mask in range(1 << (2 * n)):
        assert orl.phi_hat_to_un.image_of_mask(mask) == hat_to_un.image_of_mask(mask)
        assert orl.phi_un_to_hat.image_of_mask(mask) == un_to_hat.image_of_mask(mask)
    phi, inverse = orl.phiH, phiH_inverse_reference(orl)
    for mask in range(1 << (4 * n)):
        x = Multivector(orl.pa_xx.space, {mask: tower.one()})
        assert inverse(phi(x)) == x
        u = Multivector(orl.pa_xy.space, {mask: tower.one()})
        assert phi(inverse(u)) == u


def test_phiH_matches_reference_inverse():
    # the signs do not depend on the tower, so one tower at n = 3; the reference
    # inverse is a bijection, so inverting phiH's image of a monomial tests the image
    orl = OrlovTransform(3, TowerSpec(1, 1))
    phi, inverse = orl.phiH, phiH_inverse_reference(orl)
    for mask in range(1 << 12):
        x = Multivector(orl.pa_xx.space, {mask: orl.tower.one()})
        assert inverse(phi(x)) == x


@pytest.mark.parametrize("n", [1, 2])
def test_phi_tilde_equivariance(n, rng):
    tow = TowerSpec(1, 2)
    orl = OrlovTransform(n, tow)
    pt = orl.phi_tilde
    deg2 = [m for m in range(1 << (4 * n)) if bin(m).count("1") == 2]
    samples = deg2 if n == 1 else rng.sample(deg2, 8)
    for m in samples:
        xi = Multivector(orl.hyper.vspace, {m: tow.one()})
        so = SoPair(orl.hyper, xi)
        diag = orl.diagonal_spin(so)
        for _ in range(2):
            c = orl.pa_xx.box(
                Multivector(orl.sx, {rng.randrange(1 << (2 * n)): tow.one()}),
                Multivector(orl.sx2, {rng.randrange(1 << (2 * n)): tow.one()}),
            )
            assert [pt(diag(c))] == so.derivation([pt(c)])


def test_chevalley_commutator_equivariance(orl1):
    from weilspin.clifford import clifford_action
    from weilspin.exteralg import s_pairing

    tow = orl1.tower
    chev = orl1.chevalley
    for m in [m for m in range(16) if bin(m).count("1") == 2]:
        xi = Multivector(orl1.hyper.vspace, {m: tow.one()})
        so = SoPair(orl1.hyper, xi)
        diag = orl1.diagonal_spin(so)
        conj = orl1.conjugation(xi)
        for am in range(4):
            for bm in range(4):
                c = orl1.pa_xx.box(
                    Multivector(orl1.sx, {am: tow.one()}),
                    Multivector(orl1.sx2, {bm: tow.one()}),
                )
                assert chev(diag(c)) == conj(chev(c))
    # the element acts as the rank-one operator it encodes
    for am, bm in ((0, 0), (1, 2), (3, 3)):
        a = Multivector(orl1.sx, {am: tow.one()})
        b = Multivector(orl1.sx, {bm: tow.one()})
        c = orl1.pa_xx.box(a, Multivector(orl1.sx2, {bm: tow.one()}))
        img = chev(c)
        for lam_mask in range(4):
            lam = Multivector(orl1.sx, {lam_mask: tow.one()})
            assert clifford_action(img, lam, orl1.hyper) == a.scale(s_pairing(b, lam))


def test_filtration_level(orl1):
    sp = orl1.pa_xy.space
    a = sp.one() + sp.gen(0)
    assert filtration_level(a) == 0
    assert filtration_level(sp.gen(1)) == 1
    with pytest.raises(ValueError):
        filtration_level(sp.zero())


def test_filtration_pairs_sixfold(ws6, orl6):
    tow = ws6.datum.tower
    d = ws6.d
    for t1 in ws6.cm_types:
        for t2 in ws6.cm_types:
            k = t1.overlap(t2)
            boxed = orl6.pa_xx.box(
                ws6.ell[t1], Multivector(orl6.sx2, dict(tau(ws6.ell[t2]).terms))
            )
            img = orl6.phiH(boxed)
            assert filtration_level(img) >= d * k
            bottom = img.degree_part(d * k)
            inter = zassenhaus_intersect(type_space(ws6, t1).basis, type_space(ws6, t2).basis, tow)
            line = orl6.hyper.vspace.one()
            for row in inter:
                line = wedge(line, orl6.hyper.vector_to_mv(row))
            assert span_basis([bottom]) == span_basis([line])


def test_bb_decompose_dimensions(ws6, orl6, ws4, orl4):
    # e = 2: (2, 2); e = 4: (4, 8, 4); refined pieces sum back to the input
    for ws, orl, dims in ((ws6, orl6, {0: 2, 1: 2}), (ws4, orl4, {0: 4, 1: 8, 2: 4})):
        counts = {}
        for t1 in ws.cm_types:
            for t2 in ws.cm_types:
                k = t1.overlap(t2)
                counts[k] = counts.get(k, 0) + 1
        assert counts == dims
        tensor = orl.pa_xx.box(
            ws.ell[ws.cm_types[0]],
            Multivector(orl.sx2, dict(ws.ell[ws.cm_types[-1]].terms)),
        )
        graded, refined = bb_decompose(orl, ws.ell, tensor)
        total = orl.pa_xx.space.zero()
        for comp in refined.values():
            total = total + comp
        assert total == tensor


def test_bb_decompose_of_secant_pair(ws6, orl6):
    # (alpha+beta) (x) (alpha-beta) has a nonzero overlap-one component
    tow = ws6.datum.tower
    c1 = ws6.alpha + ws6.beta
    c2 = ws6.alpha - ws6.beta
    tensor = orl6.pa_xx.box(c1, Multivector(orl6.sx2, dict(c2.terms)))
    graded, refined = bb_decompose(orl6, ws6.ell, tensor)
    assert not graded[1].is_zero()
    assert not graded[0].is_zero()
    # graded pieces are rational (Galois-stable grading)
    for comp in graded.values():
        for c in comp.terms.values():
            assert c.is_rational()


def test_bb_decompose_membership_error(ws6, orl6):
    alien = Multivector(orl6.pa_xx.space, {0b10: ws6.datum.tower.one()})
    with pytest.raises(ValueError):
        bb_decompose(orl6, ws6.ell, alien)


def test_pi_image(ws6, orl6, ws4, orl4):
    for ws, orl in ((ws6, orl6), (ws4, orl4)):
        tow = ws.datum.tower
        d = ws.d
        parts = []
        lines = 0
        for t1 in ws.cm_types:
            for t2 in ws.cm_types:
                if t1.overlap(t2) != 1:
                    continue
                lines += 1
                boxed = orl.pa_xx.box(
                    ws.ell[t1], Multivector(orl.sx2, dict(ws.ell[t2].terms))
                )
                img = pi_to_weil(orl, d, boxed)
                assert not img.is_zero()
                parts.extend(rational_parts(img))
        assert span_basis(parts) == ws.HW
        # an isomorphism exactly when the overlap-one line count matches dim HW
        assert (lines == len(ws.HW)) == (tow.e == 2)
    assert pi_to_weil(orl6, ws6.d, orl6.pa_xx.space.zero()).is_zero()
