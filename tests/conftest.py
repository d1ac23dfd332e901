import random

import pytest

from weilspin import linalg
from weilspin.fieldtower import TowerSpec
from weilspin.fmtransform import OrlovTransform
from weilspin.purespinor import IsotropicSubspace
from weilspin.secantpipe import PRESETS
from weilspin.weilcm import WeilStructure


@pytest.fixture(scope="session")
def ws6():
    """The q=2 sixfold structure, built once for the whole run."""
    return WeilStructure(PRESETS["sixfold-q2"]())


@pytest.fixture(scope="session")
def orl6(ws6):
    return OrlovTransform(3, ws6.datum.tower)


@pytest.fixture(scope="session")
def ws4():
    """The real-multiplication fourfold structure."""
    return WeilStructure(PRESETS["fourfold-rm2"]())


@pytest.fixture(scope="session")
def orl4(ws4):
    return OrlovTransform(2, ws4.datum.tower)


@pytest.fixture(scope="session")
def tiny_tower():
    return TowerSpec(1, 1)


@pytest.fixture()
def rng():
    return random.Random(20240817)


# -- FieldElem matrix products: references for the K-valued arrays of `linalg` --


def identity_matrix(n, tower):
    zero, one = tower.zero(), tower.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_vec(mat, vec, tower):
    entries = [(j, b) for j, b in enumerate(map(tower.scalar, vec)) if not b.is_zero()]
    out = []
    for row in mat:
        acc = tower.zero()
        for j, b in entries:
            if not row[j].is_zero():
                acc = acc + row[j] * b
        out.append(acc)
    return out


def mat_mul(a, b, tower):
    b_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b]
    out = []
    for arow in a:
        row = [tower.zero()] * len(b[0])
        for x, brow in zip(arow, b_rows):
            if not x.is_zero():
                for j, y in brow:
                    row[j] = row[j] + x * y
        out.append(row)
    return out


def mat_scale(mat, s):
    return [[x * s for x in row] for row in mat]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def in_span(basis_rref, pivots, v, tower) -> bool:
    """Membership of a dense row in the span of an rref basis."""
    w = list(v)
    for row, pc in zip(basis_rref, pivots):
        f = w[pc]
        if not f.is_zero():
            for j, b in enumerate(row):
                if not b.is_zero():
                    w[j] = w[j] - f * b
    return all(x.is_zero() for x in w)


def zassenhaus_intersect(a_rows, b_rows, tower):
    """Zassenhaus intersection of two row spans, as a reduced echelon basis:
    the reference for `linalg.graph_meet`."""
    if not a_rows or not b_rows:
        return []
    n = len(a_rows[0])
    zero = tower.zero()
    block = [list(r) + list(r) for r in a_rows]
    block += [list(r) + [zero] * n for r in b_rows]
    red, _ = linalg.rref(block, tower)
    out = []
    for row in red:
        if all(x.is_zero() for x in row[:n]):
            tail = row[n:]
            if any(not x.is_zero() for x in tail):
                out.append(tail)
    red_out, _ = linalg.rref(out, tower)
    return red_out


def type_graph(ws, T=None):
    """The K-valued M_T of W_T = {(M_T y, y)}, by CM type (the all-plus type by default)."""
    return ws.type_graph(0 if T is None else ws.cm_types.index(T))


def type_space(ws, T=None):
    """W_T (the all-plus W by default) as an `IsotropicSubspace`, on the rows
    of its graph: the one place a test reads a type space."""
    return IsotropicSubspace(ws.space, linalg.graph_rows(ws.datum.tower, type_graph(ws, T)))


def type_space_reference(space, b):
    """Reference for `weilcm.build_W`: the annihilator of exp(b), for a 2-form b
    on the x-block, as the `IsotropicSubspace` with rows y_j - iota_(y_j) b."""
    t = space.tower
    n2 = 2 * space.n
    rows = [[t.one() if i == n2 + j else t.zero() for i in range(2 * n2)] for j in range(n2)]
    for mask, c in b.terms.items():
        lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        # iota_(y_lo) (x_lo ^ x_hi) = x_hi and iota_(y_hi) (x_lo ^ x_hi) = -x_lo
        rows[lo][hi] = -c
        rows[hi][lo] = c
    return IsotropicSubspace(space, rows)


def iota_rows(rows):
    """iota applied to every entry of a list of rows."""
    return [[c.iota() for c in row] for row in rows]


def rand_elem(rng, tower, span=5):
    return tower.elem(
        rng.randint(-span, span),
        rng.randint(-2, 2),
        rng.randint(-2, 2),
        rng.randint(-1, 1),
    )


def rand_mv(rng, space, nterms=4):
    from weilspin.exteralg import Multivector

    terms = {}
    for _ in range(nterms):
        terms[rng.randrange(1 << space.m)] = space.tower.elem(
            rng.randint(-3, 3), 0, rng.randint(-2, 2), 0
        )
    return Multivector(space, terms)


def rand_vec(rng, hspace, span=3):
    return hspace.vector([rng.randint(-span, span) for _ in range(hspace.dim_v)])


def leibniz_derivation(space, cols, terms):
    """Reference for the derivation of a matrix M in sparse-column form on a
    {mask: scalar} term dict over `space`, by the Leibniz rule with `wedge`:
    D(e_s1 ^ ... ^ e_sk) = sum_j (e_s1 ^ ... ^ e_s(j-1)) ^ M e_sj ^ (e_s(j+1) ^ ... ^ e_sk),
    each bracket the ascending monomial of its generators."""
    from weilspin.exteralg import Multivector, wedge

    one, out = space.tower.one(), {}
    images = [Multivector(space, {1 << i: space.scalar(e) for i, e in col}) for col in cols]
    for mask, c in terms.items():
        for g in range(space.m):
            if mask >> g & 1:
                below, above = mask & ((1 << g) - 1), mask & ~((2 << g) - 1)
                term = wedge(wedge(Multivector(space, {below: one}), images[g]), Multivector(space, {above: one}))
                for m, x in term.terms.items():
                    out[m] = out.get(m, 0) + x * c
    return {m: x for m, x in out.items() if x != 0}


def contract(theta, a):
    """Reference for the action of the y-vector sum theta_i y_i on spinors
    (`HyperbolicSpace.act` of each y_i): the interior product with the dual vector of
    coefficients theta on the generators, a graded derivation of degree -1.
    On a basis monomial g_S it gives the sum over i in S of
    (-1)^(position of i in S) theta_i g_(S without i)."""
    from weilspin.exteralg import Multivector

    space = a.space
    if len(theta) != space.m:
        raise ValueError("dual-vector coefficient list has wrong length")
    theta, zero = [space.scalar(t) for t in theta], space.tower.zero()
    out = {}
    for m, c in a.terms.items():
        for pos, i in enumerate(i for i in range(space.m) if m >> i & 1):
            term = theta[i] * c
            key = m ^ (1 << i)
            out[key] = out.get(key, zero) + (-term if pos & 1 else term)
    return Multivector(space, out)


def gamma_reference(space, k, mask):
    """Reference for `HyperbolicSpace.act` on the generator 1 << k: (sign,
    mask') with gamma_k x_mask = sign x_mask', or None when it is 0.  x_i
    wedges and y_i contracts x_i, each passing the bits of the mask below i."""
    i = k % (2 * space.n)
    bit = 1 << i
    if space.is_x(k) == bool(mask & bit):
        return None
    return -1 if (mask & (bit - 1)).bit_count() & 1 else 1, mask ^ bit


def walk_act(space, mono, mask):
    """Reference for `HyperbolicSpace.act`: the generators of the monomial,
    by `gamma_reference` in descending index order."""
    sign = 1
    for k in reversed(range(mono.bit_length())):
        if mono >> k & 1:
            hit = gamma_reference(space, k, mask)
            if hit is None:
                return None
            sign, mask = sign * hit[0], hit[1]
    return sign, mask


def walk_action(elem, lam, space):
    """Reference for `clifford.clifford_action`, by `walk_act`."""
    from weilspin.exteralg import Multivector

    out = {}
    for mono, coeff in elem.terms.items():
        for mask, c in lam.terms.items():
            hit = walk_act(space, mono, mask)
            if hit is not None:
                out[hit[1]] = out.get(hit[1], space.tower.zero()) + (coeff * c if hit[0] > 0 else -(coeff * c))
    return Multivector(lam.space, out)


def walk_mul(a, b, space):
    """Reference for `clifford.clifford_mul`: b left-multiplied by the
    generators of each monomial of a in descending order.  On x_A y_B, v_k
    acts on x_A by `gamma_reference` (which reads and changes only x-bits),
    and y_k also wedges onto y_B, passing the bits of x_A y_B below it:
    y_k x_A = gamma_k x_A + (-1)^|A| x_A y_k.  Once a y appears no generator
    on the left removes it (S = C(V)/C(V)Y)."""
    from weilspin.exteralg import Multivector

    n2, out = 2 * space.n, {}
    for mono, coeff in a.terms.items():
        cur = {m: coeff * c for m, c in b.terms.items()}
        for k in reversed(range(mono.bit_length())):
            if not mono >> k & 1:
                continue
            nxt, bit = {}, 1 << k
            for m, c in cur.items():
                hit = gamma_reference(space, k, m)
                if hit is not None:
                    nxt[hit[1]] = nxt.get(hit[1], space.tower.zero()) + (c if hit[0] > 0 else -c)
                if k >= n2 and not m & bit:
                    nxt[m | bit] = nxt.get(m | bit, space.tower.zero()) + (-c if (m & (bit - 1)).bit_count() & 1 else c)
            cur = nxt
        for m, c in cur.items():
            out[m] = out.get(m, space.tower.zero()) + c
    return Multivector(space.vspace, out)


def mv_to_vector(space, mv):
    """The coordinate vector of a degree-1 element of C(V) on `space`."""
    out = [space.tower.zero()] * space.dim_v
    for m, c in mv.terms.items():
        assert m.bit_count() == 1, "not a degree-1 element"
        out[m.bit_length() - 1] = c
    return out


def reflection_reference(space, v, w):
    """Reference for `clifford.vector_rep_reflection`: v.w.v^(-1) as two
    `clifford_mul` products, with v^(-1) = v / v^2 and v^2 = (v,v)/2."""
    from fractions import Fraction

    from weilspin.clifford import clifford_mul

    vmv, wmv = space.vector_to_mv(v), space.vector_to_mv(w)
    prod = clifford_mul(clifford_mul(vmv, wmv, space), vmv, space)
    return mv_to_vector(space, prod.scale(space.tower.scalar(Fraction(2) / space.pair(v, v))))


def pure_spinor_solve(w, space):
    """Reference for `purespinor.pure_spinor_of`: the spinor line of a maximal
    isotropic subspace as the solution space of w . lam = 0 for every basis
    row w, a linear system with 2^(2n) unknowns, normalized the same way
    (lowest-mask coefficient 1)."""
    from weilspin import linalg
    from weilspin.clifford import clifford_action
    from weilspin.exteralg import Multivector, column_rows

    dim_s = 1 << (2 * space.n)
    basis = [Multivector(space.sspace, {mask: space.tower.one()}) for mask in range(dim_s)]
    rows = []
    for vec in w.basis:
        vmv = space.vector_to_mv(vec)
        rows.extend(column_rows([clifford_action(vmv, lam, space) for lam in basis]))
    kernel = linalg.nullspace(rows, dim_s, space.tower)
    assert len(kernel) == 1, f"spinor solution space has dimension {len(kernel)}, not 1"
    lam = Multivector(space.sspace, dict(enumerate(kernel[0])))
    return lam.scale(lam.terms[min(lam.terms)].inv())


def preset_ch_ideal_curves(ws):
    """Chern character of the twisted ideal sheaf of translated curves.

    For the principal sixfold presets this is alpha + beta, which lies in
    the secant space with coordinates (1, 1) and has rank one (its degree-0
    coefficient); the character of the dual sheaf is its `tau`.  The sheaf
    chain reads it as the pair (1, 1) of `secantpipe.SHEAF_PAIRS`.
    """
    return ws.alpha + ws.beta


def embed_first(pa, mv):
    """A class on the first factor of the product algebra `pa`, pulled back to the product."""
    from weilspin.exteralg import Multivector

    if mv.space != pa.first:
        raise ValueError("not a first-factor element")
    return Multivector(pa.space, dict(mv.terms))


def pushforward_first(pa, mv):
    """Integrate over the first factor of `pa`: the coefficient of its top monomial."""
    from weilspin.exteralg import Multivector

    out = {}
    for m, c in mv.terms.items():
        m1, m2 = pa.split_mask(m)
        if m1 == pa.first.top_mask:
            out[m2] = c
    return Multivector(pa.second, out)


def fm_along_reference(pa, sign):
    """Reference for `fmtransform.complement_transform(pa.first, pa.second, sign)`:
    pull back, wedge with the kernel exp(poincare_class(pa, sign)), integrate
    over the first factor."""
    from weilspin.exteralg import Multivector, exp_even, wedge
    from weilspin.fmtransform import TransformMap, poincare_class

    kernel = exp_even(poincare_class(pa, sign))
    one = pa.space.tower.one()

    def fn(mask):
        return pushforward_first(pa, wedge(embed_first(pa, Multivector(pa.first, {mask: one})), kernel))

    return TransformMap(pa.first, pa.second, fn)


def shear_reference(orl, sign):
    """Reference for `OrlovTransform.shear`: the pullback of (x, y) -> (x + sign y, y)
    on H*(X x X), one `wedge` per generator of the monomial.  sign = -1 gives
    the pullback of mu's inverse, which is mu's pushforward."""
    from weilspin.exteralg import Multivector, wedge
    from weilspin.fmtransform import TransformMap

    pa = orl.pa_xx
    one = orl.tower.one()
    sone = one if sign > 0 else -one

    def fn(mask):
        m1, m2 = pa.split_mask(mask)
        out = pa.space.one()
        for i in range(pa.shift):
            if m1 >> i & 1:
                out = wedge(out, Multivector(pa.space, {1 << i: one, 1 << (pa.shift + i): sone}))
        for i in range(pa.shift):
            if m2 >> i & 1:
                out = wedge(out, Multivector(pa.space, {1 << (pa.shift + i): one}))
        return out

    return TransformMap(pa.space, pa.space, fn)


def phiH_inverse_reference(orl):
    """The inverse of `OrlovTransform.phiH`, H*(X x Xhat) -> H*(X x X): the
    kernel transform Xhat -> X of `fm_along_reference` on the second factor,
    then mu's pushforward `shear_reference(orl, -1)`."""
    from weilspin.exteralg import Multivector
    from weilspin.fmtransform import POINCARE_SIGN_HAT_FIRST, ProductAlgebra, TransformMap

    pa_xx, pa_xy = orl.pa_xx, orl.pa_xy
    hat_to_un = fm_along_reference(ProductAlgebra(orl.sy, orl.sx), POINCARE_SIGN_HAT_FIRST)
    mu_push = shear_reference(orl, -1)

    def fn(mask):
        m1, m2 = pa_xy.split_mask(mask)
        img = hat_to_un.image_of_mask(m2)
        return mu_push(Multivector(pa_xx.space, {m1 | (mm << pa_xx.shift): cc for mm, cc in img.terms.items()}))

    return TransformMap(pa_xy.space, pa_xx.space, fn)


def eta_rq_reference(datum, w):
    """Reference for `weilcm.CmAction`'s eta(sqrt(-q)): M D M^-1, where M has
    as columns the rows of W then those of iota(W), and D is diagonal with
    sqrt(-q) on the W columns and -sqrt(-q) on the others; an exact inverse
    of a 4n x 4n matrix over the tower field."""
    from weilspin import linalg

    t = datum.tower
    dim, n2 = 4 * datum.n, 2 * datum.n
    cols = w.basis + [[c.iota() for c in row] for row in w.basis]
    m = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    rq, zero = t.sqrt_minus_q(), t.zero()
    diag = [[(rq if i < n2 else -rq) if i == j else zero for j in range(dim)] for i in range(dim)]
    return mat_mul(mat_mul(m, diag, t), linalg.mat_inverse(m, t), t)


def eigenspace_reference(eta, sigma):
    """Reference for `weilcm.eigenspaces`: V_sigma as the joint kernel of
    eta(sqrt(-q)) - sigma(sqrt(-q)) and, when F != Q, eta(sqrt(p)) - sigma(sqrt(p))."""
    from weilspin import linalg

    t = eta.datum.tower
    roots = [t.sqrt_minus_q(), t.sqrt_p()] if t.p != 1 else [t.sqrt_minus_q()]
    rows = []
    for root in roots:
        s = sigma(root)
        rows.extend([x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(eta_of(eta, root)))
    return linalg.nullspace(rows, 4 * eta.datum.n, t)


def eta_reference(datum):
    """Reference for `weilcm.CmAction`: eta(e_k) on the tower basis
    e = (1, sqrt p, sqrt -q, sqrt p sqrt -q) as `FieldElem` matrices, assembled
    block by block: eta(sqrt(-q))(x, y) = (-q Theta y, Theta^-1 x) for the
    rational Theta, eta(sqrt(p)) = diag(eta_hat, eta_hat^T) and
    eta(sqrt(p) sqrt(-q)) their product; None for e_1 and e_3 when F = Q."""
    from weilspin import linalg

    t = datum.tower
    dim, n2 = 4 * datum.n, 2 * datum.n
    theta = datum.theta_q_matrix()
    theta_inv = linalg.mat_inverse(theta, t)
    minus_q = t.scalar(-t.q)
    eta_rq, eta_rp = ([[t.zero()] * dim for _ in range(dim)] for _ in range(2))
    for i in range(n2):
        for j in range(n2):
            eta_rq[i][n2 + j] = theta[i][j] * minus_q
            eta_rq[n2 + i][j] = theta_inv[i][j]
            eta_rp[i][j] = datum.eta_hat[i][j]
            eta_rp[n2 + i][n2 + j] = datum.eta_hat[j][i]
    if t.p == 1:
        return [identity_matrix(dim, t), None, eta_rq, None]
    return [identity_matrix(dim, t), eta_rp, eta_rq, mat_mul(eta_rp, eta_rq, t)]


def random_f_q_datum(rng, n):
    """A seeded valid datum with F = Q: a polarisation type (d_1|...|d_n),
    Theta = g^T J_D g for J_D = sum_i d_i y_i ^ y_(i+n) and a unimodular g
    (a product of elementary column operations), the dual F-basis the
    columns of g^-1, and q = a/b.  Then b_a^T Theta b_c = J_D[a][c], which
    is 0 for a, c < n, so the first half of the basis is Theta-isotropic."""
    from fractions import Fraction

    from weilspin.weilcm import WeilDatum

    dim = 2 * n
    types = sorted(rng.randint(1, 6) for _ in range(n))
    theta0 = [[0] * dim for _ in range(dim)]
    for i, d in enumerate(types):
        theta0[i][i + n], theta0[i + n][i] = d, -d
    g = [[int(i == j) for j in range(dim)] for i in range(dim)]
    ginv = [row[:] for row in g]
    for _ in range(rng.randint(0, 3 * dim)):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in range(dim):
            g[r][j] += c * g[r][i]  # g <- g (I + c E_ij)
            ginv[i][r] -= c * ginv[j][r]  # g^-1 <- (I - c E_ij) g^-1
    theta = [[sum(g[k][a] * theta0[k][l] * g[l][b] for k in range(dim) for l in range(dim))
              for b in range(dim)] for a in range(dim)]
    q = Fraction(rng.randint(1, 12), rng.randint(1, 5))
    return WeilDatum(TowerSpec(1, q), n, [[int(i == j) for j in range(dim)] for i in range(dim)], theta,
                     [list(col) for col in zip(*ginv)], name=f"random-{'-'.join(map(str, types))}")


def large_integer_datum():
    """The principal sixfold with Theta scaled by 10^6+3 and q = (10^9+7)/3:
    eta, its Gram matrices and the cleared g_B generators are past int64."""
    from fractions import Fraction

    from weilspin.weilcm import WeilDatum

    s = 10**6 + 3
    eta_hat = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    theta = [[0] * 6 for _ in range(6)]
    for i, j in ((0, 3), (1, 4), (2, 5)):
        theta[i][j] = s
        theta[j][i] = -s
    return WeilDatum(TowerSpec(1, Fraction(10**9 + 7, 3)), 3, eta_hat, theta, name="big")


def int_derivation_cols(mat):
    """Reference sparse-column form of a dense matrix: for each generator g,
    the (i, entry) pairs of the nonzero entries of column g."""
    n = len(mat)
    return [[(i, mat[i][j]) for i in range(n) if mat[i][j] != 0] for j in range(n)]


def kappa_reference(c):
    """Reference for `secantpipe.kappa`: ch * exp(-c1/rank) as the Horner sum
    of the terms c ^ w^j / j! (w = -c1/rank), each the previous one wedged
    with w / j through `wedge`, on `FieldElem` coefficients."""
    from fractions import Fraction

    from weilspin.exteralg import wedge

    r = c.terms.get(0)
    if r is None or r.is_zero():
        raise ValueError("kappa requires nonzero rank")
    w = c.degree_part(2).scale(-r.inv())
    out = term = c
    j = 0
    while True:
        j += 1
        term = wedge(term, w.scale(Fraction(1, j)))
        if term.is_zero():
            return out
        out = out + term


def pair_f(space, eta, u, v):
    """Reference for `WeilStructure.pairing_gram`: the F-valued refinement of
    the pairing, (u, v) / 2 + sqrt(p) (u, eta(sqrt p) v) / 2p, recovered
    from the trace form; the pairing itself when F = Q."""
    from fractions import Fraction

    t = space.tower
    base = space.pair(u, v)
    if t.p == 1:
        return base
    twisted = space.pair(u, mat_vec(eta_of(eta, t.sqrt_p()), v, t))
    return base * Fraction(1, 2) + twisted * (t.sqrt_p() * Fraction(1, 2 * t.p))


def eta_of(eta, t_elem):
    """eta_t for t in K as `FieldElem` rows, read off `CmAction.int_of`."""
    return linalg.k_rows(eta.datum.tower, eta.int_of(t_elem))


def eta_of_reference(eta, t_elem):
    """Reference for `CmAction.of`: eta_t = sum_k t_k eta(e_k) over the tower
    basis, on the `FieldElem` matrices of `eta_reference`."""
    mats = [m for m in eta_reference(eta.datum) if m is not None]
    coords = [t_elem.component(k) for k in ((0, 1, 2, 3) if len(mats) == 4 else (0, 2))]
    dim = len(mats[0])
    return [[sum((m[i][j] * c for m, c in zip(mats, coords)), t_elem.tower.zero()) for j in range(dim)]
            for i in range(dim)]


def xi_form_reference(eta, t_elem, space):
    """Reference for `weilcm.xi_form_matrix`: the matrix of Xi_t(u, v) =
    (eta_t u, v)_V as `FieldElem` rows, alternating and rational for t in K_-.

    (eta_t e_i, e_j) is the coordinate of eta_t e_i at partner(j)."""
    if t_elem.iota() != -t_elem:
        raise ValueError("Xi_t requires t in the -1 eigenspace of iota")
    m = eta_of(eta, t_elem)
    return [[m[space.partner(j)][i] for j in range(space.dim_v)] for i in range(space.dim_v)]


def xi_f(space, eta, t_elem, u, v):
    """Reference for the F-valued refinement Xi_t^F(u, v) = (eta_t u, v)_F."""
    return pair_f(space, eta, mat_vec(eta_of_reference(eta, t_elem), u, space.tower), v)


def hermitian_form(space, eta, t_elem, u, v):
    """Reference for `WeilStructure.hermitian_gram`: H_t(u, v) =
    (-t^2) (u,v)_F + t Xi_t^F(u, v), evaluated by the vector formulas."""
    t2 = t_elem * t_elem
    return (-t2) * pair_f(space, eta, u, v) + t_elem * xi_f(space, eta, t_elem, u, v)
