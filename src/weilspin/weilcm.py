"""Assembly of the Weil structure attached to (eta_hat, Theta, q).

Starting from a real-multiplication action eta_hat on H1(X) and a compatible
nondegenerate alternating class Theta, this module constructs, in order: the
family of pure spinors exp(sqrt(-q) Theta_T) and their maximal isotropic
subspaces W_T, indexed by CM-types, whose all-plus member is the exponential
spinor with its rational halves and the subspace W; the complex
multiplication eta of K on V = H1(X) + H1(Xhat); the rational secant
space B, the alternating forms Xi_t and hermitian forms H_t, the Weil
subspace of middle exterior degree, and the annihilator Lie algebra g_B of
the secant space.  Every construction is exact.  The CM stage is a set of
closed forms in (Theta, q): eta(sqrt(-q)) is (x, y) -> (-q Theta y,
Theta^-1 x), each character space V_sigma is read off W or iota(W), and the
rational halves of the spinor are its coordinates; none solves a system.

The forms are checked through Gram matrices in exact integer form (the
K-valued arrays of `linalg`), built once per structure on first use:
(u, v) = u^T J v for the partner permutation J; Xi_t(u, v) = (eta_t u, v)
= u^T eta(t)^T J v (`xi_form_matrix`); (u, v)_F = u^T P_F v with
P_F = J / 2 + sqrt(p) J eta(sqrt p) / 2p (P_F = J when F = Q);
Xi_t^F(u, v) = (eta_t u, v)_F = u^T eta(t)^T P_F v; H_t(u, v) = u^T G_t v
with G_t = (-t^2) P_F + t eta(t)^T P_F, so H_t(eta_s u, v) =
u^T eta(s)^T G_t v and H_t(u, eta_s v) = u^T G_t eta(s) v.  Each W_T is held
only as the K-valued M_T of b = sqrt(-q) Theta_T, W_T being its graph
{(M_T y, y)} (`build_W`; rows come from `linalg.graph_rows`), which a
rational matrix [[P, Q], [R, S]] preserves exactly when P M_T + Q =
M_T (R M_T + S) (`linalg.preserves_graph`).

Group-level invariance statements are verified at the Lie-algebra level
throughout: g_B is cut out by the spin action (with its normal-ordering
scalar removed, which is the derivative of the group action), and invariance
of classes under the corresponding connected group is equivalent to being
killed by the derivations of g_B.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial
from math import gcd

import numpy as np

from . import linalg
from .clifford import DerivationOperators, HyperbolicSpace, SoPair
from .exteralg import (
    IntMultivector,
    Multivector,
    column_rows,
    degree_two_masks,
    exp_even,
    rational_parts,
    span_basis,
    wedge,
)
from .fieldtower import (
    CMType,
    Embedding,
    FieldElem,
    TowerSpec,
    enumerate_cm_types,
    f_embeddings,
    k_embeddings,
    parse_rational,
)
from .linalg import int_dtype, k_equal, k_form, k_mul, k_stack


class WeilDatum:
    """Input data: tower, half-dimension n, eta_hat matrix, Theta.

    eta_hat is the matrix of the action of sqrt(p) on H1(X, Q) in the fixed
    basis x_1..x_2n (the identity when p = 1).  theta_f is the 2n x 2n
    alternating matrix of F-values Theta(y_i, y_j) on the dual basis; its
    entrywise trace to Q gives the coefficients of Theta as an element of
    the second exterior power of H1(X).
    """

    __slots__ = ("tower", "n", "eta_hat", "theta_f", "dual_f_basis", "name")

    def __init__(self, tower: TowerSpec, n: int, eta_hat, theta_f, dual_f_basis=None, name=""):
        self.tower = tower
        self.n = n
        self.name = name
        dim = 2 * n
        t = tower
        self.eta_hat = [[t.scalar(x) for x in row] for row in eta_hat]
        self.theta_f = [[t.scalar(x) for x in row] for row in theta_f]
        if len(self.eta_hat) != dim or any(len(r) != dim for r in self.eta_hat):
            raise ValueError("eta_hat must be 2n x 2n")
        if len(self.theta_f) != dim or any(len(r) != dim for r in self.theta_f):
            raise ValueError("theta must be 2n x 2n")
        if dual_f_basis is None:
            if tower.p != 1:
                raise ValueError("dual_f_basis is required when F is quadratic")
            dual_f_basis = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
        self.dual_f_basis = [[t.scalar(x) for x in row] for row in dual_f_basis]
        self._validate()

    @property
    def d(self) -> int:
        """dim_K of V: d * e = 4n."""
        return 4 * self.n // self.tower.e

    def _validate(self):
        t, dim = self.tower, 2 * self.n
        eta_hat, theta = k_form(self.eta_hat), k_form(self.theta_f)
        # eta_hat satisfies its minimal polynomial t^2 - p
        if not k_equal(k_mul(t, eta_hat, eta_hat), (t.p * np.eye(dim, dtype=int_dtype(t.p))[None], 1)):
            raise ValueError("eta_hat does not square to p * id")
        if eta_hat[0][1:].any():
            raise ValueError("eta_hat must be a rational matrix")
        # theta alternating with values in F
        for i in range(dim):
            for j in range(dim):
                x = self.theta_f[i][j]
                if not x.in_subfield("F"):
                    raise ValueError("theta entries must lie in F")
                if x != -self.theta_f[j][i]:
                    raise ValueError("theta must be alternating")
        # F-bilinearity: applying eta_hat to a slot multiplies by sqrt(p)
        if t.p != 1 and not k_equal(k_mul(t, eta_hat, theta), k_mul(t, (np.array([0, 1]), 1), theta, np.multiply)):
            raise ValueError("theta is not F-bilinear for the eta_hat action")
        # first half of the F-basis of H1(Xhat) must be Theta-isotropic
        d = self.d
        if d % 2:
            raise ValueError(f"d = dim_F H^1(X) must be even, as Theta is a nondegenerate alternating F-form (d = {d})")
        if len(self.dual_f_basis) != d:
            raise ValueError("dual_f_basis must have d vectors")
        if any(len(row) != dim for row in self.dual_f_basis):
            raise ValueError("dual_f_basis rows must have 2n entries")
        half = k_form(self.dual_f_basis[: d // 2])
        if k_mul(t, k_mul(t, half, theta), (half[0].swapaxes(-1, -2), half[1]))[0].any():
            raise ValueError("first half of dual_f_basis is not Theta-isotropic")
        # eta(sqrt(-q)), which sends (x, y) to (-q Theta y, Theta^-1 x), needs
        # Theta^-1 (`CmAction`)
        if linalg.rank(self.theta_q_matrix(), t) < dim:
            raise ValueError("Theta is degenerate")

    def theta_q_matrix(self):
        """Entrywise trace to Q: coefficients of Theta in wedge^2 H1(X)."""
        deg = self.tower.f_degree
        return [[x.component(0) * deg for x in row] for row in self.theta_f]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tower": self.tower.to_json(),
            "n": self.n,
            "eta_hat": [[[x.as_rational().numerator, x.as_rational().denominator] for x in row] for row in self.eta_hat],
            "theta": [[x.to_json()[:2] for x in row] for row in self.theta_f],
            "dual_f_basis": [[[x.as_rational().numerator, x.as_rational().denominator] for x in row] for row in self.dual_f_basis],
        }

    @classmethod
    def from_json(cls, data: dict) -> "WeilDatum":
        tower = TowerSpec.from_json(data["tower"])
        n = int(data["n"])
        eta_hat = [[parse_rational(x) for x in row] for row in data["eta_hat"]]
        theta = [[tower.elem(*[parse_rational(c) for c in x]) for x in row] for row in data["theta"]]
        dfb = data.get("dual_f_basis")
        if dfb is not None:
            dfb = [[parse_rational(x) for x in row] for row in dfb]
        return cls(tower, n, eta_hat, theta, dfb, name=data.get("name", ""))


# -- construction steps --------------------------------------------------------


def build_spinor(expo: Multivector):
    """The rational halves (alpha, beta) of expo = alpha + sqrt(-q) beta.

    expo = exp(sqrt(-q) Theta) with Theta rational has its coefficients in
    Q(sqrt(-q)), so alpha and beta are its 1 and sqrt(-q) coordinates."""
    parts = rational_parts(expo)
    return parts[0], parts[2]


def build_W(space: HyperbolicSpace, b: Multivector):
    """The K-valued M, M[i][j] = c and M[j][i] = -c at each term c x_i ^ x_j
    (i < j) of a 2-form b on the x-block, whose graph W = {(M y, y)} is the
    annihilator of exp(b): its row (M e_j, e_j) is y_j - iota_(y_j) b, and
    (y_j - iota_(y_j) b) exp(b) = iota_(y_j) exp(b) - iota_(y_j) b ^ exp(b) = 0.
    The graph of any M is 2n-dimensional, its y-part being free, and it is
    isotropic, so maximal, exactly when M is alternating: (M y, y) pairs with
    (M z, z) to y^T (M + M^T) z."""
    t, n2 = space.tower, 2 * space.n
    m = [[t.zero()] * n2 for _ in range(n2)]
    for mask, c in b.terms.items():
        lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        m[lo][hi], m[hi][lo] = c, -c
    return k_form(m)


class CmAction:
    """The embedding eta of K into rational endomorphisms of V = H1(X) + H1(Xhat).

    On (x, y), x in the x-block and y in the y-block, eta(sqrt(-q))(x, y) =
    (-q Theta y, Theta^-1 x) for the rational Theta of
    `WeilDatum.theta_q_matrix`.  W has rows (-sqrt(-q) Theta[j], e_j) and
    iota(W) rows (sqrt(-q) Theta[j], e_j) (`build_W`), so
    v = sum c_j w_j + sum d_j iota(w_j) has y = c + d and
    x = sqrt(-q) Theta (c - d).  eta(sqrt(-q)) multiplies the W part by
    sqrt(-q) and the iota(W) part by -sqrt(-q): the image has y-part
    sqrt(-q) (c - d) = Theta^-1 x and x-part sqrt(-q) Theta sqrt(-q) (c + d)
    = -q Theta y.  eta(sqrt(p)) is eta_hat on the x-block and its adjoint on
    the y-block.

    `ints` is (E, D), E[k] / D the rational matrix of eta(e_k) on the tower
    basis e = (1, sqrt p, sqrt -q, sqrt p sqrt -q), in closed form.  With
    Theta, Theta^-1, eta_hat the integer Tn, Tin, Hn over one denominator d
    (`int_form`, which raises on an irrational entry, so E / D is rational by
    construction) and -q = -qn / qd: D = qd d^2, E[0] = D I,
    E[1] = qd d diag(Hn, Hn^T), E[2] = d [[0, -qn Tn], [qd Tin, 0]] and
    E[3] = [[0, -qn Hn Tn], [qd Hn^T Tin, 0]], their product block by block;
    E[1] = E[3] = 0 when F = Q.  Both are then divided by their gcd, so D is
    the least common denominator.  Every entry is below 2n max(qn, qd)
    max(d, |Tn|, |Tin|, |Hn|)^2, int64 under that bound (`int_dtype`).
    """

    __slots__ = ("datum", "ints")

    def __init__(self, datum: WeilDatum):
        self.datum = datum
        t, n2 = datum.tower, 2 * datum.n
        theta = datum.theta_q_matrix()
        rows, d = linalg.int_form(theta + linalg.mat_inverse(theta, t) + datum.eta_hat)
        height = max(d, *(abs(x) for row in rows for x in row))
        dtype = int_dtype(n2 * max(t.qn, t.qd) * height * height)
        tn, tin, hn = np.array(rows, dtype=dtype).reshape(3, n2, n2)
        D = t.qd * d * d
        E = np.zeros((4, 2 * n2, 2 * n2), dtype=dtype)
        E[0] = D * np.eye(2 * n2, dtype=dtype)
        E[2, :n2, n2:], E[2, n2:, :n2] = -t.qn * d * tn, t.qd * d * tin
        if t.p != 1:
            E[1, :n2, :n2], E[1, n2:, n2:] = t.qd * d * hn, t.qd * d * hn.T
            E[3, :n2, n2:], E[3, n2:, :n2] = -t.qn * (hn @ tn), t.qd * (hn.T @ tin)
        g = gcd(D, *E.ravel().tolist())
        self.ints = E // g, D // g

    def int_of(self, elem: FieldElem):
        """eta_t = sum_k t_k eta(e_k) for t in K, as a rational K-valued array."""
        (E, D), t = self.ints, self.datum.tower
        if t.p == 1 and (elem.n[1] or elem.n[3]):
            raise ValueError("element not in K")
        dtype = int_dtype(4 * max(map(abs, elem.n)) * int(abs(E).max()))
        nums = sum((c * E[k].astype(dtype) for k, c in enumerate(elem.n) if c), np.zeros(E.shape[1:], dtype))
        return nums[None], elem.d * D

    def k_basis(self):
        t = self.datum.tower
        basis = [t.one(), t.sqrt_minus_q()]
        if t.p != 1:
            basis = [t.one(), t.sqrt_p(), t.sqrt_minus_q(), t.sqrt_p() * t.sqrt_minus_q()]
        return basis

    def k_minus_basis(self):
        t = self.datum.tower
        basis = [t.sqrt_minus_q()]
        if t.p != 1:
            basis.append(t.sqrt_p() * t.sqrt_minus_q())
        return basis


def build_eta(datum: WeilDatum) -> CmAction:
    """The CM stage of the build; `perfbench/tracer.py` times it under this name."""
    return CmAction(datum)


def theta_cm_twist(datum: WeilDatum, space: HyperbolicSpace, cm_type: CMType) -> Multivector:
    """The element Theta_T whose exponential is the pure spinor of W_T.

    Theta is the sum of sigma(theta_f) over the embeddings sigma of F, and
    since eta_hat theta_f = sqrt(p) theta_f (`WeilDatum._validate`) these
    are its sqrt(p)-eigencomponents.  A CM-type picks a sign s_sigma of
    sqrt(-q) for each, so Theta_T is the sum of s_sigma sigma(theta_f).
    """
    n2 = 2 * datum.n
    out = space.sspace.zero()
    for sign_p, s in zip(f_embeddings(datum.tower), cm_type.choices):
        sigma = Embedding(sign_p, 1)
        out = out + Multivector(space.sspace, {(1 << i) | (1 << j): sigma(datum.theta_f[i][j]) * s
                                               for i in range(n2) for j in range(i + 1, n2)})
    return out


def build_WT(datum: WeilDatum, space: HyperbolicSpace, cm_type: CMType):
    """(pure spinor of W_T, graph matrix M_T of W_T) over the full tower
    field: exp(b) and `build_W(b)`, for b = sqrt(-q) Theta_T."""
    b = theta_cm_twist(datum, space, cm_type).scale(datum.tower.sqrt_minus_q())
    return exp_even(b), build_W(space, b)


def build_B(space: HyperbolicSpace, spinors):
    """Rational form of the span of the pure spinor lines: the secant space,
    as a canonical basis of multivectors on S."""
    return span_basis([part for ell in spinors for part in rational_parts(ell)])


def eigenspaces(space: HyperbolicSpace, graph, eta: CmAction):
    """The V_sigma, in the order of `k_embeddings`: V_sigma is the subspace of
    V (x) Ktilde where eta acts through sigma, as a reduced echelon basis.
    `graph` is the K-valued M of W = {(M y, y)}, the all-plus type space.

    eta(sqrt(-q)) is sqrt(-q) on W and -sqrt(-q) on iota(W) (`CmAction`), so
    V_sigma lies in W when sigma(sqrt(-q)) = sqrt(-q), else in iota(W); as
    eta is rational, V_(iota sigma) = iota(V_sigma), and iota commutes with
    the canonical rref.  eta(sqrt(p)) commutes with eta(sqrt(-q)), so it
    preserves both, and (eta(sqrt(p)) - sigma(sqrt(p))) (eta(sqrt(p)) +
    sigma(sqrt(p))) = eta(p) - p = 0: eta(sqrt(p)) + sigma(sqrt(p)) maps that
    half onto its sigma(sqrt(p))-eigenspace, which is V_sigma.  On the rows
    of W, that map is the product with (E[1] + s sqrt(p) D I)^T / D for
    sigma(sqrt p) = s sqrt p (`CmAction.ints`), one product for both s.
    """
    t = space.tower
    halves = {1: linalg.rref(linalg.graph_rows(t, graph), t)[0]}
    if t.p != 1:
        E, D = eta.ints
        shifts = np.stack([np.stack([E[1].T, s * D * np.eye(len(E[1]), dtype=E.dtype)]) for s in (1, -1)], axis=1)
        nums, den = k_mul(t, k_form(halves[1]), (shifts, D))
        halves = {s: linalg.rref(linalg.k_rows(t, (nums[:, i], den)), t)[0] for i, s in enumerate((1, -1))}
    return [halves[sigma.sign_p] if sigma.sign_q == 1 else [[c.iota() for c in row] for row in halves[sigma.sign_p]]
            for sigma in k_embeddings(t)]


def build_HW(space: HyperbolicSpace, graph, eta: CmAction):
    """Rational form of the sum of the top powers of the eta-character spaces,
    as a canonical basis of multivectors on V; `graph` as in `eigenspaces`."""
    lines = []
    for basis in eigenspaces(space, graph, eta):
        if len(basis) != eta.datum.d:
            raise ValueError("eta character space has wrong dimension")
        mv = space.vspace.one()
        for row in basis:
            mv = wedge(mv, space.vector_to_mv(row))
        if mv.is_zero():
            raise ValueError("degenerate character space wedge")
        lines.extend(rational_parts(mv))
    return span_basis(lines)


def xi_form_matrix(eta: CmAction, t_elem: FieldElem):
    """Gram matrix eta_t^T J of Xi_t(u, v) = (eta_t u, v)_V, alternating for t
    in K_-: `int_of(t)` transposed, its last axis permuted by partner.  It is
    rational by construction: `CmAction.int_of` holds e_0 alone."""
    if t_elem.iota() != -t_elem:
        raise ValueError("Xi_t requires t in the -1 eigenspace of iota")
    nums, den = eta.int_of(t_elem)
    dim = nums.shape[-1]
    return nums.swapaxes(-1, -2)[..., (np.arange(dim) + dim // 2) % dim], den


def form_to_element(space: HyperbolicSpace, gram) -> Multivector:
    """Transport an alternating 2-form, given by its K-valued Gram matrix, to
    an element of wedge^2 V.

    Uses the pairing identification of V with its dual (x_i* maps to y_i and
    conversely), which intertwines the derivation actions on forms and on
    elements.
    """
    form, partner, dim = linalg.k_rows(space.tower, gram), space.partner, space.dim_v
    pairs = ((i, j, form[partner(i)][partner(j)]) for i in range(dim) for j in range(i + 1, dim))
    return Multivector(space.vspace, {(1 << i) | (1 << j): c for i, j, c in pairs if not c.is_zero()})


def build_gB(space: HyperbolicSpace, secant):
    """Basis of {xi in wedge^2 V : the spin action of xi kills the secant space}.

    The spin action here is the derivative of the group representation: the
    Clifford action minus the normal-ordering constant.
    """
    t, deg2 = space.tower, degree_two_masks(space.dim_v)
    pairs = [SoPair(space, Multivector(space.vspace, {mask: t.one()})) for mask in deg2]
    rows = [row for b in secant for row in column_rows([pair_obj.spin(b) for pair_obj in pairs])]
    kernel = linalg.nullspace(rows, len(deg2), t)
    return [SoPair(space, Multivector(space.vspace, dict(zip(deg2, vec)))) for vec in kernel]


def generated_subalgebra_degree(space: HyperbolicSpace, generators, top: int):
    """Canonical bases (`span_basis`) of the degree-k parts, k = 0..top, of
    the subalgebra generated by homogeneous even-degree elements.

    G_0 = {1} and G_k spans {b ^ g : g a generator, b in G_(k - deg g)}: a
    product of degree k is a product of degree k - deg g times its last
    factor g, and wedge is bilinear, so this is the span of all products.
    """
    degs = [g.min_degree() for g in generators]
    out = [[space.vspace.one()]]
    for k in range(1, top + 1):
        out.append(span_basis([wedge(b, g) for g, dg in zip(generators, degs) if dg <= k
                               for b in out[k - dg]]))
    return out


def gb_int_cols(gB):
    """Integer sparse-column forms of the g_B generator matrices.

    Rescaling a whole generator rescales its derivation, so global integer
    clearing leaves every kernel and invariance question unchanged.
    """
    ints = (linalg.int_form([[c for _, c in col] for col in so.cols])[0] for so in gB)
    return [[[(i, x) for (i, _), x in zip(col, row)] for col, row in zip(so.cols, rows)]
            for so, rows in zip(gB, ints)]


def invariant_dimension_certificate(space: HyperbolicSpace, split, k: int, expected_dim: int):
    """Certify dim of the joint kernel of the g_B derivations on wedge^k V,
    given as their `WeilStructure.gb_split`.

    Returns (dim, method).

    Weight-zero start: a generator whose integer matrix is diagonal acts on
    each mask by an exact integer weight, so over Q the joint kernel of the
    diagonal generators is the coordinate subspace S spanned by the masks
    of weight 0 under all of them (S is everything when no generator is
    diagonal).  The rational joint kernel N of all generators lies in S,
    where it is the joint kernel of the other generators restricted to S.
    Their joint kernel mod p inside S (`linalg.modp_joint_kernel_dim`, with
    each derivation applied through `DerivationOperators.image` to its
    entries reduced mod p) is at least as large as N, since a rank over a
    prime field never exceeds the rank over Q; the generated rows exhibited
    by the caller lie in N.  The kernel stops once it is at most that
    bound wide, since the joint kernel of all generators lies in any
    subset's: dim N <= width = bound <= dim N is rigorous, and a width
    below the bound shows it wrong.  The reduced entries and the columns
    mapped lie in [0, p), so each signed product is at most (p-1)^2 and the
    int64 images are exact while dim^2 (p-1)^2 < 2^63 (dim <= 2896 for
    p < 2^20).  Falls back to exact elimination, on Python ints and every
    generator (a diagonal one maps S to 0), if no prime in the list
    certifies.  The modular loop binds the table of the other generators
    to S, and only the fallback binds the whole table.
    """
    if k == 0:
        return 1, "exact"
    table, weights, others = split
    start = np.flatnonzero(np.bitwise_count(np.arange(1 << space.dim_v)) == k)
    if len(weights):  # a mask's weight is sum(D[g][g] for g in the mask), exact in weights' dtype
        bits = ((start[:, None] >> np.arange(space.dim_v)) & 1).astype(weights.dtype)
        start = start[((bits @ weights.T) == 0).all(axis=1)]
        del bits  # 8 dim bytes per mask of degree k, freed before the kernels
    ops = others.bind(start)
    for p in linalg.MOD_PRIMES:
        each = (partial(ops.image, gens=range(j, j + 1), p=p) for j in range(others.count))
        dim_p = linalg.modp_joint_kernel_dim(np.eye(len(start), dtype=np.int64), each, p, expected_dim)
        if dim_p == expected_dim:
            return dim_p, f"modular certificate (p={p})"
        if dim_p < expected_dim:
            # impossible if the exact lower bound is correct; fail loudly
            return dim_p, f"modular dimension below exhibited bound (p={p})"
    # exact fallback, the last resort: only here are Python rows built
    exact = table.bind(start).image(np.eye(len(start), dtype=object), range(table.count))
    stacked = [[space.tower.scalar(x) for x in row] for row in exact.tolist() if any(row)]
    kernel = linalg.nullspace(stacked, len(start), space.tower)
    return len(kernel), "exact elimination"


class WeilStructure:
    """Everything derived from a WeilDatum, built once and shared read-only."""

    def __init__(self, datum: WeilDatum):
        self.datum = datum
        t = datum.tower
        self.space = HyperbolicSpace(datum.n, t)
        self.cm_types = enumerate_cm_types(t)
        built = [build_WT(datum, self.space, T) for T in self.cm_types]
        self.ell = {T: ell for T, (ell, _) in zip(self.cm_types, built)}
        #: the K-valued M_T with W_T = {(M_T y, y)} (`build_W`), stacked in the order of `cm_types`
        self.type_graphs = k_stack([graph for _, graph in built])
        # the all-plus CM type, listed first, has Theta_T = Theta (every sign +1)
        self.exp_spinor = self.ell[self.cm_types[0]]
        self.alpha, self.beta = build_spinor(self.exp_spinor)
        self.eta = build_eta(datum)
        self.B = build_B(self.space, [self.ell[T] for T in self.cm_types])
        self.HW = build_HW(self.space, self.type_graph(), self.eta)
        #: (t, the Gram matrix of Xi_t) for t in the basis of K_-, and the Xi_t as elements
        self.xi_grams = [(t_el, xi_form_matrix(self.eta, t_el)) for t_el in self.eta.k_minus_basis()]
        self.a2_elements = [form_to_element(self.space, gram) for _, gram in self.xi_grams]
        self.gB = build_gB(self.space, self.B)
        self.gb_cols = gb_int_cols(self.gB)

    @property
    def d(self) -> int:
        return self.datum.d

    def type_graph(self, k: int = 0):
        """M_T of the k-th CM type of `cm_types` (the all-plus type by default)."""
        nums, den = self.type_graphs
        return nums[:, k], den

    @cached_property
    def generated(self):
        """Bases of the subalgebra generated by the Xi classes and HW in every
        degree 0..4n; built on first use, so checks that never read it (the
        `lie.` family) do not pay for it."""
        return generated_subalgebra_degree(self.space, self.a2_elements + self.HW, self.space.dim_v)

    @cached_property
    def gb_table(self):
        """The `DerivationOperators` table of `gb_cols`, bound per start."""
        return DerivationOperators(self.gb_cols)

    @cached_property
    def gb_split(self):
        """The certificate's view of `gb_table`: the table, the diagonals of
        its diagonal generators, a row each (int64 while dim max|D| < 2^63,
        else Python ints), and the `DerivationOperators` table of the other
        generators, in the order of `gb_cols`."""
        diagonal = [all(i == g for g, col in enumerate(cols) for i, _ in col) for cols in self.gb_cols]
        weights = [[col[0][1] if col else 0 for col in cols] for cols, d in zip(self.gb_cols, diagonal) if d]
        bound = max((len(w) * abs(c) for w in weights for c in w), default=0)
        others = DerivationOperators([cols for cols, d in zip(self.gb_cols, diagonal) if not d])
        return self.gb_table, np.array(weights, dtype=int_dtype(bound)), others

    def gb_kills(self, *mvs) -> bool:
        """Whether every g_B derivation kills every rational multivector in
        mvs, each a `Multivector` or its `IntMultivector`.

        Exact: each mv's denominators are cleared, which rescales its images
        without changing whether they vanish.  The mvs, a column each, are
        mapped by `gb_table` bound to the masks of all their terms, every
        degree at once (its rows are keyed by destination mask): on int64
        while the bound dim^2 max|c| max|x| is below 2^63, else on Python
        ints.
        """
        forms = [mv if isinstance(mv, IntMultivector) else IntMultivector.of(mv) for mv in mvs]
        if all(f.is_zero() for f in forms):
            return True
        # not np.unique: its first call imports numpy.ma, about 17 ms per process
        start, table = np.array(sorted(set().union(*(f.masks.tolist() for f in forms)))), self.gb_table
        X = np.zeros((len(start), len(forms)),
                     dtype=int_dtype(table.dim ** 2 * table.cmax * max(f.height() for f in forms)))
        for j, f in enumerate(forms):
            X[np.searchsorted(start, f.masks), j] = f.nums
        return not table.bind(start).image(X, range(table.count)).any()

    @cached_property
    def pairing_gram(self):
        """P_F, the Gram matrix of the F-valued pairing (u, v)_F whose trace to
        Q is (u, v) = u^T J v (J permutes partners): P_F = J when F = Q, else
        J / 2 + sqrt(p) J eta(sqrt p) / 2p."""
        p, (E, D), dim = self.datum.tower.p, self.eta.ints, self.space.dim_v
        partner = (np.arange(dim) + dim // 2) % dim
        J = np.eye(dim, dtype=int_dtype(p * D))[partner]
        return (J[None], 1) if p == 1 else (np.stack([J * (p * D), E[1][partner]]), 2 * p * D)

    @cached_property
    def _hermitian_grams(self):
        return {}

    def hermitian_gram(self, t_elem: FieldElem):
        """G_t = (-t^2) P_F + t eta(t)^T P_F, the Gram matrix of
        H_t(u, v) = (-t^2) (u, v)_F + t Xi_t^F(u, v), where Xi_t^F(u, v) =
        (eta_t u, v)_F; built once per t, for t nonzero in K_-."""
        if t_elem.is_zero():
            raise ValueError("H_t requires t nonzero")
        if t_elem.iota() != -t_elem:
            raise ValueError("H_t requires t in K_-")
        if t_elem not in self._hermitian_grams:
            tower, pf, (et, den) = self.datum.tower, self.pairing_gram, self.eta.int_of(t_elem)
            xi = k_mul(tower, (et.swapaxes(-1, -2), den), pf)
            scalar = [(np.array(s.n, dtype=object), s.d) for s in (-t_elem * t_elem, t_elem)]
            self._hermitian_grams[t_elem] = k_stack([k_mul(tower, scalar[0], pf, np.multiply),
                                                     k_mul(tower, scalar[1], xi, np.multiply)], total=True)
        return self._hermitian_grams[t_elem]

    @cached_property
    def generators_invariant(self) -> bool:
        """Whether g_B kills the Xi classes and HW, by one exact `gb_kills`.  A derivation
        D has D(a ^ b) = Da ^ b + a ^ Db, so it then kills each G_k: G_k lies in N_k."""
        return self.gb_kills(*self.a2_elements, *self.HW)

    def invariants_and_generation(self, k: int):
        """(invariant dim, generated basis, equality flag, method) at degree k; the
        basis, the certificate's lower bound, lies in N_k by `generators_invariant`."""
        if not self.generators_invariant:
            raise ValueError("generated class is not g_B-invariant")
        generated = self.generated[k]
        dim, method = invariant_dimension_certificate(self.space, self.gb_split, k, len(generated))
        return dim, generated, dim == len(generated), method

    def split_witness(self):
        """K-span of the first half of the dual F-basis, with H_t vanishing on it."""
        t, n2, (E, D) = self.datum.tower, 2 * self.datum.n, self.eta.ints
        y, _ = linalg.int_form(self.datum.dual_f_basis[: self.d // 2])
        # the eta(e_k) (0, y_j), with e_k over the tower basis; rescaling a row keeps the span
        vecs = (E[:, :, n2:] @ np.array(y, dtype=object).T).transpose(2, 0, 1).reshape(-1, 2 * n2)
        return linalg.rref(linalg.k_rows(t, (vecs[vecs.any(axis=1)][None], 1)), t)[0]
