"""Algebraic curvature tensors, isotropic-curvature frame search, and the
curvature operator on two-forms.

Sign conventions, fixed once for the whole package:

* ``R[i,j,i,j]`` is the sectional curvature of span(e_i, e_j); it is +1 on
  the unit round sphere.
* ``ricci(R)[a,b] = sum_l R[a,l,b,l]``, so the round metric in dimension n
  has Ricci = (n-1) I.
* The Kulkarni-Nomizu product is
  ``(h o^ k)_{ijkl} = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il``,
  normalised so that (1/8) sigma g o^ g has isotropic curvature exactly
  sigma on every orthonormal four-frame.

The frame search evaluates the isotropic curvature of frames (x_0..x_3)
through the six pair slices H_ab = R(x_a, x_b, ., .), one n x n matrix per
slot pair, all from one (6B x n^2) by (n^2 x n^2) matrix product.  The value
is x_0'H_02 x_2 + x_0'H_03 x_3 + x_1'H_12 x_2 + x_1'H_13 x_3 - 2 x_2'H_01 x_3,
and each frame row's gradient is a sum of slices applied to frame vectors,
e.g. d/dx_0 = 2 H_02 x_2 + 2 H_03 x_3 - 2 H_23 x_1.  Only the pair
antisymmetries and the pair interchange are used, which the storage holds
exactly; the first Bianchi identity is not.

Every sigma-PIC verdict (``is_sigma_pic``, the Weitzenboeck bound check and
the band checks) is exact in dimension 4, where the minimum has a closed
form (``exact_min_isotropic``), and rests on the stochastic search
``min_isotropic`` in dimension 5 and up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exterior
from .exterior import degree_basis

__all__ = [
    "CurvTensor",
    "Frame4",
    "SearchConfig",
    "PicVerdict",
    "WeitzOperator",
    "kulkarni_nomizu",
    "constant_curvature",
    "sphere_line_product",
    "iso_curvature",
    "iso_curvature_batch",
    "min_isotropic",
    "exact_min_isotropic",
    "is_sigma_pic",
    "weitzenboeck_on_two_forms",
    "weitzenboeck_clifford_trace",
    "weitzenboeck_lower_bound_check",
    "ricci",
    "ricci_floor_lambda",
    "scalar",
    "sectional",
    "random_curvature",
    "random_pic_combination",
    "load_curvature_json",
    "curvature_to_json",
]

BIANCHI_TOL = 1e-10
FRAME_TOL = 1e-10  # Gram defect accepted by Frame4
HERMITIAN_TOL = 1e-12  # relative Hermitian defect accepted by WeitzOperator
SEARCH_MAX_ITER = 400  # frame-search descent iterations, at most
SEARCH_GRAD_TOL = 1e-10  # a restart stops below this tangent-gradient norm
SEARCH_STEP0 = 0.1  # first step of every restart


class CurvTensor:
    """Dense algebraic curvature tensor on R^n.

    Storage is the full n^4 component array.  The pair (anti)symmetries are
    required exactly; the first Bianchi identity is validated to 1e-10 but
    not enforced by the storage.
    """

    __slots__ = ("n", "R")

    def __init__(self, components, validate: bool = True):
        R = np.asarray(components, dtype=float)
        if R.ndim != 4 or len(set(R.shape)) != 1:
            raise ValueError(f"curvature components must be n^4, got shape {R.shape}")
        self.n = R.shape[0]
        self.R = R
        if validate:
            self.validate()

    def validate(self):
        R = self.R
        if not np.all(np.isfinite(R)):
            raise ValueError("curvature components must be finite")
        if not np.array_equal(R, -np.swapaxes(R, 0, 1)):
            raise ValueError("antisymmetry in the first index pair fails")
        if not np.array_equal(R, -np.swapaxes(R, 2, 3)):
            raise ValueError("antisymmetry in the second index pair fails")
        if not np.array_equal(R, np.transpose(R, (2, 3, 0, 1))):
            raise ValueError("pair-interchange symmetry fails")
        defect = self.bianchi_defect()
        if defect > BIANCHI_TOL:
            raise ValueError(f"first Bianchi identity violated by {defect:.3e}")

    def bianchi_defect(self) -> float:
        R = self.R
        return float(np.max(np.abs(R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3)))))

    def __add__(self, other: "CurvTensor") -> "CurvTensor":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return CurvTensor(self.R + other.R, validate=False)

    def __mul__(self, s) -> "CurvTensor":
        return CurvTensor(self.R * float(s), validate=False)

    __rmul__ = __mul__


def kulkarni_nomizu(h, k) -> CurvTensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if h.shape != k.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"incompatible shapes {h.shape} and {k.shape}")
    if not np.array_equal(h, h.T) or not np.array_equal(k, k.T):
        raise ValueError("Kulkarni-Nomizu factors must be symmetric")
    # Assemble as U - swap01(U), then pair-symmetrise: each required symmetry
    # then holds bit-exactly, not just up to rounding.
    U = np.einsum("ik,jl->ijkl", h, k) - np.einsum("il,jk->ijkl", h, k)
    R = U - np.swapaxes(U, 0, 1)
    R = 0.5 * (R + np.transpose(R, (2, 3, 0, 1)))
    return CurvTensor(R)


def constant_curvature(n: int, kappa: float = 1.0) -> CurvTensor:
    """Sectional curvature kappa everywhere: (kappa/2) g o^ g."""
    return kulkarni_nomizu(np.eye(n), np.eye(n)) * (0.5 * kappa)


def sphere_line_product(n: int, kappa: float) -> CurvTensor:
    """S^{n-1} x R with sectional curvature kappa on the sphere factor:
    (kappa/2) h o^ h for h the metric of the first n-1 directions."""
    h = np.zeros((n, n))
    h[: n - 1, : n - 1] = np.eye(n - 1)
    return kulkarni_nomizu(h, h) * (0.5 * kappa)


def _gram_defect(X) -> float:
    return float(np.max(np.abs(X @ X.T - np.eye(4))))


class Frame4:
    """Four orthonormal vectors in R^n, stored as a 4 x n matrix of rows."""

    __slots__ = ("n", "vectors")

    def __init__(self, vectors):
        X = np.asarray(vectors, dtype=float)
        if X.ndim != 2 or X.shape[0] != 4:
            raise ValueError(f"frame must be 4 x n, got {X.shape}")
        self.n = X.shape[1]
        if self.n < 4:
            raise ValueError("ambient dimension must be at least 4")
        defect = _gram_defect(X)
        if defect > FRAME_TOL:
            raise ValueError(f"frame is not orthonormal, Gram defect {defect:.3e}")
        self.vectors = X

    @staticmethod
    def standard(n: int) -> "Frame4":
        return Frame4(np.eye(n)[:4])


def iso_curvature(R: CurvTensor, frame) -> float:
    """R_1313 + R_1414 + R_2323 + R_2424 - 2 R_1234 on an orthonormal frame."""
    X = frame.vectors if isinstance(frame, Frame4) else np.asarray(frame, dtype=float)
    if _gram_defect(X) > 1e-8:
        raise ValueError("frame is not orthonormal within 1e-8")
    return float(_iso_batch(R.R, X[None])[0])


def iso_curvature_batch(R: CurvTensor, frames: np.ndarray) -> np.ndarray:
    """Vectorised isotropic curvature over a batch of frames (B, 4, n)."""
    return _iso_batch(R.R, np.asarray(frames, dtype=float))


# The six slot pairs (a, b) of a frame, in the order 01, 02, 03, 12, 13, 23.
_PAIR_A = np.array([0, 0, 0, 1, 1, 2])
_PAIR_B = np.array([1, 2, 3, 2, 3, 3])
# The two frame rows each pair slice is applied to in the gradient.
_GRAD_ROWS = np.array([[2, 3], [0, 2], [0, 3], [1, 2], [1, 3], [0, 1]])


def _pair_slices(R: np.ndarray, X: np.ndarray):
    """Outer products P[B,p] = x_a (x) x_b and pair slices
    H[B,p] = R(x_a, x_b, ., .) of every slot pair, in one matrix product."""
    B, _, n = X.shape
    P = X[:, _PAIR_A, :, None] * X[:, _PAIR_B, None, :]
    H = (P.reshape(6 * B, n * n) @ R.reshape(n * n, n * n)).reshape(B, 6, n, n)
    return P, H


def _iso_batch(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    P, H = _pair_slices(R, X)
    B = X.shape[0]
    # <H_ab, x_c (x) x_d> = R(x_a, x_b, x_c, x_d): slices 02, 03, 12, 13
    # against their own outer products, slice 01 against 23
    T = np.einsum("Bpm,Bpm->Bp", H.reshape(B, 6, -1)[:, :5], P.reshape(B, 6, -1)[:, [5, 1, 2, 3, 4]])
    return T[:, 1] + T[:, 2] + T[:, 3] + T[:, 4] - 2.0 * T[:, 0]


def _iso_grad_batch(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the isotropic curvature with respect to the
    frame rows, as pair slices applied to frame vectors (x'H_ab = -H_ab x)."""
    _, H = _pair_slices(R, X)
    HX = H @ np.swapaxes(X[:, _GRAD_ROWS], 2, 3)  # HX[B,p,:,c] = H_p x_{_GRAD_ROWS[p,c]}
    (h01x2, h01x3), (h02x0, h02x2), (h03x0, h03x3), (h12x1, h12x2), (h13x1, h13x3), (h23x0, h23x1) = (
        np.moveaxis(HX, (1, 3), (0, 1))
    )
    return 2.0 * np.stack([h02x2 + h03x3 - h23x1, h12x2 + h13x3 + h23x0,
                           -(h02x0 + h12x1 + h01x3), h01x2 - h03x0 - h13x1], axis=1)


def _retract(Y: np.ndarray) -> np.ndarray:
    """Batched QR retraction onto orthonormal 4-frames, sign-fixed for determinism."""
    Q, Rm = np.linalg.qr(np.swapaxes(Y, 1, 2))
    diag = np.einsum("Bii->Bi", Rm)
    signs = np.where(diag < 0, -1.0, 1.0)
    return np.swapaxes(Q * signs[:, None, :], 1, 2)


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the stochastic frame search over orthonormal 4-frames
    (the descent runs on the SEARCH_* constants)."""

    restarts: int = 512
    seed: int = 0
    tolerance: float = 1e-9


def min_isotropic(R: CurvTensor, cfg: SearchConfig = SearchConfig()):
    """Best local minimum of the isotropic curvature found by projected
    gradient descent from ``cfg.restarts`` random orthonormal starts.

    Returns ``(value, argmin_frame)``.  Deterministic given ``cfg.seed``;
    the reported value is the minimum over every frame evaluated during
    the search, reduced in (value, restart index) order.

    Each iteration works on the live restarts only.  A restart retires
    when its tangent gradient drops below SEARCH_GRAD_TOL (after that
    iteration's trial) or when its step falls below 1e-14; the latter
    still takes one trial at its halved step.  A retired restart's frame
    and step no longer change, so it would only repeat its last trial.
    """
    n = R.n
    if n < 4:
        raise ValueError("isotropic curvature needs ambient dimension >= 4")
    rng = np.random.default_rng(cfg.seed)
    B = cfg.restarts
    X = _retract(rng.standard_normal((B, 4, n)))
    vals = _iso_batch(R.R, X)
    best_vals = vals.copy()
    best_X = X.copy()
    step = np.full(B, SEARCH_STEP0)
    active = np.ones(B, dtype=bool)
    last_trial = np.zeros(B, dtype=bool)  # retired by the step floor, one trial left

    for _ in range(SEARCH_MAX_ITER):
        if not active.any():
            break
        live = np.flatnonzero(active | last_trial)
        Xl, stepl, act = X[live], step[live], active[live]
        G = _iso_grad_batch(R.R, Xl)
        # tangent projection for row-orthonormal X: G - sym(G X^T) X
        M = np.einsum("Bij,Bkj->Bik", G, Xl)
        sym = 0.5 * (M + np.swapaxes(M, 1, 2))
        Gt = G - np.einsum("Bik,Bkj->Bij", sym, Xl)
        gnorm2 = np.einsum("Bij,Bij->B", Gt, Gt)
        act &= gnorm2 > SEARCH_GRAD_TOL**2
        if not act.any():
            break
        Y = _retract(Xl - stepl[:, None, None] * Gt)
        vY = _iso_batch(R.R, Y)
        accept = act & (vY <= vals[live] - 1e-4 * stepl * gnorm2)
        acc = live[accept]
        X[acc] = Y[accept]
        vals[acc] = vY[accept]
        step[acc] = np.minimum(step[acc] * 1.5, 1.0)
        rej = live[act & ~accept]
        step[rej] *= 0.5
        active[live] = act
        floored = rej[step[rej] <= 1e-14]
        active[floored] = False
        last_trial[:] = False
        last_trial[floored] = True
        upd = vY < best_vals[live]  # track every evaluated frame, accepted or not
        best_vals[live[upd]] = vY[upd]
        best_X[live[upd]] = Y[upd]

    order = np.lexsort((np.arange(B), best_vals))
    k = order[0]
    return float(best_vals[k]), Frame4(_retract(best_X[k][None])[0])


@lru_cache(maxsize=None)
def _hodge_eigenbases():
    """Orthonormal bases (as columns over e_i ^ e_j, i < j) of the self-dual
    and the anti-self-dual two-forms on R^4: the +1 and -1 eigenspaces of the
    Hodge star, read off alpha ^ beta = <*alpha, beta> e_1 ^ e_2 ^ e_3 ^ e_4.
    For alpha = e_i ^ e_j, alpha ^ beta = e_i ^ (e_j ^ beta)."""
    wedge = np.einsum("iab,jbc->ijc", exterior.wedge_stack(4, 3), exterior.wedge_stack(4, 2))
    star = np.array([wedge[i - 1, j - 1] for i, j in degree_basis(4, 2)])
    _, vecs = np.linalg.eigh(star)  # eigenvalues -1, -1, -1, 1, 1, 1
    return vecs[:, 3:], vecs[:, :3]


def exact_min_isotropic(R: CurvTensor):
    """Exact minimum of the isotropic curvature in dimension 4, with a frame
    attaining it.  Returns ``(value, frame)`` like :func:`min_isotropic`.

    A positively (negatively) oriented frame's isotropic curvature is
    2 <R u1, u1> + 2 <R u2, u2> for orthonormal self-dual (anti-self-dual)
    two-forms u1, u2 spanning the complement of its Kaehler form, minus
    (plus) 2 beta, where beta = R_0123 + R_0231 + R_0312 is the first
    Bianchi defect, 0 for a valid tensor.  The minimum is therefore
    2 min(a1 + a2 - beta, b1 + b2 + beta) over the two smallest eigenvalues
    of R compressed to the self-dual (a) and anti-self-dual (b) two-forms
    (Micallef and Wang, Duke Math. J. 72, 1993).  The witness is the frame
    whose Kaehler form is the top eigenvector w of the chosen side: with
    J = sqrt(2) W, W the matrix of w, J^2 = -I and the frame
    (x_0, J'x_0, x_2, J'x_2) for x_0 = e_0 and a unit x_2 orthogonal to the
    first two carries the orientation of that side.
    """
    if R.n != 4:
        raise ValueError(f"the closed form holds in dimension 4 only, got n = {R.n}")
    i, j = (np.array(degree_basis(4, 2)) - 1).T
    op = R.R[i[:, None], j[:, None], i[None, :], j[None, :]]  # curvature operator on e_i ^ e_j
    beta = R.R[0, 1, 2, 3] + R.R[0, 2, 3, 1] + R.R[0, 3, 1, 2]
    sides = []
    for E, shift in zip(_hodge_eigenbases(), (-beta, beta)):
        evals, evecs = np.linalg.eigh(E.T @ op @ E)
        sides.append((evals[0] + evals[1] + shift, E @ evecs[:, 2]))
    half_min, w = min(sides, key=lambda side: side[0])  # the self-dual side on a tie
    J = np.zeros((4, 4))
    J[i, j] = w
    J[j, i] = -w
    J *= math.sqrt(2.0)
    x0 = np.eye(4)[0]
    x1 = J.T @ x0
    rest = np.eye(4) - np.outer(x0, x0) - np.outer(x1, x1)
    x2 = rest[:, np.argmax(np.einsum("ij,ij->j", rest, rest))]
    x2 = x2 / np.linalg.norm(x2)
    return float(2.0 * half_min), Frame4(np.array([x0, x1, x2, J.T @ x2]))


def _verdict_minimum(R: CurvTensor, cfg: SearchConfig):
    """The (value, frame, restarts) minimum a sigma-PIC verdict rests on:
    exact in dimension 4 (no search, 0 restarts), the frame search above it."""
    if R.n == 4:
        return (*exact_min_isotropic(R), 0)
    return (*min_isotropic(R, cfg), cfg.restarts)


@dataclass
class PicVerdict:
    """Outcome of a sigma-PIC membership test: exact in dimension 4,
    stochastic and non-certified in dimension 5 and up.  ``restarts`` is
    the search effort spent: the restarts of the frame search, 0 in
    dimension 4, where no search runs.  ``tolerance`` is the verdict's
    tolerance."""

    passed: bool
    sigma: float
    min_found: float
    witness: Frame4 | None
    restarts: int
    tolerance: float

    def __bool__(self):
        return self.passed


def is_sigma_pic(R: CurvTensor, sigma: float, cfg: SearchConfig = SearchConfig()) -> PicVerdict:
    """Test whether the isotropic curvature stays >= sigma over all frames.

    FAIL comes with a concrete counter-frame.  In dimension 4 the verdict
    is exact (closed-form minimum); above, PASS is stochastic evidence from
    the frame search (its effort is recorded in the verdict).  A non-finite
    minimum is a FAIL.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    value, frame, restarts = _verdict_minimum(R, cfg)
    if not value >= sigma - cfg.tolerance:
        return PicVerdict(False, sigma, value, frame, restarts, cfg.tolerance)
    return PicVerdict(True, sigma, value, None, restarts, cfg.tolerance)


# -- traces -----------------------------------------------------------


def ricci(R: CurvTensor) -> np.ndarray:
    return np.einsum("albl->ab", R.R)


def scalar(R: CurvTensor) -> float:
    return float(np.einsum("alal->", R.R))


def sectional(R: CurvTensor, i: int, j: int) -> float:
    """Sectional curvature of span(e_i, e_j), indices 1-based."""
    if not (1 <= i <= R.n and 1 <= j <= R.n) or i == j:
        raise ValueError(f"invalid index pair ({i}, {j}) for n = {R.n}")
    return float(R.R[i - 1, j - 1, i - 1, j - 1])


def ricci_floor_lambda(R: CurvTensor) -> float:
    """sqrt(max(-lambda_min(Ric) / (n - 1), 0)): the Ricci-floor scale the
    bandwidth margin check consumes as Lambda."""
    lam_min = float(np.linalg.eigvalsh(0.5 * (ricci(R) + ricci(R).T))[0])
    return math.sqrt(max(-lam_min / (R.n - 1), 0.0))


# -- curvature operator on two-forms ----------------------------------


class WeitzOperator:
    """Hermitian curvature operator on the ordered two-form basis."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix):
        M = np.asarray(matrix)
        dim = len(degree_basis(n, 2))
        if M.shape != (dim, dim):
            raise ValueError(f"operator must be {dim} x {dim} for n = {n}")
        scale = max(1.0, float(np.max(np.abs(M))))
        if float(np.max(np.abs(M - M.conj().T))) > HERMITIAN_TOL * scale:
            raise ValueError("curvature operator is not Hermitian within tolerance")
        self.n = n
        self.matrix = M

    def eigenvalues(self) -> np.ndarray:
        H = 0.5 * (self.matrix + self.matrix.conj().T)
        return np.linalg.eigvalsh(H)

    def lambda_min(self) -> float:
        return float(self.eigenvalues()[0])


def weitzenboeck_on_two_forms(R: CurvTensor) -> WeitzOperator:
    """Curvature term of the form Laplacian restricted to two-forms.

    The action on a basis two-form theta^i ^ theta^j is
    Ric_ki theta^k ^ theta^j - Ric_kj theta^k ^ theta^i
    - 2 R_ikjl theta^k ^ theta^l, re-expanded in the ordered basis.
    """
    n = R.n
    basis = degree_basis(n, 2)
    pos = {key: t for t, key in enumerate(basis)}
    ric = ricci(R)
    dim = len(basis)
    M = np.zeros((dim, dim))

    def add(k, l, col, w):
        # accumulate w * theta^k ^ theta^l (0-based k, l) into column col
        if k == l:
            return
        if k < l:
            M[pos[(k + 1, l + 1)], col] += w
        else:
            M[pos[(l + 1, k + 1)], col] -= w

    for col, (i1, j1) in enumerate(basis):
        i, j = i1 - 1, j1 - 1
        for k in range(n):
            add(k, j, col, ric[k, i])
            add(k, i, col, -ric[k, j])
            for l in range(n):
                add(k, l, col, -2.0 * R.R[i, k, j, l])
    return WeitzOperator(n, M)


def weitzenboeck_clifford_trace(R: CurvTensor) -> np.ndarray:
    """Independent route to the two-form curvature operator through the
    Clifford trace (1/2) sum_{i,j} c(e_i) c(e_j) R(e_i, e_j).

    On two-forms R(e_i, e_j) is the derivation sum_{p,q} R_ijpq theta^p ^ i_{e_q},
    and the Lambda^2 block of c(e_i) c(e_j) is
    -(theta^i ^ i_{e_j} + i_{e_i} theta^j ^); both are the cached
    :func:`exterior.two_form_blocks`.  Used to cross-check
    :func:`weitzenboeck_on_two_forms`.
    """
    n = R.n
    wedge_interior, interior_wedge = exterior.two_form_blocks(n)
    action = np.einsum("ijpq,pqac->ijac", R.R, wedge_interior)
    return -0.5 * np.einsum("ijab,ijbc->ac", wedge_interior + interior_wedge, action).astype(complex)


@dataclass
class WeitzBoundReport:
    """Weitzenboeck eigenvalue bound check against a sigma-PIC lower bound."""

    n: int
    sigma: float
    lambda_min: float
    bound: float
    margin: float
    pic_verdict: PicVerdict
    passed: bool
    asserted: bool  # False when the sigma-PIC precondition already failed


def weitzenboeck_lower_bound_check(
    R: CurvTensor, sigma: float, cfg: SearchConfig = SearchConfig()
) -> WeitzBoundReport:
    """Check lambda_min of the two-form curvature operator against
    (n-2) sigma / 2, conditional on the sigma-PIC precondition."""
    if R.n % 2 != 0 or R.n < 4:
        raise ValueError("the eigenvalue bound is asserted for even n >= 4 only")
    if sigma >= 0:
        verdict = is_sigma_pic(R, sigma, cfg)
    else:
        value, _, restarts = _verdict_minimum(R, cfg)
        verdict = PicVerdict(False, sigma, value, None, restarts, cfg.tolerance)
    op = weitzenboeck_on_two_forms(R)
    lam = op.lambda_min()
    bound = 0.5 * (R.n - 2) * sigma
    margin = lam - bound
    if not verdict.passed:
        return WeitzBoundReport(R.n, sigma, lam, bound, margin, verdict, False, asserted=False)
    return WeitzBoundReport(R.n, sigma, lam, bound, margin, verdict, margin >= -1e-9, asserted=True)


# -- generators and serialisation -------------------------------------


def random_curvature(n: int, rng) -> CurvTensor:
    """Random algebraic curvature tensor as the mean of six signed Kulkarni-Nomizu
    squares of random symmetric matrices (these span the curvature space)."""
    total = np.zeros((n, n, n, n))
    for _ in range(6):
        A = rng.standard_normal((n, n))
        h = 0.5 * (A + A.T)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        total += sign * kulkarni_nomizu(h, h).R
    return CurvTensor(total * (1.0 / 6))


def random_pic_combination(n: int, rng) -> CurvTensor:
    """Nonnegative combination of four KN squares of positive definite matrices."""
    total = np.zeros((n, n, n, n))
    for _ in range(4):
        A = rng.standard_normal((n, n))
        h = A @ A.T + 0.1 * np.eye(n)
        total += rng.random() * kulkarni_nomizu(h, h).R
    return CurvTensor(total / 4)


_SLOT_PERMS = (  # index permutations generating the full symmetry orbit
    ((0, 1, 2, 3), 1.0),
    ((1, 0, 2, 3), -1.0),
    ((0, 1, 3, 2), -1.0),
    ((1, 0, 3, 2), 1.0),
    ((2, 3, 0, 1), 1.0),
    ((3, 2, 0, 1), -1.0),
    ((2, 3, 1, 0), -1.0),
    ((3, 2, 1, 0), 1.0),
)


def load_curvature_json(doc) -> CurvTensor:
    """Build a tensor from ``{"n": n, "components": [{i,j,k,l,v}, ...]}``.

    Indices are 1-based and may list any generating set; the loader
    completes the orbit under the pair (anti)symmetries and rejects entries
    that disagree by more than 1e-10.
    """
    n = int(doc["n"])
    R = np.zeros((n, n, n, n))
    seen = np.zeros((n, n, n, n), dtype=bool)
    for entry in doc["components"]:
        i, j, k, l = (int(entry[key]) - 1 for key in ("i", "j", "k", "l"))
        v = float(entry["v"])
        if not all(0 <= t < n for t in (i, j, k, l)):
            raise ValueError(f"component index out of range: {entry}")
        for perm, sign in _SLOT_PERMS:
            idx = tuple((i, j, k, l)[p] for p in perm)
            val = sign * v
            if seen[idx] and abs(R[idx] - val) > 1e-10:
                raise ValueError(f"inconsistent components at {idx}: {R[idx]} vs {val}")
            R[idx] = val
            seen[idx] = True
    return CurvTensor(R)


def curvature_to_json(R: CurvTensor) -> dict:
    """Serialise the generating set {i<j, k<l, (i,j) <= (k,l)} of a tensor."""
    comps = []
    n = R.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    if (k, l) < (i, j):
                        continue
                    v = R.R[i, j, k, l]
                    if v != 0:
                        comps.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": float(v)})
    return {"n": n, "components": comps}
