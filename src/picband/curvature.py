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

The frame search evaluates the isotropic curvature of frames (x_0..x_3) on
the two bivectors of z ^ w, z = x_0 + i x_1 and w = x_2 + i x_3: the real
part alpha = x_0 ^ x_2 - x_1 ^ x_3 and the imaginary part
beta = x_0 ^ x_3 + x_1 ^ x_2.  The isotropic curvature
K = <R(z ^ w), conj(z ^ w)> of the totally isotropic plane span(z, w)
(Micallef and Moore, Ann. Math. 127, 1988) is
K = R_0202 + R_0303 + R_1212 + R_1313 - 2 R_0123 = <R~ alpha, alpha> + <R~ beta, beta>
with R~ = R - b/2, b = ``_bianchi_sum(R)``, on every tensor with the pair
symmetries, whether or not it satisfies the first Bianchi identity.  Proof:
expanding, <R alpha, alpha> + <R beta, beta> = K + 2 (R_0123 + R_0231 + R_0312)
= K + 2 b(x_0, x_1, x_2, x_3).  Under the pair symmetries b is totally
antisymmetric, so its squares vanish and <b alpha, alpha> + <b beta, beta> =
-2 b_0213 + 2 b_0312 = 4 b(x_0, x_1, x_2, x_3); half of it cancels the 2 b.
With alpha and beta held as n x n matrices, one (2B x n^2) by (n^2 x n^2)
matrix product gives the images A = R~ alpha and B = R~ beta of a batch of
frames, the value is <A, alpha> + <B, beta>, and the gradient is a table of
images applied to frame vectors: d/dx_0 = 2 (A x_2 + B x_3),
d/dx_1 = 2 (B x_2 - A x_3), d/dx_2 = -2 (A x_0 + B x_1) and
d/dx_3 = 2 (A x_1 - B x_0).  The search carries the images of its current
frames, so a descent iteration costs one image product: that of its trial
frames, which gives their values and, for an accepted step, the images of
the next gradient.  Frames are retracted by Gram-Schmidt, which is the QR
retraction with a positive diagonal.  After an accepted move the next step
is the Barzilai-Borwein step <s, s> / <s, y> of that move s and the change y
of the tangent gradient across it.  A trial is accepted by the nonmonotone
test of Zhang and Hager against a weighted mean of the restart's accepted
values, as Wen and Yin pair it with these steps, so a step may raise the
value; a restart retires once the step it is about to try can no longer
lower its value by a resolvable amount, step * |tangent gradient|^2 <=
SEARCH_DECREASE_TOL * (1 + |best value|).

A ``CurvTensor`` is finite by construction.  The sigma-PIC verdicts on a
general tensor (``is_sigma_pic``, which the Weitzenboeck bound check calls)
are exact in dimension 4: the rational test ``_exact_at_least`` decides
each, and the float closed form ``exact_min_isotropic`` gives only the
reported minimum and witness.  In dimension 5 and up they first try the
Ky Fan certificate (``_certified_bound``), one eigvalsh of the curvature
operator on two-forms, and run the stochastic search ``min_isotropic``
only when it does not prove sigma.  The band checks are not exact: a warped
band's minimum at a radius is a closed form in its two sectionals
(``bands._isotropic_min``), evaluated in floats, with a rounding bound, at
sampled radii only, not over the whole band (ROADMAP item 1); no tensor of
theirs is searched.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import exterior
from .exterior import degree_basis
from .reporting import check_input

__all__ = [
    "CurvTensor",
    "Frame4",
    "SearchConfig",
    "PicVerdict",
    "WeitzOperator",
    "kulkarni_nomizu",
    "sphere_line_product",
    "iso_curvature",
    "min_isotropic",
    "exact_min_isotropic",
    "is_sigma_pic",
    "weitzenboeck_on_two_forms",
    "weitzenboeck_clifford_trace",
    "WeitzBoundReport",
    "weitzenboeck_lower_bound_check",
    "ricci",
    "load_curvature_json",
]

BIANCHI_TOL = 1e-10
FRAME_TOL = 1e-10  # Gram defect accepted by Frame4
HERMITIAN_TOL = 1e-12  # relative Hermitian defect accepted by WeitzOperator
SEARCH_MAX_ITER = 400  # frame-search descent iterations, at most
SEARCH_STEP0 = 0.1  # first step of every restart
SEARCH_DECREASE_TOL = 1e-14  # a restart retires once step * |tangent gradient|^2 <= this * (1 + |best value|)
SEARCH_ETA = 0.85  # weight of the past in each restart's Zhang-Hager reference value
# Dense n^4 components accepted (n <= 38): 16 MiB of float64, the budget of gridcalc.MAX_GRID_NODES
MAX_TENSOR_COMPONENTS = 1 << 21
# Two-form block entries d2^2 n^2, d2 = n(n-1)/2, accepted by both Weitzenboeck routes (n <= 16):
# the Clifford-trace route's two_form_blocks and action each hold that many floats, the index
# route d2^2 (161 MB peak for verify weitzenboeck --n 16)
MAX_TWO_FORM_ENTRIES = 1 << 22
# Backward error of eigvalsh taken as EIGEN_ERROR * dim * eps * max|lambda| in
# the certified bound: each of the two smallest eigenvalues moves by at most
# the backward error, and the bound counts each twice
EIGEN_ERROR = 16


def _trailing(R: np.ndarray, axes) -> np.ndarray:
    """R with its trailing four axes permuted by ``axes``, leading axes kept."""
    lead = R.ndim - 4
    return np.transpose(R, (*range(lead), *(lead + a for a in axes)))


def _bianchi_sum(R: np.ndarray) -> np.ndarray:
    """The first Bianchi cyclic sum R_ijkl + R_jkil + R_kijl over a tensor or a
    stack; under the pair symmetries it is R_ijkl + R_iklj + R_iljk."""
    return R + _trailing(R, (1, 2, 0, 3)) + _trailing(R, (2, 0, 1, 3))


def _bianchi_defect(R: np.ndarray) -> float:
    """Largest first Bianchi defect over a tensor or a stack."""
    return float(np.max(np.abs(_bianchi_sum(R))))


_PAIR_SYMMETRIES = (  # (axes, sign, name): R = sign * R permuted by axes
    ((1, 0, 2, 3), -1.0, "antisymmetry in the first index pair"),
    ((0, 1, 3, 2), -1.0, "antisymmetry in the second index pair"),
    ((2, 3, 0, 1), 1.0, "pair-interchange symmetry"),
)


def _failed_symmetry(R: np.ndarray) -> str | None:
    """The name of the first pair symmetry that R does not hold exactly, or None."""
    for axes, sign, name in _PAIR_SYMMETRIES:
        if not np.array_equal(R, sign * _trailing(R, axes)):
            return name
    return None


def _check_finite(R: np.ndarray) -> None:
    if not np.all(np.isfinite(R)):
        raise ValueError("curvature components must be finite")


def _validate(R: np.ndarray) -> None:
    """The CurvTensor checks over the trailing four axes of R, so that one
    call validates a single tensor or a stack of them."""
    _check_finite(R)
    failed = _failed_symmetry(R)
    if failed:
        raise ValueError(f"{failed} fails")
    defect = _bianchi_defect(R)
    if defect > BIANCHI_TOL:
        raise ValueError(f"first Bianchi identity violated by {defect:.3e}")


def _check_dimension(n: int) -> None:
    """Refuse a dimension whose dense n^4 component array would exceed
    MAX_TENSOR_COMPONENTS; counted in integers, before anything is allocated."""
    if n**4 > MAX_TENSOR_COMPONENTS:
        raise ValueError(
            f"dimension n = {n} needs n^4 = {n**4} dense curvature components, "
            f"more than MAX_TENSOR_COMPONENTS = {MAX_TENSOR_COMPONENTS}"
        )


def _check_two_form_size(n: int) -> None:
    """Refuse a dimension whose (n, n, d2, d2) two-form blocks would exceed
    MAX_TWO_FORM_ENTRIES; counted in integers, before anything is allocated."""
    entries = (n * (n - 1) // 2) ** 2 * n * n
    if entries > MAX_TWO_FORM_ENTRIES:
        raise ValueError(f"dimension n = {n} needs d2^2 n^2 = {entries} two-form block entries, "
                         f"more than MAX_TWO_FORM_ENTRIES = {MAX_TWO_FORM_ENTRIES}")


class CurvTensor:
    """Dense algebraic curvature tensor on R^n.

    Storage is the full n^4 component array.  Every component is finite,
    also with ``validate=False``, so a sum or multiple that overflows is a
    ValueError.  The pair (anti)symmetries are required exactly; the first
    Bianchi identity is validated to 1e-10 but not enforced by the storage.
    """

    __slots__ = ("n", "R")

    def __init__(self, components, validate: bool = True):
        R = np.asarray(components, dtype=float)
        if R.ndim != 4 or len(set(R.shape)) != 1:
            raise ValueError(f"curvature components must be n^4, got shape {R.shape}")
        _check_finite(R)
        self.n = R.shape[0]
        self.R = R
        if validate:
            self.validate()

    def validate(self):
        _validate(self.R)

    def __add__(self, other: "CurvTensor") -> "CurvTensor":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        with np.errstate(over="ignore"):  # an overflow is refused as a non-finite component
            return CurvTensor(self.R + other.R, validate=False)

    def __mul__(self, s) -> "CurvTensor":
        with np.errstate(over="ignore", invalid="ignore"):  # as in __add__; 0 * inf is NaN
            return CurvTensor(self.R * float(s), validate=False)

    __rmul__ = __mul__


def _kn_components(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Kulkarni-Nomizu components of symmetric factors h, k, broadcast over
    their leading axes: (..., n, n) x (..., n, n) -> (..., n, n, n, n)."""
    if h.ndim < 2 or h.shape[-2:] != k.shape[-2:] or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"incompatible shapes {h.shape} and {k.shape}")
    if not np.array_equal(h, np.swapaxes(h, -1, -2)) or not np.array_equal(k, np.swapaxes(k, -1, -2)):
        raise ValueError("Kulkarni-Nomizu factors must be symmetric")
    # Assemble as U - swap01(U), then pair-symmetrise: each required symmetry
    # then holds bit-exactly, not just up to rounding.
    U = np.einsum("...ik,...jl->...ijkl", h, k) - np.einsum("...il,...jk->...ijkl", h, k)
    R = U - _trailing(U, (1, 0, 2, 3))
    return 0.5 * (R + _trailing(R, (2, 3, 0, 1)))


def kulkarni_nomizu(h, k) -> CurvTensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms."""
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    if h.shape != k.shape or h.ndim != 2:
        raise ValueError(f"incompatible shapes {h.shape} and {k.shape}")
    _check_dimension(h.shape[0])
    return CurvTensor(_kn_components(h, k))


def sphere_line_product(n: int, kappa: float) -> CurvTensor:
    """S^{n-1} x R with sectional curvature kappa on the sphere factor:
    (kappa/2) h o^ h for h the metric of the first n-1 directions."""
    h = np.zeros((n, n))
    h[: n - 1, : n - 1] = np.eye(n - 1)
    return kulkarni_nomizu(h, h) * (0.5 * kappa)


def _gram_defect(X) -> float:
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf for a frame that is not finite
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
        if not defect <= FRAME_TOL:  # a NaN defect fails this test too
            raise ValueError(f"frame is not orthonormal, Gram defect {defect:.3e}")
        self.vectors = X


def iso_curvature(R: CurvTensor, frame) -> float:
    """R_1313 + R_1414 + R_2323 + R_2424 - 2 R_1234 on an orthonormal frame."""
    X = frame.vectors if isinstance(frame, Frame4) else np.asarray(frame, dtype=float)
    if not _gram_defect(X) <= 1e-8:
        raise ValueError("frame is not orthonormal within 1e-8")
    return float(_iso_batch(R.R, X[None])[0])


def _iso_tensor(R: np.ndarray) -> np.ndarray:
    """R~ = R - b/2, b = ``_bianchi_sum(R)``: the tensor whose terms
    <R~ alpha, alpha> + <R~ beta, beta> are the isotropic curvature of R,
    also where R has a first Bianchi defect (see the module docstring)."""
    return R - 0.5 * _bianchi_sum(R)


# alpha and beta as [x_0 x_1] (n x 2) times a signed pair of the other rows (2 x n):
# alpha = x_0 (x) x_2 - x_1 (x) x_3 from (x_2, -x_3), beta = x_0 (x) x_3 + x_1 (x) x_2 from (x_3, x_2)
_BIVECTOR_ROWS = np.array([[2, 3], [3, 2]])
_BIVECTOR_SIGNS = np.array([[1.0, -1.0], [1.0, 1.0]])[:, :, None]


def _bivector_images(Rt: np.ndarray, X: np.ndarray):
    """The bivectors P[B] = (alpha, beta) of each frame as n x n matrices and
    their images H[B] = (A, B) = (Rt alpha, Rt beta), in one matrix product."""
    B, _, n = X.shape
    P = np.swapaxes(X[:, None, :2], 2, 3) @ (X[:, _BIVECTOR_ROWS] * _BIVECTOR_SIGNS)
    H = (P.reshape(2 * B, n * n) @ Rt.reshape(n * n, n * n)).reshape(B, 2, n, n)
    return P, H


def _bivector_value(P: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Isotropic curvature <A, alpha> + <B, beta> of each frame."""
    B = P.shape[0]
    return np.einsum("Bm,Bm->B", H.reshape(B, -1), P.reshape(B, -1))


def _iso_batch(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    return _bivector_value(*_bivector_images(_iso_tensor(R), X))


# The gradient as a signed pair of frame rows per frame row, against the images stacked
# as one 2n x n matrix: d/dx_0 = 2 (A x_2 + B x_3) = -2 (x_2' A + x_3' B), since A and B
# are antisymmetric, d/dx_1 = 2 (B x_2 - A x_3) = 2 x_3' A - 2 x_2' B,
# d/dx_2 = -2 (A x_0 + B x_1) = 2 (x_0' A + x_1' B) and d/dx_3 = 2 (A x_1 - B x_0) = -2 x_1' A + 2 x_0' B
_GRAD_ROWS = np.array([[2, 3], [3, 2], [0, 1], [1, 0]])
_GRAD_SIGNS = np.array([[-2.0, -2.0], [2.0, -2.0], [2.0, 2.0], [-2.0, 2.0]])[:, :, None]


def _bivector_grad(H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Euclidean gradient of the isotropic curvature with respect to the
    frame rows, from the frames' images H; no product with R."""
    B, _, n, _ = H.shape
    return (X[:, _GRAD_ROWS] * _GRAD_SIGNS).reshape(B, 4, 2 * n) @ H.reshape(B, 2 * n, n)


def _retract(Y: np.ndarray) -> np.ndarray:
    """Retraction onto orthonormal 4-frames: modified Gram-Schmidt on the
    rows of each frame.  This is the Q factor of the QR factorisation of
    Y^T with a positive diagonal, which is unique, so it is the sign-fixed
    QR retraction (Absil, Mahony and Sepulchre, Optimization Algorithms on
    Matrix Manifolds, 2008) without a LAPACK call.  The frames are worked on
    with the frame-row axis first, so that each pass reads and writes row a
    of every frame as one contiguous (B, n) block; the (B, 4, n) result is a
    view of that storage."""
    Q = np.swapaxes(Y, 0, 1).copy()
    for a in range(4):  # normalise row a, then take it out of the rows below, if any
        q = Q[a]
        q /= np.sqrt(np.einsum("Bi,Bi->B", q, q))[:, None]
        if a < 3:
            rest = Q[a + 1:]
            rest -= np.einsum("bBi,Bi->bB", rest, q)[:, :, None] * q
    return np.swapaxes(Q, 0, 1)


def _unit_scaled(R: np.ndarray):
    """``(2^-e R, e)`` with the largest |component| of 2^-e R in [1/2, 1):
    an exact scaling, so that no product or square of components overflows."""
    _, exponent = math.frexp(float(np.max(np.abs(R))))
    return np.ldexp(R, -exponent), exponent


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the stochastic frame search over orthonormal 4-frames
    (the descent runs on the SEARCH_* constants).  ``restarts`` must be a
    positive integer and ``tolerance`` a finite number; a bool is refused
    as either."""

    restarts: int = 512
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        if isinstance(self.restarts, bool) or not isinstance(self.restarts, numbers.Integral) or self.restarts < 1:
            raise ValueError(f"restarts must be a positive integer, got {self.restarts!r}")
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not math.isfinite(tol):
            raise ValueError(f"tolerance must be a finite number, got {tol!r}")


def min_isotropic(R: CurvTensor, cfg: SearchConfig = SearchConfig()):
    """Best local minimum of the isotropic curvature found by projected
    gradient descent from ``cfg.restarts`` random orthonormal starts.

    Returns ``(value, argmin_frame)``.  Deterministic given ``cfg.seed``;
    the reported value is the minimum over every frame evaluated during
    the search, reduced in (value, restart index) order.

    The isotropic curvature <R(z ^ w), conj(z ^ w)> of a frame, z = x_0 + i x_1
    and w = x_2 + i x_3 (Micallef and Moore, Ann. Math. 127, 1988), is
    <R~ alpha, alpha> + <R~ beta, beta> on the real and imaginary parts
    alpha, beta of z ^ w, with R~ = R - b/2 and b the first Bianchi sum: the
    Bianchi defect adds 2 b(x_0, x_1, x_2, x_3) to the terms of R, which the
    -b/2 of R~ takes away (proof in the module docstring).

    The search holds the state of its live restarts only, one row each,
    with the index of each row's restart; in an iteration where some
    restart stops, every state array is cut once to the rows that go on.
    Each iteration works on the whole state and forms one pair of images
    (R~ alpha, R~ beta): those of its trial frames.  They give the trial
    values, and a restart that accepts its trial keeps them as the images
    of its new frame, from which the next gradient is read
    (``_bivector_grad``, no product with R~).  The trial frames come from
    the Gram-Schmidt retraction (``_retract``), the same map as a QR
    retraction with a positive diagonal.

    A trial is accepted on the nonmonotone test
    v(Y) <= C - 1e-4 * step * |tangent gradient|^2 of Zhang and Hager (SIAM
    J. Optim. 14, 2004), with C the restart's reference value: C = v and
    Q = 1 at its start, and after each accepted move Q' = eta Q + 1 and
    C' = (eta Q C + v(Y)) / Q', eta = SEARCH_ETA.  C is a weighted mean of
    the accepted values, so an accepted trial may lie above the value it
    leaves; a monotone test (C = v(X)) rejects Barzilai-Borwein steps once
    the values differ at rounding level.  A rejected trial halves the step.
    After an accepted move s = Y - X, the next step is <s, s> / <s, y>, y
    the change of the tangent gradient across the move (Barzilai and
    Borwein, IMA J. Numer. Anal. 8, 1988; Wen and Yin, Math. Program. 142,
    2013, on this Stiefel manifold, with this acceptance test), or 1.5
    times the last step where <s, y> <= 0; either is capped at 1.  Every
    restart starts at SEARCH_STEP0.  A restart retires in one of two ways:

    * the step it is about to try, Barzilai-Borwein or halved, can no
      longer lower its value by a resolvable amount:
      step * |tangent gradient|^2 <= SEARCH_DECREASE_TOL * (1 + |v|), v its
      best evaluated value.  Every step is at most 1, so this also retires
      a restart whose gradient has vanished, and one whose gradient sits
      at the rounding floor of the retraction, which would otherwise stay
      live until SEARCH_MAX_ITER.  A refused trial halves the step and
      keeps the frame, and with it the gradient; so a restart whose trials
      are refused meets this test within finitely many halvings;
    * the search reaches SEARCH_MAX_ITER iterations.

    A retiring restart's trial at its last step is still evaluated, but
    only in an iteration where some restart stays live; once none does,
    the search ends.

    A retired restart's row leaves the state: its frame and step no longer
    change, so it would only repeat its last trial.  Its best value and
    frame are kept by restart.  The search runs on R scaled by a power of
    two to unit size, which is exact: min_isotropic(2^k R) is
    2^k min_isotropic(R).
    """
    n = R.n
    if n < 4:
        raise ValueError("isotropic curvature needs ambient dimension >= 4")
    Rs, exponent = _unit_scaled(R.R)
    Rt = _iso_tensor(Rs)
    rng = np.random.default_rng(cfg.seed)
    B = cfg.restarts
    X = _retract(rng.standard_normal((B, 4, n)))
    P, H = _bivector_images(Rt, X)  # carried: H holds the images of the current frames
    best_vals = _bivector_value(P, H)  # of every restart, written back as its row leaves
    best_X = X.copy()
    # the live restarts' state, row r for restart idx[r]
    idx = np.arange(B)
    vals = best_vals.copy()  # best evaluated value of each live restart
    ref = best_vals.copy()  # Zhang-Hager reference value C of each restart
    ref_weight = np.ones(B)  # and its weight Q
    step = np.full(B, SEARCH_STEP0)
    moved = np.zeros(B, dtype=bool)  # accepted its last trial: its next step is Barzilai-Borwein
    S = np.zeros((B, 4, n))  # last trial move Y - X, read only where it was accepted
    G_from = np.zeros((B, 4, n))  # tangent gradient at the frame that move left

    for _ in range(SEARCH_MAX_ITER):
        G = _bivector_grad(H, X)
        # tangent projection for row-orthonormal X: G - sym(G X^T) X
        M = G @ np.swapaxes(X, 1, 2)
        Gt = G - 0.5 * (M + np.swapaxes(M, 1, 2)) @ X
        gnorm2 = np.einsum("Bij,Bij->B", Gt, Gt)
        # after an accepted move s with gradient change y: the step <s, s> / <s, y>,
        # or 1.5 times the last step where <s, y> <= 0; at most 1
        sy = np.einsum("Bij,Bij->B", S, Gt - G_from)
        next_step = np.divide(np.einsum("Bij,Bij->B", S, S), sy, out=1.5 * step, where=sy > 0)
        step = np.where(moved, np.minimum(next_step, 1.0), step)
        # retire where this step's predicted decrease is below resolution; its trial still runs
        act = step * gnorm2 > SEARCH_DECREASE_TOL * (1.0 + np.abs(vals))
        if not act.any():
            break
        Y = _retract(X - step[:, None, None] * Gt)
        PY, HY = _bivector_images(Rt, Y)
        vY = _bivector_value(PY, HY)
        accept = act & (vY <= ref - 1e-4 * step * gnorm2)
        np.subtract(Y, X, out=S)  # written into S, which stays row-major for the einsums
        G_from = Gt
        X[accept] = Y[accept]
        H[accept] = HY[accept]
        weight = ref_weight[accept]
        ref_weight[accept] = SEARCH_ETA * weight + 1.0
        ref[accept] = (SEARCH_ETA * weight * ref[accept] + vY[accept]) / ref_weight[accept]
        moved = accept
        step[act & ~accept] *= 0.5
        upd = vY < vals  # track every evaluated frame, accepted or not
        vals[upd] = vY[upd]
        best_X[idx[upd]] = Y[upd]
        if not act.all():  # the rows outside act leave
            best_vals[idx[~act]] = vals[~act]
            idx, X, H, vals, ref, ref_weight, step, moved, S, G_from = (
                a[act] for a in (idx, X, H, vals, ref, ref_weight, step, moved, S, G_from))
    best_vals[idx] = vals

    order = np.lexsort((np.arange(B), best_vals))
    k = order[0]
    return math.ldexp(float(best_vals[k]), exponent), Frame4(_retract(best_X[k][None])[0])


@lru_cache(maxsize=None)
def _two_form_pairs(n: int):
    """0-based index arrays (i, j) of the two-forms e_i ^ e_j, i < j, in ``degree_basis(n, 2)`` order."""
    pairs = (np.array(degree_basis(n, 2)) - 1).T
    pairs.setflags(write=False)
    return tuple(pairs)


@lru_cache(maxsize=None)
def _hodge_star():
    """The Hodge star on the two-forms e_i ^ e_j, i < j, of R^4, a 6 x 6
    matrix of 0 and +-1, read off alpha ^ beta = <*alpha, beta>
    e_1 ^ e_2 ^ e_3 ^ e_4.  For alpha = e_i ^ e_j, alpha ^ beta =
    e_i ^ (e_j ^ beta)."""
    wedge = np.einsum("iab,jbc->ijc", exterior.wedge_stack(4, 3), exterior.wedge_stack(4, 2))
    star = wedge[_two_form_pairs(4)]
    star.setflags(write=False)
    return star


@lru_cache(maxsize=None)
def _hodge_eigenbases():
    """Orthonormal bases (as columns over e_i ^ e_j, i < j) of the self-dual
    and the anti-self-dual two-forms on R^4: the +1 and -1 eigenspaces of the
    Hodge star."""
    _, vecs = np.linalg.eigh(_hodge_star())  # eigenvalues -1, -1, -1, 1, 1, 1
    return vecs[:, 3:], vecs[:, :3]


def _on_two_forms(R: np.ndarray) -> np.ndarray:
    """The curvature operator on two-forms, R[..., i, j, k, l] for i < j, k < l, of a tensor or a stack."""
    i, j = _two_form_pairs(R.shape[-1])
    return R[..., i[:, None], j[:, None], i[None, :], j[None, :]]


def _exact_min_core(Rs: np.ndarray):
    """The closed-form minimum of :func:`exact_min_isotropic` over a stack
    (S, 4, 4, 4, 4), with one batched eigh per side.  Returns
    ``(values, side, tops)``: the S minima, whether each is attained on the
    anti-self-dual side (the self-dual side on a tie), and per side the
    (S, 3) top eigenvectors in that side's basis."""
    op = _on_two_forms(Rs)
    beta = Rs[:, 0, 1, 2, 3] + Rs[:, 0, 2, 3, 1] + Rs[:, 0, 3, 1, 2]
    halves, tops = [], []
    for E, shift in zip(_hodge_eigenbases(), (-beta, beta)):
        evals, evecs = np.linalg.eigh(E.T @ op @ E)
        halves.append(evals[:, 0] + evals[:, 1] + shift)
        tops.append(evecs[:, :, 2])
    side = halves[1] < halves[0]
    return 2.0 * np.where(side, halves[1], halves[0]), side, tops


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
    values, side, tops = _exact_min_core(R.R[None])
    s = int(side[0])
    w = _hodge_eigenbases()[s] @ tops[s][0]
    i, j = _two_form_pairs(4)
    J = np.zeros((4, 4))
    J[i, j] = w
    J[j, i] = -w
    J *= math.sqrt(2.0)
    x0 = np.eye(4)[0]
    x1 = J.T @ x0
    rest = np.eye(4) - np.outer(x0, x0) - np.outer(x1, x1)
    x2 = rest[:, np.argmax(np.einsum("ij,ij->j", rest, rest))]
    x2 = x2 / np.linalg.norm(x2)
    return float(values[0]), Frame4(np.array([x0, x1, x2, J.T @ x2]))


def _exact_at_least(R: CurvTensor, t: Fraction) -> bool:
    """Whether the isotropic curvature of the 4-dimensional R is >= t on
    every frame, decided exactly in rationals from its float components.

    On each side, the closed form of :func:`exact_min_isotropic` is
    2 (tr M - lambda_max(M) -+ beta), with M the curvature operator on
    two-forms compressed to the self-dual (-) or anti-self-dual (+) ones.
    Their bases (I +- star) e_k / sqrt(2), k the two-forms e_1 ^ e_j, make
    M = S^T op S / 2 for the integer columns S = (I +- star) e_k, so M is
    rational in the components.  The side's value is >= t exactly when
    lambda_max(M) <= c = tr M -+ beta - t/2, that is when c I - M is
    positive semidefinite, which holds exactly when its seven principal
    minors are >= 0 (Horn and Johnson, Matrix Analysis, chapter 7)."""
    op = [[Fraction(x) for x in row] for row in _on_two_forms(R.R).tolist()]
    beta = Fraction(R.R[0, 1, 2, 3]) + Fraction(R.R[0, 2, 3, 1]) + Fraction(R.R[0, 3, 1, 2])
    star = _hodge_star()
    for sign, shift in ((1, -beta), (-1, beta)):
        S = [[(p, int(v)) for p, v in enumerate(column) if v] for column in (np.eye(6) + sign * star)[:, :3].T]
        M = [[sum(u * v * op[p][q] for p, u in a for q, v in b) / 2 for b in S] for a in S]
        c = M[0][0] + M[1][1] + M[2][2] + shift - t / 2
        A = [[(c if i == j else 0) - M[i][j] for j in range(3)] for i in range(3)]
        minors = [A[i][i] for i in range(3)]
        minors += [A[i][i] * A[j][j] - A[i][j] * A[j][i] for i, j in ((0, 1), (0, 2), (1, 2))]
        minors.append(A[0][0] * minors[5] - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
                      + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]))
        if min(minors) < 0:
            return False
    return True


def _certified_bound(R: CurvTensor) -> float | None:
    """A proven lower bound of the isotropic curvature over all orthonormal
    four-frames, or None where none is given: a pair symmetry that does not
    hold exactly, or a bound past the float range.

    For a frame (x_1, x_2, x_3, x_4), with x_ab = x_a ^ x_b,
    K = <R alpha, alpha> + <R beta, beta> - 2 b(x_1, x_2, x_3, x_4), where
    alpha = x_13 - x_24 and beta = x_14 + x_23 are orthogonal of norm sqrt(2)
    and b = ``_bianchi_sum(R)``.  By Ky Fan, the first two terms are at least
    2 (l_1 + l_2), the two smallest eigenvalues of R on the two-forms
    e_i ^ e_j, i < j (Micallef and Moore, Ann. Math. 127, 1988), and
    |b(x_1, x_2, x_3, x_4)| <= |b|_F.  R on two-forms is symmetric, because
    the pair interchange holds exactly.  The eigenvalues are eigvalsh's, so
    the bound also subtracts EIGEN_ERROR * dim * eps * max|l|; |b|_F is
    raised by the rounding of its sums, 6 eps n^2 on components below 1, and
    of its norm, relative n^4 eps.  It is computed on ``_unit_scaled(R)``,
    which is exact.
    """
    if _failed_symmetry(R.R):
        return None
    Rs, exponent = _unit_scaled(R.R)
    n = R.n
    lam = np.linalg.eigvalsh(_on_two_forms(Rs))
    eps = np.finfo(float).eps
    eigen_error = EIGEN_ERROR * len(lam) * eps * max(-lam[0], lam[-1])
    bianchi = float(np.linalg.norm(_bianchi_sum(Rs))) * (1.0 + n**4 * eps) + 6.0 * eps * n * n
    try:
        return math.ldexp(float(2.0 * (lam[0] + lam[1]) - eigen_error - 2.0 * bianchi), exponent)
    except OverflowError:
        return None


def _best_coordinate_frame(R: CurvTensor):
    """The least isotropic curvature over coordinate frames,
    R_acac + R_adad + R_bcbc + R_bdbd - 2 |R_abcd|, with a frame attaining it:
    (e_a, e_b, e_c, e_d), its last vector negated where R_abcd < 0 (which
    flips the sign of the cross term).  The symmetries of the isotropic
    curvature and that sign leave 3 C(n, 4) frames apart: each four-subset
    a < b < c < d split into the planes of z and w as {a, b | c, d},
    {a, c | b, d} and {a, d | b, c}.  Read off ``_unit_scaled(R)``, so no
    sum overflows."""
    Rs, exponent = _unit_scaled(R.R)
    quads = np.array(list(combinations(range(R.n), 4)))
    a, b, c, d = quads[:, [[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 1, 2]]].reshape(-1, 4).T
    cross = Rs[a, b, c, d]
    values = Rs[a, c, a, c] + Rs[a, d, a, d] + Rs[b, c, b, c] + Rs[b, d, b, d] - 2.0 * np.abs(cross)
    k = int(np.argmin(values))
    frame = np.zeros((4, R.n))
    frame[np.arange(4), [a[k], b[k], c[k], d[k]]] = [1.0, 1.0, 1.0, -1.0 if cross[k] < 0 else 1.0]
    return math.ldexp(float(values[k]), exponent), Frame4(frame)


def _verdict_minimum(R: CurvTensor, cfg: SearchConfig):
    """The (value, frame, restarts, kind) minimum a sigma-PIC verdict rests
    on: exact in dimension 4 (no search, 0 restarts); above it the frame
    search's minimum, or the best coordinate frame's value where that is
    lower, with the frame attaining it."""
    if R.n == 4:
        return (*exact_min_isotropic(R), 0, "exact")
    value, frame = min_isotropic(R, cfg)
    coordinate_value, coordinate_frame = _best_coordinate_frame(R)
    if coordinate_value < value:
        value, frame = coordinate_value, coordinate_frame
    return value, frame, cfg.restarts, "stochastic"


@dataclass
class PicVerdict:
    """Outcome of a sigma-PIC membership test, of one of three kinds:

    * ``"exact"`` (dimension 4): the rational test ``_exact_at_least``
      decides every verdict, and ``min_found`` is the closed-form minimum
      in floats, which only reports it: by its rounding a FAIL may carry
      a margin at or just above -tol and a PASS one just below it;
    * ``"certified"`` (a PASS in dimension 5 and up): ``min_found`` is the
      Ky Fan bound, which is at most the true minimum and proves the PASS;
      no search runs (``restarts`` 0, no witness);
    * ``"stochastic"`` (dimension 5 and up, where the bound does not prove
      sigma): ``min_found`` is the frame search's minimum, or the best
      coordinate frame's value where that is lower, an upper bound of the
      true one; a PASS is evidence, not a proof.

    A FAIL of ``is_sigma_pic`` carries a witness frame whose isotropic
    curvature is ``min_found``.  ``restarts`` is the search effort spent: the
    restarts of the frame search, 0 where none runs.  ``tolerance`` is the
    verdict's tolerance."""

    passed: bool
    sigma: float
    min_found: float
    witness: Frame4 | None
    restarts: int
    tolerance: float
    kind: str


def is_sigma_pic(R: CurvTensor, sigma: float, cfg: SearchConfig = SearchConfig()) -> PicVerdict:
    """Test whether the isotropic curvature stays >= sigma over all frames.

    FAIL comes with a concrete counter-frame.  In dimension 4 the rational
    test against sigma - tol decides every verdict exactly.  Above, a Ky Fan
    bound >= sigma - tol is a certified PASS with no search; otherwise the
    frame search decides, and its PASS is stochastic evidence (its effort is
    recorded in the verdict).  Any finite sigma is accepted, a negative one
    too, as in the band verdicts.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if R.n > 4:
        bound = _certified_bound(R)
        if bound is not None and bound >= sigma - cfg.tolerance:
            return PicVerdict(True, sigma, bound, None, 0, cfg.tolerance, "certified")
    value, frame, restarts, kind = _verdict_minimum(R, cfg)
    t = Fraction(sigma) - Fraction(cfg.tolerance)
    passed = _exact_at_least(R, t) if R.n == 4 else value >= sigma - cfg.tolerance
    return PicVerdict(passed, sigma, value, None if passed else frame, restarts, cfg.tolerance, kind)


# -- traces -----------------------------------------------------------


def ricci(R: CurvTensor) -> np.ndarray:
    return np.einsum("albl->ab", R.R)


# -- curvature operator on two-forms ----------------------------------


class WeitzOperator:
    """Hermitian curvature operator on the ordered two-form basis."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix):
        M = np.asarray(matrix)
        dim = len(degree_basis(n, 2))
        if M.shape != (dim, dim):
            raise ValueError(f"operator must be {dim} x {dim} for n = {n}")
        if not np.all(np.isfinite(M)):  # a NaN defect would pass the test below
            raise ValueError("curvature operator entries must be finite")
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
    - 2 R_ikjl theta^k ^ theta^l.  In the ordered basis (theta^l ^ theta^k =
    -theta^k ^ theta^l) its row a < b holds, summed in this order,
    Ric_ai d_bj - Ric_aj d_bi - 2 R_iajb + Ric_bj d_ai - Ric_bi d_aj + 2 R_ibja,
    d the Kronecker delta.  Its curvature terms are the curvature operator on
    two-forms only under the first Bianchi identity.
    """
    n = R.n
    _check_two_form_size(n)
    i, j = _two_form_pairs(n)
    a, b = i[:, None], j[:, None]  # the row's pair; the column's is (i, j)
    ric, d = ricci(R), np.eye(n)
    M = (ric[a, i] * d[b, j] - ric[a, j] * d[b, i] - 2.0 * R.R[i, a, j, b]
         + ric[b, j] * d[a, i] - ric[b, i] * d[a, j] + 2.0 * R.R[i, b, j, a])
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
    _check_two_form_size(n)
    wedge_interior, interior_wedge = exterior.two_form_blocks(n)
    action = np.einsum("ijpq,pqac->ijac", R.R, wedge_interior)
    return -0.5 * np.einsum("ijab,ijbc->ac", wedge_interior + interior_wedge, action)


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
    asserted: bool  # False when sigma < 0 or the sigma-PIC precondition fails


def weitzenboeck_lower_bound_check(
    R: CurvTensor, sigma: float, cfg: SearchConfig = SearchConfig()
) -> WeitzBoundReport:
    """Check lambda_min of the two-form curvature operator against
    (n-2) sigma / 2, asserted where sigma >= 0 and R is sigma-PIC.  The
    operator is built first, so a size is refused before the search runs."""
    if R.n % 2 != 0 or R.n < 4:
        raise ValueError("the eigenvalue bound is asserted for even n >= 4 only")
    lam = weitzenboeck_on_two_forms(R).lambda_min()
    verdict = is_sigma_pic(R, sigma, cfg)
    bound = 0.5 * (R.n - 2) * sigma
    margin = lam - bound
    asserted = sigma >= 0 and verdict.passed
    return WeitzBoundReport(R.n, sigma, lam, bound, margin, verdict, asserted and margin >= -1e-9, asserted)


# -- loading ----------------------------------------------------------


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


_TENSOR = {"n": int, "components": [{"i": int, "j": int, "k": int, "l": int, "v": float}]}


def load_curvature_json(doc) -> CurvTensor:
    """Build a tensor from ``{"n": n, "components": [{i,j,k,l,v}, ...]}``.

    Indices are 1-based and may list any generating set; the loader
    completes the orbit under the pair (anti)symmetries and rejects entries
    that disagree by more than 1e-10; the document is checked against its
    schema first.
    """
    doc = check_input(doc, _TENSOR, "a tensor file")
    n = doc["n"]
    _check_dimension(n)
    R = np.zeros((n, n, n, n))
    seen = np.zeros((n, n, n, n), dtype=bool)
    for m, entry in enumerate(doc["components"]):
        for key in "ijkl":
            if not 1 <= entry[key] <= n:
                raise ValueError(f"components[{m}].{key} must lie in 1..{n}, got {entry[key]}")
        i, j, k, l = (entry[key] - 1 for key in "ijkl")
        v = entry["v"]
        for perm, sign in _SLOT_PERMS:
            idx = tuple((i, j, k, l)[p] for p in perm)
            val = sign * v
            if seen[idx] and abs(R[idx] - val) > 1e-10:
                raise ValueError(f"inconsistent components at {idx}: {R[idx]} vs {val}")
            R[idx] = val
            seen[idx] = True
    return CurvTensor(R)
