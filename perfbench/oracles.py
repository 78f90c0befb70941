"""Independent oracles for the isotropic-curvature frame search.

Plain numpy on raw ``(n, n, n, n)`` component arrays; nothing here imports
picband, so a change to the searched code cannot change the reference it
is checked against.

Conventions match picband.curvature: ``R[i, j, i, j]`` is the sectional
curvature of span(e_i, e_j), and the isotropic curvature of a frame is
``R_1313 + R_1414 + R_2323 + R_2424 - 2 R_1234``.  The curvature operator
on two-forms acts on the basis ``e_i ^ e_j`` (i < j) by the matrix
``R[i, j, k, l]``.
"""

from __future__ import annotations

import itertools

import numpy as np

_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# Bases of the self-dual and anti-self-dual two-forms in R^4, as coefficient
# rows over _PAIRS4 (e_01, e_02, e_03, e_12, e_13, e_23).  Each row has norm
# sqrt(2); compressing with the unnormalised +-1 rows and halving keeps the
# arithmetic exact on tensors whose entries are dyadic multiples.
_LAMBDA_PLUS = np.array([
    [1, 0, 0, 0, 0, 1],   # e_01 + e_23
    [0, 1, 0, 0, -1, 0],  # e_02 - e_13
    [0, 0, 1, 1, 0, 0],   # e_03 + e_12
], dtype=float)
_LAMBDA_MINUS = np.array([
    [1, 0, 0, 0, 0, -1],
    [0, 1, 0, 0, 1, 0],
    [0, 0, 1, -1, 0, 0],
], dtype=float)


def curvature_operator(R: np.ndarray) -> np.ndarray:
    """Symmetric matrix of R on the two-forms e_i ^ e_j, i < j."""
    n = R.shape[0]
    pairs = list(itertools.combinations(range(n), 2))
    idx_i = np.array([p[0] for p in pairs])
    idx_j = np.array([p[1] for p in pairs])
    M = R[idx_i[:, None], idx_j[:, None], idx_i[None, :], idx_j[None, :]]
    return 0.5 * (M + M.T)


def _two_smallest_sum(M: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(M)
    return float(eigs[0] + eigs[1])


def closed_form_min4(R: np.ndarray) -> float:
    """Exact minimum isotropic curvature of a four-dimensional tensor:
    2 min(a1 + a2, b1 + b2) over the two smallest eigenvalues of R
    compressed to Lambda^+ and to Lambda^- (Micallef and Wang, 1993)."""
    if R.shape != (4, 4, 4, 4):
        raise ValueError(f"closed form needs a 4^4 tensor, got {R.shape}")
    M = curvature_operator(R)
    plus = 0.5 * (_LAMBDA_PLUS @ M @ _LAMBDA_PLUS.T)
    minus = 0.5 * (_LAMBDA_MINUS @ M @ _LAMBDA_MINUS.T)
    return 2.0 * min(_two_smallest_sum(plus), _two_smallest_sum(minus))


def lower_bound(R: np.ndarray) -> float:
    """Certified lower bound 2 (l1 + l2) of the isotropic curvature, from the
    two smallest eigenvalues of the full curvature operator (Micallef and
    Moore, 1988)."""
    return 2.0 * _two_smallest_sum(curvature_operator(R))


def restrict_to_frame(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Components of R on the span of the rows of the 4 x n frame X."""
    return np.einsum("ai,bj,ck,dl,ijkl->abcd", X, X, X, X, R, optimize=True)


def best_coordinate_plane(R: np.ndarray) -> float:
    """Smallest closed-form minimum over the coordinate four-planes."""
    return min(
        closed_form_min4(R[np.ix_(sub, sub, sub, sub)])
        for sub in itertools.combinations(range(R.shape[0]), 4)
    )


def check_search(R: np.ndarray, found: float, witness: np.ndarray | None) -> str | None:
    """Check a frame-search minimum against the oracles; None when it holds.

    n = 4: the closed form to 1e-6.  n >= 5: the certified lower bound is
    below the value, the value is below every coordinate-plane closed form
    (+1e-9), and, given a witness frame, the closed form on the witness's
    own four-plane equals the value to 1e-6.
    """
    if not np.isfinite(found):
        return f"non-finite minimum {found!r}"
    n = R.shape[0]
    if n == 4:
        exact = closed_form_min4(R)
        if abs(found - exact) > 1e-6:
            return f"n=4 minimum {found:.12g} != closed form {exact:.12g}"
        return None
    bound = lower_bound(R)
    if bound > found + 1e-9:
        return f"lower bound {bound:.12g} above found minimum {found:.12g}"
    plane = best_coordinate_plane(R)
    if found > plane + 1e-9:
        return f"found minimum {found:.12g} above coordinate-plane closed form {plane:.12g}"
    if witness is not None:
        own = closed_form_min4(restrict_to_frame(R, witness))
        if abs(own - found) > 1e-6:
            return f"witness-plane closed form {own:.12g} != found minimum {found:.12g}"
    return None


def band_tensor4(ks: float, kr: float) -> np.ndarray:
    """Four-dimensional warped-band curvature in the adapted frame: sectional
    ks on the pairs among e_1..e_3, kr on the pairs with the radial e_4,
    and no other components."""
    R = np.zeros((4, 4, 4, 4))
    for i, j in _PAIRS4:
        k = kr if j == 3 else ks
        R[i, j, i, j] = R[j, i, j, i] = k
        R[i, j, j, i] = R[j, i, i, j] = -k
    return R


def warp_sectionals(kind: str, scale: float, r: float) -> tuple[float, float]:
    """(sphere-sphere, radial-sphere) sectionals (1 - phi'^2)/phi^2 and
    -phi''/phi of the closed-form warpings const, sin and linear."""
    if kind == "const":
        phi, d1, d2 = scale, 0.0, 0.0
    elif kind == "sin":
        phi, d1, d2 = scale * np.sin(r), scale * np.cos(r), -scale * np.sin(r)
    elif kind == "linear":
        phi, d1, d2 = scale * r, scale, 0.0
    else:
        raise ValueError(f"no closed form for warp kind {kind!r}")
    return (1.0 - d1 * d1) / (phi * phi), -d2 / phi


def band_profile_min(kind: str, scale: float, r0: float, r1: float, samples: int) -> float:
    """Closed-form minimum isotropic curvature of a four-dimensional band
    over the radii a profile check samples."""
    return min(
        closed_form_min4(band_tensor4(*warp_sectionals(kind, scale, float(r))))
        for r in np.linspace(r0, r1, samples)
    )
