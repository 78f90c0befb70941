"""Closed-form model Riemannian bands over round spheres.

A band is [r0, r1] x S^{n-1} with metric dr^2 + phi(r)^2 g_round.  In the
adapted orthonormal frame its curvature tensor has sphere-sphere sectional
(1 - phi'^2) / phi^2 and radial-sphere sectional -phi'' / phi, everything
else zero, which is one Kulkarni-Nomizu product, so the algebraic
symmetries hold exactly.  The outward-normal convention is fixed
globally: boundary_shape is positive on the boundary of a convex cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import comparison, curvature
from .curvature import CurvTensor, SearchConfig
from .reporting import Region, Report

__all__ = [
    "WarpProfile",
    "WarpedBand",
    "CounterexampleSpec",
    "band_curvature_at",
    "sigma_pic_profile",
    "boundary_shape",
    "k_convexity_defect",
    "width",
    "focal_radius_model",
    "counterexample_report",
    "betti_sphere_product",
    "load_band_json",
]


class _NaturalCubic:
    """Natural cubic spline through (xs, ys); evaluates value and two
    derivatives.  Plain tridiagonal solve, no external dependency."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 3:
            raise ValueError("table profile needs at least 3 (x, phi) samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        m = len(xs)
        h = np.diff(xs)
        rhs = np.zeros(m)
        rhs[1:-1] = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])
        diag = np.ones(m)
        diag[1:-1] = 2.0 * (h[:-1] + h[1:])
        lower = np.zeros(m - 1)
        upper = np.zeros(m - 1)
        lower[:-1] = h[:-1]
        upper[1:] = h[1:]
        lower[-1] = 0.0
        upper[0] = 0.0
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        self.M = np.linalg.solve(A, rhs)  # second derivatives at the knots
        self.xs, self.ys, self.h = xs, ys, h

    def _segment(self, r: float) -> int:
        return int(np.clip(np.searchsorted(self.xs, r) - 1, 0, len(self.xs) - 2))

    def value(self, r: float) -> float:
        i = self._segment(r)
        x0, x1, h = self.xs[i], self.xs[i + 1], self.h[i]
        a, b = (x1 - r) / h, (r - x0) / h
        return (
            a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a**3 - a) * self.M[i] + (b**3 - b) * self.M[i + 1]) * h * h / 6.0
        )

    def deriv(self, r: float) -> float:
        i = self._segment(r)
        x0, x1, h = self.xs[i], self.xs[i + 1], self.h[i]
        a, b = (x1 - r) / h, (r - x0) / h
        return (self.ys[i + 1] - self.ys[i]) / h + (
            -(3.0 * a**2 - 1.0) * self.M[i] + (3.0 * b**2 - 1.0) * self.M[i + 1]
        ) * h / 6.0

    def second(self, r: float) -> float:
        i = self._segment(r)
        x0, x1, h = self.xs[i], self.xs[i + 1], self.h[i]
        a, b = (x1 - r) / h, (r - x0) / h
        return a * self.M[i] + b * self.M[i + 1]


class WarpProfile:
    """Closed-form (or tabulated) warping with phi, phi', phi''."""

    def __init__(self, kind: str, scale: float = 1.0, xs=None, values=None):
        if kind not in ("const", "sin", "linear", "table"):
            raise ValueError(f"unknown warp kind {kind!r}")
        self.kind = kind
        self.scale = scale
        self._spline = _NaturalCubic(xs, values) if kind == "table" else None

    def __call__(self, r: float) -> float:
        if self.kind == "const":
            return self.scale
        if self.kind == "sin":
            return self.scale * math.sin(r)
        if self.kind == "table":
            return self._spline.value(r)
        return self.scale * r

    def d1(self, r: float) -> float:
        if self.kind == "const":
            return 0.0
        if self.kind == "sin":
            return self.scale * math.cos(r)
        if self.kind == "table":
            return self._spline.deriv(r)
        return self.scale

    def d2(self, r: float) -> float:
        if self.kind == "sin":
            return -self.scale * math.sin(r)
        if self.kind == "table":
            return self._spline.second(r)
        return 0.0

    def natural_floor(self) -> float:
        """Smallest radius the profile extends to with phi > 0."""
        if self.kind == "const":
            return -math.inf
        if self.kind == "table":
            return float(self._spline.xs[0])
        return 0.0


@dataclass(frozen=True)
class WarpedBand:
    n: int
    r0: float
    r1: float
    phi: WarpProfile

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("band dimension must be at least 3")
        if not (self.r0 < self.r1):
            raise ValueError("need r0 < r1")
        for r in np.linspace(self.r0, self.r1, 64):
            if self.phi(float(r)) <= 0:
                raise ValueError(f"warping must stay positive on the band, fails at r = {r}")

    def sectionals_at(self, r: float):
        """(sphere-sphere, radial-sphere) sectional curvatures."""
        p, dp, ddp = self.phi(r), self.phi.d1(r), self.phi.d2(r)
        return (1.0 - dp * dp) / (p * p), -ddp / p


def band_curvature_at(B: WarpedBand, r: float) -> CurvTensor:
    """Adapted-frame curvature tensor at radius r (frame: e_1..e_{n-1}
    spherical, e_n radial)."""
    if not (B.r0 <= r <= B.r1):
        raise ValueError(f"r = {r} outside the band [{B.r0}, {B.r1}]")
    ks, kr = B.sectionals_at(r)
    h = np.zeros((B.n, B.n))
    h[: B.n - 1, : B.n - 1] = np.eye(B.n - 1)
    q = np.zeros((B.n, B.n))
    q[B.n - 1, B.n - 1] = 1.0
    # (ks/2) h o^ h + kr h o^ q, as one product: o^ is bilinear
    return curvature.kulkarni_nomizu(h, 0.5 * ks * h + kr * q)


def sigma_pic_profile(
    B: WarpedBand, sigma: float, samples: int = 9, cfg: SearchConfig = SearchConfig(restarts=64)
) -> Report:
    """Minimum isotropic curvature at sampled radii; PASS iff it stays
    >= sigma - tol.  Exact for n = 4, the frame search above."""
    if B.n < 4:
        raise ValueError("isotropic curvature needs n >= 4")
    rs = np.linspace(B.r0, B.r1, samples)
    margins = []
    worst = (math.inf, None)
    for r in rs:
        value = curvature._verdict_minimum(band_curvature_at(B, float(r)), cfg)[0]
        margins.append(value - sigma)
        if value < worst[0]:
            worst = (value, float(r))
    passed = min(margins) >= -cfg.tolerance
    return Report(
        check="band.sigma_pic_profile",
        params={"n": B.n, "sigma": sigma, "r0": B.r0, "r1": B.r1, "phi": B.phi.kind, "samples": samples},
        passed=bool(passed),
        tolerance=cfg.tolerance,
        regions=[Region("min_isotropic_margin", float(min(margins)))],
        details={"worst_radius": worst[1], "min_isotropic": worst[0], "seed": cfg.seed},
    )


def boundary_shape(B: WarpedBand, end: str) -> np.ndarray:
    """Second fundamental form of a boundary sphere with respect to the
    outward normal: s (phi'/phi) I with s = +1 at the upper end (outward
    normal +d/dr) and s = -1 at the lower end."""
    if end == "upper":
        r, s = B.r1, 1.0
    elif end == "lower":
        r, s = B.r0, -1.0
    else:
        raise ValueError("end must be 'lower' or 'upper'")
    return s * (B.phi.d1(r) / B.phi(r)) * np.eye(B.n - 1)


def k_convexity_defect(A, k: int) -> float:
    """Least delta >= 0 such that every sum of k eigenvalues of A is
    >= -delta (variational principle: sum of the k smallest)."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k = {k} out of range 1..{m}")
    eigs = np.sort(np.linalg.eigvalsh(A))
    return max(0.0, -float(np.sum(eigs[:k])))


def width(B: WarpedBand) -> float:
    return B.r1 - B.r0


def focal_radius_model(B: WarpedBand, end: str):
    """Distance along the inward normal to the first focal point, computed
    by the Riccati oracle seeded with the boundary shape operator.

    Returns (focal_radius, capped): capped is True when no focal point was
    found before the model geometry runs out (then the horizon distance is
    returned, the band width for non-extendable warpings).
    """
    r_end = B.r1 if end == "upper" else B.r0
    direction = -1.0 if end == "upper" else 1.0  # inward radial motion
    floor = B.phi.natural_floor()
    if end == "upper":
        horizon = r_end - max(B.r0 if B.phi.kind == "const" else floor, floor)
        if not math.isfinite(horizon):
            horizon = width(B)
    else:
        horizon = width(B)

    def radial_curvature(rho):
        r = r_end + direction * rho
        p = B.phi(r)
        if p <= 0:
            return 0.0
        return -B.phi.d2(r) / p

    A0 = boundary_shape(B, end)
    model = comparison.RotSymModel(n=B.n, A0=A0, radial_curvature=radial_curvature)
    res = comparison.riccati_oracle(model, horizon)
    if res.crossed:
        return res.crossing, False
    return horizon, True


def betti_sphere_product(k: int, a: int, b: int) -> int:
    """b_k(S^a x S^b) for a, b >= 1 by the Kuenneth table."""
    return int(k in (0, a, b, a + b)) + int(a == b and k == a)


@dataclass(frozen=True)
class CounterexampleSpec:
    """Product cylinder with two product-embedded domains removed."""

    n: int
    k: int
    sigma: float
    L: float

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if not (2 <= self.k <= self.n - 2):
            raise ValueError("k must lie in [2, n-2]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.L <= 2.0 / math.sqrt(self.sigma):
            raise ValueError("need L > 2 / sqrt(sigma)")


def counterexample_report(S: CounterexampleSpec, cfg: SearchConfig = SearchConfig()) -> Report:
    """Desk-scale verification of the wide-band example on S^{n-1} x S^1.

    After scaling to sigma = 1, checks: the product tensor's minimal
    isotropic curvature clears sigma; the width lower bound 2L - 2 > L; the
    Betti count b_k = 2 via the recorded sphere-product arithmetic; and the
    boundary norm bound is carried symbolically (the domains are fixed up to
    diffeomorphisms with |D phi| + |D^2 phi| < 100).
    """
    n, k = S.n, S.k
    # S^{n-1} x S^1 product tensor, scaled so curvature ~ sigma
    R = curvature.sphere_line_product(n, S.sigma)
    min_iso = curvature._verdict_minimum(R, cfg)[0]
    curvature_margin = min_iso - S.sigma

    width_bound = 2.0 * S.L - 2.0 / math.sqrt(S.sigma)
    width_margin = width_bound - S.L

    b_complement = betti_sphere_product(k, k, n - k - 1) - (1 if n == 2 * k + 1 else 0)
    # puncturing balls preserves H^k for 2 <= k <= n-2, so this is b_k of
    # the full product cylinder
    b_punctured = betti_sphere_product(k, n - 1, 1)
    b_total = 2 * b_complement + b_punctured

    passed = curvature_margin >= -cfg.tolerance and width_margin > 0 and b_total == 2
    return Report(
        check="band.counterexample",
        params={"n": n, "k": k, "sigma": S.sigma, "L": S.L},
        passed=bool(passed),
        tolerance=cfg.tolerance,
        regions=[
            Region("curvature_margin", curvature_margin),
            Region("width_margin", width_margin),
        ],
        details={
            "min_isotropic": min_iso,
            "width_lower_bound": width_bound,
            "betti_building_block": b_complement,
            "betti_punctured_cylinder": b_punctured,
            "betti_total": b_total,
            "boundary_norm_bound": "C(n,k) sqrt(sigma), via diffeomorphism bound |Dphi|+|D2phi| < 100",
            "seed": cfg.seed,
        },
    )


def load_band_json(doc) -> WarpedBand:
    """Band spec: {"n", "phi": {"kind": "const"|"sin"|"linear"|"table",
    "scale"?, "x"?, "values"?}, "r0", "r1"}."""
    phi = doc["phi"]
    profile = WarpProfile(
        phi["kind"],
        float(phi.get("scale", 1.0)),
        xs=phi.get("x"),
        values=phi.get("values"),
    )
    return WarpedBand(int(doc["n"]), float(doc["r0"]), float(doc["r1"]), profile)
