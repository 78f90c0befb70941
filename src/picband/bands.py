"""Closed-form model Riemannian bands over round spheres.

A band is [r0, r1] x S^{n-1} with metric dr^2 + phi(r)^2 g_round.  In the
adapted orthonormal frame its curvature tensor has sphere-sphere sectional
ks = (1 - phi'^2) / phi^2 and radial-sphere sectional kr = -phi'' / phi,
everything else zero, which is one Kulkarni-Nomizu product, so the
algebraic symmetries hold exactly.  Its minimum isotropic curvature is a
closed form in (ks, kr) at every n (``_isotropic_min``), which the sigma-PIC
profile and the wide-band example read directly: no tensor is built and no
frame is searched.  ``band_curvatures`` builds the dense tensors, the
independent route the tests compare that closed form against.  The
outward-normal convention is fixed globally: boundary_shape is positive on
the boundary of a convex cap.

Each warp kind (const, sin, linear, table) is declared once in ``_KINDS``:
the phi keys a band spec of that kind reads, its jet, its natural floor,
the radii of [lo, hi] among which phi is least and the width from which
every band holds a zero of phi (pi for sin).  A band is accepted only if it
is narrower than that and phi is positive, phi^2 does not underflow and the
sectionals are finite at exactly those radii, so the positivity check holds
on the whole band, not on samples of it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import comparison, curvature
from .curvature import SearchConfig
from .reporting import Region, Report, Tagged, check_input

__all__ = [
    "WarpProfile",
    "WarpedBand",
    "CounterexampleSpec",
    "band_curvatures",
    "sigma_pic_profile",
    "boundary_shape",
    "k_convexity_defect",
    "focal_radius_model",
    "counterexample_report",
    "betti_sphere_product",
    "load_band_json",
]


class _Piece(NamedTuple):
    """One piece of a profile: jet(t) is (f, f', f'') at its own coordinate
    t = local(x), each a number or an array like t; ends are the exact t of its
    two ends (-inf and inf on the outer sides of the first and last piece)."""

    jet: Callable
    ends: tuple
    local: Callable = lambda x: x


class _Piecewise:
    """A profile declared once, as pieces split by increasing breakpoints.
    ``jet`` evaluates each piece only on its own points, so no piece needs to
    be finite off them; a breakpoint takes its left piece and a NaN the last.
    ``limits`` evaluates the pieces at the exact coordinates of their ends."""

    def __init__(self, breaks, pieces):
        self.breaks = np.asarray(breaks, dtype=float)
        self.pieces = tuple(pieces)

    def index(self, x):
        """The piece of each x."""
        return np.searchsorted(self.breaks, x)

    def jet(self, x):
        """(f, f', f'') at x, each shaped like x."""
        x = np.asarray(x, dtype=float)
        which, out = self.index(x), np.empty((3, *x.shape))
        for k in np.unique(which):
            on, piece = which == k, self.pieces[k]
            t = piece.local(x[on])
            out[:, on] = np.broadcast_arrays(t, *piece.jet(t))[1:]
        return tuple(out)

    def limits(self) -> np.ndarray:
        """(left, right) one-sided (f, f', f'') at each breakpoint, shape
        (breakpoints, 2, 3); np.ptp over its axis 1 gives the jumps."""
        return np.array([[left.jet(left.ends[1]), right.jet(right.ends[0])]
                         for left, right in zip(self.pieces, self.pieces[1:])], dtype=float)


class _NaturalCubic:
    """Natural cubic spline through (xs, ys) with its first two derivatives.
    Piece i is the cubic between knots i and i + 1, the end pieces extended
    past the end knots.

    The second derivatives M at the knots are 0 at both ends and solve the
    interior rows h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1] = rhs[i],
    a tridiagonal system whose diagonal strictly dominates, so one forward
    and one back sweep solve it without pivoting, in O(m) time and memory
    for m knots."""

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 3:
            raise ValueError("table profile needs at least 3 (x, phi) samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("table abscissae must be strictly increasing")
        h = np.diff(xs)
        rhs = 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1])
        ratio, value = [0.0], [0.0]  # each row reduced to M[i] + ratio M[i+1] = value; M[0] = 0
        for a, b, c, d in zip(h[:-1].tolist(), (2.0 * (h[:-1] + h[1:])).tolist(), h[1:].tolist(), rhs.tolist()):
            w = b - a * ratio[-1]
            ratio.append(c / w)
            value.append((d - a * value[-1]) / w)
        M = [0.0]  # M[m-1] = 0, then back up the rows
        for r, v in zip(reversed(ratio), reversed(value)):
            M.append(v - r * M[-1])
        self.M = np.array(M[::-1])  # second derivatives at the knots
        self.xs, self.ys, self.h = xs, ys, h
        ends = np.r_[-math.inf, xs[1:-1], math.inf]
        self.pieces = _Piecewise(xs[1:-1], [_Piece(partial(self._cubic, i), (ends[i], ends[i + 1]))
                                            for i in range(len(h))])

    def _cubic(self, i, r):
        """(value, first, second derivative) of piece i's cubic at r, for i
        shaped like r.  np.float_power is libm's pow at any array size; ``**``
        may take a SIMD pow on arrays, which moves last bits with the size."""
        x0, x1, h = self.xs[i], self.xs[i + 1], self.h[i]
        y0, y1, M0, M1 = self.ys[i], self.ys[i + 1], self.M[i], self.M[i + 1]
        a, b = (x1 - r) / h, (r - x0) / h
        a2, b2 = np.float_power(a, 2.0), np.float_power(b, 2.0)
        return (
            a * y0 + b * y1 + ((np.float_power(a, 3.0) - a) * M0 + (np.float_power(b, 3.0) - b) * M1) * h * h / 6.0,
            (y1 - y0) / h + (-(3.0 * a2 - 1.0) * M0 + (3.0 * b2 - 1.0) * M1) * h / 6.0,
            a * M0 + b * M1,
        )

    def jet(self, r):
        """(value, first, second derivative) at r, vectorised."""
        return self._cubic(self.pieces.index(r), np.asarray(r, dtype=float))

    def critical_radii(self, lo: float, hi: float) -> list:
        """Radii of [lo, hi] among which phi attains its minimum there, and
        |phi'| its maximum: each piece meets [lo, hi] in an interval, possibly
        a point, where its cubic is least at an end or at a real root of its
        quadratic derivative, and its derivative peaks at an end or at the root
        of its linear second derivative.  Roots are clipped into the interval,
        so a complex pair adds only harmless radii."""
        radii = [lo]
        for i, piece in enumerate(self.pieces.pieces):
            start, stop = np.clip(piece.ends, lo, hi)
            h, M0, M1 = self.h[i], self.M[i], self.M[i + 1]
            # phi'(x_i + t h) = c0 + h M0 t + h (M1 - M0) t^2 / 2, phi''(x_i + t h) = M0 + (M1 - M0) t
            c0 = (self.ys[i + 1] - self.ys[i]) / h - h * (2.0 * M0 + M1) / 6.0
            ts = np.r_[np.roots([0.5 * h * (M1 - M0), h * M0, c0]), np.roots([M1 - M0, M0])].real
            radii += [stop, *np.clip(self.xs[i] + h * ts, start, stop)]
        return radii


def _sin_radii(s: float, lo: float, hi: float) -> list:
    """s sin r is least on [lo, hi] at an end or where it turns downward:
    at 3 pi/2 (s > 0) or pi/2 (s < 0) modulo 2 pi.  The first such radius
    at or past lo is lo plus an offset in [0, 2 pi), so it is exact near lo
    and, where floats are too coarse to place it (|r| past about 1e16),
    rounds onto lo; such a band is refused by its width, pi or more
    (``max_width``).  |phi'| peaks at an end too, or at a zero of phi."""
    turn = lo + (math.pi * (1.5 if s > 0 else 0.5) - lo) % (2.0 * math.pi)
    return [lo, hi, turn] if turn <= hi else [lo, hi]


class _Kind(NamedTuple):
    """One warp kind: schema, the phi keys a band spec of this kind reads
    besides "kind"; make(scale, xs, values), the profile's parameters p; jet(p, r),
    (phi, phi', phi''); floor(p), the smallest radius the profile extends
    to with phi > 0; radii(p, lo, hi), the radii of [lo, hi] among
    which phi is least and |phi'| largest; and max_width: every band at
    least this wide holds a zero of phi, also where floats are too coarse
    to place one."""

    schema: dict
    make: Callable
    jet: Callable
    floor: Callable
    radii: Callable
    max_width: float = math.inf


def _scale(scale, xs, values):
    return scale


# Exact-zero derivatives are 0.0 literals, not scaled: a negative scale must
# not turn them into -0.0.
_KINDS = {
    "const": _Kind({"scale?": float}, _scale, lambda s, r: (s, 0.0, 0.0), lambda s: -math.inf,
                   lambda s, lo, hi: [lo]),
    "sin": _Kind({"scale?": float}, _scale, lambda s, r: (s * math.sin(r), s * math.cos(r), -s * math.sin(r)),
                 lambda s: 0.0, _sin_radii, math.pi),  # zeros are pi apart
    "linear": _Kind({"scale?": float}, _scale, lambda s, r: (s * r, s, 0.0), lambda s: 0.0,
                    lambda s, lo, hi: [lo, hi]),  # monotone
    "table": _Kind({"x": [float], "values": [float]}, lambda scale, xs, values: _NaturalCubic(xs, values),
                   _NaturalCubic.jet, lambda spline: float(spline.xs[0]), _NaturalCubic.critical_radii),
}


class WarpProfile:
    """A warping of one declared kind (``_KINDS``); jet(r) gives (phi, phi',
    phi'').  The scale multiplies the closed forms; a table is taken as
    given."""

    def __init__(self, kind: str, scale: float = 1.0, xs=None, values=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown warp kind {kind!r}")
        self.kind = kind
        self._kind = _KINDS[kind]
        self._p = self._kind.make(scale, xs, values)
        self.natural_floor = self._kind.floor(self._p)
        self.max_width = self._kind.max_width

    def jet(self, r: float):
        return self._kind.jet(self._p, r)

    def critical_radii(self, lo: float, hi: float) -> list:
        """Radii of [lo, hi] among which phi is least and |phi'| largest."""
        return self._kind.radii(self._p, lo, hi)


@dataclass(frozen=True)
class WarpedBand:
    n: int
    r0: float
    r1: float
    phi: WarpProfile

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("band dimension must be at least 3")
        curvature._check_dimension(self.n)  # the band's curvature tensors are dense
        if not (self.r0 < self.r1):
            raise ValueError("need r0 < r1")
        radii = [float(r) for r in self.phi.critical_radii(self.r0, self.r1)]
        p, r = min((self.phi.jet(r)[0], r) for r in radii)
        if p <= 0:
            raise ValueError(f"warping must stay positive on the band, phi = {p:g} at r = {r}")
        if self.r1 - self.r0 >= self.phi.max_width:
            raise ValueError(f"warping must stay positive on the band, but {self.phi.kind} has a zero on every band "
                             f"at least {self.phi.max_width:g} wide")
        if p * p < sys.float_info.min:  # the sectionals divide by phi^2
            raise ValueError(f"warping phi = {p:g} underflows phi^2 on the band, at r = {r}")
        for r in radii:
            if not all(map(math.isfinite, self.sectionals_at(r))):  # phi^2 or phi'^2 past the float range
                p = self.phi.jet(r)[0]
                raise ValueError(f"warping phi = {p:g} overflows the sectionals on the band, at r = {r}")

    def sectionals_at(self, r: float):
        """(sphere-sphere, radial-sphere) sectional curvatures."""
        return _sectionals(*self.phi.jet(r))


def _sectionals(p, dp, ddp):
    """(1 - phi'^2) / phi^2 and -phi'' / phi of a jet (phi, phi', phi''), scalars or arrays."""
    return (1.0 - dp * dp) / (p * p), -ddp / p


def _isotropic_min(n: int, ks, kr):
    """Minimum isotropic curvature of a warped band at a radius whose
    sphere-sphere and radial-sphere sectionals are ks and kr (scalars or
    arrays): 2 (ks + kr) in dimension 4, min(2 (ks + kr), 4 ks) above.

    In the adapted frame the curvature operator on two-forms is
    R = ks I + (kr - ks) Pi, with Pi the orthogonal projection onto
    e_r ^ TS^{n-1}.  For an orthonormal frame (x1, x2, x3, x4) put
    z = x1 + i x2 and w = x3 + i x4; the isotropic curvature is
    <R(z ^ w), conj(z ^ w)> = ks |z ^ w|^2 + (kr - ks) |Pi(z ^ w)|^2, and
    |z ^ w|^2 = 4.  Pi(z ^ w) = e_r ^ i_{e_r}(z ^ w), with
    i_{e_r}(z ^ w) = a w - b z for a = <e_r, z>, b = <e_r, w>, orthogonal
    to e_r.  Its squared length is 2 |a|^2 + 2 |b|^2: the cross term
    2 Re(a conj(b) <w, z>) vanishes because z and w are Hermitian-orthogonal.
    With t = |a|^2 + |b|^2, the squared length of e_r's projection onto the
    frame's 4-plane, t in [0, 1], the isotropic curvature is
    4 ks + 2 (kr - ks) t, linear in t.  In dimension 4 the plane is the
    whole space, t = 1 and the value is 2 (ks + kr) on every frame; from
    dimension 5 on, t = 1 and t = 0 are both attained (a plane through e_r
    and one orthogonal to it), so the minimum is min(2 (ks + kr), 4 ks).
    At n = 4 this is the Micallef-Wang closed form of the band tensor.
    """
    if n == 4:
        return 2.0 * (ks + kr)
    return np.minimum(2.0 * (ks + kr), 4.0 * ks)


def band_curvatures(B: WarpedBand, rs) -> np.ndarray:
    """Adapted-frame curvature components at every radius of rs (frame:
    e_1..e_{n-1} spherical, e_n radial), as one validated stack
    (len(rs), n, n, n, n): the dense route the tests compare
    :func:`_isotropic_min` against."""
    rs = [float(r) for r in rs]
    for r in rs:
        if not (B.r0 <= r <= B.r1):
            raise ValueError(f"r = {r} outside the band [{B.r0}, {B.r1}]")
    ks, kr = np.array([B.sectionals_at(r) for r in rs]).T[:, :, None, None]
    h = np.zeros((B.n, B.n))
    h[: B.n - 1, : B.n - 1] = np.eye(B.n - 1)
    q = np.zeros((B.n, B.n))
    q[B.n - 1, B.n - 1] = 1.0
    # (ks/2) h o^ h + kr h o^ q, as one product: o^ is bilinear
    R = curvature._kn_components(h, 0.5 * ks * h + kr * q)
    curvature._validate(R)
    return R


def sigma_pic_profile(B: WarpedBand, sigma: float, samples: int = 9, cfg: SearchConfig = SearchConfig()) -> Report:
    """Minimum isotropic curvature at ``samples`` evenly spaced radii; PASS
    iff its margin less the rounding bound stays >= -cfg.tolerance.  At each
    radius the value is the closed form of :func:`_isotropic_min` in that
    radius's sectionals, at every n, evaluated in floats from the jet, taken
    as exact.  ks takes four roundings of terms at most a = (1 + phi'^2) /
    phi^2 and kr one, so the value is within 8 eps a + 2 eps |kr| of exact;
    the bound 4 eps (6 a + 2 |kr|) reads a and |kr| off the least phi and
    the largest |phi'| and |phi''| (inf past the float range).  A margin
    within it of -tol is a FAIL whose details say ``"undecided": true``.
    Between the radii nothing is judged, so a dip there passes (ROADMAP
    item 1).  The worst radius is the first one attaining the minimum.
    ``cfg`` supplies only the tolerance: nothing is searched."""
    if B.n < 4:
        raise ValueError("isotropic curvature needs n >= 4")
    rs = np.linspace(B.r0, B.r1, samples)
    p, dp, ddp = zip(*(B.phi.jet(r) for r in rs.tolist()))
    values = _isotropic_min(B.n, *_sectionals(*np.array([p, dp, ddp], dtype=float)))
    k = int(np.argmin(values))
    margin = float(values[k]) - sigma
    # in Python floats, which reach inf with no overflow warning
    least, slope, curve = float(min(p)), float(max(map(abs, dp))), float(max(map(abs, ddp)))
    bound = 4.0 * sys.float_info.epsilon * (6.0 * (1.0 + slope * slope) / (least * least) + 2.0 * curve / least)
    passed = margin - bound >= -cfg.tolerance
    details = {"worst_radius": float(rs[k]), "min_isotropic": float(values[k])}
    if not passed and margin + bound >= -cfg.tolerance:
        details["undecided"] = True
    return Report(
        check="band.sigma_pic_profile",
        params={"n": B.n, "sigma": sigma, "r0": B.r0, "r1": B.r1, "phi": B.phi.kind, "samples": samples},
        passed=passed,
        tolerance=cfg.tolerance,
        regions=[Region("min_isotropic_margin", margin)],
        details=details,
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
    p, dp, _ = B.phi.jet(r)
    return s * (dp / p) * np.eye(B.n - 1)


def k_convexity_defect(A, k: int) -> float:
    """Least delta >= 0 such that every sum of k eigenvalues of A is
    >= -delta (variational principle: sum of the k smallest)."""
    A = np.asarray(A, dtype=float)
    m = A.shape[0]
    if not (1 <= k <= m):
        raise ValueError(f"k = {k} out of range 1..{m}")
    eigs = np.linalg.eigvalsh(A)  # ascending
    return max(0.0, -float(np.sum(eigs[:k])))


def focal_radius_model(B: WarpedBand, end: str):
    """Distance along the inward normal to the first focal point, computed
    by the Riccati oracle seeded with the boundary shape operator.

    Returns (focal_radius, capped): capped is True when no focal point was
    found before the model geometry runs out.  The horizon returned then is
    the distance from the upper end down to the profile's natural floor, or
    the band width at the lower end and for a profile with no floor (const).
    """
    r_end = B.r1 if end == "upper" else B.r0
    direction = -1.0 if end == "upper" else 1.0  # inward radial motion
    horizon = r_end - B.phi.natural_floor if end == "upper" else B.r1 - B.r0
    if math.isinf(horizon):
        horizon = B.r1 - B.r0

    def radial_curvature(rho):
        p, _, ddp = B.phi.jet(r_end + direction * rho)
        return 0.0 if p <= 0 else -ddp / p

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
        curvature._check_dimension(self.n)  # the product tensor the report speaks of is dense


def counterexample_report(S: CounterexampleSpec) -> Report:
    """Desk-scale verification of the wide-band example on S^{n-1} x S^1.

    After scaling to sigma = 1, checks: the product tensor's minimal
    isotropic curvature clears sigma (S^{n-1} x S^1 is the band with
    ks = sigma and kr = 0, so it is 2 sigma exactly, :func:`_isotropic_min`;
    to the tolerance 1e-9); the width lower bound 2L - 2 > L; the
    Betti count b_k = 2 via the recorded sphere-product arithmetic; and the
    boundary norm bound is carried symbolically (the domains are fixed up to
    diffeomorphisms with |D phi| + |D^2 phi| < 100).
    """
    n, k = S.n, S.k
    min_iso = float(_isotropic_min(n, S.sigma, 0.0))
    curvature_margin = min_iso - S.sigma

    width_bound = 2.0 * S.L - 2.0 / math.sqrt(S.sigma)
    width_margin = width_bound - S.L

    b_complement = betti_sphere_product(k, k, n - k - 1) - (1 if n == 2 * k + 1 else 0)
    # puncturing balls preserves H^k for 2 <= k <= n-2, so this is b_k of
    # the full product cylinder
    b_punctured = betti_sphere_product(k, n - 1, 1)
    b_total = 2 * b_complement + b_punctured

    tol = 1e-9
    passed = curvature_margin >= -tol and width_margin > 0 and b_total == 2
    return Report(
        check="band.counterexample",
        params={"n": n, "k": k, "sigma": S.sigma, "L": S.L},
        passed=bool(passed),
        tolerance=tol,
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
        },
    )


_BAND = {"n": int, "phi": Tagged("kind", {name: k.schema for name, k in _KINDS.items()}), "r0": float, "r1": float}


def load_band_json(doc) -> WarpedBand:
    """Band spec: {"n", "phi", "r0", "r1"}, phi either {"kind":
    "const"|"sin"|"linear", "scale"?} or {"kind": "table", "x", "values"}:
    the keys of its kind's declaration, checked against that schema."""
    doc = check_input(doc, _BAND, "a band spec")
    phi = doc["phi"]
    profile = WarpProfile(phi["kind"], phi.get("scale", 1.0), xs=phi.get("x"), values=phi.get("values"))
    return WarpedBand(doc["n"], doc["r0"], doc["r1"], profile)
