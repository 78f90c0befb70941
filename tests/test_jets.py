"""Every radial profile's jet is a function with its own derivatives."""

import math

import numpy as np
import pytest

from picband import bands as BD
from picband import potentials as P

STEP = 1e-5  # central-difference step
CLEARANCE = 1e-3  # sample points stay this far from a breakpoint or knot


def _focal(orientation):
    pot = P.PiecewisePotential(P.FocalParams(4, 1.0, 5.0, 100.0), orientation)
    return pot.jet, 0.0, 1.2 * pot.breakpoints[1], pot.breakpoints


def _chi():
    chi = P.ChiCutoff()
    return chi.jet, 0.0, 1.5, chi.breakpoints


def _table():
    xs = np.linspace(0.2, 1.6, 17)
    return BD.WarpProfile("table", xs=xs, values=np.sin(xs)).jet, 0.2, 1.6, xs


PROFILES = {
    "focal-N": lambda: _focal("N"),
    "focal-D": lambda: _focal("D"),
    "chi": _chi,
    "warp-const": lambda: (BD.WarpProfile("const", 1.5).jet, 0.2, 3.0, ()),
    "warp-sin": lambda: (BD.WarpProfile("sin", 1.3).jet, 0.2, 3.0, ()),
    "warp-linear": lambda: (BD.WarpProfile("linear", -0.7).jet, 0.2, 3.0, ()),
    "warp-table": _table,
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_jet_derivatives_match_central_differences(name):
    """Each component's central difference matches the next component,
    at points whose stencil stays inside one piece."""
    jet, lo, hi, breaks = PROFILES[name]()
    ts = [t for t in np.linspace(lo, hi, 101)[1:-1] if all(abs(t - b) > CLEARANCE for b in breaks)]
    assert len(ts) > 80
    for t in ts:
        left, mid, right = (np.array(jet(float(t + s)), dtype=float) for s in (-STEP, 0.0, STEP))
        diff = (right - left)[:-1] / (2.0 * STEP)
        assert np.all(np.abs(diff - mid[1:]) <= 1e-6 * np.maximum(1.0, np.abs(mid[1:]))), (name, t)


def test_warp_zero_derivatives_keep_their_sign():
    """Exact-zero derivatives are not scaled: a negative scale leaves +0.0."""
    for kind, parts in (("linear", [2]), ("const", [1, 2])):
        jet = BD.WarpProfile(kind, -1.5).jet(0.7)
        assert all(math.copysign(1.0, jet[i]) == 1.0 for i in parts), kind


# -- the jets against their np.select and searchsorted forms --------------
#
# Each piecewise profile once picked its piece with np.select, which
# evaluates every piece at every point, or, for the spline, with a scalar
# searchsorted.  Those forms stay here as the reference route: the declared
# pieces must reproduce them byte for byte, signed zeros included.


def _select_focal(pot, rho):
    """The focal jet by np.select: the middle piece clipped off the sin/tan
    poles and the line cut at its breakpoint, because both are evaluated at
    every rho."""
    p, s = pot.params, pot.sign
    rho = np.asarray(rho, dtype=float)
    x1, x2 = pot.breakpoints
    u = np.clip(p.beta * (rho - p.rho_sigma + p.rho_lambda), 1e-9, math.pi - 1e-9)
    lin = (
        -p.slope_a * (np.minimum(rho, x1) - p.rho_sigma + p.rho_lambda - 1.0 / p.lam_bar) + p.offset_b,
        np.full_like(rho, -p.slope_a),
        np.zeros_like(rho),
    )
    mid = (-2.0 * np.log(np.sin(u)), -2.0 * p.beta / np.tan(u), 2.0 * p.beta**2 / np.sin(u) ** 2)
    conds = [rho <= x1, rho <= x2]
    return tuple(s * np.select(conds, [a, b], default=0.0) for a, b in zip(lin, mid))


def _select_chi(chi, x):
    """The cutoff's jet by np.select over its five pieces."""
    x = np.asarray(x, dtype=float)
    h, e, p = chi.height, chi.ramp, chi.plateau_end
    _, x0, x1, _ = chi.breakpoints
    conds = [x <= 0.5, x <= x0, x <= x1, x <= p]
    value = [
        -x,
        -x + h * (x - 0.5) ** 3 / (6.0 * e),
        chi._v_x0 + chi._dp_x0 * (x - x0) + 0.5 * h * (x - x0) ** 2,
        chi.c_plateau + (h / (6.0 * e)) * (p - x) ** 3,
    ]
    slope = [
        np.full_like(x, -1.0),
        -1.0 + h * (x - 0.5) ** 2 / (2.0 * e),
        chi._dp_x0 + h * (x - x0),
        -(h / (2.0 * e)) * (p - x) ** 2,
    ]
    second = [np.zeros_like(x), h * (x - 0.5) / e, np.full_like(x, h), h * (p - x) / e]
    return (
        np.select(conds, value, default=chi.c_plateau),
        np.select(conds, slope, default=0.0),
        np.select(conds, second, default=0.0),
    )


def _scalar_spline(spline, r: float):
    """The spline's jet at one radius, its segment found by searchsorted."""
    i = int(np.clip(np.searchsorted(spline.xs, r) - 1, 0, len(spline.xs) - 2))
    x0, x1, h = spline.xs[i], spline.xs[i + 1], spline.h[i]
    y0, y1, M0, M1 = spline.ys[i], spline.ys[i + 1], spline.M[i], spline.M[i + 1]
    a, b = (x1 - r) / h, (r - x0) / h
    return (
        a * y0 + b * y1 + ((a**3 - a) * M0 + (b**3 - b) * M1) * h * h / 6.0,
        (y1 - y0) / h + (-(3.0 * a**2 - 1.0) * M0 + (3.0 * b**2 - 1.0) * M1) * h / 6.0,
        a * M0 + b * M1,
    )


def _probes(lo, hi, breaks):
    """10,001 points over [lo, hi], each breakpoint and the points 1e-9 to
    either side of it, a negative radius, 1e306 and NaN."""
    breaks = np.asarray(breaks, dtype=float)
    return np.r_[np.linspace(lo, hi, 10_001), breaks, breaks - 1e-9, breaks + 1e-9, -1.0, 1e306, np.nan]


DIP_X = np.linspace(0.0, 3.0, 33)
DIP_VALUES = np.where(DIP_X == 0.5625, 0.996, 1.0)
UNDERSHOOT_X = np.linspace(0.0, 3.0, 301)
UNDERSHOOT_VALUES = np.where(UNDERSHOOT_X < 1.5, 1.0, 0.03)


@pytest.mark.parametrize("orientation", ["N", "D"])
@pytest.mark.parametrize("params", [(4, 1.0, 5.0, 100.0), (6, 2.0, 15.0, 200.0), (8, 0.5, 12.0, 50.0),
                                    (4, 1e-3, 0.2, 10.0)])
def test_focal_pieces_reproduce_the_select_jet(params, orientation):
    """Byte-equal to the np.select jet; no piece is evaluated off its own
    points, so nothing overflows or meets a pole, at 1e306 either."""
    pot = P.PiecewisePotential(P.FocalParams(*params), orientation)
    rho = _probes(0.0, 2.0 * pot.breakpoints[1], pot.breakpoints)
    with np.errstate(all="raise"):
        got = np.array(pot.jet(rho))
    assert got.tobytes() == np.array(_select_focal(pot, rho)).tobytes()


def test_chi_pieces_reproduce_the_select_jet():
    chi = P.ChiCutoff()
    x = _probes(0.0, 2.0, chi.breakpoints)
    with np.errstate(all="raise"):
        got = np.array(chi.jet(x))
    with np.errstate(over="ignore", invalid="ignore"):  # np.select cubes 1e306 on every piece
        want = np.array(_select_chi(chi, x))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("table", ["dip", "undershoot"])
def test_spline_pieces_reproduce_the_scalar_jet(table):
    """The vectorised jet, its scalar calls and the pieces one by one are
    byte-equal to the searchsorted jet, the end pieces extended past the
    knots (1e306 overflows every route alike)."""
    xs, values = (DIP_X, DIP_VALUES) if table == "dip" else (UNDERSHOOT_X, UNDERSHOOT_VALUES)
    spline = BD._NaturalCubic(xs, values)
    r = _probes(-0.5, 3.5, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.array([_scalar_spline(spline, float(t)) for t in r]).T.tobytes()
        assert np.array(spline.jet(r)).tobytes() == want
        assert np.array([spline.jet(float(t)) for t in r]).T.tobytes() == want
        assert np.array(spline.pieces.jet(r)).tobytes() == want
