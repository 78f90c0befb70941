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
    chi = P.ChiCutoff(0.9)
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
