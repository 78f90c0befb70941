import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from picband import bands as BD
from picband import curvature as C
from tests.conftest import constant_curvature


def tensor_at(B, r):
    """The validated dense band tensor at one radius."""
    return C.CurvTensor(BD.band_curvatures(B, [r])[0])


def test_product_band_curvature():
    B = BD.WarpedBand(4, 0.0, 3.0, BD.WarpProfile("const"))
    R = tensor_at(B, 1.5)
    assert R.R[0, 1, 0, 1] == 1.0  # sphere-sphere
    assert R.R[0, 3, 0, 3] == 0.0  # radial-sphere
    R.validate()


def test_sin_band_is_round_sphere():
    B = BD.WarpedBand(5, 0.3, math.pi / 2, BD.WarpProfile("sin"))
    for r in np.linspace(0.3, math.pi / 2, 7):
        R = tensor_at(B, float(r))
        assert np.max(np.abs(R.R - constant_curvature(5, 1.0).R)) < 1e-12


def test_linear_band_is_flat():
    B = BD.WarpedBand(4, 0.5, 2.0, BD.WarpProfile("linear"))
    assert np.max(np.abs(tensor_at(B, 1.0).R)) == 0.0


def test_curvature_outside_band_rejected():
    B = BD.WarpedBand(4, 0.0, 1.0, BD.WarpProfile("const"))
    with pytest.raises(ValueError):
        tensor_at(B, 2.0)


def test_positive_warping_required():
    with pytest.raises(ValueError):
        BD.WarpedBand(4, 2.0, 4.0, BD.WarpProfile("sin"))  # sin changes sign


@st.composite
def closed_form_bands(draw):
    """(kind, scale, r0, r1) of a const, sin or linear band: a scale of either
    sign, r0 in [-50, 50] and a width up to 1e3, every draw at least 1e-6
    away from the zeros of phi."""
    kind = draw(st.sampled_from(["const", "sin", "linear"]))
    scale = draw(st.floats(1e-6, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
    r0 = draw(st.floats(-50.0, 50.0))
    r1 = r0 + draw(st.one_of(st.floats(1e-6, 4.0), st.floats(1e-6, 1e3)))
    zeros = {"const": lambda r: math.inf, "linear": abs, "sin": lambda r: abs(r - round(r / math.pi) * math.pi)}
    assume(zeros[kind](r0) >= 1e-6 and zeros[kind](r1) >= 1e-6)
    return kind, scale, r0, r1


@settings(max_examples=300, deadline=None)
@given(closed_form_bands())
def test_band_is_accepted_exactly_where_phi_stays_positive(band):
    """A band is accepted exactly when phi > 0 on all of [r0, r1], decided by
    closed forms independent of the declared radii: const when s > 0,
    linear when s r0 > 0 and s r1 > 0, and sin when s sin r0 > 0, the band
    is shorter than pi and no multiple of pi lies in it.  A refusal names a
    radius of the band where phi <= 0."""
    kind, s, r0, r1 = band
    positive = {
        "const": s > 0,
        "linear": s * r0 > 0 and s * r1 > 0,
        "sin": s * math.sin(r0) > 0 and r1 - r0 < math.pi and math.ceil(r0 / math.pi) * math.pi > r1,
    }[kind]
    profile = BD.WarpProfile(kind, s)
    try:
        BD.WarpedBand(4, r0, r1, profile)
    except ValueError as exc:
        assert not positive and "warping must stay positive on the band" in str(exc)
        r = float(str(exc).rsplit("at r = ", 1)[1])
        assert r0 <= r <= r1 and profile.jet(r)[0] <= 0
    else:
        assert positive


@pytest.mark.parametrize("width", [32768.0, 65536.0, 81920.0])
def test_sin_band_at_least_pi_wide_is_refused_where_floats_are_coarse(width):
    """Near r = -1e20 floats lie 16384 apart, so the first downward turn of
    sin past r0 rounds onto r0, and phi > 0 at r0, at r1 and there; each of
    these bands still holds a zero of phi."""
    with pytest.raises(ValueError, match="has a zero on every band at least 3.14159 wide"):
        BD.WarpedBand(4, -1e20, -1e20 + width, BD.WarpProfile("sin"))


def test_sigma_pic_profile_product():
    B = BD.WarpedBand(4, 0.0, 3.0, BD.WarpProfile("const"))
    rep = BD.sigma_pic_profile(B, 1.0, samples=3)
    assert rep.passed
    assert abs(rep.details["min_isotropic"] - 2.0) < 1e-6
    assert not BD.sigma_pic_profile(B, 2.5, samples=3).passed


def test_sigma_pic_profile_round_sphere_zero_margin():
    B = BD.WarpedBand(4, 0.4, 1.2, BD.WarpProfile("sin"))
    rep = BD.sigma_pic_profile(B, 4.0, samples=3)
    assert rep.passed
    assert abs(rep.regions[0].min_margin) < 1e-6


def test_band_pass_needs_its_margin_less_its_rounding_bound():
    """On the const band phi = 1 the value is exactly 2 at every radius and
    the rounding bound 24 eps.  sigma = 2 passes at the default tolerance;
    at tolerance 0 its margin 0 lies within the bound, a FAIL marked
    undecided; a margin farther below than the bound is a FAIL unmarked."""
    B = BD.WarpedBand(4, 0.0, 1.0, BD.WarpProfile("const"))
    exact = C.SearchConfig(tolerance=0.0)
    rep = BD.sigma_pic_profile(B, 2.0)
    assert rep.passed and "undecided" not in rep.details
    rep = BD.sigma_pic_profile(B, 2.0, cfg=exact)
    assert not rep.passed and rep.details["undecided"] is True and rep.regions[0].min_margin == 0.0
    for sigma in (2.0 + 1e-13, 3.0):
        rep = BD.sigma_pic_profile(B, sigma, cfg=exact)
        assert not rep.passed and "undecided" not in rep.details


def test_boundary_shape_product_flat():
    B = BD.WarpedBand(4, 0.0, 3.0, BD.WarpProfile("const"))
    assert np.all(BD.boundary_shape(B, "lower") == 0.0)
    assert np.all(BD.boundary_shape(B, "upper") == 0.0)


def test_boundary_shape_sphere_cap_convention():
    # upper boundary of a cap in the round sphere is convex: positive A
    cap = BD.WarpedBand(4, 0.2, math.pi / 4, BD.WarpProfile("sin"))
    A = BD.boundary_shape(cap, "upper")
    assert np.allclose(A, np.eye(3) / math.tan(math.pi / 4))
    assert np.min(np.diag(A)) > 0
    # equator is totally geodesic
    band = BD.WarpedBand(4, math.pi / 4, math.pi / 2, BD.WarpProfile("sin"))
    assert np.max(np.abs(BD.boundary_shape(band, "upper"))) < 1e-15
    # the same sphere seen from the band side is concave
    assert np.max(np.diag(BD.boundary_shape(band, "lower"))) < 0


def test_k_convexity_defect_values():
    assert BD.k_convexity_defect(np.eye(3), 2) == 0.0
    assert BD.k_convexity_defect(np.diag([-1.0, 3.0, 3.0]), 2) == 0.0
    assert BD.k_convexity_defect(np.diag([-2.0, 1.0, 1.0, 1.0]), 2) == 1.0
    with pytest.raises(ValueError):
        BD.k_convexity_defect(np.eye(3), 4)


def test_k_convexity_defect_monotone_and_trace(rng):
    for _ in range(20):
        eigs = np.sort(rng.uniform(0.0, 2.0, 5))
        eigs[0] = -rng.uniform(0.0, 2.0)  # at most one negative eigenvalue
        A = np.diag(eigs)
        defects = [BD.k_convexity_defect(A, k) for k in range(1, 6)]
        assert all(a >= b - 1e-14 for a, b in zip(defects, defects[1:]))
        assert abs(defects[-1] - max(0.0, -float(eigs.sum()))) < 1e-12


def test_width_and_focal_product():
    B = BD.WarpedBand(4, 0.0, 3.0, BD.WarpProfile("const"))
    focal, capped = BD.focal_radius_model(B, "upper")
    assert capped and focal == 3.0  # the band's width: const has no floor


def test_focal_sphere_band_reaches_pole():
    B = BD.WarpedBand(4, math.pi / 4, math.pi / 2, BD.WarpProfile("sin"))
    focal, capped = BD.focal_radius_model(B, "upper")
    assert not capped
    assert abs(focal - math.pi / 2) < 1e-6


def test_focal_cap_matches_first_conjugate():
    # from a cap boundary at r1 the inward Jacobi field sin(r) dies at the pole
    r1 = 1.1
    B = BD.WarpedBand(4, 0.3, r1, BD.WarpProfile("sin"))
    focal, capped = BD.focal_radius_model(B, "upper")
    assert not capped
    assert abs(focal - r1) < 1e-6


def test_degenerate_band_width():
    with pytest.raises(ValueError):
        BD.WarpedBand(4, 1.0, 1.0, BD.WarpProfile("const"))


def test_counterexample_spec_validation():
    with pytest.raises(ValueError):
        BD.CounterexampleSpec(4, 2, 1.0, 2.0)  # L = 2/sqrt(sigma) exactly
    with pytest.raises(ValueError):
        BD.CounterexampleSpec(4, 3, 1.0, 3.0)  # k out of range


def test_counterexample_report_reference_case():
    rep = BD.counterexample_report(BD.CounterexampleSpec(4, 2, 1.0, 3.0))
    assert rep.passed
    by_name = {r.name: r.min_margin for r in rep.regions}
    assert abs(by_name["curvature_margin"] - 1.0) < 1e-6
    assert rep.details["width_lower_bound"] == 4.0
    assert rep.details["betti_total"] == 2
    assert rep.details["betti_building_block"] == 1


def test_counterexample_betti_arithmetic_cases():
    # the building block count is 1 for every (n, k), including n = 2k+1
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4), (8, 4)):
        b_prod = BD.betti_sphere_product(k, k, n - k - 1)
        b_sphere = 1 if n == 2 * k + 1 else 0
        assert b_prod - b_sphere == 1
        assert BD.betti_sphere_product(k, n - 1, 1) == 0  # cylinder has no middle cohomology


def test_betti_sphere_product_table():
    assert BD.betti_sphere_product(0, 2, 1) == 1
    assert BD.betti_sphere_product(2, 2, 2) == 2  # S^2 x S^2 middle
    assert BD.betti_sphere_product(3, 2, 1) == 1
    assert BD.betti_sphere_product(1, 2, 2) == 0


def test_band_json_loader():
    doc = {"n": 4, "phi": {"kind": "sin"}, "r0": 0.5, "r1": 1.5}
    B = BD.load_band_json(doc)
    assert B.n == 4 and B.phi.kind == "sin"
    with pytest.raises(ValueError):
        BD.load_band_json({"n": 4, "phi": {"kind": "cosh"}, "r0": 0.0, "r1": 1.0})


def test_table_profile_tracks_closed_form():
    xs = np.linspace(0.2, 1.6, 60)
    prof = BD.WarpProfile("table", xs=xs, values=np.sin(xs))
    B = BD.WarpedBand(4, 0.4, 1.4, prof)
    worst = 0.0
    for r in np.linspace(0.45, 1.35, 9):
        R = tensor_at(B, float(r))
        worst = max(worst, float(np.max(np.abs(R.R - constant_curvature(4).R))))
    assert worst < 1e-3
    doc = {
        "n": 4,
        "phi": {"kind": "table", "x": [float(x) for x in xs], "values": [float(math.sin(x)) for x in xs]},
        "r0": 0.4,
        "r1": 1.4,
    }
    B2 = BD.load_band_json(doc)
    assert abs(B2.phi.jet(1.0)[0] - math.sin(1.0)) < 1e-6


def test_table_profile_validation():
    with pytest.raises(ValueError):
        BD.WarpProfile("table", xs=[0.0, 1.0], values=[1.0, 1.0])  # too few samples
    with pytest.raises(ValueError):
        BD.WarpProfile("table", xs=[0.0, 0.0, 1.0], values=[1.0, 1.0, 1.0])


@st.composite
def bands(draw):
    """const, sin, linear and table bands on which the warping stays positive."""
    kind = draw(st.sampled_from(["const", "sin", "linear", "table"]))
    unit = st.floats(0.0, 1.0)
    if kind == "table":
        xs = np.linspace(0.0, 3.0, draw(st.integers(3, 12)))
        a, b = draw(unit), draw(unit)
        profile = BD.WarpProfile("table", xs=xs, values=1.0 + a + 0.5 * b * np.sin(3.0 * xs))
        r0 = 2.0 * draw(unit)
        return BD.WarpedBand(4, r0, r0 + 0.05 + 0.9 * draw(unit), profile)
    scale = 0.3 + 2.0 * draw(unit)
    if kind == "sin":
        r0 = 0.05 + 1.5 * draw(unit)
        return BD.WarpedBand(4, r0, r0 + 0.05 + (math.pi - 0.15 - r0) * draw(unit), BD.WarpProfile(kind, scale))
    r0 = (0.05 if kind == "linear" else -1.0) + 2.0 * draw(unit)
    return BD.WarpedBand(4, r0, r0 + 0.05 + 3.0 * draw(unit), BD.WarpProfile(kind, scale))


@settings(max_examples=60, deadline=None)
@given(bands(), st.integers(2, 64), st.sampled_from([-1.0, -1e-9, 0.0, 1e-9, 1.0]))
def test_profile_matches_dense_closed_form(B, samples, offset):
    """At n = 4 the profile's closed form in (ks, kr) agrees with the
    Micallef-Wang minimum of the dense band tensor at every sampled radius,
    with sigma below, at and above the minimum: values to 1e-12 relative,
    the verdict wherever the dense margin is not within 1e-12 of -tol, and
    the worst radius is a minimiser of the dense values."""
    rs = np.linspace(B.r0, B.r1, samples)
    stack = BD.band_curvatures(B, rs)
    dense = C._exact_min_core(stack)[0]
    ks, kr = np.array([B.sectionals_at(float(r)) for r in rs]).T
    values = BD._isotropic_min(4, ks, kr)
    assert np.all(np.abs(values - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))

    sigma = float(dense.min()) + offset
    rep = BD.sigma_pic_profile(B, sigma, samples=samples)
    margin = float(dense.min()) - sigma
    if abs(margin + rep.tolerance) > 1e-12:
        assert rep.passed == (margin >= -rep.tolerance)
    k = list(rs).index(rep.details["worst_radius"])
    assert dense[k] <= dense.min() + 1e-12 * max(1.0, abs(dense.min()))
    assert rep.details["min_isotropic"] == values[k] == values.min()

    h = np.diag([1.0, 1.0, 1.0, 0.0])
    q = np.diag([0.0, 0.0, 0.0, 1.0])
    for row, a, b in zip(stack, ks, kr):
        assert np.array_equal(row, C.kulkarni_nomizu(h, 0.5 * a * h + b * q).R)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("kind, scale, r0, r1", [("sin", 0.8, 0.3, 2.5), ("linear", 0.6, 0.4, 2.0),
                                                  ("const", 1.7, -1.0, 1.0)])
def test_closed_form_matches_frame_search_above_dimension_4(n, kind, scale, r0, r1):
    """min(2 (ks + kr), 4 ks) is the minimum the frame search finds on the
    dense band tensor, at two seeded radii of each band."""
    B = BD.WarpedBand(n, r0, r1, BD.WarpProfile(kind, scale))
    rng = np.random.default_rng(n)
    for r in rng.uniform(r0, r1, 2):
        searched, _ = C.min_isotropic(tensor_at(B, float(r)), C.SearchConfig(restarts=64, seed=n))
        assert abs(BD._isotropic_min(n, *B.sectionals_at(float(r))) - searched) < 1e-9


def test_band_verdicts_build_no_tensor_and_search_nothing(monkeypatch):
    """Neither the band profile nor the counterexample calls the frame
    search, the dense closed form or the tensor builders, at any n."""
    def refuse(*args, **kwargs):
        raise AssertionError("a band verdict reached a dense tensor or a search")

    for name in ("min_isotropic", "_exact_min_core", "_kn_components", "kulkarni_nomizu"):
        monkeypatch.setattr(C, name, refuse)
    for n in range(4, 8):
        for kind in ("const", "sin", "linear"):
            B = BD.WarpedBand(n, 0.5, 1.5, BD.WarpProfile(kind))
            assert BD.sigma_pic_profile(B, 0.0, samples=25).passed
    for n in range(4, 9):
        rep = BD.counterexample_report(BD.CounterexampleSpec(n, 2, 1.7, 3.0))
        assert rep.passed and rep.details["min_isotropic"] == 2.0 * 1.7
        assert "seed" not in rep.details


# The table of the undershoot spec: the spline reaches phi = -0.0746 near
# r = 1.504, between two of the 64 radii that the positivity scan tests.
UNDERSHOOT_X = np.linspace(0.0, 3.0, 301)
UNDERSHOOT_VALUES = np.where(UNDERSHOOT_X < 1.5, 1.0, 0.03)


def _least(profile, radii):
    """(min phi, where) over the given radii."""
    return min((profile.jet(float(r))[0], float(r)) for r in radii)


def test_table_critical_radii_hold_the_minimum():
    """The spline's minimum over an interval is attained at one of its
    critical radii, also between the knots and on the end pieces extended
    past them; a table that dips below zero there is refused at load."""
    profile = BD.WarpProfile("table", xs=UNDERSHOOT_X, values=UNDERSHOOT_VALUES)
    low, at = _least(profile, profile.critical_radii(0.0, 3.0))
    sampled, _ = _least(profile, np.linspace(1.49, 1.52, 30001))
    assert low <= sampled and sampled - low < 1e-9
    assert low < -0.07 and abs(at - 1.504) < 1e-3
    ends = BD.WarpProfile("table", xs=[0.0, 1.0, 2.0, 3.0], values=[1.0, 0.2, 1.5, 0.3])
    # the minimum on (2.5, 6.0) is near 3.91, past the knots; on (1, 2) |phi'|
    # peaks at 1.69 between the two zeros of phi', where phi'' vanishes, and
    # is 0.65 at the knots
    for lo, hi in ((-2.0, 0.5), (1.0, 2.0), (2.5, 6.0)):
        low, _ = _least(ends, ends.critical_radii(lo, hi))
        sampled, _ = _least(ends, np.linspace(lo, hi, 20001))
        assert low <= sampled and sampled - low < 1e-6
        # |phi'| peaks where phi'' vanishes between the knots, or at an end
        steepest = max(abs(ends.jet(float(r))[1]) for r in ends.critical_radii(lo, hi))
        sampled = max(abs(ends.jet(float(r))[1]) for r in np.linspace(lo, hi, 20001))
        assert steepest >= sampled and steepest - sampled < 1e-6
    with pytest.raises(ValueError, match="warping must stay positive"):
        BD.WarpedBand(4, 0.0, 3.0, BD.WarpProfile("table", xs=UNDERSHOOT_X, values=UNDERSHOOT_VALUES))


def test_spline_sweep_matches_a_dense_solve():
    """The forward and back sweep gives the natural spline's second
    derivatives of the dense (m, m) system, to 1e-13 relative."""
    rng = np.random.default_rng(5)
    for m in range(3, 65):
        xs = np.cumsum(rng.uniform(0.01, 1.0, m))
        ys = rng.uniform(0.5, 2.0, m)
        h = np.diff(xs)
        A = np.diag(np.r_[1.0, 2.0 * (h[:-1] + h[1:]), 1.0])
        A += np.diag(np.r_[h[:-1], 0.0], -1) + np.diag(np.r_[0.0, h[1:]], 1)
        rhs = np.r_[0.0, 6.0 * ((ys[2:] - ys[1:-1]) / h[1:] - (ys[1:-1] - ys[:-2]) / h[:-1]), 0.0]
        dense = np.linalg.solve(A, rhs)
        M = BD._NaturalCubic(xs, ys).M
        assert M[0] == M[-1] == 0.0
        assert np.max(np.abs(M - dense)) <= 1e-13 * np.max(np.abs(dense)), m


def test_spline_of_many_knots_builds_no_dense_matrix():
    """A 5,000-knot table: a dense (m, m) solve would hold three 200 MB
    matrices at its peak, the sweep holds O(m)."""
    xs = np.linspace(0.0, 3.0, 5000)
    tracemalloc.start()
    try:
        BD._NaturalCubic(xs, np.ones_like(xs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _corruptions():
    """One tensor per CurvTensor check that it fails: a non-finite orbit, each
    broken symmetry, and a first Bianchi defect of 1e-3."""
    base = constant_curvature(4).R
    nan = base.copy()
    for i, j, k, l, sign in ((0, 1, 0, 1, 1), (1, 0, 0, 1, -1), (0, 1, 1, 0, -1), (1, 0, 1, 0, 1)):
        nan[i, j, k, l] = sign * np.nan
    first = base.copy()
    first[0, 1, 0, 2] = 0.5
    second = base.copy()
    second[0, 1, 2, 3], second[1, 0, 2, 3] = 0.5, -0.5
    pair = base.copy()
    for (i, j), sign in (((0, 1), 1.0), ((1, 0), -1.0)):
        pair[i, j, 2, 3], pair[i, j, 3, 2] = sign * 0.5, -sign * 0.5
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    return [nan, first, second, pair, base + 1e-3 * eps]


@pytest.mark.parametrize("bad", _corruptions(), ids=["finite", "first-pair", "second-pair", "interchange", "bianchi"])
def test_stack_with_one_bad_member_fails_like_one_tensor(bad):
    good = constant_curvature(4).R
    with pytest.raises(ValueError) as single:
        C.CurvTensor(bad)
    with pytest.raises(ValueError) as stacked:
        C._validate(np.stack([good, good, bad, good]))
    assert str(stacked.value) == str(single.value)
