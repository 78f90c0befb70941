import math

import numpy as np
import pytest

from picband import bands as BD
from picband import curvature as C


def test_product_band_curvature():
    B = BD.WarpedBand(4, 0.0, 3.0, BD.WarpProfile("const"))
    R = BD.band_curvature_at(B, 1.5)
    assert R.R[0, 1, 0, 1] == 1.0  # sphere-sphere
    assert R.R[0, 3, 0, 3] == 0.0  # radial-sphere
    R.validate()


def test_sin_band_is_round_sphere():
    B = BD.WarpedBand(5, 0.3, math.pi / 2, BD.WarpProfile("sin"))
    for r in np.linspace(0.3, math.pi / 2, 7):
        R = BD.band_curvature_at(B, float(r))
        assert np.max(np.abs(R.R - C.constant_curvature(5, 1.0).R)) < 1e-12


def test_linear_band_is_flat():
    B = BD.WarpedBand(4, 0.5, 2.0, BD.WarpProfile("linear"))
    assert np.max(np.abs(BD.band_curvature_at(B, 1.0).R)) == 0.0


def test_curvature_outside_band_rejected():
    B = BD.WarpedBand(4, 0.0, 1.0, BD.WarpProfile("const"))
    with pytest.raises(ValueError):
        BD.band_curvature_at(B, 2.0)


def test_positive_warping_required():
    with pytest.raises(ValueError):
        BD.WarpedBand(4, 2.0, 4.0, BD.WarpProfile("sin"))  # sin changes sign


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
    assert BD.width(B) == 3.0
    focal, capped = BD.focal_radius_model(B, "upper")
    assert capped and focal == 3.0


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
        R = BD.band_curvature_at(B, float(r))
        worst = max(worst, float(np.max(np.abs(R.R - C.constant_curvature(4).R))))
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
