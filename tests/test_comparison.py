import math

import numpy as np
import pytest

from picband import comparison as B


def test_laplace_barrier_flat_limit():
    for n, lam, rho in ((3, 0.7, 1.3), (5, 2.0, 0.4)):
        flat = B.laplace_upper_negative_boundary(B.ComparisonParams(n, 0.0, lam, rho))
        assert abs(flat - (n - 1) * lam / ((n - 1) + lam * rho)) < 1e-15
        near = B.laplace_upper_negative_boundary(B.ComparisonParams(n, 1e-12, lam, rho))
        assert abs(near - flat) < 1e-9


def test_barrier_at_zero_distance():
    p = B.ComparisonParams(4, 2.0, 1.5, 0.0)
    assert abs(B.laplace_upper_negative_boundary(p) - 1.5) < 1e-14
    assert abs(B.hessian_upper_negative_boundary(p) - 1.5) < 1e-14


def test_hessian_barrier_reductions():
    p = B.ComparisonParams(3, 1.0, 0.0, 0.8)
    assert abs(B.hessian_upper_negative_boundary(p) - math.tanh(0.8)) < 1e-14
    # Laplace barrier with Lambda -> (n-1) Lambda equals (n-1) x Hessian barrier
    for n, K, lam, rho in ((3, 1.0, 0.9, 1.1), (6, 0.5, 2.0, 0.3)):
        hess = B.hessian_upper_negative_boundary(B.ComparisonParams(n, K, lam, rho))
        lap = B.laplace_upper_negative_boundary(B.ComparisonParams(n, K, (n - 1) * lam, rho))
        assert abs(lap - (n - 1) * hess) < 1e-12


def test_hessian_barrier_matches_riccati_oracle():
    # one normal direction: the n = 2 Riccati flow seeded with A0 = -Lambda
    rng = np.random.default_rng(5)
    for _ in range(6):
        K, lam, rho = rng.uniform(0.05, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.05, 2.0)
        res = B.riccati_oracle(B.RotSymModel(n=2, K=K, A0=-lam), rho)
        hess = B.hessian_upper_negative_boundary(B.ComparisonParams(int(rng.integers(2, 8)), K, lam, rho))
        assert abs(res.trace - hess) < 1e-6


def test_laplace_barrier_totally_geodesic_hyperbolic():
    p = B.ComparisonParams(3, 1.0, 0.0, 1.0)
    assert abs(B.laplace_upper_negative_boundary(p) - 2.0 * math.tanh(1.0)) < 1e-14


def test_positive_boundary_barrier():
    p0 = B.ComparisonParams(4, 1.0, 2.0, 0.0)
    assert abs(B.laplace_upper_positive_boundary(p0) + 3.0 * 2.0) < 1e-14
    out = B.laplace_upper_positive_boundary(B.ComparisonParams(2, 1.0, 2.0, 1.0))
    assert isinstance(out, B.PoleBeyond)
    assert abs(out.rho_pole - math.atanh(0.5)) < 1e-15
    # Lambda = 0: barrier stays finite and nonnegative
    val = B.laplace_upper_positive_boundary(B.ComparisonParams(3, 1.0, 0.0, 2.5))
    assert val >= 0.0
    with pytest.raises(ValueError):
        B.laplace_upper_positive_boundary(B.ComparisonParams(3, 0.0, 1.0, 1.0))


def test_focal_lower_barriers():
    flat = B.ComparisonParams(4, 0.0, 0.0, 0.0, r_f=3.0)
    assert abs(B.hessian_lower_focal(flat) + 2.0 / 3.0) < 1e-15
    assert abs(B.laplace_lower_focal(flat) + 2.0) < 1e-15
    p = B.ComparisonParams(4, 1.0, 0.0, 0.0, r_f=2.0)
    assert abs(B.hessian_lower_focal(p) + 1.0 / math.tanh(1.0)) < 1e-14
    values = [B.hessian_lower_focal(B.ComparisonParams(4, 1.0, r_f=r)) for r in (1.0, 2.0, 5.0, 20.0)]
    assert all(a < b for a, b in zip(values, values[1:]))  # rises toward 0


def test_riccati_totally_geodesic():
    res = B.riccati_oracle(B.RotSymModel(n=3, K=1.0, A0=0.0), 1.0)
    assert res.trace is not None
    assert abs(res.trace - 2.0 * math.tanh(1.0)) < 1e-10


def test_riccati_flat_focusing():
    # convex sphere of radius r in flat space focuses at its centre
    res = B.riccati_oracle(B.RotSymModel(n=4, K=0.0, A0=1.0 / 2.5), 5.0)
    assert res.crossed
    assert abs(res.crossing - 2.5) < 1e-9


def test_riccati_hyperbolic_blowup_matches_pole():
    res = B.riccati_oracle(B.RotSymModel(n=2, K=1.0, A0=2.0), 2.0)
    assert res.crossed
    assert abs(res.crossing - math.atanh(0.5)) < 1e-9


def test_riccati_umbilic_equality(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        K = float(rng.uniform(0.05, 4.0))
        lam = float(rng.uniform(0.0, 3.0))
        rho = float(rng.uniform(0.05, 2.0))
        model = B.RotSymModel(n=n, K=K, A0=-lam / (n - 1))
        res = B.riccati_oracle(model, rho)
        barrier = B.laplace_upper_negative_boundary(B.ComparisonParams(n, K, lam, rho))
        assert abs(res.trace - barrier) < 1e-6


def test_riccati_comparison_direction(rng):
    """Non-umbilic starts and extra curvature keep the oracle below the
    barrier built from its mean curvature and curvature floor."""
    for _ in range(50):
        n = int(rng.integers(3, 7))
        K = float(rng.uniform(0.1, 2.0))
        rho = float(rng.uniform(0.1, 1.5))
        eigs = rng.uniform(-0.8, 0.8, n - 1)
        lam = -float(np.sum(eigs))  # H >= -lam with equality
        if lam < 0:
            eigs = eigs - (lam + 0.1) / (n - 1)
            lam = -float(np.sum(eigs))
        bump = float(rng.uniform(0.0, 1.0))
        model = B.RotSymModel(
            n=n, A0=eigs, radial_curvature=lambda r, K=K, b=bump: -K + b * math.sin(r) ** 2
        )
        res = B.riccati_oracle(model, rho)
        if not res.crossed:
            barrier = B.laplace_upper_negative_boundary(B.ComparisonParams(n, K, max(lam, 0.0), rho))
            assert res.trace <= barrier + 1e-6


def test_riccati_barrier_consistency_200_draws(rng):
    """A0 = -Lambda I (mean curvature -(n-1) Lambda) never exceeds the
    matching Laplace barrier, with equality in the constant-curvature
    umbilic model."""
    for _ in range(200):
        n = int(rng.integers(3, 8))
        K = float(rng.uniform(0.05, 3.0))
        lam = float(rng.uniform(0.0, 2.0))
        rho = float(rng.uniform(0.05, 1.5))
        res = B.riccati_oracle(B.RotSymModel(n=n, K=K, A0=-lam * np.eye(n - 1)), rho)
        barrier = B.laplace_upper_negative_boundary(B.ComparisonParams(n, K, (n - 1) * lam, rho))
        assert res.trace <= barrier + 1e-6
        assert abs(res.trace - barrier) < 1e-6  # umbilic model attains it


def test_positive_boundary_barrier_monotone_to_pole():
    K, lam, n = 1.0, 2.0, 4
    pole = math.atanh(math.sqrt(K) / lam) / math.sqrt(K)
    rhos = np.linspace(0.0, pole * (1.0 - 1e-6), 200)
    vals = [B.laplace_upper_positive_boundary(B.ComparisonParams(n, K, lam, float(r))) for r in rhos]
    assert all(isinstance(v, float) for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < -1e5  # diverging toward -infinity at the pole


def test_riccati_matrix_input():
    A = np.diag([0.5, -0.25, 0.1])
    res = B.riccati_oracle(B.RotSymModel(n=4, K=1.0, A0=A), 0.7)
    by_eigs = B.riccati_oracle(B.RotSymModel(n=4, K=1.0, A0=np.diag(A)), 0.7)
    assert abs(res.trace - by_eigs.trace) < 1e-12


def test_riccati_sphere_profile_conjugate_point():
    model = B.RotSymModel(n=4, A0=0.0, radial_curvature=lambda r: 1.0)
    res = B.riccati_oracle(model, 3.0)
    assert res.crossed
    assert abs(res.crossing - math.pi / 2) < 1e-9


def test_index_form_constant_profile():
    p = B.ComparisonParams(3, 0.0, 0.8, 1.3)
    assert abs(B.index_form(lambda t: 1.0, p, lambda t: 0.0) - 0.8 * 1.3) < 1e-12


def test_index_form_optimizer_matches_barrier():
    for n, K, lam, rho in ((3, 1.0, 1.0, 1.0), (5, 2.0, 0.5, 0.7), (4, 0.0, 1.5, 0.9)):
        p = B.ComparisonParams(n, K, lam, rho)
        f, fp = B.optimal_index_profile(p)
        value = B.index_form(f, p, fp)
        target = rho * B.laplace_upper_negative_boundary(p)
        assert abs(value - target) < 1e-6


def test_index_form_optimizer_beats_linear(rng):
    for _ in range(100):
        n = int(rng.integers(3, 7))
        K = float(rng.uniform(0.0, 3.0))
        lam = float(rng.uniform(0.05, 3.0))
        rho = float(rng.uniform(0.1, 2.0))
        p = B.ComparisonParams(n, K, lam, rho)
        f, fp = B.optimal_index_profile(p)
        assert B.index_form(f, p, fp) <= B.index_form(lambda t: t, p, lambda t: 1.0) + 1e-9


def test_index_form_first_order_optimality(rng):
    p = B.ComparisonParams(4, 1.3, 0.9, 1.1)
    f, fp = B.optimal_index_profile(p)
    base = B.index_form(f, p, fp)
    for _ in range(10):
        a = float(rng.uniform(-0.2, 0.2))
        k = int(rng.integers(1, 4))
        pert = lambda t: f(t) + a * math.sin(math.pi * k * (1.0 - t))
        pert_p = lambda t: fp(t) - a * math.pi * k * math.cos(math.pi * k * (1.0 - t))
        assert B.index_form(pert, p, pert_p) >= base - 1e-9


def test_index_form_endpoint_constraint():
    p = B.ComparisonParams(3, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        B.index_form(lambda t: 2.0 * t, p)


def test_barrier_curve_rows():
    p = B.ComparisonParams(3, 1.0, 1.0, 0.0)
    rows = B.barrier_curve_rows(p, [0.0, 0.5, 1.0])
    assert len(rows) == 3
    for rho, barrier, oracle, margin in rows:
        assert abs(margin - (barrier - oracle)) < 1e-12
        assert abs(oracle - barrier) < 1e-6  # umbilic model is the equality case


def test_params_validation():
    with pytest.raises(ValueError):
        B.ComparisonParams(1, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        B.ComparisonParams(3, -1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        B.ComparisonParams(3, 0.0, 0.0, 0.0, r_f=0.0)
