import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    # the Hessian barrier is the Laplacian one at n = 2 (one normal direction)
    assert abs(B.laplace_upper_negative_boundary(B.ComparisonParams(2, 2.0, 1.5, 0.0)) - 1.5) < 1e-14


def test_hessian_barrier_reductions():
    hess = B.laplace_upper_negative_boundary(B.ComparisonParams(2, 1.0, 0.0, 0.8))
    assert abs(hess - math.tanh(0.8)) < 1e-14
    # Laplace barrier with Lambda -> (n-1) Lambda equals (n-1) x Hessian barrier
    for n, K, lam, rho in ((3, 1.0, 0.9, 1.1), (6, 0.5, 2.0, 0.3)):
        hess = B.laplace_upper_negative_boundary(B.ComparisonParams(2, K, lam, rho))
        lap = B.laplace_upper_negative_boundary(B.ComparisonParams(n, K, (n - 1) * lam, rho))
        assert abs(lap - (n - 1) * hess) < 1e-12


def test_hessian_barrier_matches_riccati_oracle():
    # one normal direction: the n = 2 Riccati flow seeded with A0 = -Lambda
    rng = np.random.default_rng(5)
    for _ in range(6):
        K, lam, rho = rng.uniform(0.05, 4.0), rng.uniform(0.0, 3.0), rng.uniform(0.05, 2.0)
        res = B.riccati_oracle(B.RotSymModel(n=2, K=K, A0=-lam), rho)
        hess = B.laplace_upper_negative_boundary(B.ComparisonParams(2, K, lam, rho))
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


def _reference_rk4(f, y, x, h):
    k1 = f(x, y)
    k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(x + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_integrate(w0, kfn, rho, step):
    """The oracle's per-step integration written with a generic RK4 step on
    the Jacobi pair y = (u, v), y' = (v, -K_rad u), from (1, w0): its steps
    and its bisection must give the bits of the per-step route.  Each step
    rescales y by a power of two, which moves no bit of v/u or of sign(u),
    except where it would round a subnormal component: that step keeps y."""
    f = lambda x, y: np.array([y[1], -kfn(x) * y[0]])
    steps = max(1, int(math.ceil(rho / step)))
    h = rho / steps
    x = 0.0
    y = np.array([1.0, w0])
    for _ in range(steps):
        y_new = _reference_rk4(f, y, x, h)
        if y_new[0] <= 0.0 and np.isfinite(y_new).all():
            a, b = x, x + h
            while b - a > 1e-12 and a < 0.5 * (a + b) < b:
                mid = 0.5 * (a + b)
                ym = _reference_rk4(f, y, a, mid - a)
                if ym[0] <= 0.0:
                    b = mid
                else:
                    a, y = mid, ym
            return None, 0.5 * (a + b)
        e = math.frexp(float(np.max(np.abs(y_new))))[1]
        scaled = np.ldexp(y_new, -e)
        y, x = (scaled if (np.ldexp(scaled, e) == y_new).all() else y_new), x + h
    u, v = float(y[0]), float(y[1])
    w = v / u
    if abs(w) > B.BLOWUP_THRESHOLD:
        return None, rho - u / v
    return w, None


@settings(max_examples=30, deadline=None)
@given(
    w0=st.one_of(st.floats(-9.9, 9.9), st.floats(10.0, 300.0), st.floats(-300.0, -10.0)),
    K=st.floats(-4.0, 4.0),
    bump=st.floats(0.0, 2.0),
    rho=st.floats(0.01, 3.0),
)
@example(w0=-2.0, K=0.0, bump=0.0, rho=1.0)  # focal crossing at rho = 1/2
@example(w0=-40.0, K=1.0, bump=0.0, rho=0.5)  # a crossing in the first steps
@example(w0=40.0, K=-2.0, bump=1.0, rho=2.5)  # a steep start that levels off
@example(w0=1e-310, K=0.0, bump=0.0, rho=1.0)  # a subnormal v
def test_fused_steps_match_reference_transcription(w0, K, bump, rho):
    kfn = lambda r: -K + bump * math.sin(r) ** 2
    step = B.RICCATI_STEP * max(1.0, rho)
    assert B._integrate_scalar(w0, kfn, [rho], step) == [_reference_integrate(w0, kfn, rho, step)]


@settings(max_examples=30, deadline=None)
@given(
    w0=st.one_of(st.floats(-9.9, 9.9), st.floats(10.0, 300.0), st.floats(-300.0, -10.0)),
    K=st.floats(-4.0, 4.0),
    rhos=st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4).map(sorted),
)
@example(w0=-2.0, K=0.0, rhos=[1.0])  # focal crossing at rho = 1/2
@example(w0=-40.0, K=1.0, rhos=[0.5])  # a crossing in the first steps
@example(w0=40.0, K=-2.0, rhos=[2.5])  # K_rad > 0: the per-step route
@example(w0=-0.3, K=0.7, rhos=[0.4, 0.4, 1.2])  # a repeated distance
@example(w0=5e-324, K=0.0, rhos=[1.0])  # a subnormal v
def test_constant_curvature_steps_match_callable_and_reference(w0, K, rhos):
    """K_rad passed as a number agrees with the same constant passed as a
    callable, whose per-step route gives the reference transcription's bits
    at the first distance; a repeated distance takes no steps.  A constant
    K_rad <= 0 takes the powered route, another arithmetic.  Over 4,000
    seeded draws of these ranges, a third of them starting near the
    decaying solution w0 = -sqrt(K), where the per-step route's rounding
    excites the growing one, and a third with a pole just past rho, the two
    differed by at most 6.1e-11 (1 + w^2) in w and 1.4e-11 in a crossing;
    against the closed form the powered route was the closer.  The
    closed-form tests below hold the powered route to 1e-12."""
    step = B.RICCATI_STEP * max(1.0, rhos[-1])
    const = B._integrate_scalar(w0, -K, rhos, step)
    stepped = B._integrate_scalar(w0, lambda r: -K, rhos, step)
    assert stepped[0] == _reference_integrate(w0, lambda r: -K, rhos[0], step)
    _assert_close_flows(const, stepped)
    for i in range(1, len(rhos)):
        if rhos[i] == rhos[i - 1]:
            assert const[i] == const[i - 1]


def _assert_close_flows(got, want):
    """Equal crossed flags, w within 1e-9 (1 + w^2) and crossings within
    1e-9: the measured agreement of the two routes, with headroom.  An
    error in the Jacobi pair (u, v) moves w = v/u by about (1 + w^2) times
    as much, so near a pole w itself carries no fixed relative bound."""
    assert len(got) == len(want)
    for (w, crossing), (w_want, crossing_want) in zip(got, want):
        assert (w is None) == (w_want is None)
        if w is None:
            assert abs(crossing - crossing_want) <= 1e-9
        else:
            assert abs(w - w_want) <= 1e-9 * (1.0 + w_want * w_want)


def test_oracle_integrates_each_distinct_value_once_in_order(monkeypatch):
    calls = []
    integrate = B._integrate_scalar

    def counted(w0, kfn, rho, step):
        calls.append(w0)
        return integrate(w0, kfn, rho, step)

    monkeypatch.setattr(B, "_integrate_scalar", counted)
    model = B.RotSymModel(n=4, K=0.7, A0=[0.3, -1.0, 0.3])
    res = B.riccati_oracle(model, 1.2)
    assert calls == [-0.3, 1.0]
    step = B.RICCATI_STEP * 1.2
    w = {w0: integrate(w0, model.curvature_fn(), [1.2], step)[0][0] for w0 in (-0.3, 1.0)}
    assert res.trace == 0.0 + w[-0.3] + w[1.0] + w[-0.3]


@pytest.mark.parametrize("K", [1e9, -1e9, 1e308, math.inf, math.nan])
def test_oracle_rejects_curvature_past_step_limit(K):
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError, match="step limit"):
            B.riccati_oracle(B.RotSymModel(n=3, K=K, A0=0.5), rho)


def test_oracle_step_limit_scales_with_rho():
    # h = 1e-4 max(1, rho): K = 1e8 sits on the limit at rho = 1, past it at rho = 2
    model = B.RotSymModel(n=3, K=1e8, A0=0.0)
    res = B.riccati_oracle(model, 1.0)
    assert abs(res.trace - 2e4 * math.tanh(1e4)) < 1e-9 * 2e4
    with pytest.raises(ValueError, match="step limit"):
        B.riccati_oracle(model, 2.0)


@pytest.mark.parametrize(
    "A0", [math.inf, -math.inf, math.nan, [0.5, math.nan], [-math.inf, 0.2], [[math.inf, 0.0], [0.0, 1.0]]],
    ids=["inf", "-inf", "nan", "nan-principal-value", "-inf-principal-value", "inf-matrix"],
)
def test_oracle_rejects_non_finite_boundary_form(A0):
    """W(0) = -inf is a focal point at 0, which the integration in u = 1/w
    that the Jacobi field replaced missed (u = 1/-inf = -0.0 never rose
    through zero), and a NaN gave a NaN trace: both returned a result."""
    model = B.RotSymModel(n=3, K=1.0, A0=A0)
    with pytest.raises(ValueError, match="A0 must be finite"):
        model.initial_hessian_eigs()
    for rho in (0.0, 1.0):
        with pytest.raises(ValueError, match="A0 must be finite"):
            B.riccati_oracle(model, rho)


def test_boundary_form_must_be_symmetric_to_the_rule():
    """A 1e-6 asymmetry passed allclose's default rtol, and eigvalsh read one
    triangle; a rotated diagonal as built (rounding asymmetry only) is accepted."""
    A = np.array([[1.0, 1.0 + 1e-6, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        B.RotSymModel(n=4, K=1.0, A0=A).initial_hessian_eigs()
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    A = Q @ np.diag([2e5, -1e5, 3.0]) @ Q.T
    assert (A != A.T).any()
    eigs = B.RotSymModel(n=4, K=1.0, A0=A).initial_hessian_eigs()
    assert np.allclose(np.sort(-eigs), [-1e5, 3.0, 2e5], rtol=1e-12)


@pytest.mark.parametrize(
    "k_rad, at",
    [(lambda r: math.nan, "0.25"), (lambda r: math.inf, "0.25"), (lambda r: math.nan if r > 0.5 else 0.0, "1")],
    ids=["nan", "inf", "nan-past-0.5"],
)
def test_curve_rejects_warped_curvature_that_makes_nan(k_rad, at):
    """A warped K_rad that drives the flow to NaN is an error, not a NaN
    trace: checked at each distance, so the NaN past 0.5 is found at 1.0."""
    model = B.RotSymModel(n=3, A0=0.2, radial_curvature=k_rad)
    with pytest.raises(ValueError, match=f"NaN at rho = {at}:"):
        B.riccati_curve(model, [0.25, 1.0])


@pytest.mark.parametrize(
    "A0, k, rho",
    [(0.2, math.inf, 1.0), (0.2, -math.inf, 1.0), (-20.0, math.inf, 0.02), (-20.0, -math.inf, 0.02),
     (20.0, -math.inf, 0.02), (20.0, math.inf, 0.02)],
    ids=["w-to-u-inf", "w-to-u-minus-inf", "u-to-w-inf", "u-to-w-minus-inf", "u-to-w-rising-minus-inf",
         "u-below-zero-to-inf"],
)
def test_curve_rejects_warped_curvature_infinite_at_the_last_step(A0, k, rho):
    """A K_rad that is infinite only at the last step overflows the state.
    The integration in w and u = 1/w that the Jacobi field replaced, whose
    switches of variable the ids name, turned that into a signed zero: w -> u gave
    u = -0.0 and a ZeroDivisionError at the readout, u -> w a finite trace
    0.0.  A u below zero that jumps to +inf passed the pole test and was
    reported as a crossing at 0.0199999.  It is the NaN error at the
    distance."""
    model = B.RotSymModel(n=3, A0=A0, radial_curvature=lambda r: k if r >= rho - 1e-7 else 0.0)
    with pytest.raises(ValueError, match=f"NaN at rho = {rho:g}:"):
        B.riccati_curve(model, [rho])


@pytest.mark.parametrize("k_rad", [1e300, -1e300, 1e12], ids=["1e300", "-1e300", "1e12"])
def test_curve_rejects_warped_curvature_past_step_limit(k_rad):
    """K_rad = +-1e300 gave trace 0.0 and no crossing (the first step
    overflowed, and a switch to u = 1/w gave a signed zero), and 1e12
    a crossing at 1e-4 for a pole near 1.6e-6."""
    model = B.RotSymModel(n=3, A0=0.2, radial_curvature=lambda r: k_rad)
    with pytest.raises(ValueError, match=re.escape(f"K_rad = {k_rad:g} at rho = 0 is past the oracle's RK4 step limit")):
        B.riccati_curve(model, [0.5, 1.0])


def test_curve_rejects_warped_curvature_that_leaves_the_step_limit_late():
    model = B.RotSymModel(n=3, A0=0.2, radial_curvature=lambda r: 1e9 if r > 0.75 else 0.0)
    with pytest.raises(ValueError, match=r"K_rad = 1e\+09 at rho = 0.75.* step limit"):
        B.riccati_curve(model, [0.5, 1.0])


def test_warped_profile_at_the_step_limit_matches_reference():
    """A profile that reaches h^2 |K_rad| = 0.99 is inside the limit: its
    steps are the reference transcription's to the last bit."""
    kfn = lambda r: -0.99e8 * math.sin(2.0 * r) ** 2
    step = B.RICCATI_STEP
    assert B._integrate_scalar(0.3, kfn, [0.8], step) == [_reference_integrate(0.3, kfn, 0.8, step)]


@st.composite
def curve_models(draw):
    """A model with constant K and principal values A0 (focal crossings
    within reach when A0 > 0), and up to 8 sorted distances to rho_max."""
    n = draw(st.integers(2, 6))
    K = draw(st.floats(0.0, 4.0))
    A0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=n - 1, max_size=n - 1))
    rho_max = draw(st.floats(0.05, 3.0))
    rhos = sorted(draw(st.lists(st.floats(0.0, rho_max), min_size=1, max_size=7)) + [rho_max])
    return B.RotSymModel(n=n, K=K, A0=A0), rhos


@settings(max_examples=40, deadline=None)
@given(curve_models())
@example((B.RotSymModel(n=3, K=0.0, A0=[2.0, 0.5]), [0.0, 0.25, 0.5, 1.0, 2.5]))  # two poles
@example((B.RotSymModel(n=4, K=1.0, A0=[0.3, 0.3, -1.0]), [0.4, 0.4, 1.2]))  # a repeated distance
def test_curve_matches_oracle_per_distance(case):
    """One trajectory through every distance gives each distance what its
    own integration from 0 gives: the same crossed flag, traces and
    crossings within 1e-9 (the two differ only by their RK4 step)."""
    model, rhos = case
    curve = B.riccati_curve(model, rhos)
    assert [res.rho for res in curve] == rhos
    for rho, res in zip(rhos, curve):
        alone = B.riccati_oracle(model, rho)
        assert res.crossed == alone.crossed, rho
        if res.crossed:
            assert abs(res.crossing - alone.crossing) <= 1e-9
        else:
            assert abs(res.trace - alone.trace) <= 1e-9 * max(1.0, abs(alone.trace))


@settings(max_examples=25, deadline=None)
@given(curve_models())
def test_constant_model_matches_its_warped_twin(case):
    """A constant-curvature model (the powered route) and the same curvature
    as a warped profile (the per-step route) give each principal value the
    same flow, to the routes' measured agreement; a curve sums these flows."""
    model, rhos = case
    twin = B.RotSymModel(n=model.n, A0=model.A0, radial_curvature=lambda r, K=model.K: -K)
    step = B.RICCATI_STEP * max(1.0, rhos[-1])
    for w0 in model.initial_hessian_eigs().tolist():
        _assert_close_flows(B._integrate_scalar(w0, model.curvature_fn(), rhos, step),
                            B._integrate_scalar(w0, twin.curvature_fn(), rhos, step))


def test_curve_row_at_zero_is_the_start_trace():
    model = B.RotSymModel(n=4, K=0.7, A0=[0.3, -1.0, 20.0])
    first, second = B.riccati_curve(model, [0.0, 0.0, 0.5])[:2]
    assert first == second == B.RiccatiResult(0.0, -0.3 + 1.0 - 20.0, None)
    assert first == B.riccati_oracle(model, 0.0)


def test_curve_rejects_decreasing_or_negative_distances():
    model = B.RotSymModel(n=3, K=1.0, A0=0.5)
    with pytest.raises(ValueError, match="non-decreasing"):
        B.riccati_curve(model, [0.0, 1.0, 0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        B.riccati_curve(model, [-0.1, 1.0])


def test_curve_step_limit_is_set_by_the_largest_distance():
    # K = 1e8 is on the limit at rho = 1 and past it at rho = 2, so a curve to
    # rho_max = 2 fails as a row at rho = 2 does, whatever its other rows
    model = B.RotSymModel(n=3, K=1e8, A0=0.0)
    with pytest.raises(ValueError, match="step limit"):
        B.riccati_curve(model, [0.0, 0.5, 1.0, 2.0])
    with pytest.raises(ValueError, match="step limit"):
        B.barrier_curve_rows(B.ComparisonParams(3, 1e8, 0.0), [0.0, 2.0])


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


@pytest.mark.parametrize(
    "field, value",
    [("n", math.nan), ("r_f", math.nan)]
    + [(field, value) for field in ("K", "Lambda", "rho") for value in (math.nan, math.inf, -math.inf)],
)
def test_params_refuse_nan_and_infinite_bounds(field, value):
    """NaN passed the `K < 0` form of each test, and the barriers then
    returned NaN, or -2.0 when only Lambda or rho was NaN."""
    with pytest.raises(ValueError):
        B.ComparisonParams(**{"n": 4, "K": 1.0, "Lambda": 1.0, "rho": 0.5, "r_f": 2.0, field: value})


def test_params_accept_an_infinite_focal_radius():
    p = B.ComparisonParams(4, 1.0, r_f=math.inf)
    assert B.hessian_lower_focal(p) == -1.0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 7),
    K=st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
    lam=st.floats(0.0, 3.0),
    rho=st.floats(0.05, 2.0),
)
def test_umbilic_trace_matches_closed_form(n, K, lam, rho):
    """In the umbilic model with A0 = -Lambda/(n-1) the oracle's trace is
    the negative-boundary barrier, over the draw ranges of `verify
    comparison` and at K = 0."""
    res = B.riccati_oracle(B.RotSymModel(n=n, K=K, A0=-lam / (n - 1)), rho)
    assert abs(res.trace - B.laplace_upper_negative_boundary(B.ComparisonParams(n, K, lam, rho))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(K=st.floats(0.3, 2.0), ratio=st.floats(1.2, 3.0))
def test_positive_boundary_crossing_matches_closed_form(K, ratio):
    """A0 = Lambda > sqrt(K) focuses at artanh(sqrt(K)/Lambda)/sqrt(K), the
    positive-boundary barrier's pole, over the draw ranges of `verify
    comparison`."""
    s = math.sqrt(K)
    pole = math.atanh(1.0 / ratio) / s
    res = B.riccati_oracle(B.RotSymModel(n=4, K=K, A0=s * ratio), 2.0 * pole)
    assert abs(res.crossing - pole) <= 1e-11


def test_constant_nonpositive_curvature_never_steps(monkeypatch):
    """A constant model with K >= 0 takes the powered route through whole
    curves, crossings and their bisections included."""
    def refuse(*args):
        raise AssertionError("per-step route entered")

    monkeypatch.setattr(B, "_stepped", refuse)
    monkeypatch.setattr(B, "_rk4_step", refuse)
    rng = np.random.default_rng(3)
    crossed = 0
    for _ in range(40):
        n = int(rng.integers(2, 6))
        model = B.RotSymModel(n=n, K=float(rng.choice([0.0, rng.uniform(0.0, 4.0)])), A0=rng.uniform(-3, 3, n - 1))
        curve = B.riccati_curve(model, sorted(rng.uniform(0.0, 3.0, 5)))
        crossed += any(res.crossed for res in curve)
    assert crossed >= 10


def test_stiff_constant_curvature_through_both_routes():
    """K = 1e8 at rho = 1 sits on the step limit: the powered route (a
    constant) and the per-step route (a callable) both rescale the pair,
    whose u grows like e^(1e4), and read W's trace 2e4 tanh(1e4)."""
    for model in (B.RotSymModel(n=3, K=1e8, A0=0.0), B.RotSymModel(n=3, A0=0.0, radial_curvature=lambda r: -1e8)):
        assert abs(B.riccati_oracle(model, 1.0).trace - 2e4 * math.tanh(1e4)) <= 1e-12 * 2e4


@pytest.mark.parametrize("radial_curvature", [None, lambda r: 0.0], ids=["powered", "per-step"])
def test_crossing_where_floats_are_coarser_than_the_bisection_tolerance(radial_curvature):
    """Past 8192 adjacent floats are more than 1e-12 apart, and the
    bisection, which halved its bracket until it was 1e-12 wide, never
    ended: a sphere of radius 9000.5 in flat space focuses at its centre."""
    res = B.riccati_oracle(B.RotSymModel(n=2, A0=1.0 / 9000.5, radial_curvature=radial_curvature), 2e4)
    assert abs(res.crossing - 9000.5) <= 1e-7
