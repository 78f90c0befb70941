import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picband import cli
from picband import curvature as C
from picband.exterior import degree_basis
from tests.conftest import constant_curvature, curvature_to_json, random_curvature


def random_pic_combination(n: int, rng) -> C.CurvTensor:
    """Nonnegative combination of four KN squares of positive definite matrices."""
    total = np.zeros((n, n, n, n))
    for _ in range(4):
        A = rng.standard_normal((n, n))
        h = A @ A.T + 0.1 * np.eye(n)
        total += rng.random() * C.kulkarni_nomizu(h, h).R
    return C.CurvTensor(total / 4)


def product_tensor(n=4, kappa=1.0):
    """Unit round S^{n-1} times a flat circle."""
    h = np.zeros((n, n))
    h[: n - 1, : n - 1] = np.eye(n - 1)
    return C.kulkarni_nomizu(h, h) * (0.5 * kappa)


def test_kn_basic_components():
    R = C.kulkarni_nomizu(np.eye(4), np.eye(4))
    assert R.R[0, 1, 0, 1] == 2.0
    assert R.R[0, 1, 2, 3] == 0.0


def test_kn_symmetry_errors():
    with pytest.raises(ValueError):
        C.kulkarni_nomizu(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


def test_kn_normalization_fixes_sigma(rng):
    # (1/8) sigma g^g must have isotropic curvature sigma on every frame
    sigma = 3.0
    R = C.kulkarni_nomizu(np.eye(5), np.eye(5)) * (sigma / 8.0)
    for _ in range(10):
        X = np.linalg.qr(rng.standard_normal((5, 4)))[0].T
        assert abs(C.iso_curvature(R, C.Frame4(X)) - sigma) < 1e-12


def test_iso_constant_curvature_frame_independent():
    R = constant_curvature(4, 1.0)
    assert abs(C.iso_curvature(R, C.Frame4(np.eye(4))) - 4.0) < 1e-14
    zero = C.CurvTensor(np.zeros((4,) * 4))
    assert C.iso_curvature(zero, C.Frame4(np.eye(4))) == 0.0


def test_iso_product_standard_frame():
    # sphere block contributes R_1313 + R_2323 only
    assert abs(C.iso_curvature(product_tensor(), C.Frame4(np.eye(4))) - 2.0) < 1e-14


def test_iso_rejects_skew_frame():
    R = constant_curvature(4)
    X = np.eye(4)
    X[0, 1] = 0.5
    with pytest.raises(ValueError):
        C.iso_curvature(R, X)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frame_is_refused(bad):
    """A frame with one NaN or infinite entry has a NaN or infinite Gram
    defect, which the test defect > tol let through: Frame4 built it and
    iso_curvature returned NaN on it."""
    X = np.eye(4)
    X[1, 2] = bad
    with pytest.raises(ValueError, match="not orthonormal"):
        C.Frame4(X)
    with pytest.raises(ValueError, match="not orthonormal"):
        C.iso_curvature(constant_curvature(4), X)


def test_iso_symmetry_group(rng):
    """The cross term R_1234 changes sign under a single swap, so the true
    invariance group is generated by the double swap, the pair swap, and a
    two-vector sign flip.  Invariance is algebraically exact; numerically
    the contraction order shifts the last ulp, hence the 1e-13 window."""
    R = random_curvature(5, rng)
    X = np.linalg.qr(rng.standard_normal((5, 4)))[0].T
    base = C.iso_curvature(R, C.Frame4(X))
    scale = 1e-13 * max(1.0, abs(base))
    perms = [
        [1, 0, 3, 2],  # (12)(34)
        [2, 3, 0, 1],  # pair swap
        [3, 2, 1, 0],  # composition
    ]
    for p in perms:
        assert abs(C.iso_curvature(R, C.Frame4(X[p])) - base) < scale
    flip = X.copy()
    flip[1] *= -1.0
    flip[3] *= -1.0
    assert abs(C.iso_curvature(R, C.Frame4(flip)) - base) < scale
    # a single swap flips the cross term: difference is exactly 4 R(x1,x2,x3,x4)
    single = X[[1, 0, 2, 3]]
    cross = np.einsum("ijkl,i,j,k,l->", R.R, X[0], X[1], X[2], X[3])
    assert abs(C.iso_curvature(R, C.Frame4(single)) - base - 4.0 * cross) < scale


def kernel_tensors(rng, n):
    """A random curvature tensor and one with the exact pair symmetries but a
    first Bianchi defect of 1e-3 (a Lambda^4 part the kernel must not drop)."""
    R = random_curvature(n, rng)
    U = rng.standard_normal((n,) * 4)
    U = U - np.swapaxes(U, 2, 3)
    S = U - np.swapaxes(U, 0, 1)
    S = C.CurvTensor(0.5 * (S + np.transpose(S, (2, 3, 0, 1))), validate=False)
    broken = R + S * (1e-3 / C._bianchi_defect(S.R))
    assert 0.5e-3 < C._bianchi_defect(broken.R) < 2e-3
    with pytest.raises(ValueError, match="Bianchi"):
        broken.validate()
    return R, broken


@pytest.mark.parametrize("n", range(4, 9))
def test_iso_kernel_matches_full_contraction(rng, n):
    for R in kernel_tensors(rng, n):
        X = np.linalg.qr(rng.standard_normal((16, n, 4)))[0].swapaxes(1, 2)
        T = np.einsum("Bai,Bbj,Bck,Bdl,ijkl->Babcd", X, X, X, X, R.R, optimize=True)
        ref = T[:, 0, 2, 0, 2] + T[:, 0, 3, 0, 3] + T[:, 1, 2, 1, 2] + T[:, 1, 3, 1, 3] - 2.0 * T[:, 0, 1, 2, 3]
        assert np.max(np.abs(C._iso_batch(R.R, X) - ref)) <= 1e-13 * np.max(np.abs(R.R))


@pytest.mark.parametrize("n", range(4, 9))
def test_iso_gradient_matches_central_differences(rng, n):
    """The isotropic curvature is at most quadratic in each coordinate of the
    frame, so central differences are exact up to rounding."""
    h = 1e-3
    for R in kernel_tensors(rng, n):
        X = rng.standard_normal((3, 4, n))
        G = C._bivector_grad(C._bivector_images(C._iso_tensor(R.R), X)[1], X)  # the search's gradient, from the frames' images
        fd = np.empty_like(X)
        for a in range(4):
            for i in range(n):
                E = np.zeros_like(X)
                E[:, a, i] = h
                fd[:, a, i] = (C._iso_batch(R.R, X + E) - C._iso_batch(R.R, X - E)) / (2 * h)
        assert np.max(np.abs(G - fd)) <= 1e-9 * max(1.0, np.max(np.abs(G)))


def test_min_isotropic_constant(rng):
    R = C.kulkarni_nomizu(np.eye(4), np.eye(4)) * (3.0 / 8.0)
    value, frame = C.min_isotropic(R, C.SearchConfig(restarts=16, seed=1))
    assert abs(value - 3.0) < 1e-9
    assert np.allclose(frame.vectors @ frame.vectors.T, np.eye(4), atol=1e-10)


def test_min_isotropic_product_brute_force(rng):
    """Independent check: 10^5 random frames plus the optimizer agree on 2."""
    R = product_tensor()
    X = np.linalg.qr(rng.standard_normal((100_000, 4, 4)).swapaxes(1, 2))[0].swapaxes(1, 2)
    vals = C._iso_batch(R.R, X)
    assert vals.min() > 2.0 - 1e-9
    value, _ = C.min_isotropic(R, C.SearchConfig(restarts=128, seed=2))
    assert abs(value - 2.0) < 1e-6


def test_min_isotropic_deterministic():
    R = product_tensor()
    cfg = C.SearchConfig(restarts=32, seed=7)
    v1, f1 = C.min_isotropic(R, cfg)
    v2, f2 = C.min_isotropic(R, cfg)
    assert v1 == v2
    assert np.array_equal(f1.vectors, f2.vectors)


def test_min_isotropic_shift_property(rng):
    R = random_curvature(4, rng)
    cfg = C.SearchConfig(restarts=32, seed=3)
    base, _ = C.min_isotropic(R, cfg)
    for tau in (0.5, -1.25):
        shift = C.kulkarni_nomizu(np.eye(4), np.eye(4)) * (tau / 8.0)
        shifted, _ = C.min_isotropic(R + shift, cfg)
        assert abs(shifted - base - tau) < 1e-8


def test_is_sigma_pic_verdicts():
    R = constant_curvature(4, 1.0)
    cfg = C.SearchConfig(restarts=32, seed=0)
    assert C.is_sigma_pic(R, 4.0, cfg).passed
    bad = C.is_sigma_pic(R, 4.1, cfg)
    assert not bad.passed
    assert bad.witness is not None
    assert C.iso_curvature(R, bad.witness) < 4.1
    prod = product_tensor()
    assert C.is_sigma_pic(prod, 1.0, cfg).passed
    assert not C.is_sigma_pic(prod, 2.5, cfg).passed


def test_exact_min_matches_search():
    """The n = 4 closed form and the 512-restart search agree to
    1e-12 (1 + |exact|); the largest gap over these 40 tensors is 1.9e-15."""
    rng = np.random.default_rng(20261018)
    cfg = C.SearchConfig(seed=11)  # default 512 restarts
    for generate in (random_curvature, random_pic_combination):
        for _ in range(20):
            R = generate(4, rng)
            exact, _ = C.exact_min_isotropic(R)
            searched, _ = C.min_isotropic(R, cfg)
            assert abs(exact - searched) <= 1e-12 * (1.0 + abs(exact))


def count_descent_iterations(monkeypatch) -> list[int]:
    """Record the descent iterations of min_isotropic: each one takes one
    gradient from the carried bivector images of the frames it evaluates.
    Returns the list that each iteration appends its batch size to, the
    H.shape[0] of its gradient call, so that its length counts them."""
    batches = []
    grad = C._bivector_grad

    def counted(H, X):
        batches.append(H.shape[0])
        return grad(H, X)

    monkeypatch.setattr(C, "_bivector_grad", counted)
    return batches


def test_stalled_restarts_retire_early(monkeypatch):
    """Restarts whose gradient sits at the retraction's rounding floor retire
    once their next step cannot lower their value by a resolvable amount,
    instead of running all SEARCH_MAX_ITER iterations (this search used to
    run all 400, then 75 with a stall window checked every 25 iterations and
    steps grown by 1.5, then 38 with Barzilai-Borwein steps under a monotone
    Armijo test, then 18 under the nonmonotone Zhang-Hager test with the
    window checked every iteration, then 16 with the predicted-decrease
    test in place of the window)."""
    batches = count_descent_iterations(monkeypatch)
    R = random_curvature(4, np.random.default_rng(5))
    searched, _ = C.min_isotropic(R, C.SearchConfig(restarts=512, seed=11))
    assert 0 < len(batches) <= 16
    assert abs(searched - C.exact_min_isotropic(R)[0]) < 1e-6


def _one_restart_history(monkeypatch, R, seed):
    """A one-restart search recorded through its helpers.  Returns
    ``(value, evaluated, accepted, descent)``: the search's result; the value
    of every frame it evaluated, its start and then the trial of each
    descent iteration, on R scaled to unit size as the search scales it;
    accepted[it], the value of its frame at the start of iteration it, read
    off the frames its gradients are taken at: a trial is accepted when the
    next gradient is taken at a new frame; and descent[it], the frame and
    the Euclidean gradient of iteration it, each of shape (1, 4, n)."""
    evaluated, descent = [], []
    grad, value = C._bivector_grad, C._bivector_value

    def recorded_grad(H, X):
        G = grad(H, X)
        descent.append((X.copy(), G.copy()))
        return G

    def recorded_value(P, H):
        v = value(P, H)
        evaluated.append(v[0])
        return v

    monkeypatch.setattr(C, "_bivector_grad", recorded_grad)
    monkeypatch.setattr(C, "_bivector_value", recorded_value)
    found, _ = C.min_isotropic(R, C.SearchConfig(restarts=1, seed=seed))
    monkeypatch.undo()
    accepted = [evaluated[0]]
    for it in range(1, len(descent)):
        moved = not np.array_equal(descent[it][0], descent[it - 1][0])
        accepted.append(evaluated[it] if moved else accepted[-1])
    return found, evaluated, accepted, descent


def _predicted_decreases(evaluated, descent):
    """step * |tangent gradient|^2 and SEARCH_DECREASE_TOL * (1 + |best|) of
    each descent iteration of a one-restart history: the step rule retold
    from the recorded frames and gradients, with the search's own array
    operations, so that each figure is the search's to the bit.  Returns a
    list of (decrease, threshold)."""
    rows, step = [], C.SEARCH_STEP0
    for it, (X, G) in enumerate(descent):
        M = G @ np.swapaxes(X, 1, 2)
        Gt = G - 0.5 * (M + np.swapaxes(M, 1, 2)) @ X
        gnorm2 = np.einsum("Bij,Bij->B", Gt, Gt)
        if it > 0:
            S = X - descent[it - 1][0]
            if S.any():  # the last trial was accepted: Barzilai-Borwein
                sy = np.einsum("Bij,Bij->B", S, Gt - Gt_from)
                step = min(np.einsum("Bij,Bij->B", S, S)[0] / sy[0] if sy[0] > 0 else 1.5 * step, 1.0)
            else:
                step *= 0.5
        Gt_from = Gt
        best = min(evaluated[:it + 1])
        rows.append((step * gnorm2[0], C.SEARCH_DECREASE_TOL * (1.0 + abs(best))))
    return rows


def test_restart_retires_once_its_step_cannot_lower_its_value(monkeypatch):
    """A restart retires at the first iteration whose step, Barzilai-Borwein
    or halved, predicts a decrease step * |tangent gradient|^2 of at most
    SEARCH_DECREASE_TOL (1 + |v|), v its best evaluated value, or else at
    SEARCH_MAX_ITER.  No earlier iteration meets the test, and some restart
    does retire by it.  This replaced a stall window, which kept a restart
    live for 25 iterations after its last progress, and a tangent-gradient
    tolerance of 1e-10, which the test covers: every step is at most 1."""
    rng = np.random.default_rng(20261020)
    retired_by_test = 0
    for t in range(24):
        R = (random_curvature, random_pic_combination)[t % 2](4 + t % 3, rng)
        _, evaluated, _, descent = _one_restart_history(monkeypatch, R, t)
        rows = _predicted_decreases(evaluated, descent)
        met = [it for it, (decrease, threshold) in enumerate(rows) if decrease <= threshold]
        last = len(rows) - 1
        assert met in ([], [last]), (t, met, last)
        assert met or len(rows) == C.SEARCH_MAX_ITER, (t, last)
        retired_by_test += bool(met)
    assert retired_by_test > 0


def test_search_accepts_a_rise_and_returns_the_least_value_evaluated(monkeypatch):
    """The nonmonotone test accepts a trial below the restart's Zhang-Hager
    reference value, which may lie above the value it leaves; the search
    still returns the least value of every frame it evaluated."""
    rng = np.random.default_rng(20261021)
    rises = 0
    for t in range(6):
        R = random_curvature(4 + t % 3, rng)
        found, evaluated, accepted, _ = _one_restart_history(monkeypatch, R, t)
        rises += sum(b > a for a, b in zip(accepted, accepted[1:]))
        exponent = math.frexp(float(np.max(np.abs(R.R))))[1]
        assert found == math.ldexp(min(evaluated), exponent)
    assert rises > 0


def _qr_retract(Y):
    """The sign-fixed batched QR retraction the search used before its
    Gram-Schmidt one."""
    Q, Rm = np.linalg.qr(np.swapaxes(Y, 1, 2))
    signs = np.where(np.einsum("Bii->Bi", Rm) < 0, -1.0, 1.0)
    return np.swapaxes(Q * signs[:, None, :], 1, 2)


def _tangent_steps(rng, n, count):
    """Frames of the shape the descent retracts: an orthonormal frame X
    minus a step of up to 3 along a unit tangent direction."""
    X = _qr_retract(rng.standard_normal((count, 4, n)))
    G = rng.standard_normal((count, 4, n))
    M = np.einsum("Bij,Bkj->Bik", G, X)
    Gt = G - 0.5 * (M + np.swapaxes(M, 1, 2)) @ X
    Gt /= np.sqrt(np.einsum("Bij,Bij->B", Gt, Gt))[:, None, None]
    return X - rng.uniform(0.0, 3.0, (count, 1, 1)) * Gt


@pytest.mark.parametrize("n", range(4, 9))
def test_gram_schmidt_retraction_is_the_sign_fixed_qr(rng, n):
    """A QR factorisation with a positive diagonal is unique, so the two
    retractions are one map; in floats they differ by about eps cond(Y)."""
    Y = _tangent_steps(rng, n, 1000)
    assert np.max(np.abs(C._retract(Y) - _qr_retract(Y))) <= 1e-14
    starts = rng.standard_normal((1000, 4, n))  # the search's random starts
    gap = np.max(np.abs(C._retract(starts) - _qr_retract(starts)), axis=(1, 2))
    assert np.all(gap <= 1e-14 * np.maximum(1.0, np.linalg.cond(starts) / 10))


def _two_product_search(R: np.ndarray, cfg: C.SearchConfig):
    """Reference frame search: min_isotropic's descent with two image
    products per iteration (the gradient from images formed afresh at the
    current frames), on R scaled by a power of two to unit size as
    min_isotropic scales it; it shares the search's kernel, retraction and
    tangent projection.  Its Barzilai-Borwein steps and its Zhang-Hager
    reference values are updated one restart at a time, and a restart
    retires where its step's predicted decrease step * |tangent gradient|^2
    is at most SEARCH_DECREASE_TOL (1 + |best value|).  Returns (value,
    the number of live restarts of each descent iteration)."""
    _, exponent = math.frexp(float(np.max(np.abs(R))))
    Rt = C._iso_tensor(np.ldexp(R, -exponent))

    rng = np.random.default_rng(cfg.seed)
    B = cfg.restarts
    X = C._retract(rng.standard_normal((B, 4, R.shape[0])))
    best_vals = C._bivector_value(*C._bivector_images(Rt, X))
    ref, ref_weight = best_vals.copy(), np.ones(B)  # Zhang-Hager C and Q of each restart
    step = np.full(B, C.SEARCH_STEP0)
    active = np.ones(B, dtype=bool)
    moved = np.zeros(B, dtype=bool)
    S = np.zeros(X.shape)
    G_from = np.zeros(X.shape)
    live_counts = []
    for _ in range(C.SEARCH_MAX_ITER):
        live = np.flatnonzero(active)
        Xl, act = X[live], np.ones(len(live), dtype=bool)
        G = C._bivector_grad(C._bivector_images(Rt, Xl)[1], Xl)
        live_counts.append(len(live))
        M = G @ np.swapaxes(Xl, 1, 2)
        Gt = G - 0.5 * (M + np.swapaxes(M, 1, 2)) @ Xl
        gnorm2 = np.einsum("Bij,Bij->B", Gt, Gt)
        for b, i in enumerate(live):  # Barzilai-Borwein after an accepted move
            if moved[i]:
                s, y = S[i], Gt[b] - G_from[i]
                sy = np.einsum("ij,ij->", s, y)
                step[i] = min(np.einsum("ij,ij->", s, s) / sy if sy > 0 else 1.5 * step[i], 1.0)
        stepl = step[live]
        for b, i in enumerate(live):  # retire where the step cannot lower the value
            if stepl[b] * gnorm2[b] <= C.SEARCH_DECREASE_TOL * (1.0 + abs(best_vals[i])):
                act[b] = False
        if not act.any():
            break
        Y = C._retract(Xl - stepl[:, None, None] * Gt)
        vY = C._bivector_value(*C._bivector_images(Rt, Y))
        accept = act & (vY <= ref[live] - 1e-4 * stepl * gnorm2)
        acc = live[accept]
        S[acc] = Y[accept] - Xl[accept]
        G_from[acc] = Gt[accept]
        X[acc] = Y[accept]
        for b, i in enumerate(live):  # C' = (eta Q C + v) / Q', Q' = eta Q + 1 after an accepted move
            if accept[b]:
                weight = C.SEARCH_ETA * ref_weight[i] + 1.0
                ref[i] = (C.SEARCH_ETA * ref_weight[i] * ref[i] + vY[b]) / weight
                ref_weight[i] = weight
        moved[live] = accept
        rej = live[act & ~accept]
        step[rej] *= 0.5
        active[live] = act
        best_vals[live] = np.minimum(best_vals[live], vY)
    return math.ldexp(float(best_vals.min()), exponent), live_counts


@pytest.mark.parametrize("n", range(4, 9))
def test_search_matches_the_two_product_search(monkeypatch, n):
    """The carried-image search against the same descent forming its images
    afresh at every iteration: the same descent iterations, values equal up
    to rounding.  The reference shares the search's kernel, retraction and
    projection, so that only the carrying is compared: a restart at its
    rounding floor can sit at the retirement threshold, where any change of
    rounding may move a retirement and the iteration count with it.
    The kernel is checked against a full contraction by
    test_iso_kernel_matches_full_contraction, and Gram-Schmidt against QR
    per frame by test_gram_schmidt_retraction_is_the_sign_fixed_qr.  Each
    iteration evaluates exactly the live restarts: the active ones and the
    ones it retires.  512 restarts at n = 4 only, where a pair of such
    searches takes about 0.3 s."""
    batches = count_descent_iterations(monkeypatch)
    rng = np.random.default_rng(20261019 + n)
    for generate in (random_curvature, random_pic_combination):
        for restarts in (16, 64, 512) if n == 4 else (16, 64):
            R = generate(n, rng)
            cfg = C.SearchConfig(restarts=restarts, seed=int(rng.integers(2**31)))
            batches.clear()
            value, _ = C.min_isotropic(R, cfg)
            searched = batches[:]  # read first: the reference takes its gradients from the same helper
            ref_value, live_counts = _two_product_search(R.R, cfg)
            assert len(searched) == len(live_counts), (generate.__name__, restarts)
            assert abs(value - ref_value) <= 1e-12 * (1.0 + abs(ref_value)), (generate.__name__, restarts)
            assert searched == live_counts, (generate.__name__, restarts)


def test_refused_trials_retire_by_the_decrease_test(monkeypatch):
    """A refused trial halves the step and keeps the frame, and with it the
    gradient, so a restart whose trials are all refused retires by the
    predicted-decrease test within finitely many halvings.  Where every
    trial frame is given the value +inf, every restart retires so, after
    43 to 46 halvings, and the search returns the least start value.
    Where only the trial frames whose first vector has a positive first
    coordinate are refused, some restarts move and others never do.  In
    both, the search evaluates the reference's live restarts in every
    iteration."""
    batches = count_descent_iterations(monkeypatch)
    value = C._bivector_value
    calls = [0]

    def refused(P, H):  # the first call of a search gives its start values, unchanged
        calls[0] += 1
        v = value(P, H)
        return v if calls[0] == 1 else np.where(everywhere | (P[:, 0, 0, 0] > 0), np.inf, v)

    monkeypatch.setattr(C, "_bivector_value", refused)
    R = random_curvature(5, np.random.default_rng(5))
    for everywhere in (True, False):
        for restarts in (16, 64):
            cfg = C.SearchConfig(restarts=restarts, seed=3)
            batches.clear()
            calls[0] = 0
            value_found, _ = C.min_isotropic(R, cfg)
            searched = batches[:]
            calls[0] = 0
            ref_value, live_counts = _two_product_search(R.R, cfg)
            assert searched == live_counts, (everywhere, restarts)
            assert abs(value_found - ref_value) <= 1e-12 * (1.0 + abs(ref_value)), (everywhere, restarts)
            if everywhere:
                assert len(searched) < C.SEARCH_MAX_ITER and value_found == ref_value, restarts


@pytest.mark.parametrize("restarts", [0, -1, True, 2.0, "8"])
def test_search_config_refuses_a_restart_count_that_is_not_a_positive_integer(restarts):
    """Refused when built, so that neither min_isotropic nor is_sigma_pic
    at n >= 5 meets it inside numpy (0 and -1 died there in a reshape and
    an allocation)."""
    with pytest.raises(ValueError, match="restarts must be a positive integer"):
        C.SearchConfig(restarts=restarts)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, True, "1e-9", None])
def test_search_config_refuses_a_tolerance_that_is_not_a_finite_number(tolerance):
    """Refused when built: with an infinite tolerance is_sigma_pic certified
    a PASS of sigma = 100 on a tensor whose minimum is 2, and with a NaN one
    it returned a FAIL carrying the NaN, which sigma_pic_profile wrote into
    its report."""
    with pytest.raises(ValueError, match="tolerance must be a finite number"):
        C.SearchConfig(tolerance=tolerance)


def test_search_config_takes_any_finite_tolerance():
    for tolerance in (0, -0.5, np.float64(0.5), 1e308):
        assert C.SearchConfig(tolerance=tolerance).tolerance == tolerance


def test_search_config_takes_a_numpy_integer():
    value, _ = C.min_isotropic(product_tensor(), C.SearchConfig(restarts=np.int64(4), seed=1))
    assert math.isfinite(value)


@pytest.mark.parametrize("k", [-80, -1, 1, 80])
def test_search_scales_with_the_tensor(k):
    """The search runs on the tensor scaled to unit size by a power of two,
    so scaling R by 2^k scales the minimum by 2^k bit for bit, with the
    same witness frame."""
    R = random_curvature(5, np.random.default_rng(20261020))
    cfg = C.SearchConfig(restarts=32, seed=3)
    value, frame = C.min_isotropic(R, cfg)
    scaled_value, scaled_frame = C.min_isotropic(R * 2.0**k, cfg)
    assert scaled_value == math.ldexp(value, k)
    assert np.array_equal(scaled_frame.vectors, frame.vectors)


def test_search_minimum_is_exact_on_its_witness_plane():
    """Above dimension 4, R restricted to the span of the searched witness
    frame has the searched value as its exact (closed-form) minimum."""
    rng = np.random.default_rng(20261018)
    for n in range(5, 9):
        for generate in (random_curvature, random_pic_combination):
            R = generate(n, rng)
            searched, frame = C.min_isotropic(R, C.SearchConfig(restarts=64, seed=n))
            X = frame.vectors
            restricted = np.einsum("ai,bj,ck,dl,ijkl->abcd", X, X, X, X, R.R, optimize=True)
            exact, _ = C.exact_min_isotropic(C.CurvTensor(restricted, validate=False))
            assert exact == pytest.approx(searched, rel=1e-6)


def test_exact_min_witness_attains_value(rng):
    orientations = set()
    for t in range(200):
        R = (random_curvature if t % 2 else random_pic_combination)(4, rng)
        value, frame = C.exact_min_isotropic(R)
        assert abs(C.iso_curvature(R, frame) - value) <= 1e-12 * np.max(np.abs(R.R))
        orientations.add(float(np.sign(np.linalg.det(frame.vectors))))
    assert orientations == {-1.0, 1.0}  # minima on the self-dual and the anti-self-dual side


def test_exact_min_with_bianchi_defect(rng):
    """validate=False sums may break the first Bianchi identity; the closed
    form still matches the frame functional and the search."""
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    R = random_curvature(4, rng) + C.CurvTensor(0.3 * eps, validate=False)
    assert C._bianchi_defect(R.R) > 0.5
    exact, frame = C.exact_min_isotropic(R)
    searched, _ = C.min_isotropic(R, C.SearchConfig(restarts=512, seed=1))
    assert abs(exact - searched) < 1e-6
    assert abs(C.iso_curvature(R, frame) - exact) < 1e-12 * np.max(np.abs(R.R))


def _exact_min_one_tensor(R):
    """The closed form one tensor at a time, as exact_min_isotropic computed
    it before its stacked core: a 3 x 3 eigh per side, the self-dual side on
    a tie, the witness built from that side's top eigenvector."""
    i, j = (np.array(degree_basis(4, 2)) - 1).T
    op = R.R[i[:, None], j[:, None], i[None, :], j[None, :]]
    beta = R.R[0, 1, 2, 3] + R.R[0, 2, 3, 1] + R.R[0, 3, 1, 2]
    sides = []
    for E, shift in zip(C._hodge_eigenbases(), (-beta, beta)):
        evals, evecs = np.linalg.eigh(E.T @ op @ E)
        sides.append((evals[0] + evals[1] + shift, E @ evecs[:, 2]))
    half_min, w = min(sides, key=lambda side: side[0])
    J = np.zeros((4, 4))
    J[i, j] = w
    J[j, i] = -w
    J *= math.sqrt(2.0)
    x0 = np.eye(4)[0]
    x1 = J.T @ x0
    rest = np.eye(4) - np.outer(x0, x0) - np.outer(x1, x1)
    x2 = rest[:, np.argmax(np.einsum("ij,ij->j", rest, rest))]
    x2 = x2 / np.linalg.norm(x2)
    return float(2.0 * half_min), np.array([x0, x1, x2, J.T @ x2])


def test_exact_min_matches_one_tensor_closed_form():
    """Values and witness frames of the stacked core, bit for bit, on a
    seeded panel of random, PIC and Bianchi-defect tensors."""
    rng = np.random.default_rng(20261018)
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    orientations = set()
    for t in range(120):
        R = (random_curvature, random_pic_combination)[t % 2](4, rng)
        if t % 3 == 0:
            R = R + C.CurvTensor(rng.standard_normal() * eps, validate=False)
        value, frame = C.exact_min_isotropic(R)
        ref_value, ref_frame = _exact_min_one_tensor(R)
        assert value == ref_value and np.array_equal(frame.vectors, ref_frame)
        orientations.add(float(np.sign(np.linalg.det(frame.vectors))))
    assert orientations == {-1.0, 1.0}


def test_exact_min_needs_dimension_four():
    with pytest.raises(ValueError):
        C.exact_min_isotropic(constant_curvature(5))


def test_n4_fail_verdict_carries_witness_below_sigma(rng):
    R = random_pic_combination(4, rng)
    exact, _ = C.exact_min_isotropic(R)
    sigma = max(exact, 0.0) + 0.5
    verdict = C.is_sigma_pic(R, sigma, C.SearchConfig(restarts=8))
    assert not verdict.passed and verdict.min_found == exact
    assert C.iso_curvature(R, verdict.witness) < sigma - verdict.tolerance


def test_exact_decision_agrees_with_the_closed_form_away_from_its_threshold():
    """The rational test of the n = 4 minimum against t agrees with the
    float closed form v at t = v -+ 1e-9 (1 + |v|), on a seeded panel of
    random, PIC and Bianchi-defect tensors."""
    rng = np.random.default_rng(20261022)
    eps = np.zeros((4,) * 4)
    for perm in itertools.permutations(range(4)):
        eps[perm] = np.linalg.det(np.eye(4)[list(perm)])
    for t in range(120):
        R = (random_curvature, random_pic_combination)[t % 2](4, rng)
        if t % 3 == 0:
            R = R + C.CurvTensor(rng.standard_normal() * eps, validate=False)
        value, _ = C.exact_min_isotropic(R)
        gap = 1e-9 * (1.0 + abs(value))
        assert C._exact_at_least(R, Fraction(value - gap))
        assert not C._exact_at_least(R, Fraction(value + gap))


def test_every_n4_verdict_is_one_rational_decision(monkeypatch, capsys):
    """Each n = 4 verdict calls the rational test once, with t = sigma - tol
    in exact rationals, also far from its threshold: the default verify
    curvature (S^3 x R, minimum 2, sigma 1) and a FAIL at sigma 3; the
    Weitzenboeck check takes is_sigma_pic's verdict at sigma >= 0 and
    below, and reaches no minimum apart from it."""
    decide, verdict_minimum = C._exact_at_least, C._verdict_minimum
    thresholds, minima = [], []
    monkeypatch.setattr(C, "_exact_at_least", lambda R, t: thresholds.append(t) or decide(R, t))
    monkeypatch.setattr(C, "_verdict_minimum", lambda R, cfg: minima.append(R) or verdict_minimum(R, cfg))
    assert cli.main(["verify", "curvature"]) == 0
    assert "PASS curvature.sigma_pic" in capsys.readouterr().out
    assert thresholds == [Fraction(1) - Fraction(1e-9)] and len(minima) == 1
    R = product_tensor()
    assert not C.is_sigma_pic(R, 3.0, C.SearchConfig(tolerance=0.0)).passed
    assert thresholds[1:] == [3] and len(minima) == 2
    is_sigma_pic, verdicts = C.is_sigma_pic, []
    monkeypatch.setattr(C, "is_sigma_pic", lambda *args: verdicts.append(is_sigma_pic(*args)) or verdicts[-1])
    for sigma in (1.0, -1.0):
        assert C.weitzenboeck_lower_bound_check(R, sigma).pic_verdict is verdicts[-1]
    assert len(verdicts) == 2 and len(minima) == 4
    assert thresholds[2:] == [Fraction(sigma) - Fraction(1e-9) for sigma in (1.0, -1.0)]


@pytest.mark.parametrize("n, spent", [(4, 0), (5, 8), (6, 0)])
def test_verdict_restarts_are_the_search_effort(n, spent):
    """Dimension 4 takes the closed form and runs no search: 0 restarts.  At
    n = 6 the round sphere's Ky Fan bound 4 certifies sigma = 1 and 2.5, so
    no search runs either; the product at n = 5 has bound 0 and is searched."""
    cfg = C.SearchConfig(restarts=8)
    kind = {4: "exact", 5: "stochastic", 6: "certified"}[n]
    R = constant_curvature(n) if kind == "certified" else product_tensor(n)
    for sigma in (1.0, 2.5):
        verdict = C.is_sigma_pic(R, sigma, cfg)
        assert (verdict.restarts, verdict.kind) == (spent, kind)
    if n % 2 == 0:
        verdict = C.weitzenboeck_lower_bound_check(R, 1.0, cfg).pic_verdict
        assert (verdict.restarts, verdict.kind) == (spent, kind)
        # sigma < 0 reads is_sigma_pic's verdict too, and asserts no bound
        rep = C.weitzenboeck_lower_bound_check(R, -1.0, cfg)
        assert (rep.pic_verdict.restarts, rep.pic_verdict.kind) == ((0, "exact") if n == 4 else (0, "certified"))
        assert rep.pic_verdict.passed and not rep.asserted and not rep.passed


def _four_form(n: int, rng) -> np.ndarray:
    """A random totally antisymmetric 4-tensor: it has the pair symmetries
    exactly, and its first Bianchi sum is three times itself."""
    w = np.zeros((n,) * 4)
    for idx in itertools.combinations(range(n), 4):
        v = rng.standard_normal()
        for perm in itertools.permutations(range(4)):
            w[tuple(idx[p] for p in perm)] = np.linalg.det(np.eye(4)[list(perm)]) * v
    return w


@settings(max_examples=15, deadline=None)
@given(st.integers(5, 7), st.sampled_from(["random", "pic", "broken"]), st.floats(0.0, 1.0),
       st.integers(-30, 30), st.integers(0, 2**32 - 1))
def test_certified_bound_is_below_the_search_minimum(n, kind, defect, scale_exp, seed):
    """The Ky Fan bound is <= the 512-restart search minimum + 1e-12 * scale
    on random tensors, PIC combinations, and PIC combinations summed with a
    4-form (validate=False, a first Bianchi defect), at scales 2^-30..2^30."""
    rng = np.random.default_rng(seed)
    R = (random_curvature if kind == "random" else random_pic_combination)(n, rng)
    if kind == "broken":
        R = R + C.CurvTensor(defect * _four_form(n, rng), validate=False)
    R = R * 2.0**scale_exp
    bound = C._certified_bound(R)
    searched, _ = C.min_isotropic(R, C.SearchConfig(restarts=512, seed=seed))
    assert bound <= searched + 1e-12 * np.max(np.abs(R.R))


def _op_tensor4(self_dual, anti_self_dual) -> np.ndarray:
    """The tensor on R^4 whose curvature operator has the given eigenvalues
    on the self-dual and on the anti-self-dual two-forms; equal traces make
    it satisfy the first Bianchi identity."""
    Ep, Em = C._hodge_eigenbases()
    M = Ep @ np.diag(self_dual) @ Ep.T + Em @ np.diag(anti_self_dual) @ Em.T
    i, j = (np.array(degree_basis(4, 2)) - 1).T
    R = np.zeros((4,) * 4)
    R[i[:, None], j[:, None], i[None, :], j[None, :]] = 0.5 * (M + M.T)
    R = R - R.transpose(1, 0, 2, 3)
    return R - R.transpose(0, 1, 3, 2)


def test_certificate_without_the_bianchi_term_is_false(monkeypatch):
    """A PIC tensor at n = 5 plus 0.3 times the volume form of its first four
    coordinates: the true minimum drops to 0.2, while the Ky Fan bound of the
    sum is 2.  Only the 2 |b|_F term keeps the certificate from proving
    sigma = 1; without it the verdict is a wrong certified PASS."""
    R = np.zeros((5,) * 4)
    R[:4, :4, :4, :4] = _op_tensor4([0.2, 0.2, 2.6], [1.0, 1.0, 1.0])
    pic = C.CurvTensor(R) + C.kulkarni_nomizu(np.eye(5), np.diag([0.0, 0.0, 0.0, 0.0, 1.0]))
    vol = np.zeros((5,) * 4)
    for perm in itertools.permutations(range(4)):
        vol[perm] = np.linalg.det(np.eye(4)[list(perm)])
    broken = pic + C.CurvTensor(0.3 * vol, validate=False)
    cfg = C.SearchConfig(restarts=64)
    assert C.is_sigma_pic(pic, 0.5, cfg).kind == "certified"  # bound 0.8
    verdict = C.is_sigma_pic(broken, 1.0, cfg)
    assert not verdict.passed and verdict.kind == "stochastic"
    assert C.iso_curvature(broken, verdict.witness) < 0.2 + 1e-9
    monkeypatch.setattr(C, "_bianchi_sum", np.zeros_like)
    wrong = C.is_sigma_pic(broken, 1.0, cfg)
    assert wrong.passed and wrong.kind == "certified" and wrong.min_found > 1.99


def test_huge_components_give_verdicts_without_warnings():
    """Components of 1e200 at n = 5: the bound is taken on 2^-e R, where
    |b|_F of a 1e200 Bianchi defect does not overflow, so no verdict warns."""
    doc = {"n": 5, "components": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": 1e200},
                                  {"i": 3, "j": 4, "k": 3, "l": 4, "v": 2.0}]}
    huge = C.load_curvature_json(doc)
    broken = constant_curvature(5, 1e200) + C.CurvTensor(1e200 * _four_form(5, np.random.default_rng(0)),
                                                          validate=False)
    cfg = C.SearchConfig(restarts=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fail = C.is_sigma_pic(huge, 1.0, cfg)  # bound 0: searched, and the frame (e3, e4, e1, e5) gives 0
        round_sphere = C.is_sigma_pic(constant_curvature(5, 1e200), 1.0, cfg)
        assert C._certified_bound(broken) < 0.0  # 2 |b|_F of the 4-form outweighs the sphere's 4e200
    assert not fail.passed and fail.kind == "stochastic"
    assert round_sphere.passed and round_sphere.kind == "certified"
    assert 4e200 * (1 - 1e-12) < round_sphere.min_found <= 4e200


def test_n4_verdict_on_components_near_the_float_range_warns_nothing():
    """R_1212 = R_3434 = 1.5e308 and every other sectional 0: the minimum is
    0, and at sigma = 1e308 the rounding gate's scale max|R| + |sigma| passes
    the float range.  The verdict is still a FAIL, with no warning."""
    R = C.load_curvature_json({"n": 4, "components": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": 1.5e308},
                                                      {"i": 3, "j": 4, "k": 3, "l": 4, "v": 1.5e308}]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = C.is_sigma_pic(R, 1e308, C.SearchConfig())
    assert not verdict.passed and verdict.kind == "exact" and abs(verdict.min_found) < 1e295


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 8), st.integers(0, 2**32 - 1), st.integers(-40, 40))
def test_verdict_minimum_reaches_the_coordinate_minimum_of_a_diagonal_tensor(n, seed, scale_exp):
    """R diagonal on e_i ^ e_j (R_ijkl = 0 unless {i, j} = {k, l}) has the
    coordinate frames' least value m(K) = min over distinct a, b, c, d of
    K_ac + K_ad + K_bc + K_bd as an upper bound of its minimum.  The verdict
    minimum is at most m(K), counted here over all ordered four-tuples, and
    its witness attains it."""
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n)) * 2.0**scale_exp
    K = K + K.T
    R = np.zeros((n,) * 4)
    for i, j in itertools.permutations(range(n), 2):
        R[i, j, i, j], R[i, j, j, i] = K[i, j], -K[i, j]
    R = C.CurvTensor(R)
    m = min(K[a, c] + K[a, d] + K[b, c] + K[b, d] for a, b, c, d in itertools.permutations(range(n), 4))
    value, frame, restarts, kind = C._verdict_minimum(R, C.SearchConfig(restarts=8, seed=seed))
    scale = np.max(np.abs(K))
    assert (restarts, kind) == (8, "stochastic")
    assert value <= m + 1e-12 * scale
    assert abs(C.iso_curvature(R, frame) - value) <= 1e-12 * scale


@pytest.mark.parametrize("n", [4, 6])
def test_negative_sigma_verdict_is_the_minimum_against_sigma(rng, n):
    """sigma = -1 is judged like any sigma: PASS exactly when the minimum is
    >= sigma - tol, on tensors above and below it."""
    cfg = C.SearchConfig(restarts=16, seed=n)
    verdicts = [C.is_sigma_pic(R, -1.0, cfg)
                for R in (product_tensor(n), constant_curvature(n, -1.0), random_curvature(n, rng))]
    for verdict in verdicts:
        assert verdict.passed == (verdict.min_found >= -1.0 - verdict.tolerance)
        assert (verdict.witness is None) == verdict.passed
    assert verdicts[0].passed and not verdicts[1].passed  # minima 2 and -4
    for sigma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            C.is_sigma_pic(product_tensor(n), sigma, cfg)


def test_non_finite_tensor_is_refused_at_construction():
    """A CurvTensor refuses NaN and +-inf components also with
    validate=False (the infinite ones keep the pair symmetries), and a sum
    or multiple past the float range raises, with no warning (the suite
    turns warnings into errors): no verdict or Weitzenboeck route meets a
    tensor that is not finite.  The operator refuses NaN and inf entries
    itself (a NaN operator passed the Hermitian test), since the Ricci sums
    of finite components can still overflow."""
    for n in (4, 5, 6):
        sphere = constant_curvature(n)
        tensors = [np.full((n,) * 4, np.nan)]
        for inf in (np.inf, -np.inf):
            tensors.append(np.zeros((n,) * 4))
            tensors[-1][sphere.R > 0], tensors[-1][sphere.R < 0] = inf, -inf
        huge = sphere * 1e308
        for make in [*(lambda T=T: C.CurvTensor(T, validate=False) for T in tensors),
                     lambda: huge + huge, lambda: huge * 10.0, lambda: 10.0 * huge, lambda: sphere * math.inf]:
            with pytest.raises(ValueError, match="must be finite"):
                make()
        if n % 2 == 0:
            d2 = n * (n - 1) // 2
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="must be finite"):
                    C.WeitzOperator(n, np.full((d2, d2), bad))


def test_non_finite_components_rejected():
    R = constant_curvature(4).R.copy()
    for i, j, k, l, sign in ((0, 1, 0, 1, 1), (1, 0, 0, 1, -1), (0, 1, 1, 0, -1), (1, 0, 1, 0, 1)):
        R[i, j, k, l] = sign * np.inf
    with pytest.raises(ValueError, match="finite"):
        C.CurvTensor(R)


def test_traces_constant_curvature():
    R = constant_curvature(4, 1.0)
    assert R.R[0, 1, 0, 1] == 1.0
    assert np.allclose(C.ricci(R), 3.0 * np.eye(4))
    assert np.einsum("alal->", R.R) == 12.0
    zero = C.CurvTensor(np.zeros((4,) * 4))
    assert np.all(C.ricci(zero) == 0.0)


def test_trace_identity_random(rng):
    R = random_curvature(6, rng)
    assert abs(np.einsum("alal->", R.R) - np.trace(C.ricci(R))) < 1e-10


def test_weitzenboeck_zero_and_constant(monkeypatch):
    """The index formula gives 0 and the round sphere's ((n - 2) sigma / 2) I
    with its own sign rule: the exterior algebra's wedge and contraction
    helpers raise here."""
    def refuse(*args, **kwargs):
        raise AssertionError("the index route called an exterior sign helper")

    for name in ("wedge_key", "wedge_keys", "interior_key", "wedge_stack", "interior_stack", "two_form_blocks"):
        monkeypatch.setattr(C.exterior, name, refuse)
    zero = C.CurvTensor(np.zeros((4,) * 4))
    assert np.all(C.weitzenboeck_on_two_forms(zero).matrix == 0.0)
    for n in (4, 6, 8):
        sigma = 1.7
        R = C.kulkarni_nomizu(np.eye(n), np.eye(n)) * (sigma / 8.0)
        W = C.weitzenboeck_on_two_forms(R)
        dim = n * (n - 1) // 2
        target = 0.5 * (n - 2) * sigma * np.eye(dim)
        assert np.max(np.abs(W.matrix - target)) < 1e-10


def test_weitzenboeck_double_path(rng):
    for n in (4, 6):
        R = random_curvature(n, rng)
        M1 = C.weitzenboeck_on_two_forms(R).matrix
        M2 = C.weitzenboeck_clifford_trace(R)
        assert np.max(np.abs(M1 - M2)) < 1e-10
        assert np.max(np.abs(M1 - M1.T)) < 1e-12


def test_weitzenboeck_bound_check():
    rep = C.weitzenboeck_lower_bound_check(constant_curvature(4), 4.0, C.SearchConfig(restarts=32))
    assert rep.asserted and rep.passed
    assert abs(rep.lambda_min - 4.0) < 1e-10 and abs(rep.margin) < 1e-10
    rep2 = C.weitzenboeck_lower_bound_check(product_tensor(), 2.0, C.SearchConfig(restarts=32))
    assert rep2.asserted and rep2.passed and rep2.margin >= 0
    hyp = constant_curvature(4, -1.0)
    rep3 = C.weitzenboeck_lower_bound_check(hyp, 0.0, C.SearchConfig(restarts=32))
    assert not rep3.asserted and not rep3.pic_verdict.passed


def test_weitzenboeck_eigen_bound_for_pic_combinations(rng):
    cfg = C.SearchConfig(restarts=64, seed=5)
    for n in (4, 6):
        for _ in range(5):
            R = random_pic_combination(n, rng)
            sigma_star, _ = C.min_isotropic(R, cfg)
            lam_min = C.weitzenboeck_on_two_forms(R).lambda_min()
            assert lam_min >= 0.5 * (n - 2) * sigma_star - 1e-8


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        C.weitzenboeck_lower_bound_check(constant_curvature(5), 1.0)


def test_bianchi_validation():
    bad = np.zeros((4,) * 4)
    # antisymmetric pair structure but Bianchi-violating
    bad[0, 1, 2, 3] = 1.0
    bad[1, 0, 2, 3] = -1.0
    bad[0, 1, 3, 2] = -1.0
    bad[1, 0, 3, 2] = 1.0
    bad[2, 3, 0, 1] = 1.0
    bad[3, 2, 0, 1] = -1.0
    bad[2, 3, 1, 0] = -1.0
    bad[3, 2, 1, 0] = 1.0
    with pytest.raises(ValueError, match="Bianchi"):
        C.CurvTensor(bad)


def test_json_roundtrip_and_consistency(rng):
    R = random_curvature(4, rng)
    doc = curvature_to_json(R)
    R2 = C.load_curvature_json(doc)
    assert np.array_equal(R.R, R2.R)
    doc["components"].append({"i": 1, "j": 2, "k": 1, "l": 2, "v": R.R[0, 1, 0, 1] + 1.0})
    with pytest.raises(ValueError, match="inconsistent"):
        C.load_curvature_json(doc)


def test_loader_completes_symmetries():
    doc = {"n": 4, "components": [{"i": 1, "j": 2, "k": 1, "l": 2, "v": 1.0}]}
    R = C.load_curvature_json(doc)
    assert R.R[1, 0, 0, 1] == -1.0
    assert R.R[0, 1, 1, 0] == -1.0
    assert R.R[1, 0, 1, 0] == 1.0


def test_sphere_line_product_is_the_product_tensor():
    for n, kappa in ((4, 1.0), (5, 2.0), (6, 0.3)):
        assert np.array_equal(C.sphere_line_product(n, kappa).R, product_tensor(n, kappa).R)
    R = C.sphere_line_product(5, 2.0)
    assert R.R[0, 1, 0, 1] == R.R[2, 3, 2, 3] == 2.0
    assert R.R[0, 4, 0, 4] == R.R[3, 4, 3, 4] == 0.0
