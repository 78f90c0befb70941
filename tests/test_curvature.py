import itertools
import math

import numpy as np
import pytest

from picband import curvature as C


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
    R = C.constant_curvature(4, 1.0)
    assert abs(C.iso_curvature(R, C.Frame4.standard(4)) - 4.0) < 1e-14
    zero = C.CurvTensor(np.zeros((4,) * 4))
    assert C.iso_curvature(zero, C.Frame4.standard(4)) == 0.0


def test_iso_product_standard_frame():
    # sphere block contributes R_1313 + R_2323 only
    assert abs(C.iso_curvature(product_tensor(), C.Frame4.standard(4)) - 2.0) < 1e-14


def test_iso_rejects_skew_frame():
    R = C.constant_curvature(4)
    X = np.eye(4)
    X[0, 1] = 0.5
    with pytest.raises(ValueError):
        C.iso_curvature(R, X)


def test_iso_symmetry_group(rng):
    """The cross term R_1234 changes sign under a single swap, so the true
    invariance group is generated by the double swap, the pair swap, and a
    two-vector sign flip.  Invariance is algebraically exact; numerically
    the contraction order shifts the last ulp, hence the 1e-13 window."""
    R = C.random_curvature(5, rng)
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
    R = C.random_curvature(n, rng)
    U = rng.standard_normal((n,) * 4)
    U = U - np.swapaxes(U, 2, 3)
    S = U - np.swapaxes(U, 0, 1)
    S = C.CurvTensor(0.5 * (S + np.transpose(S, (2, 3, 0, 1))), validate=False)
    broken = R + S * (1e-3 / S.bianchi_defect())
    assert 0.5e-3 < broken.bianchi_defect() < 2e-3
    with pytest.raises(ValueError, match="Bianchi"):
        broken.validate()
    return R, broken


@pytest.mark.parametrize("n", range(4, 9))
def test_iso_kernel_matches_full_contraction(rng, n):
    for R in kernel_tensors(rng, n):
        X = np.linalg.qr(rng.standard_normal((16, n, 4)))[0].swapaxes(1, 2)
        T = np.einsum("Bai,Bbj,Bck,Bdl,ijkl->Babcd", X, X, X, X, R.R, optimize=True)
        ref = T[:, 0, 2, 0, 2] + T[:, 0, 3, 0, 3] + T[:, 1, 2, 1, 2] + T[:, 1, 3, 1, 3] - 2.0 * T[:, 0, 1, 2, 3]
        assert np.max(np.abs(C.iso_curvature_batch(R, X) - ref)) <= 1e-13 * np.max(np.abs(R.R))


@pytest.mark.parametrize("n", range(4, 9))
def test_iso_gradient_matches_central_differences(rng, n):
    """The isotropic curvature is at most quadratic in each coordinate of the
    frame, so central differences are exact up to rounding."""
    h = 1e-3
    for R in kernel_tensors(rng, n):
        X = rng.standard_normal((3, 4, n))
        G = C._iso_grad_batch(R.R, X)
        fd = np.empty_like(X)
        for a in range(4):
            for i in range(n):
                E = np.zeros_like(X)
                E[:, a, i] = h
                fd[:, a, i] = (C.iso_curvature_batch(R, X + E) - C.iso_curvature_batch(R, X - E)) / (2 * h)
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
    vals = C.iso_curvature_batch(R, X)
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
    R = C.random_curvature(4, rng)
    cfg = C.SearchConfig(restarts=32, seed=3)
    base, _ = C.min_isotropic(R, cfg)
    for tau in (0.5, -1.25):
        shift = C.kulkarni_nomizu(np.eye(4), np.eye(4)) * (tau / 8.0)
        shifted, _ = C.min_isotropic(R + shift, cfg)
        assert abs(shifted - base - tau) < 1e-8


def test_is_sigma_pic_verdicts():
    R = C.constant_curvature(4, 1.0)
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
    """The n = 4 closed form and the 512-restart search agree to 1e-6."""
    rng = np.random.default_rng(20261018)
    cfg = C.SearchConfig(seed=11)  # default 512 restarts
    for generate in (C.random_curvature, C.random_pic_combination):
        for _ in range(20):
            R = generate(4, rng)
            exact, _ = C.exact_min_isotropic(R)
            searched, _ = C.min_isotropic(R, cfg)
            assert abs(exact - searched) < 1e-6


def test_exact_min_witness_attains_value(rng):
    orientations = set()
    for t in range(200):
        R = (C.random_curvature if t % 2 else C.random_pic_combination)(4, rng)
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
    R = C.random_curvature(4, rng) + C.CurvTensor(0.3 * eps, validate=False)
    assert R.bianchi_defect() > 0.5
    exact, frame = C.exact_min_isotropic(R)
    searched, _ = C.min_isotropic(R, C.SearchConfig(restarts=512, seed=1))
    assert abs(exact - searched) < 1e-6
    assert abs(C.iso_curvature(R, frame) - exact) < 1e-12 * np.max(np.abs(R.R))


def test_exact_min_needs_dimension_four():
    with pytest.raises(ValueError):
        C.exact_min_isotropic(C.constant_curvature(5))


def test_n4_fail_verdict_carries_witness_below_sigma(rng):
    R = C.random_pic_combination(4, rng)
    exact, _ = C.exact_min_isotropic(R)
    sigma = max(exact, 0.0) + 0.5
    verdict = C.is_sigma_pic(R, sigma, C.SearchConfig(restarts=8))
    assert not verdict.passed and verdict.min_found == exact
    assert C.iso_curvature(R, verdict.witness) < sigma - verdict.tolerance


@pytest.mark.parametrize("n, spent", [(4, 0), (5, 8)])
def test_verdict_restarts_are_the_search_effort(n, spent):
    """Dimension 4 takes the closed form and runs no search: 0 restarts."""
    cfg = C.SearchConfig(restarts=8)
    R = product_tensor(n)
    assert C.is_sigma_pic(R, 1.0, cfg).restarts == spent
    assert C.is_sigma_pic(R, 2.5, cfg).restarts == spent
    if n % 2 == 0:
        for sigma in (1.0, -1.0):  # the sigma < 0 branch builds its verdict apart
            assert C.weitzenboeck_lower_bound_check(R, sigma, cfg).pic_verdict.restarts == spent


def test_non_finite_minimum_is_a_fail():
    R = C.CurvTensor(np.full((5,) * 4, np.nan), validate=False)
    verdict = C.is_sigma_pic(R, 0.0, C.SearchConfig(restarts=4))
    assert not verdict.passed and math.isnan(verdict.min_found)


def test_non_finite_components_rejected():
    R = C.constant_curvature(4).R.copy()
    for i, j, k, l, sign in ((0, 1, 0, 1, 1), (1, 0, 0, 1, -1), (0, 1, 1, 0, -1), (1, 0, 1, 0, 1)):
        R[i, j, k, l] = sign * np.inf
    with pytest.raises(ValueError, match="finite"):
        C.CurvTensor(R)


def test_traces_constant_curvature():
    R = C.constant_curvature(4, 1.0)
    assert C.sectional(R, 1, 2) == 1.0
    assert np.allclose(C.ricci(R), 3.0 * np.eye(4))
    assert C.scalar(R) == 12.0
    zero = C.CurvTensor(np.zeros((4,) * 4))
    assert C.scalar(zero) == 0.0


def test_trace_identity_random(rng):
    R = C.random_curvature(6, rng)
    assert abs(C.scalar(R) - np.trace(C.ricci(R))) < 1e-10


def test_ricci_floor_lambda():
    # hyperbolic space has Ric = -(n-1) g, so the floor scale is 1
    assert abs(C.ricci_floor_lambda(C.constant_curvature(4, -1.0)) - 1.0) < 1e-12
    assert C.ricci_floor_lambda(C.constant_curvature(4, 1.0)) == 0.0


def test_weitzenboeck_zero_and_constant():
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
        R = C.random_curvature(n, rng)
        M1 = C.weitzenboeck_on_two_forms(R).matrix
        M2 = C.weitzenboeck_clifford_trace(R)
        assert np.max(np.abs(M1 - M2)) < 1e-10
        assert np.max(np.abs(M1 - M1.T)) < 1e-12


def test_weitzenboeck_bound_check():
    rep = C.weitzenboeck_lower_bound_check(C.constant_curvature(4), 4.0, C.SearchConfig(restarts=32))
    assert rep.asserted and rep.passed
    assert abs(rep.lambda_min - 4.0) < 1e-10 and abs(rep.margin) < 1e-10
    rep2 = C.weitzenboeck_lower_bound_check(product_tensor(), 2.0, C.SearchConfig(restarts=32))
    assert rep2.asserted and rep2.passed and rep2.margin >= 0
    hyp = C.constant_curvature(4, -1.0)
    rep3 = C.weitzenboeck_lower_bound_check(hyp, 0.0, C.SearchConfig(restarts=32))
    assert not rep3.asserted and not rep3.pic_verdict.passed


def test_weitzenboeck_eigen_bound_for_pic_combinations(rng):
    cfg = C.SearchConfig(restarts=64, seed=5)
    for n in (4, 6):
        for _ in range(5):
            R = C.random_pic_combination(n, rng)
            sigma_star, _ = C.min_isotropic(R, cfg)
            lam_min = C.weitzenboeck_on_two_forms(R).lambda_min()
            assert lam_min >= 0.5 * (n - 2) * sigma_star - 1e-8


def test_odd_dimension_rejected():
    with pytest.raises(ValueError):
        C.weitzenboeck_lower_bound_check(C.constant_curvature(5), 1.0)


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
    R = C.random_curvature(4, rng)
    doc = C.curvature_to_json(R)
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
    assert C.sectional(R, 1, 2) == C.sectional(R, 3, 4) == 2.0
    assert C.sectional(R, 1, 5) == C.sectional(R, 4, 5) == 0.0
