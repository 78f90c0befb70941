import math

import numpy as np
import pytest

from picband import exterior as E
from picband import gridcalc as G


def grid(N_r=16, N_t=6, n=4, L=2.0):
    return G.FlatBandGrid(n, L, N_r, N_t)


def test_grid_validation():
    with pytest.raises(ValueError):
        G.FlatBandGrid(4, 2.0, 4, 6)
    with pytest.raises(ValueError):
        G.FlatBandGrid(4, -1.0, 16, 6)


def test_d_of_constant_field_vanishes():
    g = grid()
    F = G.trig_field(g, [{"index": [1, 2], "coef": [1.0, 0.5], "factors": []}])
    assert G.d_grid(F).sup_norm() == 0.0


def test_d_matches_analytic_derivative():
    # F = sin(2 pi x_2) theta^1: dF = 2 pi cos(2 pi x_2) theta^2 ^ theta^1
    errs = []
    for N_t in (16, 32):
        g = grid(N_r=12, N_t=N_t)
        F = G.trig_field(g, [{"index": [1], "factors": [{"axis": 1, "kind": "sin", "freq": 1}]}])
        dF = G.d_grid(F)
        X = g.axes()
        errs.append(float(np.max(np.abs(dF.data[(1, 2)] + 2.0 * math.pi * np.cos(2.0 * math.pi * X[1])))))
    assert errs[1] < errs[0] / 3.0  # second order in the transverse spacing


def test_laplacian_matches_analytic():
    errs = []
    for N_t in (16, 32):
        g = grid(N_r=12, N_t=N_t)
        F = G.trig_field(g, [{"index": [1], "factors": [{"axis": 2, "kind": "cos", "freq": 1}]}])
        lap = G.laplacian_grid(F)
        target = -((2.0 * math.pi) ** 2)
        errs.append(
            float(np.max(np.abs(lap.data[(1,)] - target * F.data[(1,)])))
        )
    assert errs[1] < errs[0] / 3.0


def test_dd_vanishes(rng):
    g = grid()
    F = G.random_field(g, 1, rng)
    scale = max(F.sup_norm(), 1.0)
    assert G.d_grid(G.d_grid(F)).sup_norm() < 1e-12 * scale
    F2 = G.random_field(g, 2, rng)
    assert G.dstar_grid(G.dstar_grid(F2)).sup_norm() < 1e-12 * scale


def test_dd_exactly_zero_for_radial_polynomials():
    g = grid()
    X = g.axes()
    F = G.FormField(g, {(1,): X[0] ** 2 + 1.0, (2,): 3.0 * X[0]})
    assert G.d_grid(G.d_grid(F)).sup_norm() == 0.0


def test_dirac_two_code_paths(rng):
    # sum_j c(e_j) d_j equals d + d*
    g = grid()
    F = G.random_field(g, 2, rng)
    D1 = G.dirac_grid(F)
    D2 = G.FormField(g)
    for j in range(g.n):
        comps = [None] * g.n
        comps[j] = 1.0
        dj = G.FormField(g)
        dj.data = {k: g.deriv(v, j) for k, v in F.data.items()}
        D2 = D2 + G._clifford_field(comps, dj, -1)
    # the two paths differ only in float summation order
    assert (D1 - D2).sup_norm() < 1e-13 * max(1.0, F.sup_norm())


def test_D_f_reduces_to_dirac():
    g = grid()
    F = G.trig_field(g, [{"index": [1, 2], "factors": [{"axis": 0, "kind": "sin", "freq": 1}]}])
    zero = np.zeros(g.shape)
    assert (G.D_f_grid(F, zero) - G.dirac_grid(F)).sup_norm() == 0.0


def test_D_f_linear_radial_on_constant_field():
    g = grid()
    F = G.trig_field(g, [{"index": [2, 3], "coef": [1.0, 0.0], "factors": []}])
    X = g.axes()
    f = 0.7 * X[0]
    out = G.D_f_grid(F, f)
    # dF = d*F = 0 exactly; interior slices see ct(0.7 e_1) F exactly
    expected = G._clifford_field([0.7, None, None, None], F, +1)
    diff = (out - expected).sup_norm()
    assert diff < 1e-13  # one-sided stencil reproduces the linear slope exactly


def test_green_dirac_transverse_fields_exact(rng):
    g = grid()
    a = G.random_field(g, 2, rng, radial=False)
    assert G.green_residual_dirac(a, a) < 1e-12


def test_green_dirac_convergence():
    _, _, orders = G.convergence_study("dirac", (16, 32, 64), seed=0)
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


def test_green_dirac_radial_twist_invariance():
    # the ct(grad f) term is pointwise self-adjoint: no boundary contribution
    g = grid(N_r=24)
    rng = np.random.default_rng(9)
    a, b = G.paired_test_fields(g, rng, "dirac")
    X = g.axes()
    f = 0.8 * np.sin(math.pi * X[0] / g.L) + 0.3 * X[0]
    r0 = G.green_residual_dirac(a, b)
    r1 = G.green_residual_dirac(a, b, f)
    assert abs(r0 - r1) < 5e-3 * max(1.0, r0)


def test_green_laplace_convergence():
    _, _, orders = G.convergence_study("laplace", (16, 32, 64), seed=0)
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


def test_twisted_weitzenboeck_flat_bochner(rng):
    g = grid(N_r=24)
    om = G.random_field(g, 2, rng)
    # f = 0: <D^2 w, w> + <Lap w, w> cancels to rounding noise
    assert G.twisted_weitzenboeck_residual(om, np.zeros(g.shape)) < 1e-9


def test_twisted_weitzenboeck_linear_f():
    g = grid(N_r=24)
    rng = np.random.default_rng(3)
    om = G.random_field(g, 2, rng)
    X = g.axes()
    f = 0.6 * X[0]
    # Hessian of a linear twist vanishes: identity reduces to the scalar term
    res = G.twisted_weitzenboeck_residual(om, f)
    assert res < 5e-2  # one-sided boundary effects only; still small


def test_twisted_weitzenboeck_convergence():
    residuals, _, orders = G.convergence_study("weitzenboeck", (16, 32, 64), seed=0)
    assert all(r > 0 for r in residuals)
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


def test_conjugation_identity_convergence():
    residuals, hs = [], []
    for N in (16, 32, 64):
        g = grid(N_r=N)
        rng = np.random.default_rng(8)
        om = G.random_field(g, 2, rng)
        X = g.axes()
        f = 0.5 * np.sin(math.pi * X[0] / g.L)
        residuals.append(G.conjugation_residual(om, f))
        hs.append(g.h)
    orders = G.convergence_order(residuals, hs)
    assert all(abs(o - 2.0) <= 0.5 for o in orders)


def test_chi_eigenform_boundary_identity_cases(rng):
    n = 4
    nu = np.eye(n)[n - 1]
    tang = E.basis_form(n, 1, 2)
    norm = E.FormElement(n, {(1, n): 1.0})
    grad = np.array([0.0, 0.0, 0.0, 0.7])
    assert G.chi_eigenform_boundary_identity(tang, grad, nu, +1) < 1e-12
    assert G.chi_eigenform_boundary_identity(norm, grad, nu, -1) < 1e-12
    # tangential gradient components drop out on eigenforms
    for _ in range(50):
        gvec = rng.standard_normal(n)
        keys = [k for k in E.degree_basis(n, 2) if n not in k]
        w = E.FormElement(n, {k: complex(rng.standard_normal(), rng.standard_normal()) for k in keys})
        assert G.chi_eigenform_boundary_identity(w, gvec, nu, +1) < 1e-10
        wn = E.FormElement(
            n, {(i, n): complex(rng.standard_normal(), rng.standard_normal()) for i in range(1, n)}
        )
        assert G.chi_eigenform_boundary_identity(wn, gvec, nu, -1) < 1e-10


def test_chi_eigenform_rejects_mixed_form():
    n = 4
    nu = np.eye(n)[n - 1]
    mixed = E.basis_form(n, 1, 2) + E.FormElement(n, {(1, n): 1.0})
    with pytest.raises(ValueError):
        G.chi_eigenform_boundary_identity(mixed, nu, nu, +1)


def test_contraction_trace_identity(rng):
    # H = I on a degree-k form: k |w|^2 + (n-k) |w|^2 = n |w|^2
    n = 6
    w = E.random_form(n, 2, rng)
    assert G.contraction_trace_identity(np.eye(n), w) < 1e-12 * max(1.0, w.norm2())
    for _ in range(20):
        H = rng.standard_normal((n, n))
        H = 0.5 * (H + H.T)
        w = E.random_form(n, int(rng.integers(0, n + 1)), rng)
        assert G.contraction_trace_identity(H, w) < 1e-12 * max(1.0, w.norm2()) * np.abs(H).max()
    assert G.contraction_trace_identity(np.eye(n), E.FormElement(n)) == 0.0


def test_grid_config_loader():
    doc = {
        "n": 4,
        "L": 2.0,
        "N_r": 16,
        "N_t": 6,
        "fields": [[{"index": [1, 2], "coef": [1.0, 0.0],
                     "factors": [{"axis": 0, "kind": "sin", "freq": 1}]}]],
    }
    g, fields = G.load_grid_config(doc)
    assert g.shape == (16, 6, 6, 6)
    assert len(fields) == 1 and (1, 2) in fields[0].data


def test_trig_field_index_order_sets_sign():
    def field(index, coef):
        return G.trig_field(grid(), [{"index": index, "coef": [coef, 0.0],
                                      "factors": [{"axis": 0, "kind": "sin", "freq": 1}]}])

    swapped, direct = field([2, 1], 1.0), field([1, 2], -1.0)
    assert list(swapped.data) == [(1, 2)]
    assert np.array_equal(swapped.data[(1, 2)], direct.data[(1, 2)])
    assert not field([1, 1], 1.0).data
    F = G.FormField(grid(), {(2, 1): direct.data[(1, 2)]})
    assert list(F.data) == [(1, 2)] and np.array_equal(F.data[(1, 2)], -direct.data[(1, 2)])


def test_form_field_rejects_out_of_range_index():
    g = grid()
    with pytest.raises(ValueError, match="out of range"):
        G.FormField(g, {(g.n + 1,): np.ones(g.shape)})


# -- the key action against the loops it replaced --------------------------


def _loop_derivative_sum(key_op, F, scale):
    """Transcription of the per-operator loop d_grid and dstar_grid used."""
    g = F.grid
    out = G.FormField(g)
    for key, arr in F.data.items():
        for j in range(1, g.n + 1):
            hit = key_op(j, key)
            if hit is None:
                continue
            moved, sign = hit
            out._acc(moved, scale * sign * g.deriv(arr, j - 1))
    return out


def _loop_clifford_field(vec_components, F, sign):
    """Transcription of the per-operator loop of _clifford_field."""
    g = F.grid
    out = G.FormField(g)
    for key, arr in F.data.items():
        for j in range(1, g.n + 1):
            comp = vec_components[j - 1]
            if comp is None:
                continue
            hit = E.wedge_key(j, key)
            if hit is not None:
                merged, s = hit
                out._acc(merged, s * comp * arr)
            hit = E.interior_key(j, key)
            if hit is not None:
                reduced, s = hit
                out._acc(reduced, sign * s * comp * arr)
    return out


def _loop_contractions(omega):
    """Transcription of the contraction loop of twisted_weitzenboeck_residual."""
    g = omega.grid
    contr = []
    for i in range(1, g.n + 1):
        Fi = G.FormField(g)
        for key, arr in omega.data.items():
            hit = E.interior_key(i, key)
            if hit is not None:
                reduced, s = hit
                Fi._acc(reduced, s * arr)
        contr.append(Fi)
    return contr


def _assert_same_field(a, b):
    assert list(a.data) == list(b.data)
    for key in a.data:
        assert np.array_equal(a.data[key], b.data[key]), key


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_key_action_matches_the_loops_it_replaced(n):
    g = grid(N_r=8, N_t=4, n=n)
    rng = np.random.default_rng(40 + n)
    for k in range(n + 1):
        F = G.random_field(g, k, rng) + G.random_field(g, min(k + 1, n), rng)
        _assert_same_field(G.d_grid(F), _loop_derivative_sum(E.wedge_key, F, 1))
        _assert_same_field(G.dstar_grid(F), _loop_derivative_sum(E.interior_key, F, -1))
        zeros = np.where(rng.random(g.shape) < 0.5, 0.0, rng.standard_normal(g.shape))
        scalars = [float(rng.standard_normal()) for _ in range(n)]
        mixed = ([zeros, None, 0.0, -1.5] + scalars)[:n]
        for vec in (scalars, [None] * n, mixed, [rng.standard_normal(g.shape) + 0j for _ in range(n)]):
            for sign in (-1, 1):
                _assert_same_field(G._clifford_field(vec, F, sign), _loop_clifford_field(vec, F, sign))
        expected = _loop_contractions(F)
        contr = [G._key_action(F, ((E.interior_key, 1),), lambda j, arr: arr if j == i else None)
                 for i in range(1, n + 1)]
        for a, b in zip(contr, expected):
            _assert_same_field(a, b)


def test_convergence_study_calls_the_module_residual(monkeypatch):
    calls = []
    original = G.green_residual_dirac

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(G, "green_residual_dirac", counting)
    G.convergence_study("dirac", (12, 16))
    assert len(calls) == 2 * G.STUDY_DRAWS
    with pytest.raises(ValueError, match="unknown study kind"):
        G.convergence_study("heat", (12, 16))
    with pytest.raises(ValueError, match="unknown study kind"):
        G.paired_test_fields(grid(), np.random.default_rng(0), "heat")


def test_trig_field_factors_match_the_meshgrid():
    g = grid(N_r=10, N_t=5)
    X = g.axes()
    spec = [{"index": [1, 3], "coef": [0.3, -1.2],
             "factors": [{"axis": 0, "kind": "cos", "freq": 1.7, "phase": 0.2},
                         {"axis": 2, "kind": "sin", "freq": 2, "phase": 0.4},
                         {"axis": 3, "kind": "const"},
                         {"axis": 1, "kind": "cos", "freq": 1, "phase": 1.1}]}]
    expected = complex(0.3, -1.2) * np.ones(g.shape, dtype=complex)
    expected = expected * np.cos(math.pi * 1.7 * X[0] / g.L + 0.2)
    expected = expected * np.sin(2.0 * math.pi * 2.0 * X[2] + 0.4)
    expected = expected * np.cos(2.0 * math.pi * 1.0 * X[1] + 1.1)
    # the term is stored at the shape of its factor axes; its values are exact
    assert np.array_equal(np.broadcast_to(G.trig_field(g, spec).data[(1, 3)], g.shape), expected)
    with pytest.raises(ValueError, match="unknown factor kind"):
        G.trig_field(g, [{"index": [1], "factors": [{"axis": 1, "kind": "tan"}]}])


# -- storage at the shape of the factor axes ---------------------------------

ELIDE_BYTES = 256 * 1024  # numpy reuses a temporary this large as an output


def _materialised(g, obj):
    if isinstance(obj, G.FormField):
        return G.FormField(g, {k: np.broadcast_to(v, g.shape).copy() for k, v in obj.data.items()})
    return np.broadcast_to(obj, g.shape).copy()


@pytest.mark.parametrize("n,N_r,N_t", [(3, 16, 6), (4, 24, 6), (4, 96, 6), (5, 12, 4), (5, 16, 6)])
@pytest.mark.parametrize("kind", ["dirac", "laplace", "weitzenboeck"])
def test_compressed_fields_give_the_materialised_residuals(kind, n, N_r, N_t):
    g = grid(N_r=N_r, N_t=N_t, n=n)
    residual = G._study(kind)[1]
    for seed in range(2):
        fields = G.paired_test_fields(g, np.random.default_rng(seed), kind)
        assert all(np.prod(v.shape) < np.prod(g.shape) for v in fields[0].data.values())
        compressed = residual(*fields)
        full = residual(*(_materialised(g, x) for x in fields))
        if 16 * np.prod(g.shape) < ELIDE_BYTES:
            assert compressed == full
        else:
            # a full-size complex product v * conj(w) runs in place in the
            # conj temporary, which rounds differently from the plain loop
            assert abs(compressed - full) <= 1e-12 * abs(full)


def test_trig_field_stores_a_term_at_its_factor_axes():
    g = grid(N_r=10, N_t=5)
    F = G.trig_field(g, [
        {"index": [1], "factors": [{"axis": 2, "kind": "sin"}, {"axis": 0, "kind": "cos"}]},
        {"index": [2], "factors": [{"axis": 3, "kind": "const"}]},
        {"index": [3], "factors": [{"axis": 1, "kind": "cos"}, {"axis": 3, "kind": "sin"}]},
    ])
    assert F.data[(1,)].shape == (10, 1, 5, 1)
    assert F.data[(2,)].shape == (1, 1, 1, 1)
    assert F.data[(3,)].shape == (1, 5, 1, 5)
    # sums and operators broadcast to the union of the axes
    assert (F + G.trig_field(g, [{"index": [2], "factors": [{"axis": 1, "kind": "sin"}]}])).data[(2,)].shape == (1, 5, 1, 1)
    assert G.d_grid(F).data[(1, 2)].shape == (10, 1, 5, 1)
    assert G.d_grid(F).data[(2, 3)].shape == (1, 5, 1, 5)


def test_form_field_rejects_a_non_broadcastable_shape():
    g = grid()
    G.FormField(g, {(1,): np.ones((1, g.N_t, 1, 1))})
    for shape in [(g.N_r, 2, 1, 1), (g.N_r,), (1, 1, 1, 1, 1), (g.N_r + 1, 1, 1, 1)]:
        with pytest.raises(ValueError, match="shape"):
            G.FormField(g, {(1,): np.ones(shape)})


def test_nan_on_a_size_one_axis_reaches_the_residuals():
    g = grid(N_r=12)
    twist = G._radial_twist(g)
    for planted in ("alpha", "beta"):
        alpha = G.trig_field(g, [{"index": [1, 2], "factors": [{"axis": 0, "kind": "sin"},
                                                               {"axis": 1, "kind": "cos"}]}])
        beta = G.trig_field(g, [{"index": [2], "factors": []},
                                {"index": [1, 2, 3], "factors": [{"axis": 0, "kind": "cos"}]}])
        if planted == "alpha":
            field, arr, at = alpha, alpha.data[(1, 2)], (3, 2, 0, 0)  # axes 2 and 3 have size 1
        else:
            field, arr, at = beta, beta.data[(2,)], (0, 0, 0, 0)  # constant on every axis
        arr[at] = np.nan
        for axis in (2, 3):
            assert np.isnan(g.deriv(arr, axis)[at])
        assert math.isnan(G.green_residual_dirac(alpha, beta))
        assert math.isnan(G.green_residual_laplace(field, field))
        assert math.isnan(G.twisted_weitzenboeck_residual(field, twist))
