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
