import math
import re
from itertools import combinations

import numpy as np
import pytest

from picband import exterior as E
from picband import gridcalc as G


def grid(N_r=16, N_t=6, n=4, L=2.0):
    return G.FlatBandGrid(n, L, N_r, N_t)


def axes(g):
    """The node coordinates of g, one full array per grid axis."""
    xs = [np.linspace(0.0, g.L, g.N_r)] + [np.arange(g.N_t) * g.ht for _ in range(g.n - 1)]
    return np.meshgrid(*xs, indexing="ij")


def one_draw(g, rng, kind):
    """The study fields of one generator, without their draw axis of size 1."""
    return tuple(G.FormField(g, {k: v[0] for k, v in x.data.items()}) if isinstance(x, G.FormField) else x
                 for x in G._study_fields(g, G._study_draws([rng], g.n, kind)))


def random_field(grid, degree, rng, radial=True):
    """Random smooth trig field of the given degree, two terms per component."""
    spec = []
    for key in combinations(range(1, grid.n + 1), degree):
        for _ in range(2):
            factors = []
            if radial:
                factors.append(
                    {"axis": 0, "kind": rng.choice(["sin", "cos"]), "freq": int(rng.integers(1, 3)),
                     "phase": float(rng.uniform(0, 2 * math.pi))}
                )
            for axis in range(1, grid.n):
                if rng.random() < 0.5:
                    factors.append(
                        {"axis": axis, "kind": rng.choice(["sin", "cos"]),
                         "freq": int(rng.integers(1, 3)), "phase": float(rng.uniform(0, 2 * math.pi))}
                    )
            spec.append(
                {"index": list(key),
                 "coef": [float(rng.standard_normal()), float(rng.standard_normal())],
                 "factors": factors}
            )
    return G.trig_field(grid, spec)


def test_grid_validation():
    with pytest.raises(ValueError):
        G.FlatBandGrid(4, 2.0, 4, 6)
    with pytest.raises(ValueError):
        G.FlatBandGrid(4, -1.0, 16, 6)
    # a positive L whose spacing rounds to 0: every radial stencil would divide by it
    with pytest.raises(ValueError, match=r"radial spacing h = L / \(N_r - 1\) = 0\.0"):
        G.FlatBandGrid(3, 5e-324, 12, 4)
    assert G.FlatBandGrid(3, 1e-300, 12, 4).h > 0


def test_grid_node_limit():
    """N_r N_t^(n-1) past MAX_GRID_NODES is refused before anything is
    allocated, also where the count itself is astronomically large."""
    G.FlatBandGrid(5, 2.0, 96, 6)  # the largest study in use
    G.FlatBandGrid(3, 2.0, G.MAX_GRID_NODES // 16, 4)  # exactly at the limit
    for n, N_r, N_t in ((3, G.MAX_GRID_NODES // 16 + 1, 4), (4, 12, 100_000), (4, 10**13, 6), (10**20, 8, 4)):
        with pytest.raises(ValueError, match="MAX_GRID_NODES"):
            G.FlatBandGrid(n, 2.0, N_r, N_t)
    with pytest.raises(OverflowError, match="float range"):
        G.FlatBandGrid(10**400, 2.0, 8, 4)


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
        X = axes(g)
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
    F = random_field(g, 1, rng)
    scale = max(F.sup_norm(), 1.0)
    assert G.d_grid(G.d_grid(F)).sup_norm() < 1e-12 * scale
    F2 = random_field(g, 2, rng)
    assert G.dstar_grid(G.dstar_grid(F2)).sup_norm() < 1e-12 * scale


def test_dd_exactly_zero_for_radial_polynomials():
    g = grid()
    X = axes(g)
    F = G.FormField(g, {(1,): X[0] ** 2 + 1.0, (2,): 3.0 * X[0]})
    assert G.d_grid(G.d_grid(F)).sup_norm() == 0.0


def test_dirac_two_code_paths(rng):
    # sum_j c(e_j) d_j equals d + d*
    g = grid()
    F = random_field(g, 2, rng)
    D1 = G.d_grid(F) + G.dstar_grid(F)
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
    assert (G.D_f_grid(F, zero) - (G.d_grid(F) + G.dstar_grid(F))).sup_norm() == 0.0


def test_D_f_linear_radial_on_constant_field():
    g = grid()
    F = G.trig_field(g, [{"index": [2, 3], "coef": [1.0, 0.0], "factors": []}])
    X = axes(g)
    f = 0.7 * X[0]
    out = G.D_f_grid(F, f)
    # dF = d*F = 0 exactly; interior slices see ct(0.7 e_1) F exactly
    expected = G._clifford_field([0.7, None, None, None], F, +1)
    diff = (out - expected).sup_norm()
    assert diff < 1e-13  # one-sided stencil reproduces the linear slope exactly


def test_green_dirac_transverse_fields_exact(rng):
    g = grid()
    a = random_field(g, 2, rng, radial=False)
    assert G.green_residual_dirac(a, a) < 1e-12


def test_green_dirac_convergence():
    _, _, orders = G.convergence_study("dirac", (16, 32, 64), seed=0)
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


def test_green_dirac_radial_twist_invariance():
    # the ct(grad f) term is pointwise self-adjoint: no boundary contribution
    g = grid(N_r=24)
    rng = np.random.default_rng(9)
    a, b = one_draw(g, rng, "dirac")
    X = axes(g)
    f = 0.8 * np.sin(math.pi * X[0] / g.L) + 0.3 * X[0]
    r0 = G.green_residual_dirac(a, b)
    lhs = g.integrate(G.D_f_grid(a, f).pointwise_inner(b))
    mid = g.integrate(a.pointwise_inner(G.D_f_grid(b, f)))
    r1 = abs(lhs - mid - G._boundary_term_dirac(a, b))
    assert abs(r0 - r1) < 5e-3 * max(1.0, r0)


def test_green_laplace_convergence():
    _, _, orders = G.convergence_study("laplace", (16, 32, 64), seed=0)
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


def test_twisted_weitzenboeck_flat_bochner(rng):
    g = grid(N_r=24)
    om = random_field(g, 2, rng)
    # f = 0: <D^2 w, w> + <Lap w, w> cancels to rounding noise
    assert G.twisted_weitzenboeck_residual(om, np.zeros(g.shape)) < 1e-9


def test_twisted_weitzenboeck_linear_f():
    g = grid(N_r=24)
    rng = np.random.default_rng(3)
    om = random_field(g, 2, rng)
    X = axes(g)
    f = 0.6 * X[0]
    # Hessian of a linear twist vanishes: identity reduces to the scalar term
    res = G.twisted_weitzenboeck_residual(om, f)
    assert res < 5e-2  # one-sided boundary effects only; still small


def test_twisted_weitzenboeck_convergence():
    residuals, _, orders = G.convergence_study("weitzenboeck", (16, 32, 64), seed=0)
    assert all(r > 0 for r in residuals)
    assert all(abs(o - 2.0) <= 0.3 for o in orders)


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


def _assert_same_on_the_grid(a, b):
    """Keys in the same order and values equal on the full grid: an
    operator may store a component smaller than a loop that formed its
    exact zeros."""
    assert list(a.data) == list(b.data)
    shape = a.grid.shape
    for key in a.data:
        assert np.array_equal(np.broadcast_to(a.data[key], shape), np.broadcast_to(b.data[key], shape)), key


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_key_action_matches_the_loops_it_replaced(n):
    g = grid(N_r=8, N_t=4, n=n)
    rng = np.random.default_rng(40 + n)
    for k in range(n + 1):
        F = random_field(g, k, rng) + random_field(g, min(k + 1, n), rng)
        _assert_same_on_the_grid(G.d_grid(F), _loop_derivative_sum(E.wedge_key, F, 1))
        _assert_same_on_the_grid(G.dstar_grid(F), _loop_derivative_sum(E.interior_key, F, -1))
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


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_summed_key_actions_are_the_field_sums(n):
    """D_f is the left-to-right field sum d + d* + ct(grad f) bit for bit,
    keys in the same order."""
    g = grid(N_r=8, N_t=4, n=n)
    rng = np.random.default_rng(60 + n)
    f = rng.standard_normal(g.shape)
    grads = [g.deriv(f + 0j, axis) for axis in range(n)]
    for k in range(n):
        F = random_field(g, k, rng) + random_field(g, k + 1, rng)
        _assert_same_field(G.D_f_grid(F, f), G.d_grid(F) + G.dstar_grid(F) + G._clifford_field(grads, F, +1))


def test_D_f_calls_the_module_d_and_dstar(monkeypatch):
    calls = []
    for name in ("d_grid", "dstar_grid"):
        original = getattr(G, name)

        def counting(F, name=name, original=original):
            calls.append(name)
            return original(F)

        monkeypatch.setattr(G, name, counting)
    g = grid(N_r=8, N_t=4, n=3)
    F = random_field(g, 1, np.random.default_rng(7))
    G.D_f_grid(F, np.zeros(g.shape))
    assert calls == ["d_grid", "dstar_grid"]
    G.convergence_study("dirac", (12, 16), n=3)
    assert calls.count("d_grid") == calls.count("dstar_grid") == 1 + 2 * 2  # two D_f per residual


def test_convergence_study_calls_the_module_residual(monkeypatch):
    calls = []
    original = G.green_residual_dirac

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(G, "green_residual_dirac", counting)
    G.convergence_study("dirac", (12, 16))
    assert len(calls) == 2  # one call per refinement, every draw on its draw axis
    with pytest.raises(ValueError, match="unknown study kind"):
        G.convergence_study("heat", (12, 16))
    with pytest.raises(ValueError, match="unknown study kind"):
        G._study_draws([np.random.default_rng(0)], 4, "heat")


def test_trig_field_factors_match_the_meshgrid():
    g = grid(N_r=10, N_t=5)
    X = axes(g)
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
    message = "[0].factors[0].kind must be one of ('sin', 'cos', 'const'), got 'tan'"
    with pytest.raises(ValueError, match=re.escape(message)):
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
        fields = one_draw(g, np.random.default_rng(seed), kind)
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
    # d_2 of theta^1's term is not formed: it is constant on axis 1, so
    # (1, 2) holds only d_1 of theta^2's, on the materialised radial axis
    assert G.d_grid(F).data[(1, 2)].shape == (10, 1, 1, 1)
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


# -- the draw axis against the per-draw loop it replaced ---------------------

ULPS = 4  # the draw axis may reorder an elementwise product, not a sum


def _reference_paired_field(g, rng, *degrees):
    """Transcription of the study field builder for one generator."""
    spec = []
    for degree in degrees:
        for key in combinations(range(1, g.n + 1), degree):
            spec.append(
                {"index": list(key),
                 "coef": [float(rng.standard_normal()), float(rng.standard_normal())],
                 "factors": [{"axis": 0, "kind": "sin", "freq": float(rng.uniform(0.5, 2.0)),
                              "phase": float(rng.uniform(0, 2 * math.pi))},
                             {"axis": 1, "kind": "cos", "freq": 1, "phase": 0.3}]}
            )
    return G.trig_field(g, spec)


REFERENCE_FIELDS = {
    "dirac": lambda g, rng: (_reference_paired_field(g, rng, 2), _reference_paired_field(g, rng, 1, 3)),
    "laplace": lambda g, rng: (_reference_paired_field(g, rng, 2), _reference_paired_field(g, rng, 2)),
    "weitzenboeck": lambda g, rng: (_reference_paired_field(g, rng, 2), G._radial_twist(g)),
}


def _reference_study(kind, N_rs, n, N_t, seed):
    """Transcription of the per-draw loop of convergence_study: one residual
    call per draw, added into the total in draw order."""
    residual = G._study(kind)[1]
    residuals, hs = [], []
    for N in N_rs:
        g = G.FlatBandGrid(n, G.STUDY_L, int(N), N_t)
        total = 0.0
        for s in range(G.STUDY_DRAWS):
            total += residual(*REFERENCE_FIELDS[kind](g, np.random.default_rng(seed + 101 * s)))
        residuals.append(total / G.STUDY_DRAWS)
        hs.append(g.h)
    return residuals, hs, G.convergence_order(residuals, hs)


@pytest.mark.parametrize("n,N_t,ladder", [(4, 6, (16, 32, 64)), (4, 6, (24, 48, 96)), (5, 5, (12, 16, 20))])
@pytest.mark.parametrize("kind", ["dirac", "laplace", "weitzenboeck"])
def test_study_on_the_draw_axis_matches_the_per_draw_loop(kind, n, N_t, ladder):
    for seed in range(6):
        residuals, hs, orders = G.convergence_study(kind, ladder, n=n, N_t=N_t, seed=seed)
        ref_residuals, ref_hs, ref_orders = _reference_study(kind, ladder, n, N_t, seed)
        assert hs == ref_hs
        assert all(type(r) is float for r in residuals)
        for r, q in zip(residuals, ref_residuals):
            assert abs(r - q) <= ULPS * math.ulp(q), (seed, r, q)
        for o, p in zip(orders, ref_orders):
            assert abs(o - p) <= 1e-12


def test_periodic_derivative_is_the_roll_formula_bit_for_bit():
    g = grid(N_r=8, N_t=5)
    rng = np.random.default_rng(23)
    specials = [complex(np.nan, 0.0), complex(np.inf, 1.0), complex(0.5, -np.inf), complex(-np.inf, np.nan)]
    for lead in ((), (3,), (2, 1)):
        for trailing in ((8, 5, 1, 5), (1, 1, 5, 1), (8, 1, 1, 1), (1, 5, 5, 5)):
            shape = lead + trailing
            data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            flat = data.reshape(-1)  # a view: data is contiguous
            flat[rng.choice(flat.size, size=len(specials), replace=False)] = specials
            for axis in range(1, g.n):
                at = axis - g.n
                with np.errstate(invalid="ignore"):  # inf - inf
                    expected = (np.roll(data, -1, axis=at) - np.roll(data, 1, axis=at)) / (2 * g.ht)
                    got = g.deriv(data, axis)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (shape, axis)


@pytest.mark.parametrize("kind", ["dirac", "laplace", "weitzenboeck"])
def test_one_field_residual_is_a_float_and_one_draw_of_the_batch(kind):
    g = grid(N_r=12)
    residual = G._study(kind)[1]
    seeds = (4, 9, 11)
    batch = residual(*G._study_fields(g, G._study_draws([np.random.default_rng(s) for s in seeds], g.n, kind)))
    assert batch.shape == (len(seeds),)
    for s, r in zip(seeds, batch):
        one = residual(*one_draw(g, np.random.default_rng(s), kind))
        assert type(one) is float
        assert abs(one - r) <= ULPS * math.ulp(one)


# -- exact zeros are not formed, and a study draws once ----------------------

GOLDEN_LADDERS = [(4, 6, (16, 32, 64)), (3, 6, (16, 32, 64)), (5, 5, (12, 16, 20)), (4, 6, (24, 48, 96))]
_default_rng = np.random.default_rng


class _CountingRng:
    """A generator that counts its draws."""

    def __init__(self, seed):
        self.rng, self.draws = _default_rng(seed), 0

    def standard_normal(self):
        self.draws += 1
        return self.rng.standard_normal()

    def uniform(self, lo, hi):
        self.draws += 1
        return self.rng.uniform(lo, hi)


@pytest.mark.parametrize("kind", ["dirac", "laplace", "weitzenboeck"])
def test_a_study_forms_no_constant_axis_derivative_and_draws_once(kind, monkeypatch):
    """No derivative of finite data is taken along a periodic axis where it
    has size 1, and each generator draws one set of coefficients for all
    refinements of a study."""
    constant, taken, deriv = [], [], G.FlatBandGrid.deriv

    def counting(g, data, axis):
        taken.append(axis)
        if axis and data.shape[axis - g.n] == 1 and np.isfinite(data).all():
            constant.append((data.shape, axis))
        return deriv(g, data, axis)

    rngs = []
    monkeypatch.setattr(G.FlatBandGrid, "deriv", counting)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rngs.append(_CountingRng(seed)) or rngs[-1])
    G.convergence_study(kind, (16, 24, 32), n=4, seed=3)
    assert taken and not constant
    keys = {"dirac": 6 + 4 + 4, "laplace": 6 + 6, "weitzenboeck": 6}[kind]  # components of the study fields
    assert [r.draws for r in rngs] == [4 * keys] * G.STUDY_DRAWS


@pytest.mark.parametrize("n,N_t,ladder", GOLDEN_LADDERS)
@pytest.mark.parametrize("kind", ["dirac", "laplace", "weitzenboeck"])
def test_a_study_is_the_per_grid_route_bit_for_bit(kind, n, N_t, ladder):
    """Drawn once per study, the residuals are those of fields drawn anew
    for each grid."""
    residual = G._study(kind)[1]
    for seed in range(3):
        expected = []
        for N in ladder:
            g = G.FlatBandGrid(n, G.STUDY_L, N, N_t)
            total = 0.0
            rngs = [np.random.default_rng(seed + 101 * s) for s in range(G.STUDY_DRAWS)]
            for r in residual(*G._study_fields(g, G._study_draws(rngs, n, kind))).tolist():
                total += r
            expected.append(total / G.STUDY_DRAWS)
        assert G.convergence_study(kind, ladder, n=n, N_t=N_t, seed=seed)[0] == expected


def _same_on_the_grid(a, b):
    shape = a.grid.shape
    return list(a.data) == list(b.data) and all(
        np.array_equal(np.broadcast_to(a.data[k], shape), np.broadcast_to(b.data[k], shape), equal_nan=True)
        for k in a.data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
def test_non_finite_or_huge_data_forms_what_it_multiplies(bad):
    """The exact zeros are left out only where they are exact: on a field
    with a non-finite component every derivative takes the stencil (inf -
    inf is NaN) and ct(grad f) forms 0 * inf, and a Hessian term is formed
    where <i_i w, i_j w> may overflow.  Each operator and residual gives
    what it gives on the materialised fields, where nothing is left out."""
    g = grid(N_r=10, N_t=4, n=3)
    F = random_field(g, 1, np.random.default_rng(5)) + random_field(g, 2, np.random.default_rng(6), radial=False)
    key = next(k for k, v in F.data.items() if 1 in v.shape[1:])
    if bad == 1e160:
        F.data[key] = F.data[key] * bad
    else:
        F.data[key] = np.where(np.arange(g.N_r)[:, None, None] == 4, bad, F.data[key])
    twist = G._radial_twist(g)
    with np.errstate(invalid="ignore", over="ignore"):
        full_F, full_twist = _materialised(g, F), _materialised(g, twist)
        for op in (G.d_grid, G.dstar_grid, G.laplacian_grid, lambda X: G.D_f_grid(X, twist)):
            assert _same_on_the_grid(op(F), op(full_F))
        got = [G.twisted_weitzenboeck_residual(F, twist), G.green_residual_dirac(F, F), G.green_residual_laplace(F, F)]
        want = [G.twisted_weitzenboeck_residual(full_F, full_twist), G.green_residual_dirac(full_F, full_F),
                G.green_residual_laplace(full_F, full_F)]
    assert repr(got) == repr(want)
