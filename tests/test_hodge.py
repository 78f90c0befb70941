import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picband import hodge as H


def test_interval_betti():
    K = H.load_bundled("interval")
    assert H.betti(K, 0) == 1 and H.betti(K, 1) == 0
    assert H.betti_relative(K, 1) == 1


def test_annulus_betti():
    K = H.load_bundled("annulus")
    assert [H.betti(K, k) for k in range(3)] == [1, 1, 0]
    assert H.betti_relative(K, 1) == 1


def test_torus_betti():
    K = H.load_bundled("torus")
    assert [H.betti(K, k) for k in range(3)] == [1, 2, 1]
    # closed: no boundary subcomplex
    assert K.boundary_subcomplex() == {}


def test_solid_torus_betti():
    K = H.load_bundled("solid_torus")
    assert [H.betti(K, k) for k in range(4)] == [1, 1, 0, 0]
    assert H.betti_relative(K, 2) == 1


def test_moebius_betti():
    K = H.load_bundled("moebius")
    assert [H.betti(K, k) for k in range(3)] == [1, 1, 0]
    # boundary is a single circle of 5 edges
    assert len(K.boundary_subcomplex()[1]) == 5


def test_lefschetz_duality_oriented():
    for name in ("annulus", "solid_torus", "disk", "interval"):
        K = H.load_bundled(name)
        for k in range(K.dim + 1):
            assert H.betti_relative(K, k) == H.betti(K, K.dim - k)


def test_betti_range_errors():
    K = H.load_bundled("disk")
    with pytest.raises(ValueError):
        H.betti(K, 5)


def test_complex_validation():
    with pytest.raises(ValueError, match="not closed"):
        H.SimplicialComplex({0: [(0,), (1,)], 1: [(0, 1)], 2: [(0, 1, 2)]})
    with pytest.raises(ValueError, match="degenerate"):
        H.SimplicialComplex({1: [(0, 0)]})


def test_boundary_of_boundary_zero():
    K = H.load_bundled("s2xs1")
    B3 = K.boundary_matrix(3)
    B2 = K.boundary_matrix(2)
    assert np.all(B2 @ B3 == 0)


def test_exact_rank_against_numpy(rng):
    for _ in range(20):
        M = rng.integers(-3, 4, size=(7, 9))
        assert H.exact_rank(M) == np.linalg.matrix_rank(M.astype(float))


def _fraction_rank(M):
    """Reference: Gaussian elimination in exact Fraction arithmetic."""
    rows = [[Fraction(int(x)) for x in row] for row in M]
    rank = 0
    for col in range(M.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    """Small integer matrices, 0 x k and k x 0 included: a product through
    a narrow inner dimension (rank-deficient), with some columns zeroed."""
    m, k, inner = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entries = st.integers(-4, 4)
    A = np.array(draw(st.lists(entries, min_size=m * inner, max_size=m * inner)), dtype=np.int64)
    B = np.array(draw(st.lists(entries, min_size=inner * k, max_size=inner * k)), dtype=np.int64)
    M = A.reshape(m, inner) @ B.reshape(inner, k)
    M[:, draw(st.lists(st.booleans(), min_size=k, max_size=k))] = 0
    return M


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_exact_rank_matches_fraction_elimination(M):
    assert H.exact_rank(M) == _fraction_rank(M)


def test_twisted_coboundary_rank_invariance(rng):
    K = H.load_bundled("annulus")
    D = K.coboundary_matrix(1)
    for _ in range(5):
        T = H.TwistedComplex(K, rng.uniform(-5, 5, K.n_simplices(0)))
        A = H.twisted_coboundary(T, 1)
        assert np.linalg.matrix_rank(A) == np.linalg.matrix_rank(D.astype(float))


def test_twisted_composition_exactly_zero(rng):
    for name in ("annulus", "solid_torus", "torus"):
        K = H.load_bundled(name)
        for cond in ("absolute", "relative"):
            T = H.TwistedComplex(K, rng.uniform(-5, 5, K.n_simplices(0)), cond)
            for k in range(K.dim - 1):
                Z = H.twisted_composition_exact(T, k)
                assert np.all(Z == 0.0)
                A1 = H.twisted_coboundary(T, k)
                A2 = H.twisted_coboundary(T, k + 1)
                if A1.size and A2.size:
                    scale = max(1.0, np.abs(A2).max() * np.abs(A1).max())
                    assert np.max(np.abs(A2 @ A1)) < 1e-11 * scale


def test_untwisted_laplacian_is_combinatorial():
    K = H.load_bundled("circle")
    T = H.TwistedComplex(K, np.zeros(K.n_simplices(0)))
    L = H.twisted_laplacian(T, 0)
    D = K.coboundary_matrix(0).astype(float)
    assert np.allclose(L, D.T @ D)


def test_harmonic_dimensions_match_betti(rng):
    jobs = [
        ("annulus", "absolute", 1, 1),
        ("annulus", "relative", 1, 1),
        ("torus", "absolute", 1, 2),
        ("solid_torus", "absolute", 1, 1),
        ("solid_torus", "relative", 2, 1),
        ("s2xs1", "absolute", 1, 1),
        ("s2xs1", "absolute", 2, 1),
    ]
    for name, cond, k, expect in jobs:
        K = H.load_bundled(name)
        target = H.betti_relative(K, k) if cond == "relative" else H.betti(K, k)
        assert target == expect
        for _ in range(10):
            f = rng.uniform(-5.0, 5.0, K.n_simplices(0))
            T = H.TwistedComplex(K, f, cond)
            assert H.harmonic_dimension(T, k) == expect


def test_harmonic_dimension_twist_independent(rng):
    K = H.load_bundled("moebius")
    base = H.harmonic_dimension(H.TwistedComplex(K, np.zeros(K.n_simplices(0))), 1)
    for _ in range(20):
        f = rng.uniform(-5.0, 5.0, K.n_simplices(0))
        assert H.harmonic_dimension(H.TwistedComplex(K, f), 1) == base


def test_harmonic_dimension_at_amplitude_ten(rng):
    # twice the suite's twist range: the kernel dimension is still the Betti number
    for name, cond, k in [("annulus", "absolute", 1), ("solid_torus", "relative", 2)]:
        K = H.load_bundled(name)
        expect = H.betti_relative(K, k) if cond == "relative" else H.betti(K, k)
        for _ in range(10):
            T = H.TwistedComplex(K, rng.uniform(-10.0, 10.0, K.n_simplices(0)), cond)
            assert H.harmonic_dimension(T, k) == expect


def test_strong_twist_annulus_regression():
    """Under this twist Delta_f has eigenvalues 4.9e-9 and 5.7e-6 against a
    largest of 9.9e7; an eigenvalue cut counted both as kernel (2, not 1)."""
    K = H.load_bundled("annulus")
    T = H.TwistedComplex(K, np.random.default_rng(0).uniform(-10, 10, 6))
    assert H.harmonic_dimension(T, 0) == H.betti(K, 0) == 1


def test_default_suite_takes_no_exact_fallback(monkeypatch, tmp_path):
    """Under the suite's +-5 twist law every kernel dimension of the five
    default jobs is certified: harmonic_dimension never reaches exact_rank."""
    from picband import cli

    inside, fallbacks = [False], []
    rank, harmonic = H.exact_rank, H.harmonic_dimension

    def counted_rank(M):
        if inside[0]:
            fallbacks.append(M.shape)
        return rank(M)

    def traced_harmonic(T, k):
        inside[0] = True
        try:
            return harmonic(T, k)
        finally:
            inside[0] = False

    monkeypatch.setattr(H, "exact_rank", counted_rank)
    monkeypatch.setattr(H, "harmonic_dimension", traced_harmonic)
    for seed in range(3):
        assert cli.main(["verify", "hodge", "--twists", "60", "--seed", str(seed),
                         "--out", str(tmp_path / "r.json")]) == 0
    assert fallbacks == []


def test_exact_fallback_matches_float(rng):
    K = H.load_bundled("annulus")
    f = rng.uniform(-5.0, 5.0, K.n_simplices(0))
    T = H.TwistedComplex(K, f)
    assert H._betti(K, 1, relative=False) == H.harmonic_dimension(T, 1)


def test_json_roundtrip(tmp_path):
    K = H.load_bundled("annulus")
    doc = H.complex_to_json(K)
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(doc))
    K2 = H.load_complex(json.loads(path.read_text()))
    assert K2.simplices == K.simplices


def test_json_dim_mismatch():
    doc = H.complex_to_json(H.load_bundled("disk"))
    doc["dim"] = 3
    with pytest.raises(ValueError):
        H.load_complex(doc)


def test_vertex_function_follows_sorted_labels():
    """A vertex is addressed by its position among the sorted labels, so a
    relabelled circle twists exactly like the one labelled 0, 1, 2."""
    f = np.array([0.3, -1.2, 2.0])
    plain = H.TwistedComplex(H.circle_complex(3), f)
    for labels in ((-1, 0, 1), (0, 2, 5), (10, 20, 30)):
        a, b, c = labels
        K = H.SimplicialComplex({0: [(a,), (b,), (c,)], 1: [(a, b), (b, c), (a, c)]})
        T = H.TwistedComplex(K, f)
        assert np.array_equal(T.weight_vector(0), np.exp(f))
        assert np.array_equal(T.weight_vector(1), plain.weight_vector(1))
        assert [H.harmonic_dimension(T, k) for k in (0, 1)] == [1, 1]
        torus = H.prism_product(K, 3, cyclic=True)
        assert [H.betti(torus, k) for k in range(3)] == [1, 2, 1]


def test_prism_product_needs_layers():
    with pytest.raises(ValueError):
        H.prism_product(H.circle_complex(3), 2, cyclic=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 800.0], ids=["nan", "inf", "overflow"])
def test_twisted_complex_rejects_bad_vertex_function(bad):
    K = H.load_bundled("annulus")
    f = np.zeros(K.n_simplices(0))
    f[0] = bad  # exp(800) overflows at the vertex itself
    with pytest.raises(ValueError, match="finite and positive"):
        H.TwistedComplex(K, f)


def grid_complex(m: int, w: int, torus: bool, label) -> H.SimplicialComplex:
    """Triangulated annulus (cyclic in i) or torus (cyclic in i and j) on an
    m x w vertex grid, vertex (i, j) relabelled label[i * w + j]."""
    v = lambda i, j: int(label[(i % m) * w + (j % w)])
    tris = set()
    for i in range(m):
        for j in range(w if torus else w - 1):
            a, b, c, d = v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1)
            tris |= {tuple(sorted((a, b, d))), tuple(sorted((a, c, d)))}
    edges = {e for t in tris for e in itertools.combinations(t, 2)}
    return H.SimplicialComplex({0: [(x,) for x in range(m * w)], 1: sorted(edges), 2: sorted(tris)})


PRISM_BASES = [H.interval_complex(), H.disk_complex()] + [H.circle_complex(m) for m in (3, 4, 5)]


@st.composite
def complexes(draw):
    if draw(st.booleans()):
        base = draw(st.sampled_from(PRISM_BASES))
        cyclic = draw(st.booleans())
        return H.prism_product(base, draw(st.integers(3 if cyclic else 1, 4)), cyclic)
    torus = draw(st.booleans())
    m, w = draw(st.integers(3, 5)), draw(st.integers(3 if torus else 2, 4))
    return grid_complex(m, w, torus, draw(st.permutations(range(m * w))))


@settings(max_examples=40, deadline=None)
@given(complexes(), st.sampled_from([5.0, 10.0, 20.0, 40.0]), st.integers(0, 2**32 - 1))
def test_twisted_hodge_properties(K, amplitude, seed):
    """Under twists of amplitude 5 (the suite's law) to 40 the twisted
    harmonic dimension is the Betti number in every degree, under both
    boundary conditions, and at amplitude 10 too; d_f d_f is exactly zero;
    the weights are exactly the per-simplex means' exponentials; the
    integer data is read-only."""
    rng = np.random.default_rng(seed)
    f = rng.uniform(-amplitude, amplitude, K.n_simplices(0))
    f10 = rng.uniform(-10.0, 10.0, K.n_simplices(0))
    T = H.TwistedComplex(K, f)
    for d in range(K.dim + 1):  # the per-simplex loop the vectorised weights replace
        loop = np.exp(np.array([np.mean([f[v] for v in s]) for s in K.simplices[d]]))
        assert np.array_equal(T.weight_vector(d), loop)
    for cond, target in (("absolute", H.betti), ("relative", H.betti_relative)):
        T = H.TwistedComplex(K, f, cond)
        for k in range(K.dim + 1):
            expect = target(K, k)
            assert H.harmonic_dimension(T, k) == expect, (cond, k)
            assert H.harmonic_dimension(H.TwistedComplex(K, f10, cond), k) == expect, (cond, k)
            assert np.all(H.twisted_composition_exact(T, k) == 0.0)
    for k in range(K.dim + 2):
        B = K.boundary_matrix(k)
        assert not B.flags.writeable and not K.coboundary_matrix(k - 1).flags.writeable
        if B.size:
            with pytest.raises(ValueError):
                B[0, 0] = 0
