import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from picband import bands
from picband import hodge as H
from tests.conftest import complex_to_json

GOLDEN_INPUTS = os.path.join(os.path.dirname(__file__), "golden", "inputs")


def test_interval_betti():
    K = H.load_bundled("interval")
    assert H.betti(K, 0) == 1 and H.betti(K, 1) == 0
    assert H.betti_relative(K, 1) == 1


def test_annulus_betti():
    K = H.load_bundled("annulus")
    assert [H.betti(K, k) for k in range(3)] == [1, 1, 0]
    assert H.betti_relative(K, 1) == 1


def test_torus_betti():
    """The bundled torus, and a 16 x 16 grid torus of 256/768/512 simplices,
    whose del o del check and exact ranks take about 0.1 s."""
    for K in (H.load_bundled("torus"), grid_complex(16, 16, True, range(256))):
        assert [H.betti(K, k) for k in range(3)] == [1, 2, 1]
        # closed: no boundary subcomplex
        assert K.boundary_subcomplex() == {}


def test_nonzero_boundary_of_boundary_is_refused(monkeypatch):
    """A boundary matrix del_2 with one sign flipped: del_1 del_2 is no
    longer zero, and construction says so."""
    build = H.SimplicialComplex._build_boundary

    def flipped(self, k):
        B = build(self, k)
        if k == 2:
            B = B.copy()
            B[np.flatnonzero(B[:, 0])[0], 0] *= -1
        return B

    monkeypatch.setattr(H.SimplicialComplex, "_build_boundary", flipped)
    with pytest.raises(ValueError, match="boundary of boundary is nonzero in dimension 2"):
        H.disk_complex()


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


def _boundary_entries(K) -> int:
    counts = [K.n_simplices(d) for d in range(K.dim + 1)]
    return sum(a * b for a, b in zip(counts, counts[1:]))


def test_complex_past_the_boundary_budget_is_refused_before_any_matrix(monkeypatch):
    """A cycle of m vertices has an m x m boundary matrix: m = 1024 sits at
    MAX_BOUNDARY_ENTRIES, m = 1025 is refused, before a boundary matrix is
    built, with the count and the constant named."""
    assert H.MAX_BOUNDARY_ENTRIES == 1024**2
    assert _boundary_entries(cycle_complex(list(range(1024)))) == H.MAX_BOUNDARY_ENTRIES

    def refuse(self, k):
        raise AssertionError("a boundary matrix was built")

    monkeypatch.setattr(H.SimplicialComplex, "_build_boundary", refuse)
    with pytest.raises(ValueError, match=r"\[1025, 1025\] need 1050625 dense .* MAX_BOUNDARY_ENTRIES = 1048576"):
        cycle_complex(list(range(1025)))


def test_shipped_and_benchmark_complexes_sit_far_below_the_boundary_budget():
    """The bundled complexes, the golden --complex inputs and the benchmark's
    6 x 4 annulus and 5 x 4 torus grids hold at most 1% of the budget."""
    golden = os.path.join(os.path.dirname(__file__), "golden", "inputs")
    complexes = [H.load_bundled(name) for name in H.BUNDLED]
    for name in ("annulus", "torus"):
        with open(os.path.join(golden, f"{name}.json")) as fh:
            complexes.append(H.load_complex(json.load(fh)))
    rng = np.random.default_rng(0)
    complexes += [grid_complex(6, 4, False, rng.permutation(24)), grid_complex(5, 4, True, rng.permutation(20))]
    assert max(map(_boundary_entries, complexes)) <= H.MAX_BOUNDARY_ENTRIES // 100


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
    A = H.twisted_coboundary(T, 0)
    D = K.coboundary_matrix(0)
    assert np.array_equal(A, D)
    assert np.array_equal(A.T @ A, D.T @ D)


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


def _count_exact_fallbacks(mp):
    """Patch ``_rank`` through ``mp`` to record (degree, relative) of each
    exact rank that ``_twisted_rank`` falls back to.  The floors read the
    exact rank too, for their index; those calls are not fallbacks."""
    fallbacks, exact = [], H._rank

    def counted(K, j, relative):
        if sys._getframe(1).f_code is H._twisted_rank.__code__:
            fallbacks.append((j, relative))
        return exact(K, j, relative)

    mp.setattr(H, "_rank", counted)
    return fallbacks


def test_default_suite_takes_no_exact_fallback(monkeypatch, tmp_path):
    """Under the suite's +-5 twist law every twisted rank of the five
    default jobs, and of every degree of the annulus and torus files, is
    certified: no twist takes the exact route.  The exact ranks are cached
    on the complex, so the route is counted at its entry, ``_rank`` called
    from ``_twisted_rank``, not at ``exact_rank``."""
    from picband import cli

    fallbacks = _count_exact_fallbacks(monkeypatch)
    for source in ([], *(["--complex", os.path.join(GOLDEN_INPUTS, f"{name}.json")] for name in ("annulus", "torus"))):
        for seed in range(3):
            assert cli.main(["verify", "hodge", "--twists", "60", "--seed", str(seed),
                             "--out", str(tmp_path / "r.json")] + source) == 0
    assert fallbacks == []


def test_mixed_block_takes_the_exact_route_once(monkeypatch):
    """A block whose twists are partly uncertified (the zero twist is
    certified, a twist of amplitude 40 is not, in d_0 nor d_1) counts like
    the per-twist calls and reaches each exact rank once."""
    K = H.load_bundled("annulus")
    F = np.zeros((3, K.n_simplices(0)))
    F[1] = np.random.default_rng(1).uniform(-40.0, 40.0, K.n_simplices(0))
    calls = _count_exact_fallbacks(monkeypatch)
    single = [H.harmonic_dimension(H.TwistedComplex(K, f), 1) for f in F]
    assert calls == [(1, False), (0, False)] and single == [1, 1, 1]
    block = H.harmonic_dimension(H.TwistedComplex(K, F), 1)
    assert calls == [(1, False), (0, False)] * 2 and block.dtype.kind == "i" and block.tolist() == single


def test_every_degree_svds_each_twisted_coboundary_once(monkeypatch):
    """Asked for every degree 0..dim, a block of twists builds and SVDs
    d_{f,j} once for each j < dim, and never d_{f,dim}, whose target is 0;
    a wide d_{f,j} is decomposed as its tall transpose."""
    K = H.product_complex(H.disk_complex(), cycle_complex([0, 1, 2, 3]))  # dim 3, nothing cached
    F = np.random.default_rng(2).uniform(-5.0, 5.0, (4, K.n_simplices(0)))
    expect = [[H.betti(K, k)] * 4 for k in range(K.dim + 1)]
    # a first twisted complex fills K's exact ranks and floors
    assert [H.harmonic_dimension(H.TwistedComplex(K, F), k).tolist() for k in range(K.dim + 1)] == expect
    built, svds, coboundary, svd = [], [], H.twisted_coboundary, np.linalg.svd
    monkeypatch.setattr(H, "twisted_coboundary", lambda T, j: built.append(j) or coboundary(T, j))
    monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: svds.append(M.shape) or svd(M, **kw))
    T = H.TwistedComplex(K, F)
    for _ in range(2):
        assert [H.harmonic_dimension(T, k).tolist() for k in range(K.dim + 1)] == expect
    assert built == [0, 1, 2]
    shapes = [(K.n_simplices(j + 1), K.n_simplices(j)) for j in range(3)]
    assert any(rows < cols for rows, cols in shapes)
    assert svds == [(4, max(shape), min(shape)) for shape in shapes]


def test_hodge_twist_blocks_stay_within_the_entry_budget(monkeypatch, tmp_path):
    """At --twists 1000 the jobs run in blocks of twists, several for the
    larger complexes, and no block stacks more float entries than
    TWIST_BLOCK_ENTRIES."""
    from picband import cli

    blocks, harmonic = [], H.harmonic_dimension

    def recorded(T, k):
        stacked = H.twisted_coboundary(T, k).size + (H.twisted_coboundary(T, k - 1).size if k else 0)
        blocks.append(((id(T.base), T.boundary_condition, k), T.f.shape[0], stacked))
        return harmonic(T, k)

    monkeypatch.setattr(H, "harmonic_dimension", recorded)
    assert cli.main(["verify", "hodge", "--twists", "1000", "--out", str(tmp_path / "r.json")]) == 0
    assert max(stacked for *_, stacked in blocks) <= cli.TWIST_BLOCK_ENTRIES
    per_job = {}
    for job, b, _ in blocks:
        per_job.setdefault(job, []).append(b)
    assert [sum(bs) for bs in per_job.values()] == [1000] * 5
    assert max(len(bs) for bs in per_job.values()) > 1


@pytest.mark.parametrize("seed", [0, 7])
def test_hodge_suite_equals_per_twist_reference(monkeypatch, tmp_path, seed):
    """The suite's blocked draws are one stream per (complex, condition)
    job, one draw per twist, bit for bit; every degree's counts are the
    per-twist, per-degree counts on the same rows, and its reports are
    those of a per-twist loop, on the default jobs (one degree each) and on
    a complex file whose degrees share each of several blocks."""
    from picband import cli

    torus = grid_complex(5, 4, True, range(20))
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(complex_to_json(torus)))
    drawn, counted, harmonic = [], {}, H.harmonic_dimension

    def recorded(T, k):
        if not drawn or T.f is not drawn[-1]:
            drawn.append(T.f)
        result = harmonic(T, k)
        counted.setdefault((id(T.base), T.boundary_condition, k), []).extend(np.atleast_1d(result).tolist())
        return result

    monkeypatch.setattr(H, "harmonic_dimension", recorded)
    twists = 200
    for source, jobs in (([], [("annulus", "absolute", [1]), ("annulus", "relative", [1]), ("torus", "absolute", [1]),
                               ("solid_torus", "absolute", [1]), ("solid_torus", "relative", [2])]),
                         (["--complex", str(path)], [(torus, "absolute", [0, 1, 2])])):
        drawn.clear()
        counted.clear()
        out = tmp_path / "r.json"
        cli.main(["verify", "hodge", "--twists", str(twists), "--seed", str(seed), "--out", str(out)] + source)
        rng, rows, counts, expect = np.random.default_rng(seed), [], [], []
        for name, cond, degrees in jobs:
            K = H.load_bundled(name) if isinstance(name, str) else name
            per_degree = {k: [] for k in degrees}
            for _ in range(twists):
                rows.append(rng.uniform(-5.0, 5.0, K.n_simplices(0)))
                for k in degrees:
                    per_degree[k].append(harmonic(H.TwistedComplex(K, rows[-1], cond), k))
            for k, job_counts in per_degree.items():
                target = H._betti(K, k, cond == "relative")
                counts.append(job_counts)
                expect.append((f"hodge.{name if isinstance(name, str) else 'custom'}.{cond}.k{k}",
                               all(c == target for c in job_counts), target))
        assert len(drawn) > len(jobs) if source else len(drawn) == len(jobs)
        assert np.array_equal(np.concatenate([f.ravel() for f in drawn]), np.concatenate(rows))
        assert list(counted.values()) == counts
        reports = json.loads(out.read_text())["report"]["reports"]
        assert [(r["check"], r["pass"], r["details"]["betti_target"]) for r in reports] == expect


def test_exact_fallback_matches_float(rng):
    K = H.load_bundled("annulus")
    f = rng.uniform(-5.0, 5.0, K.n_simplices(0))
    T = H.TwistedComplex(K, f)
    assert H._betti(K, 1, relative=False) == H.harmonic_dimension(T, 1)


def test_json_roundtrip(tmp_path):
    K = H.load_bundled("annulus")
    doc = complex_to_json(K)
    path = tmp_path / "annulus.json"
    path.write_text(json.dumps(doc))
    K2 = H.load_complex(json.loads(path.read_text()))
    assert K2.simplices == K.simplices


def test_json_dim_mismatch():
    doc = complex_to_json(H.load_bundled("disk"))
    doc["dim"] = 3
    with pytest.raises(ValueError):
        H.load_complex(doc)


def test_vertex_function_follows_sorted_labels():
    """A vertex is addressed by its position among the sorted labels, so a
    relabelled circle twists exactly like the one labelled 0, 1, 2."""
    f = np.array([0.3, -1.2, 2.0])
    plain = H.TwistedComplex(H.sphere_complex(1), f)
    for labels in ((-1, 0, 1), (0, 2, 5), (10, 20, 30)):
        a, b, c = labels
        K = H.SimplicialComplex({0: [(a,), (b,), (c,)], 1: [(a, b), (b, c), (a, c)]})
        T = H.TwistedComplex(K, f)
        assert np.array_equal(T.weight_vector(0), np.exp(f))
        assert np.array_equal(T.weight_vector(1), plain.weight_vector(1))
        assert [H.harmonic_dimension(T, k) for k in (0, 1)] == [1, 1]
        torus = H.product_complex(K, K)
        assert [H.betti(torus, k) for k in range(3)] == [1, 2, 1]


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


def cycle_complex(labels) -> H.SimplicialComplex:
    """The cycle through the given vertex labels in their order, closed
    back to the first."""
    return H.SimplicialComplex({0: [(v,) for v in labels], 1: list(zip(labels, labels[1:] + labels[:1]))})


PRODUCT_BASES = [H.interval_complex(), H.disk_complex()] + [cycle_complex(list(range(m))) for m in (3, 4, 5)]


KUENNETH_FACTORS = {
    "interval": H.interval_complex(),
    "disk": H.disk_complex(),
    "S1": H.sphere_complex(1),
    "S2": H.sphere_complex(2),
    "moebius": H.moebius_complex(),
    "C4": cycle_complex([7, -3, 11, 0]),
    "C5": cycle_complex([4, 9, -1, 2, 6]),
}


def _betti_numbers(K):
    return [H.betti(K, k) for k in range(K.dim + 1)]


def test_product_betti_numbers_follow_kuenneth():
    """b_k(A x B) = sum_i b_i(A) b_{k-i}(B) over Q, on every ordered pair of
    factors, relabelled cycles included; the constructor has checked the
    product's closure and del o del = 0."""
    for (a, A), (b, B) in itertools.product(KUENNETH_FACTORS.items(), repeat=2):
        bA, bB = _betti_numbers(A), _betti_numbers(B)
        expect = [sum(bA[i] * bB[k - i] for i in range(len(bA)) if 0 <= k - i < len(bB))
                  for k in range(A.dim + B.dim + 1)]
        assert _betti_numbers(H.product_complex(A, B)) == expect, (a, b)


def test_sphere_products_match_the_kuenneth_table():
    """The exact Betti numbers of the triangulated S^a x S^b are the table
    ``bands.betti_sphere_product`` that the counterexample reads."""
    for a, b in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)]:
        K = H.product_complex(H.sphere_complex(a), H.sphere_complex(b))
        assert _betti_numbers(K) == [bands.betti_sphere_product(k, a, b) for k in range(a + b + 1)], (a, b)


def test_band_over_s2_x_s1():
    """The band I x S^2 x S^1: absolute Betti numbers those of S^2 x S^1, and
    relative ones their Lefschetz duals."""
    K = H.product_complex(H.interval_complex(), H.load_bundled("s2xs1"))
    assert _betti_numbers(K) == [1, 1, 1, 1, 0]
    assert [H.betti_relative(K, k) for k in range(5)] == [0, 1, 1, 1, 1]


@st.composite
def complexes(draw):
    if draw(st.booleans()):
        return H.product_complex(draw(st.sampled_from(PRODUCT_BASES)), draw(st.sampled_from(PRODUCT_BASES)))
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


@settings(max_examples=30, deadline=None)
@given(complexes(), st.sampled_from([5.0, 10.0, 20.0, 40.0]), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_twist_block_equals_per_twist_loop(K, amplitude, B, seed):
    """A (B, V) block of twists gives, in every degree and under both
    conditions, exactly the per-twist loop's counts, and its weights,
    twisted coboundaries and compositions equal the row-wise ones bit for
    bit."""
    F = np.random.default_rng(seed).uniform(-amplitude, amplitude, (B, K.n_simplices(0)))
    for cond in ("absolute", "relative"):
        block = H.TwistedComplex(K, F, cond)
        rows = [H.TwistedComplex(K, f, cond) for f in F]
        for d in range(-1, K.dim + 2):
            assert np.array_equal(block.weight_vector(d), np.array([T.weight_vector(d) for T in rows]))
        for k in range(K.dim + 1):
            counts = H.harmonic_dimension(block, k)
            assert counts.shape == (B,) and counts.dtype.kind == "i"
            assert counts.tolist() == [H.harmonic_dimension(T, k) for T in rows], (cond, k)
            assert np.array_equal(H.twisted_coboundary(block, k), [H.twisted_coboundary(T, k) for T in rows])
            assert np.array_equal(H.twisted_composition_exact(block, k),
                                  [H.twisted_composition_exact(T, k) for T in rows])


def _stacked_rule_certifies(T, k) -> bool:
    """The certification of one SVD of [d_{f,k} ; d_{f,k-1}^T] per degree:
    the smaller of the two floors above twice that matrix's backward error."""
    A = H.twisted_coboundary(T, k)
    M = np.concatenate([A, H.twisted_coboundary(T, k - 1).T]) if k >= 1 else A
    s = np.linalg.svd(M, compute_uv=False)
    bound = H._twisted_floor(T, k) if k == 0 else min(H._twisted_floor(T, k - 1), H._twisted_floor(T, k))
    return bool(bound > 2.0 * H._svd_error(s, M.shape))


@settings(max_examples=40, deadline=None)
@given(complexes(), st.sampled_from([5.0, 10.0, 20.0]), st.integers(0, 2**32 - 1))
def test_harmonic_dimension_is_n_minus_two_exact_ranks(K, amplitude, seed):
    """n_k - rank D_k - rank D_{k-1} by exact ranks, under both conditions
    and twists of amplitude up to 20, and a rank that the stacked rule
    certifies (in degree k or k + 1) never takes the exact route."""
    f = np.random.default_rng(seed).uniform(-amplitude, amplitude, K.n_simplices(0))
    for relative in (False, True):
        T = H.TwistedComplex(K, f, "relative" if relative else "absolute")
        stacked = [_stacked_rule_certifies(T, k) for k in range(K.dim + 1)]
        with pytest.MonkeyPatch.context() as mp:
            fallbacks = _count_exact_fallbacks(mp)
            counts = [H.harmonic_dimension(T, k) for k in range(K.dim + 1)]
        for k in range(K.dim + 1):
            D = H._coboundary(K, k, relative)
            assert counts[k] == D.shape[1] - H.exact_rank(D) - H.exact_rank(H._coboundary(K, k - 1, relative))
            if stacked[k]:
                assert (k, relative) not in fallbacks and (k - 1, relative) not in fallbacks, k


RP2_TRIANGLES = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
                 (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def test_exact_rank_on_coboundaries_and_torsion():
    """exact_rank equals exact Fraction elimination on every coboundary of
    every bundled complex under both conditions, and on the 6-vertex RP^2,
    whose d_1 has an elementary divisor 2: its Betti numbers over Q are
    (1, 0, 0), over F_2 they would be (1, 1, 1)."""
    for name in H.BUNDLED:
        K = H.load_bundled(name)
        for relative in (False, True):
            for j in range(-1, K.dim + 1):
                D = H._coboundary(K, j, relative)
                assert H.exact_rank(D) == _fraction_rank(D), (name, relative, j)
    edges = sorted({e for t in RP2_TRIANGLES for e in itertools.combinations(t, 2)})
    rp2 = H.SimplicialComplex({0: [(v,) for v in range(6)], 1: edges, 2: RP2_TRIANGLES})
    assert [H.betti(rp2, k) for k in range(3)] == [1, 0, 0]
    for j in range(3):
        D = rp2.coboundary_matrix(j)
        assert H.exact_rank(D) == _fraction_rank(D)


def test_exact_rank_on_sparse_sign_matrices(rng):
    for _ in range(60):
        m, n = rng.integers(1, 31), rng.integers(1, 41)
        M = rng.choice([-1, 1], size=(m, n)) * (rng.random((m, n)) < rng.uniform(0.02, 0.3))
        assert H.exact_rank(M) == _fraction_rank(M)


def test_betti_ranks_each_coboundary_once(monkeypatch):
    K = H.product_complex(cycle_complex([0, 1, 2, 3]), H.sphere_complex(1))  # a fresh complex: nothing cached
    calls, rank = [], H.exact_rank
    monkeypatch.setattr(H, "exact_rank", lambda M: calls.append(M.shape) or rank(M))
    assert H.betti(K, 1) == 2 and len(calls) == 2  # d_1 and d_0
    assert H.betti(K, 1) == 2 and len(calls) == 2
    assert H.betti(K, 2) == 1 and len(calls) == 3  # only d_2 is new
    assert H.harmonic_dimension(H.TwistedComplex(K, np.zeros(K.n_simplices(0))), 1) == 2
    assert len(calls) == 3  # the floors read the same ranks


def test_cached_floor_sits_at_the_exact_rank_index():
    """sigma+_min(D_j) is the float singular value at the exact rank's
    index less the backward error, a positive lower bound on every bundled
    complex."""
    for name in H.BUNDLED:
        K = H.load_bundled(name)
        for cond in ("absolute", "relative"):
            T = H.TwistedComplex(K, np.zeros(K.n_simplices(0)), cond)
            for j in range(K.dim + 1):
                H._twisted_floor(T, j)
                D = H._coboundary(K, j, cond == "relative").astype(float)
                s, rank = np.linalg.svd(D, compute_uv=False), H.exact_rank(D.astype(np.int64))
                expect = float(s[rank - 1] - H._svd_error(s, D.shape)) if rank else np.inf
                assert K._floors[j, cond == "relative"] == expect > 0, (name, cond, j)
