"""Tests of the benchmark's own code: oracles, tracer arithmetic, tail rule.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import oracles, stats  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import general_tensor, kulkarni_nomizu  # noqa: E402


@pytest.mark.parametrize("sigma", [1.7, 0.3, 2.0, -1.1])
def test_closed_form_is_sigma_on_constant_curvature(sigma):
    g = np.eye(4)
    assert oracles.closed_form_min4(kulkarni_nomizu(g, g) * (sigma / 8.0)) == sigma


def test_closed_form_is_two_on_product_tensor():
    h = np.diag([1.0, 1.0, 1.0, 0.0])
    assert oracles.closed_form_min4(kulkarni_nomizu(h, h) * 0.5) == 2.0


def test_lower_bound_below_closed_form_at_n4():
    rng = np.random.default_rng(7)
    for _ in range(50):
        R = general_tensor(rng, 4)
        assert oracles.lower_bound(R) <= oracles.closed_form_min4(R) + 1e-12


def test_closed_form_invariant_under_frame_rotation():
    rng = np.random.default_rng(8)
    R = general_tensor(rng, 4)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotated = oracles.restrict_to_frame(R, Q)
    assert abs(oracles.closed_form_min4(rotated) - oracles.closed_form_min4(R)) < 1e-12


def test_band_tensor_matches_kulkarni_nomizu_assembly():
    h = np.diag([1.0, 1.0, 1.0, 0.0])
    q = np.diag([0.0, 0.0, 0.0, 1.0])
    ks, kr = 0.7, -0.3
    expected = kulkarni_nomizu(h, h) * (0.5 * ks) + kulkarni_nomizu(h, q) * kr
    assert np.array_equal(oracles.band_tensor4(ks, kr), expected)


def test_check_search_flags_a_wrong_minimum():
    rng = np.random.default_rng(9)
    R = general_tensor(rng, 4)
    exact = oracles.closed_form_min4(R)
    assert oracles.check_search(R, exact, None) is None
    assert oracles.check_search(R, exact + 1e-3, None) is not None
    R5 = general_tensor(rng, 5)
    assert oracles.check_search(R5, oracles.lower_bound(R5) - 1.0, None) is not None


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_nested_span_tree():
    # a[0, 10] holds b[1, 6] and d[7, 9]; b holds c[2, 5]; c calls a again [3, 4]
    a, b, c, d = "bands.a", "bands.b", "curvature.c", "curvature.d"
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    t.enter(a)
    t.enter(b)
    t.enter(c)
    t.enter(a)
    t.exit()
    t.exit()
    t.exit()
    t.enter(d)
    t.exit()
    t.exit()
    assert t.calls == {a: 2, b: 1, c: 1, d: 1}
    assert t.self_s[a] == (10 - 5 - 2) + 1
    assert t.self_s[b] == 5 - 3
    assert t.self_s[c] == 3 - 1
    assert t.self_s[d] == 2
    assert t.edges[a, b] == 1 and t.edges[a, d] == 1 and t.edges[c, a] == 1
    layers = t.layer_self_s()
    assert layers["bands"] == 6 and layers["curvature"] == 4
    assert sum(layers.values()) == 10


def test_hook_time_is_excluded_from_every_span():
    clock = FakeClock([0, 1, 2, 5, 6, 8])
    t = Tracer(clock=clock)
    seen = []
    t.hooks["m.inner"] = lambda args, kwargs, result: seen.append(result)
    inner = t.wrap(lambda x: x + 1, "m.inner")
    outer = t.wrap(lambda: inner(1), "m.outer")
    assert outer() == 2 and seen == [2]
    # outer [0, 8], inner [1, 2], hook [5, 6]: outer self = 8 - 1 - 1
    assert t.self_s["m.inner"] == 1 and t.self_s["m.outer"] == 6
    assert t.top_s == 8 and t.excluded_s == 1 and t.telescoping_error() == 0


def test_telescoping_check_catches_lost_child_time():
    t = Tracer(clock=FakeClock([0, 1, 3, 4]))
    t.enter("m.outer")
    t.enter("m.inner")
    t.exit()
    t.exit()
    assert t.telescoping_error() == 0
    t.self_s["m.inner"] += 0.5  # a child charged twice
    assert t.telescoping_error() == 0.5


def test_listed_per_layer_functions_are_traced():
    from perfbench.run import listed_metrics
    from perfbench.trace import LAYERS, public_functions
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import importlib
    for metric in listed_metrics("per_layer"):
        key, _, kind = metric.rpartition(".")
        if kind in ("calls", "share") and key not in LAYERS:
            module, fn = key.split(".")
            assert fn in public_functions(importlib.import_module(f"picband.{module}")), metric


def test_job_list_depends_on_seconds_only():
    from perfbench.workloads import WORKLOADS, passes
    assert [passes(WORKLOADS[w], 20) for w in ("frame-search", "algebra", "cli-sweep")] == [1, 1, 2]
    assert passes(WORKLOADS["frame-search"], 40) == 2 and passes(WORKLOADS["cli-sweep"], 5) == 2


@pytest.mark.parametrize("n", [9, 10, 11, 19])
def test_tail_omitted_below_twenty_samples(n):
    assert stats.tail(range(n)) is None


@pytest.mark.parametrize("n, value, p", [(20, 9, 50.0), (21, 10, 100 * 11 / 21), (100, 89, 90.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, value, p):
    samples = list(range(n))[::-1]
    got_value, got_p, got_n = stats.tail(samples)
    assert (got_value, got_n) == (value, n)
    assert got_p == pytest.approx(p)
    assert sum(s > got_value for s in samples) == 10


def test_reference_seconds_divide_by_the_nearby_slowness():
    from perfbench import speed
    ref = speed.REF_SECONDS
    assert speed.reference_seconds([1.0, 2.0], [ref] * 3) == [1.0, 2.0]
    # the machine is twice as slow around the last of 3 * WINDOW jobs only
    n = 3 * speed.WINDOW
    samples = [ref] * n + [2 * ref]
    out = speed.reference_seconds([1.0] * n, samples)
    assert out[0] == 1.0
    # WINDOW samples before it and the one after it
    assert out[-1] == pytest.approx((speed.WINDOW + 1) / (speed.WINDOW + 2))
    with pytest.raises(ValueError):
        speed.reference_seconds([1.0], [ref])
