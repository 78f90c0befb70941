"""Every suite check fails when what it names is broken: a mutant panel.

A row is (mutant, argv, expected exit, check): the mutant breaks one
program object through monkeypatch, and the command line, run in process
on the mutated program, must end with the expected exit code and print
FAIL for the check.  The same command line passes on the program as it
is: a golden command line (``ENTRIES``) as recorded in the tests' fresh
pass, any other one run here.  A mutant that changes nothing a suite can
see (an equivalent mutant) is not a valid row.
"""

import dataclasses
import math
import os

import pytest

from picband import bands as BD
from picband import cli
from picband import comparison as CMP
from picband import curvature as C
from picband import potentials as P
from tests.golden.regenerate import ENTRIES, fresh_pass

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")
SPHERE6 = os.path.join(INPUTS, "sphere6.json")
SPHERE6_ROTATED = os.path.join(INPUTS, "sphere6-rotated.json")


def _chi_shifted(attr: str, by: float):
    """ChiCutoff with one of its continuity constants raised once it is
    built: c_plateau moves chi from x1 on, _dp_x0 moves chi' from x0 on."""

    def mutate(monkeypatch):
        build = P.ChiCutoff.__init__

        def shifted(self, *args, **kwargs):
            build(self, *args, **kwargs)
            setattr(self, attr, getattr(self, attr) + by)

        monkeypatch.setattr(P.ChiCutoff, "__init__", shifted)

    return mutate


def _pole_denominator_scaled(monkeypatch):
    """The positive-boundary barrier with its value branch's denominator
    s - 1.01 Lambda tanh(s rho): it reports a pole before the true one,
    whose location formula is untouched."""

    def barrier(p):
        m, L = p.n - 1, p.Lambda
        s = math.sqrt(p.K)
        t = math.tanh(s * p.rho)
        den = s - 1.01 * L * t
        if den <= 0:
            return CMP.PoleBeyond(math.atanh(s / L) / s)
        return m * s * (s * t - L) / den

    monkeypatch.setattr(CMP, "laplace_upper_positive_boundary", barrier)


def _focal_tanh_doubled(monkeypatch):
    """The Hessian lower focal barrier with tanh(r_f sqrt K) for
    tanh(r_f sqrt K / 2) on its K > 0 branch."""

    def hessian(p):
        if p.K < CMP.K_FLAT_EPS:
            return -2.0 / p.r_f
        s = math.sqrt(p.K)
        return -s / math.tanh(p.r_f * s)

    monkeypatch.setattr(CMP, "hessian_lower_focal", hessian)


def _positive_boundary_lambda_scaled(monkeypatch):
    """The positive-boundary barrier read at 1.05 Lambda throughout, its
    value and its pole alike, so its branches still meet at its own pole."""
    barrier = CMP.laplace_upper_positive_boundary
    monkeypatch.setattr(CMP, "laplace_upper_positive_boundary",
                        lambda p: barrier(dataclasses.replace(p, Lambda=1.05 * p.Lambda)))


def _focal_hessian_scaled(monkeypatch):
    """The Hessian lower focal barrier times 1.05 on both branches, and so
    the Laplace one, which calls it: its K -> 0 limits still meet."""
    hessian = CMP.hessian_lower_focal
    monkeypatch.setattr(CMP, "hessian_lower_focal", lambda p: 1.05 * hessian(p))


def _ky_fan_bound_raised(monkeypatch):
    """The Ky Fan certificate raised by 5%: on the round S^6, where the
    bound 4 is sharp, it certifies sigma = 4.1, and the Weitzenboeck bound
    is then asserted on a tensor whose isotropic curvature is 4."""
    bound = C._certified_bound
    monkeypatch.setattr(C, "_certified_bound", lambda R: 1.05 * bound(R))


def _descent_stopped(monkeypatch):
    """The frame search with no descent iteration: its minimum is the best
    of its random starts.  On the rotated S^5 x R neither the Ky Fan bound
    (0) nor a coordinate frame (2.147) is near the minimum 2, and the best
    of 512 starts is 2.0047, so sigma = 2.0005 passes the precondition and
    the Weitzenboeck bound (n - 2) sigma / 2 = 4.001 is asserted against
    lambda_min = 4."""
    monkeypatch.setattr(C, "SEARCH_MAX_ITER", 0)


def _exact_threshold_doubled(monkeypatch):
    """The n = 4 rational verdict with t in place of t/2 in c = tr M -+
    beta - t/2.  On S^3 x R, whose float closed form reads
    1.9999999999999996, sigma = 2 at --tol 0 is decided in rationals: each
    side's M is I/2, and c = 1/2 becomes -1/2 < lambda_max."""
    decide = C._exact_at_least
    monkeypatch.setattr(C, "_exact_at_least", lambda R, t: decide(R, 2 * t))


def _sphere_sectional_negated(monkeypatch):
    """The band sectionals with ks negated: on the default const band
    (ks = 1, kr = 0) the value 2 (ks + kr) reads -2, below sigma = 1."""
    sectionals = BD._sectionals

    def negated(*jet):
        ks, kr = sectionals(*jet)
        return -ks, kr

    monkeypatch.setattr(BD, "_sectionals", negated)


MUTANTS = {
    "chi-plateau-raised": (_chi_shifted("c_plateau", 0.05), ["verify", "bandwidth"], 1, "bandwidth.chi_cutoff"),
    "chi-slope-raised-from-x0": (_chi_shifted("_dp_x0", 0.05), ["verify", "bandwidth"], 1, "bandwidth.chi_cutoff"),
    "pole-denominator-scaled": (_pole_denominator_scaled, ["verify", "comparison"], 1, "comparison.pole_location"),
    "focal-tanh-doubled": (_focal_tanh_doubled, ["verify", "comparison"], 1, "comparison.flat_limits"),
    "positive-boundary-lambda-scaled": (_positive_boundary_lambda_scaled, ["verify", "comparison"], 1,
                                        "comparison.pole_location"),
    "focal-hessian-scaled": (_focal_hessian_scaled, ["verify", "comparison"], 1, "comparison.flat_limits"),
    "ky-fan-bound-raised": (_ky_fan_bound_raised, ["verify", "weitzenboeck", "--tensor", SPHERE6, "--sigma", "4.1"],
                            1, "weitzenboeck.lower_bound"),
    "descent-stopped": (_descent_stopped, ["verify", "weitzenboeck", "--tensor", SPHERE6_ROTATED,
                                           "--sigma", "2.0005"], 1, "weitzenboeck.lower_bound"),
    "exact-threshold-doubled": (_exact_threshold_doubled, ["verify", "curvature", "--sigma", "2", "--tol", "0"], 1,
                                "curvature.sigma_pic"),
    "sphere-sectional-negated": (_sphere_sectional_negated, ["verify", "band"], 1, "band.sigma_pic_profile"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch, capsys):
    mutate, argv, code, check = MUTANTS[name]
    if argv in ENTRIES.values():
        run = fresh_pass()["runs"][tuple(argv)]
        assert run.get("exit_code") == 0, run.get("error")
        assert f"PASS {check}" in run["stdout"]
    else:
        assert cli.main(argv) == 0
        assert f"PASS {check}" in capsys.readouterr().out
    mutate(monkeypatch)
    assert cli.main(argv) == code
    assert f"FAIL {check}" in capsys.readouterr().out
