"""Every suite check fails when what it names is broken: a mutant panel.

A row is (mutant, argv, expected exit, check): the mutant breaks one
program object through monkeypatch, and the command line, run in process
on the mutated program, must end with the expected exit code and print
FAIL for the check.  The same command line passes on the program as it
is.  A mutant that changes nothing a suite can see (an equivalent mutant)
is not a valid row.
"""

import pytest

from picband import cli
from picband import potentials as P


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


MUTANTS = {
    "chi-plateau-raised": (_chi_shifted("c_plateau", 0.05), ["verify", "bandwidth"], 1, "bandwidth.chi_cutoff"),
    "chi-slope-raised-from-x0": (_chi_shifted("_dp_x0", 0.05), ["verify", "bandwidth"], 1, "bandwidth.chi_cutoff"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_killed(name, monkeypatch, capsys):
    mutate, argv, code, check = MUTANTS[name]
    assert cli.main(argv) == 0
    assert f"PASS {check}" in capsys.readouterr().out
    mutate(monkeypatch)
    assert cli.main(argv) == code
    assert f"FAIL {check}" in capsys.readouterr().out
