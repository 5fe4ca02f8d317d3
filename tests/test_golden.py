"""Reproduction profiles against their committed golden CSVs.

tests/golden/<profile>.csv holds the output of `coolspec reproduce
--profile <profile>`.  Refactors must reproduce the same records with the
same statuses; numbers may move only at roundoff level.  paper-fig2 covers
every steady-state code path and paper-fig3a the transient counting-field
route; the other paper-* profiles run no further code path.
"""

import csv
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
KEYS = ("delta", "omega", "method", "route", "status")


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


@pytest.mark.parametrize("profile", ["paper-fig2", "paper-fig3a"])
def test_profile_matches_golden(profile, tmp_path):
    out = tmp_path / f"{profile}.csv"
    assert main(["reproduce", "--profile", profile, "--output", str(out)]) == 0
    rows, golden = _read(out), _read(GOLDEN / f"{profile}.csv")
    assert [tuple(r[k] for k in KEYS) for r in rows] == [tuple(g[k] for k in KEYS) for g in golden]
    assert_allclose(_column(rows, "heat_absorption_rate"),
                    _column(golden, "heat_absorption_rate"), rtol=1e-9, atol=1e-14)
    for name in ("min_eigenvalue_seen", "steady_residual"):
        assert_allclose(_column(rows, name), _column(golden, name), rtol=0, atol=1e-10)
