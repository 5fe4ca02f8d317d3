"""Reproduction profiles and the TCL oracle against committed golden CSVs.

tests/golden/<profile>.csv holds the output of `coolspec reproduce
--profile <profile>`.  Refactors must reproduce the same records with the
same statuses; numbers may move only at roundoff level.  paper-fig2 covers
every steady-state code path and paper-fig3a the transient counting-field
route; the other paper-* profiles run no further code path.
tests/golden/tcl_oracle.csv holds a `coolspec sweep` of TCL_CONFIG, the
one run of the tcl_oracle method beside Bloch-Redfield.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from coolspec.cli import main

GOLDEN = Path(__file__).parent / "golden"
KEYS = ("delta", "omega", "method", "route", "status")
TCL_CONFIG = {
    "sweep": {"delta_min": -1.0, "delta_max": 1.0, "delta_steps": 5, "omega_list": [0.5]},
    "methods": ["tcl_oracle", "bloch_redfield"],
    "mode": {"kind": "steady"},
}


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name):
    return np.array([float(r[name]) for r in rows])


def _assert_matches_golden(out, name):
    rows, golden = _read(out), _read(GOLDEN / f"{name}.csv")
    assert [tuple(r[k] for k in KEYS) for r in rows] == [tuple(g[k] for k in KEYS) for g in golden]
    assert_allclose(_column(rows, "heat_absorption_rate"),
                    _column(golden, "heat_absorption_rate"), rtol=1e-9, atol=1e-14)
    for column in ("min_eigenvalue_seen", "steady_residual"):
        assert_allclose(_column(rows, column), _column(golden, column), rtol=0, atol=1e-10)


@pytest.mark.parametrize("profile", ["paper-fig2", "paper-fig3a"])
def test_profile_matches_golden(profile, tmp_path):
    out = tmp_path / f"{profile}.csv"
    assert main(["reproduce", "--profile", profile, "--output", str(out)]) == 0
    _assert_matches_golden(out, profile)


def test_tcl_oracle_matches_golden(tmp_path):
    config, out = tmp_path / "tcl_oracle.json", tmp_path / "tcl_oracle.csv"
    config.write_text(json.dumps(TCL_CONFIG))
    assert main(["sweep", "--config", str(config), "--output", str(out)]) == 0
    _assert_matches_golden(out, "tcl_oracle")
