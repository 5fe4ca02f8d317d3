import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coolspec.cli import main
from coolspec.config import ConfigError, HeatRoute, SweepConfig, config_from_dict
from coolspec.sweep import (
    CSV_COLUMNS,
    SpectrumRecord,
    delta_grid,
    evaluate_point,
    format_number,
    render_csv,
    render_json,
    run_sweep,
    write_output,
)

SMALL = config_from_dict({
    "sweep": {"delta_min": -0.5, "delta_max": 0.5, "delta_steps": 3,
              "omega_list": [0.5, 1.0]},
    "methods": ["bloch_redfield", "phenomenological"],
})


def test_record_count_and_ordering():
    records = run_sweep(SMALL)
    assert len(records) == 3 * 2 * 2
    keys = [(r.delta, r.omega, r.method) for r in records]
    expected = [
        (d, w, m)
        for d in (-0.5, 0.0, 0.5)
        for w in (0.5, 1.0)
        for m in ("bloch_redfield", "phenomenological")
    ]
    assert keys == expected
    assert all(r.route == "trace_formula" for r in records)
    assert all(r.status == "ok" for r in records)
    assert all(r.steady_residual < 1e-10 for r in records)


def test_worker_count_does_not_change_output():
    serial = run_sweep(SMALL, jobs=1)
    parallel = run_sweep(SMALL, jobs=3)
    assert render_csv(serial) == render_csv(parallel)
    assert render_json(serial) == render_json(parallel)


def test_run_sweep_validates_jobs():
    with pytest.raises(ValueError):
        run_sweep(SMALL, jobs=0)


@pytest.mark.parametrize("changes,fragment", [
    ({"sign": "cooling_positive"}, "sign"),
    ({"methods": ("tcl_oracle",), "mode": "transient",
      "routes": (HeatRoute(kind="counting_fd"),)}, "tcl_oracle"),
    ({"e_man": "2"}, "system.e_man"),
    ({"pairing_tol": math.nan, "alpha": math.inf}, "finite number"),
], ids=["unknown_sign", "tcl_counting_fd", "string_e_man", "non_finite"])
def test_run_sweep_validates_programmatic_config(changes, fragment):
    # a config built in code never went through config_from_dict; before
    # validation, the first two ran with status ok (the sign silently meant
    # bath_gain_positive, and tcl_oracle reported its kernel-trace current
    # under the counting_fd label) and a string e_man escaped as TypeError
    cfg = replace(SMALL, delta_steps=1, omega_list=(0.5,), **changes)
    with pytest.raises(ConfigError, match=fragment):
        run_sweep(cfg)


def test_bath_gain_sign_convention_negates_rate_column():
    flipped = config_from_dict({
        "sweep": {"delta_min": -0.5, "delta_max": 0.5, "delta_steps": 3,
                  "omega_list": [0.5, 1.0]},
        "methods": ["bloch_redfield", "phenomenological"],
        "sign": "bath_gain_positive",
    })
    for base, flip in zip(run_sweep(SMALL), run_sweep(flipped)):
        assert flip.heat_absorption_rate == -base.heat_absorption_rate
        assert flip.min_eigenvalue_seen == base.min_eigenvalue_seen
        assert flip.steady_residual == base.steady_residual


def test_delta_grid_shapes():
    assert np.array_equal(delta_grid(SMALL), [-0.5, 0.0, 0.5])
    single = config_from_dict({"sweep": {"delta_min": 0.3, "delta_max": 0.3,
                                         "delta_steps": 1}})
    assert np.array_equal(delta_grid(single), [0.3])


def test_format_number_round_trips():
    rng = np.random.default_rng(31)
    values = list(rng.normal(scale=10.0, size=50)) + [1e-30, -1.5, 0.0, 3.0]
    for x in values:
        token = format_number(x)
        assert len(token.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) <= 13
        assert format_number(float(token)) == token
    assert format_number(math.nan) == "nan"
    assert format_number(math.inf) == "nan"


def test_csv_and_json_agree(tmp_path):
    records = run_sweep(SMALL)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_output(records, str(csv_path), "csv")
    write_output(records, str(json_path), "json")

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    data = json.loads(json_path.read_text())
    assert len(rows) == len(data) == len(records)
    for row, obj in zip(rows, data):
        assert list(row.keys()) == list(CSV_COLUMNS)
        assert list(obj.keys()) == list(CSV_COLUMNS)
        for key in ("delta", "omega", "heat_absorption_rate",
                    "min_eigenvalue_seen", "steady_residual"):
            assert float(row[key]) == pytest.approx(obj[key], abs=0.0)
        assert row["method"] == obj["method"]
        assert row["status"] == obj["status"] == "ok"


def test_write_output_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_output([], str(tmp_path / "x.dat"), "xml")


def test_transient_counting_sweep_consistent_with_steady():
    transient = config_from_dict({
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1,
                  "omega_list": [1.0]},
        "methods": ["bloch_redfield"],
        "mode": {"kind": "transient", "t_end": 30.0, "dt": 0.05},
        "heat_route": [{"kind": "trace_formula"},
                       {"kind": "counting_fd", "u_step": 0.05, "scheme": "central"}],
    })
    trace_rec, fd_rec = run_sweep(transient)
    assert trace_rec.route == "trace_formula"
    assert fd_rec.route == "counting_fd"
    assert trace_rec.heat_absorption_rate > 0.0
    assert fd_rec.heat_absorption_rate == pytest.approx(
        trace_rec.heat_absorption_rate, rel=0.01)


def test_transient_rates_do_not_depend_on_dt():
    # Markovian transients are evolved exactly, so a coarse grid gives the
    # state at t_end of a fine one; RK4 refused dt = 1 at delta = -1.5
    # (gain 3.9) and missed the others by its truncation error.  TCL steps
    # at tcl.dt whatever the sampling grid mode.dt is.
    def rates(dt):
        cfg = config_from_dict({
            "sweep": {"delta_min": -1.5, "delta_max": 1.5, "delta_steps": 5,
                      "omega_list": [0.5]},
            "methods": ["bloch_redfield", "tcl_oracle"],
            "mode": {"kind": "transient", "t_end": 30.0, "dt": dt},
        })
        records = run_sweep(cfg)
        assert [r.status for r in records] == ["ok"] * 10
        return np.array([r.heat_absorption_rate for r in records])

    np.testing.assert_allclose(rates(1.0), rates(0.05), rtol=1e-12)


def test_tcl_oracle_method_in_sweep():
    cfg = config_from_dict({
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1,
                  "omega_list": [1.0]},
        "methods": ["bloch_redfield", "tcl_oracle"],
        "tcl": {"t_mem": 20.0, "dt": 0.05, "quad_points": 2, "t_end": 50.0},
    })
    br_rec, tcl_rec = run_sweep(cfg)
    assert tcl_rec.method == "tcl_oracle"
    assert tcl_rec.status == "ok"
    assert tcl_rec.heat_absorption_rate == pytest.approx(
        br_rec.heat_absorption_rate, rel=0.01)


def test_per_point_failures_recorded_in_row():
    # an undriven, undamped point has no unique steady state; the sweep
    # must keep going and record the failure in the status column
    cfg = config_from_dict({
        "system": {"e_man": 2.0, "gamma_rad": 0.0},
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1,
                  "omega_list": [0.0, 1.0]},
        "methods": ["bloch_redfield"],
    })
    failed, ok = run_sweep(cfg)
    assert failed.status.startswith("error: SteadyStateError")
    assert math.isnan(failed.heat_absorption_rate)
    assert math.isnan(failed.min_eigenvalue_seen)
    assert ok.status == "ok"
    assert math.isfinite(ok.heat_absorption_rate)


@pytest.mark.parametrize("bath,tcl", [({"temperature": 0.01}, {}),
                                      ({"omega_c": 0.02}, {"t_mem": 400.0})],
                         ids=["temperature_0.01", "omega_c_0.02"])
def test_cold_bath_gives_finite_rates(bath, tcl):
    # at temperature 0.01 the rate and shift integrals reach beta*w = 4000,
    # far past where exp overflows; at omega_c 0.02 the driven transitions
    # lie beyond 40 omega_c, and the bath correlation function needs a
    # memory window of ~400 to decay; every point must still come out finite
    methods = ["bloch_redfield", "secular", "phenomenological", "tcl_oracle"]
    cfg = config_from_dict({
        "bath": bath,
        "sweep": {"delta_min": -0.5, "delta_max": 0.5, "delta_steps": 2,
                  "omega_list": [0.5]},
        "methods": methods,
        "tcl": tcl,
    })
    records = run_sweep(cfg)
    assert [r.method for r in records] == methods * 2
    for rec in records:
        assert rec.status == "ok"
        assert math.isfinite(rec.heat_absorption_rate)


def test_short_memory_window_is_a_point_error():
    # at omega_c 0.02 the correlation function is still at 3% of C(0) after
    # the default t_mem of 30, and TCL would report -1.8e-4 where
    # Bloch-Redfield gives ~1e-24; the point fails and names the setting
    cfg = config_from_dict({
        "bath": {"omega_c": 0.02},
        "sweep": {"delta_min": -0.5, "delta_max": -0.5, "delta_steps": 1,
                  "omega_list": [0.5]},
        "methods": ["tcl_oracle", "bloch_redfield"],
    })
    tcl_rec, br_rec = run_sweep(cfg)
    assert tcl_rec.status.startswith("error: ValueError: memory window t_mem = 30 is too short")
    assert math.isnan(tcl_rec.heat_absorption_rate)
    assert br_rec.status == "ok"


def test_strong_drive_absorption_changes_sign_in_wide_scan():
    # scanned far enough to the blue, the full method's absorption turns
    # into heating while the drive-blind model keeps cooling
    cfg = config_from_dict({
        "sweep": {"delta_min": 0.5, "delta_max": 4.5, "delta_steps": 9,
                  "omega_list": [1.0]},
        "methods": ["bloch_redfield", "phenomenological"],
    })
    records = run_sweep(cfg, jobs=2)
    br = [r.heat_absorption_rate for r in records if r.method == "bloch_redfield"]
    ph = [r.heat_absorption_rate for r in records if r.method == "phenomenological"]
    assert min(br) < 0.0 < max(br)
    assert all(x > 0.0 for x in ph)


def _write_config(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


SMALL_DICT = {
    "sweep": {"delta_min": -0.5, "delta_max": 0.5, "delta_steps": 3,
              "omega_list": [1.0]},
    "methods": ["phenomenological"],
}


def test_cli_sweep_success(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", cfg_path, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4


def test_cli_json_format(tmp_path):
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    out = tmp_path / "out.json"
    assert main(["sweep", "--config", cfg_path, "--output", str(out),
                 "--format", "json"]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 3
    assert all(r["status"] == "ok" for r in data)


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(tmp_path / "nope.json"),
                 "--output", str(out)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["sweep", "--config", str(bad), "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_cli_invalid_jobs_is_usage_error(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    code = main(["sweep", "--config", cfg_path, "--output",
                 str(tmp_path / "o.csv"), "--jobs", "0"])
    assert code == 1


def test_cli_partial_failure_exit_code(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, {
        "system": {"gamma_rad": 0.0},
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1,
                  "omega_list": [0.0, 1.0]},
        "methods": ["bloch_redfield"],
    })
    out = tmp_path / "out.csv"
    code = main(["sweep", "--config", cfg_path, "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "1 of 2 points failed" in err
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header plus both rows, failure included


def test_cli_jobs_env_var(tmp_path, monkeypatch):
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("COOLSPEC_JOBS", "2")
    assert main(["sweep", "--config", cfg_path, "--output", str(out_env)]) == 0
    monkeypatch.delenv("COOLSPEC_JOBS")
    assert main(["sweep", "--config", cfg_path, "--output", str(out_flag),
                 "--jobs", "1"]) == 0
    assert out_env.read_text() == out_flag.read_text()


def test_cli_bad_jobs_env_var(tmp_path, capsys, monkeypatch):
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    monkeypatch.setenv("COOLSPEC_JOBS", "many")
    code = main(["sweep", "--config", cfg_path, "--output", str(tmp_path / "o.csv")])
    assert code == 1
    assert "COOLSPEC_JOBS" in capsys.readouterr().err


def test_cli_unknown_profile(tmp_path, capsys):
    code = main(["reproduce", "--profile", "fig9", "--output",
                 str(tmp_path / "o.csv")])
    assert code == 1


def test_cli_sweep_without_config_uses_defaults_grid(tmp_path):
    # just check the plumbing: default config must be accepted; use a tiny
    # profile instead of the full default grid to keep the test fast
    code = main(["reproduce", "--profile", "paper-fig2a", "--output",
                 str(tmp_path / "o.csv"), "--jobs", "4"])
    assert code == 0
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert len(lines) == 1 + 81 * 3


def test_evaluate_point_rejects_counting_in_steady_mode():
    record = evaluate_point(SweepConfig(), 0.0, 1.0, "bloch_redfield",
                            HeatRoute(kind="counting_fd"))
    assert record.status.startswith("error:")


def test_render_csv_quotes_are_stable():
    record = SpectrumRecord(delta=0.1, omega=1.0, method="bloch_redfield",
                            route="trace_formula", heat_absorption_rate=0.25,
                            min_eigenvalue_seen=0.0, steady_residual=0.0,
                            status='error: ValueError: bad, "quoted"')
    text = render_csv([record])
    parsed = list(csv.reader(text.splitlines()))
    assert parsed[1][-1] == 'error: ValueError: bad, "quoted"'
    data = json.loads(render_json([record]))
    assert data[0]["status"] == 'error: ValueError: bad, "quoted"'
    assert data[0]["heat_absorption_rate"] == 0.25
    # non-finite numbers are nan in csv and null in json
    failed = replace(record, heat_absorption_rate=math.nan, min_eigenvalue_seen=math.inf)
    assert render_csv([failed]).splitlines()[1].split(",")[4:6] == ["nan", "nan"]
    row = json.loads(render_json([failed]))[0]
    assert row["heat_absorption_rate"] is None and row["min_eigenvalue_seen"] is None
