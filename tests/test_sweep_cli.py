import csv
import ctypes
import io
import json
import math
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from coolspec import bath as bath_module
from coolspec import cli, generators, sweep
from coolspec.bath import BathSpec
from coolspec.cli import main
from coolspec.config import ConfigError, HeatRoute, config_from_dict, profile_config
from coolspec.dynamics import (
    evolve,
    heat_current_trace,
    mean_heat_fd,
    min_eigenvalue,
    steady_residual,
    steady_state,
)
from coolspec.sweep import (
    CSV_COLUMNS,
    SpectrumRecord,
    delta_grid,
    format_number,
    render_csv,
    render_json,
    run_sweep,
    write_output,
)
from coolspec.generators import spectrum, total_liouvillian
from coolspec.system import EigenSystem, SystemSpec, eigensystem, lower_ground_state
from coolspec.tcl import TclPropagator

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


def test_worker_count_does_not_change_output(monkeypatch):
    # one point per chunk, so that three workers share SMALL's six
    monkeypatch.setattr(sweep, "_STEADY_CHUNK", 1)
    serial = run_sweep(SMALL, jobs=1)
    parallel = run_sweep(SMALL, jobs=3)
    assert render_csv(serial) == render_csv(parallel)
    assert render_json(serial) == render_json(parallel)


@pytest.fixture
def pools(monkeypatch):
    """max_workers of every pool run_sweep asks for.

    A pool starts all its workers at once; a recording stand-in that maps
    in-process shows how many run_sweep asks for, and starts none.
    """
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return asked


def test_jobs_start_at_most_one_worker_per_chunk(pools, monkeypatch):
    serial = render_csv(run_sweep(SMALL))
    # SMALL's six points are one chunk: no pool at all
    assert render_csv(run_sweep(SMALL, jobs=1000)) == serial
    assert pools == []
    monkeypatch.setattr(sweep, "_STEADY_CHUNK", 3)
    assert render_csv(run_sweep(SMALL, jobs=1000)) == serial
    assert pools == [2]


def test_run_sweep_validates_jobs():
    # jobs follows config's integer rule: 2.5 and "2" failed as TypeError
    # and True ran as 1
    for jobs in (0, 2.5, "2", True):
        with pytest.raises(ConfigError, match="^jobs must be"):
            run_sweep(SMALL, jobs=jobs)


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
    # bath_gain_positive, and tcl_oracle reported its trace-formula current
    # under the counting_fd label) and a string e_man escaped as TypeError
    cfg = replace(SMALL, delta_steps=1, omega_list=(0.5,), **changes)
    with pytest.raises(ConfigError, match=fragment):
        run_sweep(cfg)


def test_run_sweep_accepts_numpy_integer_steps():
    # an integer field takes any integral number but a bool, as a numpy
    # integer computed in code is; the grid and records are those of the
    # Python int
    records = run_sweep(replace(SMALL, delta_steps=np.int64(3)))
    assert render_csv(records) == render_csv(run_sweep(SMALL))
    with pytest.raises(ConfigError, match="must be an integer"):
        run_sweep(replace(SMALL, delta_steps=True))


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
    # one step ignores delta_max, even below delta_min
    reversed_single = config_from_dict({"sweep": {"delta_min": 0.3, "delta_max": -0.2,
                                                  "delta_steps": 1}})
    assert np.array_equal(delta_grid(reversed_single), [0.3])


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
        "tcl": {"t_mem": 20.0, "dt": 0.05},
    })
    br_rec, tcl_rec = run_sweep(cfg)
    assert tcl_rec.method == "tcl_oracle"
    assert tcl_rec.status == "ok"
    assert tcl_rec.heat_absorption_rate == pytest.approx(
        br_rec.heat_absorption_rate, rel=0.01)


def test_tcl_plateau_is_null_state_of_frozen_generator():
    # past the coefficient table's last row the TCL generator is frozen, so
    # the steady record is that generator's null state, from the same
    # steady_state as the Markovian methods.  t_mem 30.008 rounds to the
    # row 30.01, which lies past the last RK4 grid time 30.00
    cfg = config_from_dict({
        "sweep": {"delta_min": -0.5, "delta_max": -0.5, "delta_steps": 1,
                  "omega_list": [0.5]},
        "methods": ["tcl_oracle"],
        "tcl": {"t_mem": 30.008},
    })
    (rec,) = run_sweep(cfg)
    spec = SystemSpec(e_man=2.0, delta=-0.5, omega_rabi=0.5, gamma_rad=0.5)
    prop = TclPropagator(spec, BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0),
                         t_mem=30.008)
    frozen = prop.generator(60.0)
    rho, _ = steady_state(frozen)
    assert rec.status == "ok"
    assert rec.heat_absorption_rate == -heat_current_trace(frozen, rho)
    assert rec.steady_residual <= 1e-14
    # the smallest eigenvalue seen covers the trajectory up to the last
    # row (TCL's initial slip) and the plateau state
    _, states, _ = prop.propagate(lower_ground_state(), prop.taus[-1])
    assert rec.min_eigenvalue_seen == min(min_eigenvalue(states), min_eigenvalue(rho))


def test_transient_tcl_record_is_final_generator_and_state():
    # the transient record reads the generator at the last RK4 grid time
    # (t_end 5.03 rounds to 5.05 at tcl.dt 0.05) and the state there
    cfg = config_from_dict({
        "sweep": {"delta_min": -0.5, "delta_max": -0.5, "delta_steps": 1,
                  "omega_list": [0.5]},
        "methods": ["tcl_oracle"],
        "mode": {"kind": "transient", "t_end": 5.03, "dt": 0.05},
        "tcl": {"t_mem": 10.0, "dt": 0.05},
    })
    (rec,) = run_sweep(cfg)
    spec = SystemSpec(e_man=2.0, delta=-0.5, omega_rabi=0.5, gamma_rad=0.5)
    prop = TclPropagator(spec, BathSpec(alpha=0.01, omega_c=1.0, temperature=3.0),
                         t_mem=10.0, dt=0.05)
    times, states, _ = prop.propagate(lower_ground_state(), 5.03)
    gen = prop.generator(times[-1])
    assert rec.status == "ok"
    assert rec.heat_absorption_rate == -heat_current_trace(gen, states[-1])
    assert rec.min_eigenvalue_seen == min_eigenvalue(states)
    assert rec.steady_residual == steady_residual(gen, states[-1])


def test_tcl_plateau_matches_bloch_redfield_for_fast_bath():
    # at omega_c 5 the correlation function varies on the scale 0.2; a
    # coefficient grid of spacing 0.01 put the plateau 3.2e-4 (delta -0.5)
    # and 6.5e-4 (+0.5) away from Bloch-Redfield, 0.01 / omega_c 1.3e-5
    # and 2.6e-5
    cfg = config_from_dict({
        "bath": {"omega_c": 5.0, "temperature": 3.0},
        "sweep": {"delta_min": -0.5, "delta_max": 0.5, "delta_steps": 2,
                  "omega_list": [0.5]},
        "methods": ["tcl_oracle", "bloch_redfield"],
    })
    records = run_sweep(cfg)
    assert [r.status for r in records] == ["ok"] * 4
    for tcl_rec, br_rec in zip(records[::2], records[1::2]):
        assert tcl_rec.heat_absorption_rate == pytest.approx(br_rec.heat_absorption_rate,
                                                             rel=5e-5)


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


# ok points around one without a unique steady state (omega 0 at
# gamma_rad 0), plus the tcl_oracle method, whose frozen generator has no
# unique steady state there either
MIXED = config_from_dict({
    "system": {"gamma_rad": 0.0},
    "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1,
              "omega_list": [0.2, 0.4, 0.6, 0.0, 0.8, 1.0, 1.2, 1.4, 1.6]},
    "methods": ["bloch_redfield", "secular", "phenomenological", "tcl_oracle"],
    "tcl": {"t_mem": 10.0, "dt": 0.1},
})


def _values(record):
    return record.heat_absorption_rate, record.min_eigenvalue_seen, record.steady_residual


TRANSIENT = config_from_dict({
    "sweep": {"delta_min": -1.0, "delta_max": 1.0, "delta_steps": 3, "omega_list": [0.5, 1.0]},
    "methods": ["bloch_redfield", "secular"],
    "mode": {"kind": "transient", "t_end": 5.0, "dt": 0.05},
    "heat_route": [{"kind": "trace_formula"},
                   {"kind": "counting_fd", "u_step": 0.05, "scheme": "central"}],
})


# two chunks of stacked tcl_oracle points, 16 and 2, all ok
TRANSIENT_TCL = config_from_dict({
    "sweep": {"delta_min": -1.0, "delta_max": 1.0, "delta_steps": 9, "omega_list": [0.5, 1.0]},
    "methods": ["tcl_oracle", "secular"],
    "mode": {"kind": "transient", "t_end": 7.0, "dt": 0.05},
    "tcl": {"t_mem": 10.0, "dt": 0.05},
})


# MIXED's Markovian methods only: the whole grid is one stack
MARKOVIAN = replace(MIXED, methods=MIXED.methods[:3])


@pytest.mark.parametrize("cfg,failures", [(MIXED, 4), (MARKOVIAN, 3), (TRANSIENT, 0),
                                          (TRANSIENT_TCL, 0)],
                         ids=["steady", "steady_markovian", "transient", "transient_tcl"])
def test_output_does_not_depend_on_chunks_or_jobs(cfg, failures, monkeypatch):
    reference = render_csv(run_sweep(cfg))
    assert reference.count(",error: SteadyStateError") == failures
    assert reference.count(",ok\n") == len(reference.splitlines()) - 1 - failures
    for size in (sweep._stack_size(cfg), 1, 7):
        monkeypatch.setattr(sweep, "_stack_size", lambda cfg: size)
        for jobs in (1, 2):
            assert render_csv(run_sweep(cfg, jobs=jobs)) == reference


def _counting(monkeypatch, name):
    calls = []
    original = getattr(sweep, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep, name, counted)
    return calls


def test_stack_size_follows_what_a_point_holds(monkeypatch):
    # a steady Markovian grid is one stack: paper-fig2's 324 points share
    # one eigensystem and rate table; paper-fig3a's 81 transient points are
    # six stacks of at most 16, evolved one stack at a time, which serially
    # form one block and so share one eigensystem and rate table too
    calls = _counting(monkeypatch, "spectrum")
    stacks = _counting(monkeypatch, "evolve")
    for profile in ("paper-fig2", "paper-fig3a"):
        calls.clear()
        run_sweep(profile_config(profile))
        assert len(calls) == 1
    assert [args[0].matrix.shape[:-2] for args in stacks] == [(16,)] * 5 + [(1,)]
    assert sweep._stack_size(profile_config("paper-fig3a")) == sweep._CHUNK
    # stacks hold at most a fixed budget of their points' longest time axis.
    # tcl_oracle's tau tables: all 16 points at the default t_mem, 4 at
    # t_mem 400 and omega_c 0.02 (40,001 rows, 5.8 MB each)
    tcl = config_from_dict({"bath": {"omega_c": 0.02}, "methods": ["tcl_oracle"]})
    assert sweep._stack_size(replace(tcl, omega_c=1.0)) == sweep._CHUNK
    assert sweep._stack_size(replace(tcl, tcl_t_mem=400.0)) == 4
    assert sweep._stack_size(replace(tcl, tcl_t_mem=1e300, tcl_dt=1e-300)) == 1
    # transient trajectories: 4 points at t_end 2000 and dt 0.05 (40,001
    # states), for tcl_oracle at its own step
    long = config_from_dict({"methods": ["bloch_redfield"],
                             "mode": {"kind": "transient", "t_end": 2000.0, "dt": 0.05}})
    assert sweep._stack_size(long) == 4
    assert sweep._stack_size(replace(long, dt=1.0)) == sweep._CHUNK
    assert sweep._stack_size(replace(long, dt=1.0, methods=("tcl_oracle",), tcl_dt=0.05)) == 4
    # the tcl_oracle benchmark config is one stack of 5 points
    props = _counting(monkeypatch, "TclPropagator")
    run_sweep(config_from_dict({
        "sweep": {"delta_min": -1.0, "delta_max": 1.0, "delta_steps": 5, "omega_list": [0.5]},
        "methods": ["tcl_oracle", "bloch_redfield"],
    }))
    assert [np.shape(args[0].delta) for args in props] == [(5,)]


def test_block_rows_are_each_chunks_own_spectrum():
    # a chunk reads its rows of its block's value: static part, eigensystem
    # and rate table are bitwise those that the chunk computes alone; a
    # value without eigensystem and rate table has rows without them
    cfg = profile_config("paper-fig3a")
    deltas = delta_grid(cfg).tolist()
    omegas = list(cfg.omega_list) * len(deltas)
    block = spectrum(*sweep._problem(cfg, deltas, omegas))
    for start, stop in ((0, 16), (64, 80), (80, 81)):
        rows = block.rows(slice(start, stop))
        own = spectrum(*sweep._problem(cfg, deltas[start:stop], omegas[start:stop]))
        assert np.array_equal(rows.static, own.static)
        for field in fields(EigenSystem):
            assert np.array_equal(getattr(rows.eig, field.name), getattr(own.eig, field.name))
        assert np.array_equal(rows.gamma, own.gamma)
    bare = spectrum(*sweep._problem(cfg, deltas, omegas), ("phenomenological",)).rows(slice(0, 16))
    assert bare.static.shape == (16, 9, 9) and bare.eig is None and bare.gamma is None


def test_blocks_hold_at_most_a_steady_stack_and_one_per_worker(pools, monkeypatch):
    # 1,000 steady points are two chunks, each its own block; paper-fig3a's
    # six chunks are one block serially, and two blocks of three for two
    # workers
    calls = _counting(monkeypatch, "spectrum")
    run_sweep(config_from_dict({"sweep": {"delta_steps": 1000, "omega_list": [0.5]},
                                "methods": ["bloch_redfield"]}))
    assert [np.size(args[0].delta) for args in calls] == [512, 488]
    assert sweep._STEADY_CHUNK == 512
    calls.clear()
    run_sweep(profile_config("paper-fig3a"), jobs=2)
    assert [np.size(args[0].delta) for args in calls] == [48, 33]
    assert pools == [2]


def _counting_in(monkeypatch, *targets):
    """Names of the calls made to the (module, name) functions of targets, in order."""
    calls = []
    for module, name in targets:
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_spectrum_is_computed_only_when_read(monkeypatch):
    # tcl_oracle builds its own coefficients and phenomenological reads no
    # spectrum (two bare jumps), so the block's value holds neither an
    # eigensystem nor a rate table
    calls = _counting_in(monkeypatch, (generators, "eigensystem"), (generators, "rate_table"))
    run_sweep(replace(TRANSIENT_TCL, methods=("tcl_oracle",)))
    run_sweep(replace(SMALL, methods=("phenomenological",)))
    run_sweep(replace(TRANSIENT, methods=("phenomenological",)))
    assert calls == []


def test_shifts_are_computed_only_where_a_method_reads_them(monkeypatch):
    # secular reads the rates Re Gamma alone and phenomenological no rate
    # table, so a block of them, or of Bloch-Redfield without shifts, calls
    # no shift_b; every row is that of the same sweep made to compute them.
    # So do direct generator and counting-field calls of those methods
    fig2 = profile_config("paper-fig2")
    configs = (replace(fig2, methods=("secular",)),
               replace(fig2, methods=("secular", "phenomenological")),
               replace(fig2, include_shifts_bloch_redfield=False),
               replace(TRANSIENT, methods=("secular",)))
    original_spectrum = sweep.spectrum

    def with_shifts(spec, bath, methods, shifts):
        # the shifts computed, then dropped from Gamma where no method reads them
        value = original_spectrum(spec, bath, ("bloch_redfield",) + tuple(methods), True)
        if shifts and "bloch_redfield" in methods:
            return value
        return replace(value, gamma=value.gamma.real + 0j)

    monkeypatch.setattr(sweep, "spectrum", with_shifts)
    forced = [render_csv(run_sweep(cfg)) for cfg in configs]
    monkeypatch.undo()
    calls = []
    original = bath_module.shift_b

    def counted(nu, spec, *args, **kwargs):
        calls.append(np.size(nu))
        return original(nu, spec, *args, **kwargs)

    monkeypatch.setattr(bath_module, "shift_b", counted)
    assert [render_csv(run_sweep(cfg)) for cfg in configs] == forced
    spec, bath = sweep._problem(fig2, [0.0, 0.5], [0.5, 1.0])
    for method in ("secular", "phenomenological"):
        total_liouvillian(method, spec, bath, u=0.05)
        mean_heat_fd(method, spec, bath, t_end=1.0)
    assert calls == []
    run_sweep(fig2)
    assert len(calls) == 1
    total_liouvillian("bloch_redfield", spec, bath)
    assert len(calls) == 2


def test_one_call_per_layer_per_paper_sweep(monkeypatch):
    # a serial paper-fig2 or paper-fig3a sweep is one block, whose value is
    # built once for every chunk, method and counting route: one static
    # part, one eigensystem and one rate table, with one shift_b call
    calls = _counting_in(monkeypatch, (generators, "static_part"), (generators, "eigensystem"),
                         (generators, "rate_table"), (bath_module, "shift_b"))
    for profile in ("paper-fig2", "paper-fig3a"):
        calls.clear()
        run_sweep(profile_config(profile))
        assert sorted(calls) == ["eigensystem", "rate_table", "shift_b", "static_part"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_failing_rate_table_marks_only_its_point(jobs, pools, monkeypatch):
    # rate_table raises for every stack that holds one chosen point, the
    # block's included: the chunk that holds it halves until only that
    # point's row carries the error, and every other row is that of the
    # unpatched sweep.  Two workers' blocks run in-process here, so the
    # patch reaches them whatever the start method.  Each block's
    # spectrum, failing or not, is computed once; a failing one leaves
    # each chunk to compute its own, so at the default stack size every
    # chunk without the chosen point is evaluated whole, once
    cfg = profile_config("paper-fig3a")
    reference = render_csv(run_sweep(cfg)).splitlines()
    chosen = 37
    point = sweep._problem(cfg, [delta_grid(cfg)[chosen]], list(cfg.omega_list))[0]
    energies = eigensystem(point).energies
    original = generators.rate_table
    stacks = []

    def failing(eig, bath, shifts=True):
        stacks.append(eig.energies[..., 0].size)
        if np.any(np.all(eig.energies == energies, axis=-1)):
            raise RuntimeError("rate table failed")
        return original(eig, bath, shifts)

    monkeypatch.setattr(generators, "rate_table", failing)
    heads = _counting(monkeypatch, "_evaluate")
    for size in (sweep._stack_size(cfg), 1, 7):
        monkeypatch.setattr(sweep, "_stack_size", lambda cfg: size)
        stacks.clear()
        heads.clear()
        lines = render_csv(run_sweep(cfg, jobs=jobs)).splitlines()
        if size == sweep._CHUNK:
            deltas = delta_grid(cfg).tolist()
            evaluated = [args[1].delta.tolist() for args in heads]
            for start in range(0, len(deltas), size):
                chunk = deltas[start:start + size]
                if chosen not in range(start, start + size):
                    assert [points for points in evaluated
                            if set(points) & set(chunk)] == [chunk]
        # the only stacks larger than a chunk are the blocks, one call each
        blocks = [n for n in stacks if n > size]
        assert len(blocks) == jobs and sum(blocks) == len(reference) - 1
        if size == sweep._CHUNK:
            # the chosen point's block, the first, leaves its chunks to
            # compute their own, each once for its head and its counting_fd
            # route: one 16-point rate_table call per 16-point chunk, the
            # failing one's whole try included
            assert chosen < blocks[0]
            assert stacks.count(size) == blocks[0] // size
        assert len(lines) == len(reference)
        assert [k for k, (line, ok) in enumerate(zip(lines, reference)) if line != ok] == [
            1 + chosen]
        assert lines[1 + chosen].endswith(",error: RuntimeError: rate table failed")
    assert pools == ([2] * 3 if jobs == 2 else [])


def test_failing_point_is_found_by_halving(monkeypatch):
    # one point of 16 has no unique steady state; the failing stack is
    # halved down to that point, 1 + 2 * 4 head evaluations, not 1 + 16,
    # and each half reads its rows of the block's rate table, computed once
    cfg = replace(MARKOVIAN, methods=("bloch_redfield",),
                  omega_list=tuple(0.1 * k for k in range(1, 6)) + (0.0,)
                  + tuple(0.1 * k for k in range(6, 16)))
    reference = render_csv(run_sweep(cfg))
    calls = _counting(monkeypatch, "_evaluate")
    original = generators.rate_table
    tables = []

    def counted(eig, bath, shifts=True):
        tables.append(eig.energies[..., 0].size)
        return original(eig, bath, shifts)

    monkeypatch.setattr(generators, "rate_table", counted)
    records = run_sweep(cfg)
    assert len(calls) == 9
    assert tables == [16]
    assert render_csv(records) == reference
    assert [r.omega for r in records if r.status != "ok"] == [0.0]


def test_route_failure_marks_only_its_row(monkeypatch):
    # the counting_fd current of one point raises: only that row fails, and
    # the point's trace_formula row is that of a trace-only sweep
    trace_only = run_sweep(replace(TRANSIENT, routes=TRANSIENT.routes[:1]))
    full = run_sweep(TRANSIENT)
    original = sweep.mean_heat_fd

    def failing(method, spec, *args, **kwargs):
        if np.any((np.asarray(spec.delta) == 0.0) & (np.asarray(spec.omega_rabi) == 1.0)):
            raise RuntimeError("counting field failed")
        return original(method, spec, *args, **kwargs)

    monkeypatch.setattr(sweep, "mean_heat_fd", failing)
    records = run_sweep(TRANSIENT)
    assert len(records) == len(full)
    for rec, ok in zip(records, full):
        if (rec.delta, rec.omega, rec.route) == (0.0, 1.0, "counting_fd"):
            assert rec.status == "error: RuntimeError: counting field failed"
            assert all(math.isnan(x) for x in _values(rec))
        else:
            assert rec == ok
    assert [rec for rec in records if rec.route == "trace_formula"] == trace_only


def test_routes_share_one_head(monkeypatch):
    # each Markovian method evolves a chunk once for all its routes, and the
    # records are those of one sweep per route, interleaved
    per_route = [run_sweep(replace(TRANSIENT, routes=(route,))) for route in TRANSIENT.routes]
    calls = []
    monkeypatch.setattr(sweep, "evolve", lambda *args: calls.append(1) or evolve(*args))
    records = run_sweep(TRANSIENT)
    assert len(calls) == len(TRANSIENT.methods)
    assert records == [rec for pair in zip(*per_route) for rec in pair]


def test_chunk_failure_marks_only_its_point():
    # the chunk's stacked SVD fails on the omega 0 point; the chunk falls
    # back to single points, which keep their own status and values
    records = run_sweep(MIXED)
    for rec in records:
        (single,) = run_sweep(replace(MIXED, delta_min=rec.delta, delta_max=rec.delta,
                                      omega_list=(rec.omega,), methods=(rec.method,)))
        assert rec.status == single.status
        if rec.omega == 0.0:
            assert rec.status.startswith("error: SteadyStateError: steady state is not unique: "
                                         "smallest singular values ")
        else:
            assert rec.status == "ok"
            assert _values(rec) == _values(single)


def test_stacked_linalg_error_falls_back_to_points(monkeypatch):
    # every stacked LAPACK call of steady_state fails: the certificate's
    # inverse, then the SVD of the path that follows it
    reference = run_sweep(SMALL)
    stacked_calls = []

    def failing(name, call):
        def wrapped(a, *args, **kwargs):
            # a stack of more than one matrix; a single point is a stack of one
            if math.prod(np.shape(a)[:-2]) > 1:
                stacked_calls.append(name)
                raise np.linalg.LinAlgError(f"{name} failed")
            return call(a, *args, **kwargs)
        return wrapped

    for name in ("inv", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, failing(name, getattr(np.linalg, name)))
    records = run_sweep(SMALL)
    assert {"inv", "svd"} <= set(stacked_calls)
    assert [r.status for r in records] == ["ok"] * len(reference)
    assert [_values(r) for r in records] == [_values(r) for r in reference]


def test_paper_fig2_and_tcl_stacks_are_cleared_without_an_svd(monkeypatch):
    # steady_state's certificate clears every point of paper-fig2's three
    # 324-point stacks and of the tcl_oracle benchmark's sweep (the TCL
    # generator frozen at t_mem, then Bloch-Redfield), so none runs an SVD
    svd, calls, stacks = np.linalg.svd, [], []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        calls.append(np.shape(a)) or svd(a, *args, **kwargs))
    monkeypatch.setattr(sweep, "steady_state",
                        lambda gen: stacks.append(gen.matrix.shape) or steady_state(gen))
    records = run_sweep(profile_config("paper-fig2")) + run_sweep(config_from_dict({
        "sweep": {"delta_min": -1.0, "delta_max": 1.0, "delta_steps": 5, "omega_list": [0.5]},
        "methods": ["tcl_oracle", "bloch_redfield"],
    }))
    assert calls == []
    assert stacks == [(324, 9, 9)] * 3 + [(5, 9, 9)] * 2
    assert {rec.status for rec in records} == {"ok"}


@pytest.mark.parametrize("changes", [{"sweep": {"delta_min": 1e8, "delta_max": 1e8}},
                                     {"system": {"gamma_rad": 1e8}},
                                     {"bath": {"alpha": 1e6}}],
                         ids=["delta_1e8", "gamma_rad_1e8", "alpha_1e6"])
def test_steady_residual_bound_scales_with_generator(changes):
    # ||L||_2 ~ 1e8 here: a machine-precision steady state leaves a residual
    # of ~1e-8, which an absolute 1e-10 bound rejected
    base = {"sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1,
                      "omega_list": [0.5]}}
    cfg = config_from_dict({key: {**base.get(key, {}), **value}
                            for key, value in {**base, **changes}.items()})
    for rec in run_sweep(cfg):
        assert rec.status == "ok"
        assert all(math.isfinite(x) for x in _values(rec))


@pytest.mark.parametrize("changes", [{"bath": {"alpha": 1e300}},
                                     {"system": {"gamma_rad": 1e300}}],
                         ids=["alpha_1e300", "gamma_rad_1e300"])
def test_huge_rates_fail_the_steady_state_by_name(changes):
    # rates of 1e300 overflow the residual norm: every row must be ok with
    # finite values (phenomenological at alpha 1e300, a roundoff-scale
    # rate) or a named SteadyStateError, and nothing may warn
    cfg = config_from_dict({
        **changes,
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1, "omega_list": [0.5]},
        "methods": ["bloch_redfield", "secular", "phenomenological"],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_sweep(cfg)
    for rec in records:
        if rec.status == "ok":
            assert all(math.isfinite(x) for x in _values(rec))
        else:
            assert rec.status.startswith("error: SteadyStateError: ")
            assert all(math.isnan(x) for x in _values(rec))


def test_huge_rates_fail_the_transient_rows_by_name():
    # at alpha 1e300 exp(dt L) overflows: every transient row, on either
    # route, is a named PropagationError, and nothing warns on the way
    cfg = config_from_dict({
        "bath": {"alpha": 1e300},
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1, "omega_list": [0.5]},
        "methods": ["bloch_redfield", "secular", "phenomenological"],
        "mode": {"kind": "transient", "t_end": 1.0, "dt": 0.05},
        "heat_route": [{"kind": "trace_formula"},
                       {"kind": "counting_fd", "u_step": 0.05, "scheme": "forward"}],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = run_sweep(cfg)
    assert [(r.method, r.route) for r in records] == [
        (method, route) for method in cfg.methods for route in ("trace_formula", "counting_fd")]
    for rec in records:
        assert rec.status.startswith("error: PropagationError: ")
        assert all(math.isnan(x) for x in _values(rec))


_HUGE_DRIVE = config_from_dict({
    "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1, "omega_list": [1e308]},
    "methods": ["secular"],
})


def test_huge_drive_secular_mask_does_not_warn():
    # at omega 1e308 the secular mask's frequency differences overflow; the
    # row read "error: RuntimeWarning: overflow encountered in subtract"
    # under pytest's error::RuntimeWarning filter (pyproject.toml), and ok
    # with warnings ignored
    (rec,) = run_sweep(_HUGE_DRIVE)
    assert rec.status == "ok"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_sweep(_HUGE_DRIVE) == [rec]


@pytest.mark.parametrize("e_man", [1e-306, 1e-310, 5e-324])
def test_tiny_manifold_splitting_gives_finite_rates(e_man):
    # the phenomenological method's bare levels are split by e_man only: its
    # rates and shifts overflowed, and the rows read QuadratureError (nan
    # estimate) or OverflowError
    cfg = config_from_dict({
        "system": {"e_man": e_man},
        "sweep": {"delta_min": -0.5, "delta_max": 0.5, "delta_steps": 2,
                  "omega_list": [0.5]},
        "methods": ["bloch_redfield", "secular", "phenomenological"],
    })
    for rec in run_sweep(cfg):
        assert rec.status == "ok"
        assert all(math.isfinite(x) for x in _values(rec))


def test_hot_bath_gives_finite_rates():
    # at temperature 1e6 the shift integrals reach 1e6; their error budget
    # is relative, so every coupled transition stays within it
    cfg = config_from_dict({
        "bath": {"temperature": 1e6},
        "sweep": {"delta_min": -0.5, "delta_max": -0.5, "delta_steps": 1,
                  "omega_list": [0.5, 1.0]},
        "methods": ["bloch_redfield", "secular", "phenomenological"],
    })
    records = run_sweep(cfg)
    assert len(records) == 6
    for rec in records:
        assert rec.status == "ok"
        assert all(math.isfinite(x) for x in _values(rec))


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


HUGE_STEP = "error: ValueError: dt = 1e+308 is too large to split into tau-grid spacings; lower dt"
NAN_GAIN = "error: PropagationError: RK4 gain nan at t = 0 exceeds 1, the step is unstable"


@pytest.mark.parametrize("mode,dt,status", [
    ("steady", 1e308, HUGE_STEP), ("transient", 1e308, HUGE_STEP),
    ("steady", 1e80, NAN_GAIN), ("transient", 1e80, NAN_GAIN),
    ("steady", 1e300, NAN_GAIN), ("transient", 1e300, NAN_GAIN),
], ids=["steady", "transient", "steady-1e80", "transient-1e80", "steady-1e300",
        "transient-1e300"])
def test_huge_tcl_step_is_a_point_error(mode, dt, status):
    # tcl.dt 1e308 is positive and finite, so it validates; sizing the
    # stack by its tau table raised OverflowError from math.ceil and
    # stopped the whole sweep.  At 1e80 and 1e300 z^4 of the RK4 gain
    # overflows and the gain is NaN, which passed a `gain > 1 + tol`
    # check: the point read ok, with overflow warnings
    cfg = config_from_dict({
        "sweep": {"delta_min": 0.0, "delta_max": 0.0, "delta_steps": 1, "omega_list": [0.5]},
        "methods": ["tcl_oracle", "bloch_redfield"],
        "mode": {"kind": mode},
        "tcl": {"dt": dt},
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tcl_rec, br_rec = run_sweep(cfg)
    assert not caught
    assert tcl_rec.status.startswith(status)
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


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000],
                         ids=["utf16_byte_order_mark", "nested_200000_deep"])
def test_cli_undecodable_config_is_usage_error(tmp_path, capsys, content):
    # these escaped as tracebacks: UnicodeDecodeError from reading the
    # file, RecursionError from json.loads
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = main(["sweep", "--config", str(bad), "--output", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"coolspec: error: malformed JSON in {bad}: ")
    assert "Traceback" not in err


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


def test_cli_unknown_profile(tmp_path, capsys):
    code = main(["reproduce", "--profile", "fig9", "--output",
                 str(tmp_path / "o.csv")])
    assert code == 1


class _FakeLibc:
    """`ctypes.CDLL(None)` with a `mallopt` that records its calls and returns `accepted`."""

    def __init__(self, events, accepted=1):
        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return accepted

        self.mallopt = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int, ctypes.c_int)(mallopt)


@pytest.mark.parametrize("accepted, pinned", [
    (1, [(-3, 33554432), (-1, 67108864)]),
    # a glibc that refuses the mmap threshold (32-bit: above its ceiling)
    # keeps its dynamic rule, which a trim threshold alone would switch off
    (0, [(-3, 33554432)]),
], ids=["accepted", "refused"])
def test_cli_pins_malloc_thresholds_before_the_sweep(tmp_path, monkeypatch, accepted, pinned):
    events = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _FakeLibc(events, accepted))
    monkeypatch.setattr(cli, "run_sweep",
                        lambda *args, **kwargs: events.append("run_sweep") or run_sweep(*args, **kwargs))
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    assert main(["sweep", "--config", cfg_path, "--output", str(tmp_path / "o.csv")]) == 0
    assert events == [("mallopt", *call) for call in pinned] + ["run_sweep"]


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [lambda name: object(), _no_libc],
                         ids=["without_mallopt", "cdll_raises"])
def test_cli_without_mallopt_writes_the_same_output(tmp_path, monkeypatch, libc):
    cfg_path = _write_config(tmp_path, SMALL_DICT)
    assert main(["sweep", "--config", cfg_path, "--output", str(tmp_path / "pinned.csv")]) == 0
    monkeypatch.setattr(ctypes, "CDLL", libc)
    assert main(["sweep", "--config", cfg_path, "--output", str(tmp_path / "o.csv")]) == 0
    assert (tmp_path / "o.csv").read_bytes() == (tmp_path / "pinned.csv").read_bytes()


def test_cli_sweep_without_config_uses_defaults_grid(tmp_path):
    # just check the plumbing: default config must be accepted; use a tiny
    # profile instead of the full default grid to keep the test fast
    code = main(["reproduce", "--profile", "paper-fig2a", "--output",
                 str(tmp_path / "o.csv"), "--jobs", "4"])
    assert code == 0
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert len(lines) == 1 + 81 * 3


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


_EDGE_STATUSES = ("ok", "", "error: ValueError: bad, value", 'error: KeyError: "key"',
                  "error: RuntimeError: two\nlines", "error: RuntimeError: carriage\rreturn",
                  'error: X: all, "of"\r\n them')
_EDGE_VALUES = (0.25, -0.0, math.inf, -math.inf, math.nan, 1e-310, -1.5e300)


def _edge_records():
    """Records holding every edge status with ±inf, NaN, -0.0 and extreme numbers."""
    values = _EDGE_VALUES
    return [SpectrumRecord(delta=values[k % 7], omega=values[(k + 1) % 7], method="secular",
                           route="counting_fd", heat_absorption_rate=values[(k + 2) % 7],
                           min_eigenvalue_seen=values[(k + 3) % 7],
                           steady_residual=values[(k + 4) % 7], status=status)
            for k, status in enumerate(_EDGE_STATUSES * 3)]


def test_render_csv_equals_csv_writer():
    # the one-pass renderer against csv.writer's own quoting, that of its
    # default dialect, which quotes a carriage return too, with rows ending
    # in "\n"
    records = _edge_records() + run_sweep(SMALL)
    rows = [CSV_COLUMNS] + [[v if isinstance(v, str) else format(v, ".12g") if math.isfinite(v)
                             else "nan" for v in astuple(r)] for r in records]
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        lines.append(buf.getvalue().removesuffix("\r\n") + "\n")
    assert render_csv(records) == "".join(lines)
    assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"


def test_render_json_parses_back_with_null_where_the_csv_has_nan():
    records = _edge_records()
    objects = json.loads(render_json(records))
    assert [list(obj) for obj in objects] == [list(CSV_COLUMNS)] * len(records)
    for record, obj in zip(records, objects):
        assert list(obj.values()) == [
            value if isinstance(value, str) else
            float(format(value, ".12g")) if math.isfinite(value) else None
            for value in astuple(record)]
    rows = list(csv.reader(io.StringIO(render_csv(records), newline="")))
    assert len(rows) == 1 + len(objects)
    for row, obj in zip(rows[1:], objects):
        for cell, value in zip(row, obj.values()):
            assert (cell == "nan" if value is None else
                    cell == value if isinstance(value, str) else float(cell) == value)
    assert json.loads(render_json([])) == []
