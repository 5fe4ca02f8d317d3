import contextlib
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from coolspec.bath import BathSpec
from coolspec.config import (
    CONFIG_KEYS,
    PROFILES,
    ConfigError,
    HeatRoute,
    SweepConfig,
    config_from_dict,
    parse_config,
    profile_config,
    validate_config,
)
from coolspec.system import SystemSpec
from coolspec.tcl import TclPropagator


def test_empty_config_gives_shipped_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = parse_config(str(path))
    assert cfg == SweepConfig()
    assert cfg.e_man == 2.0
    assert cfg.gamma_rad == 0.5
    assert cfg.alpha == 0.01
    assert cfg.temperature == 3.0
    assert cfg.delta_steps == 81
    assert cfg.delta_min == -1.5 and cfg.delta_max == 1.5
    assert cfg.omega_list == (0.01, 0.1, 0.5, 1.0)
    assert cfg.methods == ("bloch_redfield", "secular", "phenomenological")
    assert cfg.mode == "steady"
    assert cfg.routes == (HeatRoute(kind="trace_formula"),)
    assert cfg.include_shifts_bloch_redfield is True


def test_empty_object_equals_empty_file(tmp_path):
    path = tmp_path / "obj.json"
    path.write_text("{}")
    assert parse_config(str(path)) == SweepConfig()


def test_missing_file_distinct_from_malformed(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(str(bad))
    # json's int parser refuses literals over 4300 digits with a ValueError
    bad.write_text('{"bath": {"alpha": 1' + "0" * 5000 + "}}")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(str(bad))


def test_unknown_key_reports_line_number(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "system": {"e_man": 2.0},\n  "omega_list": [1.0]\n}\n')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "omega_list" in str(err.value)
    assert "line 3" in str(err.value)


def test_unknown_nested_key_reports_line_number(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "bath": {\n    "alpha": 0.01,\n    "cutoff": 1.0\n  }\n}\n')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "cutoff" in str(err.value)
    assert "line 4" in str(err.value)


def test_unknown_key_line_is_searched_within_its_section(tmp_path):
    # "dt" is a known key of mode on line 1; the unknown one is sweep's
    path = tmp_path / "cfg.json"
    path.write_text('{"mode": {"kind": "steady", "dt": 0.05},\n"sweep": {\n"dt": 1}}\n')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "'dt' (line 3)" in str(err.value)


def test_tcl_quad_points_is_unknown(tmp_path):
    # the coefficient grid follows tcl.dt; there is no key to set it
    path = tmp_path / "cfg.json"
    path.write_text('{\n  "tcl": {\n    "dt": 0.05,\n    "quad_points": 2\n  }\n}\n')
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "unknown key(s) in tcl: 'quad_points' (line 4)" in str(err.value)


def test_round_trip_is_identity():
    data = {
        "system": {"e_man": 1.7, "gamma_rad": 0.2},
        "bath": {"alpha": 0.02, "omega_c": 0.8, "temperature": 2.5},
        "sweep": {"delta_min": -1.0, "delta_max": 2.0, "delta_steps": 7,
                  "omega_list": [0.3, 0.9]},
        "methods": ["bloch_redfield", "secular"],
        "mode": {"kind": "transient", "t_end": 12.0, "dt": 0.04},
        "heat_route": [{"kind": "trace_formula"},
                       {"kind": "counting_fd", "u_step": 0.02, "scheme": "forward"}],
        "sign": "bath_gain_positive",
        "include_shifts": {"bloch_redfield": False},
        "pairing_tol": 1e-9,
        "tcl": {"t_mem": 25.0, "dt": 0.03},
    }
    # every key of the schema, each read into its field
    assert config_from_dict(data) == SweepConfig(
        e_man=1.7, gamma_rad=0.2, alpha=0.02, omega_c=0.8, temperature=2.5,
        delta_min=-1.0, delta_max=2.0, delta_steps=7, omega_list=(0.3, 0.9),
        methods=("bloch_redfield", "secular"), mode="transient", t_end=12.0, dt=0.04,
        routes=(HeatRoute(kind="trace_formula"),
                HeatRoute(kind="counting_fd", u_step=0.02, scheme="forward")),
        sign="bath_gain_positive", include_shifts_bloch_redfield=False, pairing_tol=1e-9,
        tcl_t_mem=25.0, tcl_dt=0.03)


def test_readme_schema_block_gives_defaults():
    # the README's schema block is the one other copy of the defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema.*?```json\n(.*?)```", readme, re.S).group(1)
    data = json.loads(block)
    assert config_from_dict(data) == SweepConfig()
    assert list(data) == list(dict.fromkeys(section or key
                                            for section, key in CONFIG_KEYS.values()))


def test_key_table_covers_every_field():
    assert list(CONFIG_KEYS) == [f.name for f in fields(SweepConfig)]
    assert len(set(CONFIG_KEYS.values())) == len(CONFIG_KEYS)


def test_shorthand_forms_normalize():
    cfg = config_from_dict({"mode": "steady", "heat_route": "trace_formula"})
    assert cfg.mode == "steady"
    assert cfg.routes == (HeatRoute(kind="trace_formula"),)


@pytest.mark.parametrize("data,fragment", [
    ({"methods": []}, "non-empty"),
    ({"methods": ["pauli"]}, "unknown method"),
    ({"methods": "bloch_redfield"}, "non-empty list"),
    ({"mode": {"kind": "adiabatic"}}, "mode.kind"),
    ({"mode": {"kind": "transient", "t_end": -1.0}}, "t_end"),
    ({"mode": {"kind": "transient", "dt": 0.0}}, "dt"),
    ({"heat_route": []}, "at least one"),
    ({"heat_route": {"kind": "counting_fd", "u_step": -0.1}}, "u_step"),
    ({"heat_route": {"kind": "counting_fd", "scheme": "midpoint"}}, "scheme"),
    ({"heat_route": {"kind": "counting_fd"}}, "transient"),
    ({"methods": ["tcl_oracle"],
      "mode": {"kind": "transient"},
      "heat_route": {"kind": "counting_fd"}}, "tcl_oracle"),
    ({"include_shifts": {"secular": True}}, "secular"),
    ({"include_shifts": {"bloch_redfield": 1}}, "boolean"),
    ({"sign": "cooling_positive"}, "sign"),
    ({"sweep": {"delta_steps": 0}}, "delta_steps"),
    ({"sweep": {"delta_steps": 2.5}}, "delta_steps"),
    ({"sweep": {"omega_list": []}}, "omega_list"),
    ({"sweep": {"omega_list": [-0.1]}}, "non-negative"),
    ({"sweep": {"delta_min": 1.0, "delta_max": -1.0}}, "delta_max"),
    ({"system": {"e_man": -2.0}}, "e_man"),
    ({"system": {"e_man": "two"}}, "number"),
    ({"bath": {"temperature": 0.0}}, "temperature"),
    ({"pairing_tol": -1e-9}, "pairing_tol"),
    ({"tcl": {"quad_points": 2}}, "quad_points"),
    ({"tcl": {"t_mem": 0.0}}, "positive"),
    ({"mode": {"kind": "transient", "t_end": 0.02, "dt": 0.05},
      "heat_route": {"kind": "counting_fd"}}, "mode.t_end"),
    ({"include_shifts": {"secular": False}}, "unknown key"),
    # json reads NaN and Infinity; they must not reach a computation
    (json.loads('{"pairing_tol": NaN}'), "pairing_tol must be a finite number or null"),
    (json.loads('{"bath": {"omega_c": Infinity}}'), "bath.omega_c must be a finite number"),
    ({"bath": {"alpha": math.nan}}, "bath.alpha must be a finite number"),
    ({"bath": {"temperature": math.inf}}, "bath.temperature must be a finite number"),
    ({"sweep": {"omega_list": [0.5, math.nan]}}, r"omega_list\[1\] must be a finite number"),
    ({"mode": {"kind": "transient"},
      "heat_route": {"kind": "counting_fd", "u_step": math.nan}}, "u_step must be a finite"),
    # integers beyond the float range, as json reads them
    ({"bath": {"alpha": 10**400}}, "bath.alpha must be a finite number"),
    ({"sweep": {"omega_list": [0.5, 10**400]}}, r"omega_list\[1\] must be a finite number"),
    ({"pairing_tol": 10**400}, "pairing_tol must be a finite number or null"),
    # steady mode's plateau is the frozen generator's null state: no horizon to set
    ({"tcl": {"t_end": 60.0}}, "unknown key"),
    # t_end / dt overflows to infinity: no step count on either route
    ({"mode": {"kind": "transient", "t_end": 1e300, "dt": 1e-300}},
     "mode.t_end / mode.dt = 1e[+]300 / 1e-300 overflows"),
    ({"mode": {"kind": "transient", "t_end": 1e300, "dt": 1e-300},
      "heat_route": {"kind": "counting_fd"}},
     "mode.t_end / mode.dt = 1e[+]300 / 1e-300 overflows"),
    # finite, but more steps than any array holds
    ({"mode": {"kind": "transient", "t_end": 1e300, "dt": 1.0}},
     "mode.t_end / mode.dt = 1e[+]300 / 1.0 overflows"),
    ({"mode": {"kind": "transient", "t_end": 1e300, "dt": 1.0},
      "heat_route": {"kind": "counting_fd"}},
     "mode.t_end / mode.dt = 1e[+]300 / 1.0 overflows"),
    # each end finite, their difference not: the detuning grid overflows
    ({"sweep": {"delta_min": -1e308, "delta_max": 1e308}},
     "sweep.delta_max - sweep.delta_min = 1e[+]308 - -1e[+]308 overflows"),
    ({"sweep": {"delta_min": -1e308, "delta_max": 1e308, "delta_steps": 1}},
     "sweep.delta_max - sweep.delta_min"),
    ({"sweep": {"delta_min": -10**308, "delta_max": 10**308}},
     "sweep.delta_max - sweep.delta_min"),
    # omega_c**2 below the smallest normal double: the spectral density's
    # alpha / omega_c**2 divided by zero (1e-300) or overflowed (1e-160)
    ({"bath": {"omega_c": 1e-300}}, "bath.omega_c must be at least 1.49e-154"),
    ({"bath": {"omega_c": 1e-160}}, "bath.omega_c must be at least 1.49e-154"),
    # a bool is not a number
    ({"bath": {"alpha": True}}, "bath.alpha must be a finite number"),
])
def test_validation_rejections(data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        config_from_dict(data)


def test_counting_route_allowed_in_transient_mode():
    cfg = config_from_dict({
        "mode": {"kind": "transient", "t_end": 30.0, "dt": 0.05},
        "heat_route": {"kind": "counting_fd", "u_step": 0.05, "scheme": "forward"},
    })
    assert cfg.routes[0] == HeatRoute(kind="counting_fd", u_step=0.05, scheme="forward")


def test_profiles_parse_and_pin_expected_settings():
    for name in PROFILES:
        cfg = profile_config(name)
        assert isinstance(cfg, SweepConfig)
        assert cfg.delta_steps == 81

    assert profile_config("paper-fig2") == SweepConfig()
    assert profile_config("paper-fig2a").omega_list == (0.01,)
    assert profile_config("paper-fig2b").omega_list == (0.1,)
    assert profile_config("paper-fig2c").omega_list == (0.5,)
    assert profile_config("paper-fig2d").omega_list == (1.0,)
    for name, omega in (("paper-fig3a", 0.5), ("paper-fig3b", 1.0)):
        cfg = profile_config(name)
        assert cfg.omega_list == (omega,)
        assert cfg.methods == ("bloch_redfield",)
        assert cfg.mode == "transient"
        assert cfg.t_end == 30.0 and cfg.dt == 0.05
        assert cfg.routes == (HeatRoute(kind="counting_fd", u_step=0.05,
                                        scheme="forward"),)


def test_unknown_profile_lists_available():
    with pytest.raises(ConfigError, match="paper-fig2a"):
        profile_config("fig9")


# NaN fails every comparison, so a check written as x < 0 lets it through;
# an infinity or a complex detuning or drive passes a sign check and fails
# only later, as a RuntimeWarning or an overflow
_TCL_POINT = {"spec": SystemSpec(e_man=2.0), "bath": BathSpec(alpha=0.01)}
_STACK = {"e_man": 2.0, "delta": np.zeros(2), "omega_rabi": np.ones(2)}
NAN_CASES = [
    (BathSpec, {"alpha": 0.01}, "alpha", math.nan),
    (BathSpec, {"alpha": 0.01}, "omega_c", math.nan),
    (BathSpec, {"alpha": 0.01}, "temperature", math.nan),
    (SystemSpec, {"e_man": 2.0}, "e_man", math.nan),
    (SystemSpec, {"e_man": 2.0}, "omega_rabi", math.nan),
    (SystemSpec, {"e_man": 2.0, "delta": np.zeros(2)}, "omega_rabi", np.array([0.5, math.nan])),
    (SystemSpec, {"e_man": 2.0}, "gamma_rad", math.nan),
    (TclPropagator, _TCL_POINT, "t_mem", math.nan),
    (TclPropagator, _TCL_POINT, "dt", math.nan),
    (BathSpec, {"alpha": 0.01}, "alpha", math.inf),
    (BathSpec, {"alpha": 0.01}, "omega_c", math.inf),
    (BathSpec, {"alpha": 0.01}, "temperature", math.inf),
    (SystemSpec, {"e_man": 2.0}, "e_man", math.inf),
    (SystemSpec, {"e_man": 2.0}, "delta", math.nan),
    (SystemSpec, {"e_man": 2.0}, "delta", -math.inf),
    (SystemSpec, {"e_man": 2.0}, "omega_rabi", math.inf),
    (SystemSpec, {"e_man": 2.0}, "gamma_rad", math.inf),
    (SystemSpec, {"e_man": 2.0}, "delta", 0.5j),
    (SystemSpec, {"e_man": 2.0}, "omega_rabi", 1.0 + 0.5j),
    (SystemSpec, _STACK, "delta", np.array([0.0, math.inf])),
    (SystemSpec, _STACK, "delta", np.array([0.0, 0.5j])),
    (SystemSpec, _STACK, "omega_rabi", np.array([1.0, math.inf])),
    (TclPropagator, _TCL_POINT, "t_mem", math.inf),
    (TclPropagator, _TCL_POINT, "dt", math.inf),
    (SystemSpec, {"e_man": 2.0}, "e_man", 2j),
    (SystemSpec, {"e_man": 2.0}, "gamma_rad", 0.5j),
    (BathSpec, {"alpha": 0.01}, "alpha", 0.01j),
    (BathSpec, {"alpha": 0.01}, "omega_c", 1j),
    (BathSpec, {"alpha": 0.01}, "temperature", 3j),
]
# an integer beyond the float range and a string fail by name too, not as an
# OverflowError or a TypeError from a comparison
NAN_CASES += [(cls, valid, field, bad) for cls, valid, fields_ in [
    (SystemSpec, {"e_man": 2.0}, ("e_man", "delta", "omega_rabi", "gamma_rad")),
    (BathSpec, {"alpha": 0.01}, ("alpha", "omega_c", "temperature")),
    (TclPropagator, _TCL_POINT, ("t_mem", "dt")),
] for field in fields_ for bad in (10**400, "2")]


@pytest.mark.parametrize("cls,valid,field,value", NAN_CASES,
                         ids=[f"{c.__name__}.{f}{'[]' if np.ndim(v) else ''}"
                              + ("-str" if isinstance(v, str) else
                                 "-huge" if isinstance(v, int) else
                                 "-complex" if np.iscomplexobj(v) else
                                 "-inf" if np.any(np.isinf(v)) else "")
                              for c, _, f, v in NAN_CASES])
def test_spec_constructors_reject_nan(cls, valid, field, value):
    cls(**valid)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        cls(**{**valid, field: value})
    if isinstance(value, int):
        # an integer a float can hold is in range; only TclPropagator's
        # tau grid refuses it, by its own message
        refused = pytest.raises(ValueError, match=f"^{field} = ")
        with refused if cls is TclPropagator else contextlib.nullcontext():
            cls(**{**valid, field: 10**308})


@pytest.mark.parametrize("field,value", [
    ("e_man", -2.0), ("gamma_rad", -0.5), ("omega_list", [0.5, -0.1]), ("alpha", -0.01),
    ("omega_c", 0.0), ("omega_c", 1e-300), ("temperature", 0.0),
])
def test_physical_ranges_are_the_specs(field, value):
    # config decides no physical range of its own: its message is the
    # spec's, with the JSON path in place of the spec's field name
    section, key = CONFIG_KEYS[field]
    with pytest.raises(ConfigError) as from_config:
        validate_config(replace(SweepConfig(), **{field: value}))
    spec_field = "omega_rabi" if field == "omega_list" else field
    cls, valid = (BathSpec, {"alpha": 0.01}) if section == "bath" else (SystemSpec, {"e_man": 2.0})
    with pytest.raises(ValueError) as from_spec:
        cls(**{**valid, spec_field: value})
    message = str(from_spec.value)
    assert message.startswith(f"{spec_field} must be")
    assert str(from_config.value) == f"{section}.{key}" + message[len(spec_field):]
    # an integer a float can hold is in range, read from JSON or set in code
    huge = [10**308] if field == "omega_list" else 10**308
    config_from_dict({section: {key: huge}})
    validate_config(replace(SweepConfig(), **{field: tuple(huge) if field == "omega_list" else huge}))
