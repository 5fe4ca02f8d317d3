"""Sweep configuration: JSON schema, validation, reproduction profiles.

A config describes a grid of (detuning, drive strength) points, the
methods to run at each point, how to reach the state of interest (steady
state or transient propagation), and which heat measurement routes to
record.  Unknown keys are rejected with the line they appear on; absent
keys fall back to the shipped defaults, which reproduce the standard
parameter set (manifold splitting 2, radiative rate 0.5, coupling 0.01,
cutoff 1, temperature 3, an 81-point detuning grid over [-1.5, 1.5], and
the four drive strengths 0.01, 0.1, 0.5, 1.0).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields

from .bath import BathSpec
from .system import SystemSpec, check_finite, is_finite_real

MODES = ("steady", "transient")
ROUTE_KINDS = ("trace_formula", "counting_fd")
FD_SCHEMES = ("forward", "central")
SIGNS = ("absorption_positive", "bath_gain_positive")
CONFIG_METHODS = ("bloch_redfield", "secular", "phenomenological", "tcl_oracle")


class ConfigError(ValueError):
    """Malformed or inconsistent sweep configuration."""


@dataclass(frozen=True)
class HeatRoute:
    """One heat measurement route; u_step and scheme apply to counting_fd only."""

    kind: str
    u_step: float = 0.05
    scheme: str = "central"


@dataclass(frozen=True)
class SweepConfig:
    """Validated, normalized sweep description.

    delta and omega_rabi vary over the grid; everything else is shared by
    all points.  tcl_* fields configure the finite-memory validation
    method when it is among the requested methods (in steady mode its
    plateau is the null state of its generator, frozen past tcl_t_mem).
    """

    e_man: float = 2.0
    gamma_rad: float = 0.5
    alpha: float = 0.01
    omega_c: float = 1.0
    temperature: float = 3.0
    delta_min: float = -1.5
    delta_max: float = 1.5
    delta_steps: int = 81
    omega_list: tuple[float, ...] = (0.01, 0.1, 0.5, 1.0)
    methods: tuple[str, ...] = ("bloch_redfield", "secular", "phenomenological")
    mode: str = "steady"
    t_end: float = 30.0
    dt: float = 0.05
    routes: tuple[HeatRoute, ...] = (HeatRoute(kind="trace_formula"),)
    sign: str = "absorption_positive"
    include_shifts_bloch_redfield: bool = True
    pairing_tol: float | None = None
    tcl_t_mem: float = 30.0
    tcl_dt: float = 0.02


# JSON location (section, key) of every SweepConfig field, in field order;
# section None is the top level.  Parsing, type checks and message paths
# all follow this table.
CONFIG_KEYS: dict[str, tuple[str | None, str]] = {
    "e_man": ("system", "e_man"),
    "gamma_rad": ("system", "gamma_rad"),
    "alpha": ("bath", "alpha"),
    "omega_c": ("bath", "omega_c"),
    "temperature": ("bath", "temperature"),
    "delta_min": ("sweep", "delta_min"),
    "delta_max": ("sweep", "delta_max"),
    "delta_steps": ("sweep", "delta_steps"),
    "omega_list": ("sweep", "omega_list"),
    "methods": (None, "methods"),
    "mode": ("mode", "kind"),
    "t_end": ("mode", "t_end"),
    "dt": ("mode", "dt"),
    "routes": (None, "heat_route"),
    "sign": (None, "sign"),
    "include_shifts_bloch_redfield": ("include_shifts", "bloch_redfield"),
    "pairing_tol": (None, "pairing_tol"),
    "tcl_t_mem": ("tcl", "t_mem"),
    "tcl_dt": ("tcl", "dt"),
}

# settings that must be positive (when set); transient mode adds mode.t_end and mode.dt
_POSITIVE = ("pairing_tol", "tcl_t_mem", "tcl_dt")


# JSON values accepted for a field, by the type of its default: (description
# for messages, test).  No field takes json's NaN, Infinity or huge integers
_TYPES = {
    float: ("a finite number", is_finite_real),
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    type(None): ("a finite number or null", lambda v: v is None or is_finite_real(v)),
    tuple: ("a non-empty list (at least one entry)",
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0),
}


def _check_field_type(where: str, value, default):
    """Raise ConfigError unless _TYPES accepts value, entry by entry, for this default."""
    if isinstance(default, HeatRoute):
        if not isinstance(value, HeatRoute):
            raise ConfigError(f"{where} must be a HeatRoute, got {value!r}")
        for f in fields(HeatRoute):
            _check_field_type(f"{where}.{f.name}", getattr(value, f.name), f.default)
        return
    description, accepts = _TYPES.get(type(default), (None, None))
    if accepts is not None and not accepts(value):
        raise ConfigError(f"{where} must be {description}, got {value!r}")
    if isinstance(default, tuple):
        for i, v in enumerate(value):
            _check_field_type(f"{where}[{i}]", v, default[0])


# dotted JSON path of every field (and of SystemSpec's omega_rabi), as used in messages
_PATHS = {name: key if section is None else f"{section}.{key}"
          for name, (section, key) in CONFIG_KEYS.items()}
_PATHS["omega_rabi"] = _PATHS["omega_list"]


def _key_line(raw_text: str | None, key: str, section: str | None) -> str:
    """Line of key's first token after its section's own key token, or ''."""
    if raw_text is None:
        return ""
    start = 0 if section is None else max(raw_text.find(f'"{section}"'), 0)
    pos = raw_text.find(f'"{key}"', start)
    if pos < 0:
        return ""
    return f" (line {raw_text.count(chr(10), 0, pos) + 1})"


def _reject_unknown(section: dict, allowed: set[str], where: str, raw_text: str | None):
    unknown = [k for k in section if k not in allowed]
    if unknown:
        # where is "config" for the root, else a path whose first part is
        # the section's top-level key ("sweep", "heat_route[1]")
        anchor = None if where == "config" else where.partition("[")[0]
        notes = ", ".join(f"{k!r}{_key_line(raw_text, k, anchor)}" for k in sorted(unknown))
        raise ConfigError(f"unknown key(s) in {where}: {notes}")


def _value(where: str, value, default, raw_text: str | None):
    """Convert a JSON value to the form of the field's default.

    Lists become tuples of entries read against the default's first entry,
    and numbers become floats where the default is a float or None.
    Anything else passes through unchanged: validate_config type-checks.
    """
    if isinstance(default, HeatRoute):
        return _route_from(where, value, raw_text)
    if isinstance(default, tuple) and isinstance(value, (list, tuple)):
        return tuple(_value(f"{where}[{i}]", v, default[0], raw_text)
                     for i, v in enumerate(value))
    if (isinstance(default, float) or default is None) and is_finite_real(value):
        return float(value)
    return value


def _read(where: str, obj, keys: dict[str, str], defaults: dict, raw_text: str | None) -> dict:
    """Values of one JSON object by field name; keys maps field names to JSON keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    _reject_unknown(obj, set(keys.values()), where, raw_text)
    return {name: _value(f"{where}.{key}", obj[key], defaults[name], raw_text)
            for name, key in keys.items() if key in obj}


def _route_from(where: str, value, raw_text: str | None) -> HeatRoute:
    if isinstance(value, str):
        value = {"kind": value}
    names = {f.name: f.name for f in fields(HeatRoute)}
    given = _read(where, value, names, {f.name: f.default for f in fields(HeatRoute)}, raw_text)
    # kind has no default; a missing one is reported by validate_config
    return HeatRoute(**{"kind": None, **given})


def config_from_dict(data: dict, raw_text: str | None = None) -> SweepConfig:
    """Validate a decoded JSON object and normalize it to a SweepConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    _reject_unknown(data, {section or key for section, key in CONFIG_KEYS.values()},
                    "config", raw_text)
    # shorthand forms: "mode": "transient", and a single heat route
    mode, kind = CONFIG_KEYS["mode"]
    if isinstance(data.get(mode), str):
        data = {**data, mode: {kind: data[mode]}}
    _, routes = CONFIG_KEYS["routes"]
    if not isinstance(data.get(routes, []), list):
        data = {**data, routes: [data[routes]]}

    defaults = vars(SweepConfig())
    values = {}
    for section in dict.fromkeys(s for s, _ in CONFIG_KEYS.values()):
        keys = {name: key for name, (s, key) in CONFIG_KEYS.items() if s == section}
        if section is None:
            values.update({name: _value(key, data[key], defaults[name], raw_text)
                           for name, key in keys.items() if key in data})
        else:
            values.update(_read(section, data.get(section, {}), keys, defaults, raw_text))
    cfg = SweepConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: SweepConfig):
    """Type, value and cross-field checks shared by file parsing and programmatic configs.

    Ranges are SystemSpec's, BathSpec's and check_finite's: a ValueError
    from them is raised as a ConfigError at the field's JSON path.
    """
    for name, default in vars(SweepConfig()).items():
        _check_field_type(_PATHS[name], getattr(cfg, name), default)
    routes = [(f"{_PATHS['routes']}[{i}]", route) for i, route in enumerate(cfg.routes)]
    choices = [(_PATHS["mode"], cfg.mode, MODES), (_PATHS["sign"], cfg.sign, SIGNS)]
    choices += [(f"{_PATHS['methods']}[{i}]", method, CONFIG_METHODS)
                for i, method in enumerate(cfg.methods)]
    choices += [(f"{where}.{field}", getattr(route, field), allowed) for where, route in routes
                for field, allowed in (("kind", ROUTE_KINDS), ("scheme", FD_SCHEMES))]
    for where, value, allowed in choices:
        if value not in allowed:
            raise ConfigError(f"unknown {where} {value!r}; expected one of {allowed}")
    transient = ("t_end", "dt") if cfg.mode == "transient" else ()
    try:
        SystemSpec(cfg.e_man, gamma_rad=cfg.gamma_rad, omega_rabi=list(cfg.omega_list))
        BathSpec(cfg.alpha, cfg.omega_c, cfg.temperature)
        for name in _POSITIVE + transient:
            if getattr(cfg, name) is not None:
                check_finite(name, getattr(cfg, name), "positive")
    except ValueError as exc:
        # each message starts with the field's name
        name, _, rest = str(exc).partition(" ")
        raise ConfigError(f"{_PATHS[name]} {rest}") from None
    if transient and not cfg.t_end / cfg.dt < sys.maxsize:
        raise ConfigError(f"{_PATHS['t_end']} / {_PATHS['dt']} = {cfg.t_end} / {cfg.dt} "
                          f"overflows; the number of steps must be below {sys.maxsize}")
    if cfg.delta_steps < 1:
        raise ConfigError(f"{_PATHS['delta_steps']} must be at least 1, got {cfg.delta_steps}")
    if cfg.delta_steps > 1 and cfg.delta_max < cfg.delta_min:
        raise ConfigError(f"{_PATHS['delta_max']} must not be below {_PATHS['delta_min']}")
    # the span in floats, as np.linspace forms it (integer ends may exceed any float)
    if not math.isfinite(float(cfg.delta_max) - float(cfg.delta_min)):
        raise ConfigError(f"{_PATHS['delta_max']} - {_PATHS['delta_min']} = "
                          f"{cfg.delta_max:g} - {cfg.delta_min:g} overflows")
    for where, route in routes:
        if route.kind != "counting_fd":
            continue
        if route.u_step <= 0:
            raise ConfigError(f"{where}.u_step must be positive, got {route.u_step}")
        if cfg.mode != "transient":
            raise ConfigError("counting_fd heat route requires transient mode; "
                              "the annotated propagation has no steady state")
        if "tcl_oracle" in cfg.methods:
            raise ConfigError("counting_fd is not available for the tcl_oracle "
                              "method; use trace_formula")
        if round(cfg.t_end / cfg.dt) < 1:
            raise ConfigError(f"counting_fd needs {_PATHS['t_end']} to span one step "
                              f"of {_PATHS['dt']}")


def parse_config(path: str) -> SweepConfig:
    """Read and validate a JSON config file.

    A missing file surfaces as FileNotFoundError; text that is not UTF-8,
    malformed or too deeply nested JSON, and schema violations raise
    ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = fh.read()
            data = json.loads(raw) if raw.strip() else {}
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError, a 4300-digit integer
            raise ConfigError(f"malformed JSON in {path}: {exc}") from None
        except RecursionError:
            raise ConfigError(f"malformed JSON in {path}: nested too deeply to read") from None
    return config_from_dict(data, raw_text=raw)


# reproduction profiles: the shipped default grid with the drive strength,
# methods, mode and route pinned per figure panel
PROFILES: dict[str, dict] = {
    "paper-fig2": {},
    "paper-fig2a": {"sweep": {"omega_list": [0.01]}},
    "paper-fig2b": {"sweep": {"omega_list": [0.1]}},
    "paper-fig2c": {"sweep": {"omega_list": [0.5]}},
    "paper-fig2d": {"sweep": {"omega_list": [1.0]}},
    "paper-fig3a": {
        "sweep": {"omega_list": [0.5]},
        "methods": ["bloch_redfield"],
        "mode": {"kind": "transient", "t_end": 30.0, "dt": 0.05},
        "heat_route": {"kind": "counting_fd", "u_step": 0.05, "scheme": "forward"},
    },
    "paper-fig3b": {
        "sweep": {"omega_list": [1.0]},
        "methods": ["bloch_redfield"],
        "mode": {"kind": "transient", "t_end": 30.0, "dt": 0.05},
        "heat_route": {"kind": "counting_fd", "u_step": 0.05, "scheme": "forward"},
    },
}


def profile_config(name: str) -> SweepConfig:
    """Configuration of a named reproduction profile."""
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown profile {name!r}; available: {known}")
    return config_from_dict(json.loads(json.dumps(PROFILES[name])))
