"""Sweep configuration: JSON schema, validation, canonical serialization.

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
from dataclasses import dataclass

MODES = ("steady", "transient")
ROUTE_KINDS = ("trace_formula", "counting_fd")
FD_SCHEMES = ("forward", "central")
SIGNS = ("absorption_positive", "bath_gain_positive")
CONFIG_METHODS = ("bloch_redfield", "secular", "phenomenological", "tcl_oracle")

DEFAULT_OMEGA_LIST = (0.01, 0.1, 0.5, 1.0)
DEFAULT_METHODS = ("bloch_redfield", "secular", "phenomenological")


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
    method when it is among the requested methods (in steady mode it
    propagates to tcl_t_end and reports the plateau there).
    """

    e_man: float = 2.0
    gamma_rad: float = 0.5
    alpha: float = 0.01
    omega_c: float = 1.0
    temperature: float = 3.0
    delta_min: float = -1.5
    delta_max: float = 1.5
    delta_steps: int = 81
    omega_list: tuple[float, ...] = DEFAULT_OMEGA_LIST
    methods: tuple[str, ...] = DEFAULT_METHODS
    mode: str = "steady"
    t_end: float = 30.0
    dt: float = 0.05
    routes: tuple[HeatRoute, ...] = (HeatRoute(kind="trace_formula"),)
    sign: str = "absorption_positive"
    include_shifts_bloch_redfield: bool = True
    pairing_tol: float | None = None
    tcl_t_mem: float = 30.0
    tcl_dt: float = 0.02
    tcl_quad_points: int = 2
    tcl_t_end: float = 60.0


def _key_line(raw_text: str | None, key: str) -> str:
    if raw_text is None:
        return ""
    token = f'"{key}"'
    pos = raw_text.find(token)
    if pos < 0:
        return ""
    return f" (line {raw_text.count(chr(10), 0, pos) + 1})"


def _reject_unknown(section: dict, allowed: set[str], where: str, raw_text: str | None):
    unknown = [k for k in section if k not in allowed]
    if unknown:
        notes = ", ".join(f"{k!r}{_key_line(raw_text, k)}" for k in sorted(unknown))
        raise ConfigError(f"unknown key(s) in {where}: {notes}")


def _number(section: dict, key: str, default, where: str):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _route_from(value, raw_text: str | None) -> HeatRoute:
    if isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        raise ConfigError(f"heat_route entries must be strings or objects, got {value!r}")
    _reject_unknown(value, {"kind", "u_step", "scheme"}, "heat_route", raw_text)
    kind = value.get("kind")
    if kind not in ROUTE_KINDS:
        raise ConfigError(f"heat_route.kind must be one of {ROUTE_KINDS}, got {kind!r}")
    u_step = _number(value, "u_step", 0.05, "heat_route")
    scheme = value.get("scheme", "central")
    if scheme not in FD_SCHEMES:
        raise ConfigError(f"heat_route.scheme must be one of {FD_SCHEMES}, got {scheme!r}")
    if kind == "counting_fd" and u_step <= 0:
        raise ConfigError(f"heat_route.u_step must be positive, got {u_step}")
    return HeatRoute(kind=kind, u_step=u_step, scheme=scheme)


def config_from_dict(data: dict, raw_text: str | None = None) -> SweepConfig:
    """Validate a decoded JSON object and normalize it to a SweepConfig."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
    _reject_unknown(
        data,
        {"system", "bath", "sweep", "methods", "mode", "heat_route", "sign",
         "include_shifts", "pairing_tol", "tcl"},
        "config", raw_text)

    system = data.get("system", {})
    if not isinstance(system, dict):
        raise ConfigError("'system' must be an object")
    _reject_unknown(system, {"e_man", "gamma_rad"}, "system", raw_text)
    e_man = _number(system, "e_man", 2.0, "system")
    gamma_rad = _number(system, "gamma_rad", 0.5, "system")

    bath = data.get("bath", {})
    if not isinstance(bath, dict):
        raise ConfigError("'bath' must be an object")
    _reject_unknown(bath, {"alpha", "omega_c", "temperature"}, "bath", raw_text)
    alpha = _number(bath, "alpha", 0.01, "bath")
    omega_c = _number(bath, "omega_c", 1.0, "bath")
    temperature = _number(bath, "temperature", 3.0, "bath")

    sweep = data.get("sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("'sweep' must be an object")
    _reject_unknown(sweep, {"delta_min", "delta_max", "delta_steps", "omega_list"},
                    "sweep", raw_text)
    delta_min = _number(sweep, "delta_min", -1.5, "sweep")
    delta_max = _number(sweep, "delta_max", 1.5, "sweep")
    delta_steps = sweep.get("delta_steps", 81)
    if isinstance(delta_steps, bool) or not isinstance(delta_steps, int):
        raise ConfigError(f"sweep.delta_steps must be an integer, got {delta_steps!r}")
    omega_list = sweep.get("omega_list", list(DEFAULT_OMEGA_LIST))
    if not isinstance(omega_list, list) or not omega_list:
        raise ConfigError("sweep.omega_list must be a non-empty list")
    for w in omega_list:
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise ConfigError(f"sweep.omega_list entries must be numbers, got {w!r}")

    methods = data.get("methods", list(DEFAULT_METHODS))
    if not isinstance(methods, list) or not methods:
        raise ConfigError("'methods' must be a non-empty list")
    for m in methods:
        if m not in CONFIG_METHODS:
            raise ConfigError(f"unknown method {m!r}; expected one of {CONFIG_METHODS}")

    mode_value = data.get("mode", {"kind": "steady"})
    if isinstance(mode_value, str):
        mode_value = {"kind": mode_value}
    if not isinstance(mode_value, dict):
        raise ConfigError("'mode' must be a string or object")
    _reject_unknown(mode_value, {"kind", "t_end", "dt"}, "mode", raw_text)
    mode = mode_value.get("kind", "steady")
    if mode not in MODES:
        raise ConfigError(f"mode.kind must be one of {MODES}, got {mode!r}")
    t_end = _number(mode_value, "t_end", 30.0, "mode")
    dt = _number(mode_value, "dt", 0.05, "mode")

    route_value = data.get("heat_route", {"kind": "trace_formula"})
    if not isinstance(route_value, list):
        route_value = [route_value]
    if not route_value:
        raise ConfigError("heat_route must name at least one route")
    routes = tuple(_route_from(v, raw_text) for v in route_value)

    sign = data.get("sign", "absorption_positive")

    shifts = data.get("include_shifts", {})
    if not isinstance(shifts, dict):
        raise ConfigError("'include_shifts' must be an object keyed by method")
    _reject_unknown(shifts, {"bloch_redfield", "secular"}, "include_shifts", raw_text)
    shifts_br = shifts.get("bloch_redfield", True)
    shifts_sec = shifts.get("secular", False)
    if not isinstance(shifts_br, bool) or not isinstance(shifts_sec, bool):
        raise ConfigError("include_shifts values must be booleans")
    if shifts_sec:
        raise ConfigError("include_shifts.secular is not supported; the secular "
                          "generator has no principal-value terms")

    pairing_tol = data.get("pairing_tol")
    if pairing_tol is not None:
        if isinstance(pairing_tol, bool) or not isinstance(pairing_tol, (int, float)):
            raise ConfigError(f"pairing_tol must be a number or null, got {pairing_tol!r}")
        pairing_tol = float(pairing_tol)

    tcl = data.get("tcl", {})
    if not isinstance(tcl, dict):
        raise ConfigError("'tcl' must be an object")
    _reject_unknown(tcl, {"t_mem", "dt", "quad_points", "t_end"}, "tcl", raw_text)
    tcl_t_mem = _number(tcl, "t_mem", 30.0, "tcl")
    tcl_dt = _number(tcl, "dt", 0.02, "tcl")
    tcl_quad_points = tcl.get("quad_points", 2)
    if isinstance(tcl_quad_points, bool) or not isinstance(tcl_quad_points, int):
        raise ConfigError(f"tcl.quad_points must be an integer, got {tcl_quad_points!r}")
    tcl_t_end = _number(tcl, "t_end", 60.0, "tcl")

    cfg = SweepConfig(
        e_man=e_man, gamma_rad=gamma_rad, alpha=alpha, omega_c=omega_c,
        temperature=temperature, delta_min=delta_min, delta_max=delta_max,
        delta_steps=delta_steps, omega_list=tuple(float(w) for w in omega_list),
        methods=tuple(methods), mode=mode, t_end=t_end, dt=dt, routes=routes,
        sign=sign,
        include_shifts_bloch_redfield=shifts_br,
        pairing_tol=pairing_tol, tcl_t_mem=tcl_t_mem, tcl_dt=tcl_dt,
        tcl_quad_points=tcl_quad_points, tcl_t_end=tcl_t_end)
    validate_config(cfg)
    return cfg


def validate_config(cfg: SweepConfig):
    """Cross-field checks shared by file parsing and programmatic configs."""
    if cfg.e_man <= 0:
        raise ConfigError(f"system.e_man must be positive, got {cfg.e_man}")
    if cfg.gamma_rad < 0:
        raise ConfigError(f"system.gamma_rad must be non-negative, got {cfg.gamma_rad}")
    if cfg.alpha < 0:
        raise ConfigError(f"bath.alpha must be non-negative, got {cfg.alpha}")
    if cfg.omega_c <= 0:
        raise ConfigError(f"bath.omega_c must be positive, got {cfg.omega_c}")
    if cfg.temperature <= 0:
        raise ConfigError(f"bath.temperature must be positive, got {cfg.temperature}")
    if cfg.delta_steps < 1:
        raise ConfigError(f"sweep.delta_steps must be at least 1, got {cfg.delta_steps}")
    if cfg.delta_steps > 1 and cfg.delta_max < cfg.delta_min:
        raise ConfigError("sweep.delta_max must not be below sweep.delta_min")
    if any(w < 0 for w in cfg.omega_list):
        raise ConfigError("sweep.omega_list entries must be non-negative")
    if cfg.mode == "transient":
        if cfg.t_end <= 0:
            raise ConfigError(f"mode.t_end must be positive, got {cfg.t_end}")
        if cfg.dt <= 0:
            raise ConfigError(f"mode.dt must be positive, got {cfg.dt}")
    if cfg.sign not in SIGNS:
        raise ConfigError(f"sign must be one of {SIGNS}, got {cfg.sign!r}")
    if cfg.pairing_tol is not None and cfg.pairing_tol <= 0:
        raise ConfigError(f"pairing_tol must be positive, got {cfg.pairing_tol}")
    if cfg.tcl_t_mem <= 0 or cfg.tcl_dt <= 0 or cfg.tcl_t_end <= 0:
        raise ConfigError("tcl.t_mem, tcl.dt and tcl.t_end must be positive")
    if cfg.tcl_quad_points < 2:
        raise ConfigError(f"tcl.quad_points must be at least 2, got {cfg.tcl_quad_points}")
    for route in cfg.routes:
        if route.kind == "counting_fd":
            if cfg.mode != "transient":
                raise ConfigError("counting_fd heat route requires transient mode; "
                                  "the annotated propagation has no steady state")
            if "tcl_oracle" in cfg.methods:
                raise ConfigError("counting_fd is not available for the tcl_oracle "
                                  "method; use trace_formula")
            if round(cfg.t_end / cfg.dt) < 1:
                raise ConfigError("counting_fd needs mode.t_end to span one step of mode.dt")


def parse_config(path: str) -> SweepConfig:
    """Read and validate a JSON config file.

    A missing file surfaces as FileNotFoundError; malformed JSON and
    schema violations raise ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw) if raw.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    return config_from_dict(data, raw_text=raw)


def serialize_config(cfg: SweepConfig) -> dict:
    """Canonical dict form; config_from_dict(serialize_config(c)) == c."""
    return {
        "system": {"e_man": cfg.e_man, "gamma_rad": cfg.gamma_rad},
        "bath": {"alpha": cfg.alpha, "omega_c": cfg.omega_c,
                 "temperature": cfg.temperature},
        "sweep": {"delta_min": cfg.delta_min, "delta_max": cfg.delta_max,
                  "delta_steps": cfg.delta_steps,
                  "omega_list": list(cfg.omega_list)},
        "methods": list(cfg.methods),
        "mode": {"kind": cfg.mode, "t_end": cfg.t_end, "dt": cfg.dt},
        "heat_route": [
            {"kind": r.kind, "u_step": r.u_step, "scheme": r.scheme}
            for r in cfg.routes
        ],
        "sign": cfg.sign,
        "include_shifts": {"bloch_redfield": cfg.include_shifts_bloch_redfield},
        "pairing_tol": cfg.pairing_tol,
        "tcl": {"t_mem": cfg.tcl_t_mem, "dt": cfg.tcl_dt,
                "quad_points": cfg.tcl_quad_points, "t_end": cfg.tcl_t_end},
    }


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
