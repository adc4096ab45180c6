"""Flat key=value run configuration.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` starting
a comment, no sections.  Schedules are breakpoint lists like
``bc_left = (0,5),(1,5),(2,-5),(3,5)`` (a bare number means a constant
schedule); time- and space-dependent inputs are Python expressions over a
small math namespace.  Every key has a per-mode default, so an empty file
runs the documented reference experiment of that mode.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError

MODES = ("pde", "ode-coupled", "ode-driven", "calibrate", "convergence")

# numpy ufuncs so expressions work over cell-center arrays as well as scalars
_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "where": np.where,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "pi": math.pi,
}


@dataclass(frozen=True)
class PiecewiseLinearSchedule:
    """Breakpoint list evaluated by linear interpolation.

    Evaluation is constant beyond the first/last breakpoint.
    """

    breakpoints: tuple

    def __post_init__(self):
        if len(self.breakpoints) < 1:
            raise ConfigError("schedule needs at least one breakpoint")
        times = [t for t, _ in self.breakpoints]
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ConfigError(f"schedule breakpoints must strictly increase: {times}")

    def __call__(self, t):
        ts = [p[0] for p in self.breakpoints]
        vs = [p[1] for p in self.breakpoints]
        return float(np.interp(t, ts, vs))


_PAIR_RE = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")


def parse_schedule(text):
    text = text.strip()
    if "(" not in text:
        try:
            value = float(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse schedule {text!r}") from exc
        return PiecewiseLinearSchedule(((0.0, value),))
    pairs = _PAIR_RE.findall(text)
    if not pairs:
        raise ConfigError(f"cannot parse schedule {text!r}")
    try:
        points = tuple((float(t), float(v)) for t, v in pairs)
    except ValueError as exc:
        raise ConfigError(f"cannot parse schedule {text!r}") from exc
    return PiecewiseLinearSchedule(points)


def _parse_float_list(text):
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    mode: str
    # material / fraction curve
    b: float = 1.0
    c_u: float = 2.94e-2
    c_f: float = 2.21e-2
    k_u: float = 1.51e-2
    k_f: float = 2.06e-2
    # closure
    closure: str = "eq"
    rate: float = 5.0
    b_bar: float = 0.01
    theta0: float = -5.0
    envelope: str = "three-condition"
    # discretization
    M: int = 100
    tau: float = 0.01
    T: float = 3.0
    face_average: str = "harmonic"
    # pde data
    bc_left: PiecewiseLinearSchedule = PiecewiseLinearSchedule(
        ((0.0, 5.0), (1.0, 5.0), (2.0, -5.0), (3.0, 5.0))
    )
    bc_right: PiecewiseLinearSchedule = PiecewiseLinearSchedule(((0.0, -5.0),))
    u_init: str = "-5"
    chi_init: str = "auto"
    source: str = "0"
    out_times: tuple = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    # scalar ode data
    a_coef: float = 0.02
    forcing: str = "auto"
    drive: str = "auto"
    # convergence sweep
    taus: tuple = (0.1, 0.01, 0.001)
    tau_fine: float = 1e-4
    out_dir: str = "out"


_MODE_DEFAULTS = {
    "pde": {},
    "ode-coupled": {
        "closure": "hyst",
        "b_bar": 0.1,
        "tau": 0.01,
        "T": 10.0,
        "u_init": "-0.2",
        "chi_init": "exp(-0.5)",
    },
    "ode-driven": {
        "closure": "hyst",
        "tau": 3.75e-2,
        "T": 30.0,
        "chi_init": "auto",
    },
    "calibrate": {"closure": "hyst"},
    "convergence": {
        "closure": "hyst",
        "b_bar": 0.1,
        "tau": 0.01,
        "T": 10.0,
        "u_init": "-0.2",
        "chi_init": "exp(-0.5)",
    },
}

_FLOAT_KEYS = {"b", "c_u", "c_f", "k_u", "k_f", "rate", "b_bar", "theta0", "tau", "T", "a_coef", "tau_fine"}
_INT_KEYS = {"M"}
_STR_KEYS = {"closure", "envelope", "face_average", "u_init", "chi_init", "source", "forcing", "drive", "out_dir", "mode"}
_SCHEDULE_KEYS = {"bc_left", "bc_right"}
_LIST_KEYS = {"out_times", "taus"}
_EXPR_KEYS = ("u_init", "chi_init", "source", "forcing", "drive")
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _SCHEDULE_KEYS | _LIST_KEYS


def parse_config_text(text):
    """Parse the raw key/value pairs of a config file body."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config(path, mode, overrides=None):
    """Build a RunConfig for ``mode`` from a file (optional) plus overrides."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = parse_config_text(handle.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "mode" in raw:
        if raw["mode"] != mode:
            raise ConfigError(f"config says mode {raw['mode']!r} but {mode!r} was requested")
        del raw["mode"]

    cfg = RunConfig(mode=mode)
    cfg = replace(cfg, **_MODE_DEFAULTS[mode])

    valid = {f.name for f in fields(RunConfig)}
    typed = {}
    for key, value in raw.items():
        if key not in valid:
            raise ConfigError(f"key {key!r} is not configurable")
        if key in _FLOAT_KEYS:
            try:
                typed[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from exc
        elif key in _INT_KEYS:
            try:
                typed[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from exc
        elif key in _SCHEDULE_KEYS:
            typed[key] = parse_schedule(value)
        elif key in _LIST_KEYS:
            typed[key] = _parse_float_list(value)
        else:
            typed[key] = value
    cfg = replace(cfg, **typed)
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    # a malformed expression fails here, before any step runs
    for key in _EXPR_KEYS:
        _compile_expression(getattr(cfg, key))
    return cfg


def _validate(cfg):
    if cfg.tau <= 0.0:
        raise ConfigError(f"tau must be positive, got {cfg.tau}")
    if cfg.T < cfg.tau:
        raise ConfigError(f"horizon T={cfg.T} is shorter than one step tau={cfg.tau}")
    if cfg.mode == "pde" and cfg.M < 2:
        raise ConfigError(f"pde mode needs M >= 2, got {cfg.M}")
    if cfg.closure not in ("eq", "neq", "hyst"):
        raise ConfigError(f"unknown closure {cfg.closure!r}")
    if cfg.envelope not in ("three-condition", "two-condition"):
        raise ConfigError(f"unknown envelope variant {cfg.envelope!r}")
    if cfg.face_average not in ("harmonic", "arithmetic"):
        raise ConfigError(f"unknown face averaging {cfg.face_average!r}")
    if cfg.mode == "convergence":
        if not cfg.taus:
            raise ConfigError("convergence mode needs a non-empty tau sweep")
        for tau in cfg.taus:
            ratio = tau / cfg.tau_fine
            if abs(ratio - round(ratio)) > 1e-9 * max(ratio, 1.0):
                raise ConfigError(
                    f"fine step {cfg.tau_fine} does not divide sweep step {tau}"
                )


@functools.lru_cache(maxsize=256)
def _compile_expression(expr):
    # eval() of a string strips leading blanks; compile() does not
    try:
        return compile(expr.lstrip(" \t"), "<config>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc


def eval_expression(expr, **names):
    """Evaluate a config expression over the math namespace plus ``names``.

    Each distinct expression is parsed once and its code object reused.
    """
    code = _compile_expression(expr)
    namespace = dict(_EXPR_NAMES)
    namespace.update(names)
    try:
        return eval(code, {"__builtins__": {}}, namespace)  # noqa: S307 - local config files
    except Exception as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
