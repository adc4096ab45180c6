"""Flat key=value run configuration.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` starting
a comment, no sections.  Schedules are breakpoint lists like
``bc_left = (0,5),(1,5),(2,-5),(3,5)`` (a bare number means a constant
schedule); time- and space-dependent inputs are Python expressions over a
small math namespace.  Every key has a per-mode default, so an empty file
runs the documented reference experiment of that mode.
"""

from __future__ import annotations

import ast
import functools
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

from .constitutive import calibrate_envelope
from .errors import ConfigError, DegenerateCalibration

MODES = ("pde", "ode-coupled", "ode-driven", "calibrate", "convergence")

# the math functions, with their argument counts: numpy's, so expressions work
# over cell-center arrays as well as scalars, and numpy's function of an array
# gives the bits of the same function of each element, so each has a block form
_EXPR_CALLS = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1, "sqrt": 1, "abs": 1,
    "where": 3, "minimum": 2, "maximum": 2,
}
_EXPR_NAMES = {**{name: getattr(np, name) for name in _EXPR_CALLS}, "pi": math.pi}
# the globals of every compiled expression, built once; an expression's own
# names are its parameters, so they shadow the math names and never outlive a call
_EXPR_GLOBALS = {"__builtins__": {}, **_EXPR_NAMES}


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
        # the interpolation arrays, built once; not fields, so not compared
        values = [v for _, v in self.breakpoints]
        object.__setattr__(self, "_times", np.array(times, dtype=float))
        object.__setattr__(self, "_values", np.array(values, dtype=float))

    def __call__(self, t):
        return float(np.interp(t, self._times, self._values))


_PAIR_RE = re.compile(r"\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)")
_SCHEDULE_RE = re.compile(rf"{_PAIR_RE.pattern}(\s*,\s*{_PAIR_RE.pattern})*")


def parse_schedule(text):
    """A bare number, or ``(t, v)`` pairs separated by single commas."""
    text = text.strip()
    try:
        if "(" not in text:
            return PiecewiseLinearSchedule(((0.0, float(text)),))
        if _SCHEDULE_RE.fullmatch(text):
            pairs = _PAIR_RE.findall(text)
            return PiecewiseLinearSchedule(tuple((float(t), float(v)) for t, v in pairs))
    except ValueError as exc:
        raise ConfigError(f"cannot parse schedule {text!r}") from exc
    raise ConfigError(f"cannot parse schedule {text!r}")


def _parse_float_list(text):
    """Empty text is the empty list; otherwise every comma-separated entry is a number."""
    if not text.strip():
        return ()
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """One run's resolved settings: the mode and every config key, by name.

    ``load_config`` builds it from these defaults with the mode's own laid
    over them, then the file's keys and the overrides, and validates it.
    """

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


# the convergence sweep runs the ode-coupled reference at several steps
_COUPLED_DEFAULTS = {
    "closure": "hyst",
    "b_bar": 0.1,
    "tau": 0.01,
    "T": 10.0,
    "u_init": "-0.2",
    "chi_init": "exp(-0.5)",
}

_MODE_DEFAULTS = {
    "pde": {},
    "ode-coupled": _COUPLED_DEFAULTS,
    "ode-driven": {"closure": "hyst", "tau": 3.75e-2, "T": 30.0},
    "calibrate": {"closure": "hyst"},
    "convergence": _COUPLED_DEFAULTS,
}

# each key's kind is the type of its RunConfig default; ``mode`` has none
# because the caller names the mode
_KINDS = {f.name: type(f.default) for f in fields(RunConfig) if f.name != "mode"}
# each expression key is a function of these names, besides the math names;
# ``auto`` is the built-in of the keys that have one, not an expression
_EXPR_KEY_NAMES = {
    "u_init": ("x",),
    "chi_init": ("x", "u0", "F"),
    "source": ("x", "t"),
    "forcing": ("t",),
    "drive": ("t",),
}
_AUTO_KEYS = ("chi_init", "forcing", "drive")


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
        if key not in _KINDS and key != "mode":
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
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if "mode" in raw:
        if raw["mode"] != mode:
            raise ConfigError(f"config says mode {raw['mode']!r} but {mode!r} was requested")
        del raw["mode"]

    cfg = RunConfig(mode=mode, **_MODE_DEFAULTS[mode])
    cfg = replace(cfg, **{key: _parse_value(key, value) for key, value in raw.items()})
    if overrides:
        cfg = replace(cfg, **overrides)
    _validate(cfg)
    _validate_expressions(cfg)
    return cfg


def _parse_value(key, text):
    kind = _KINDS[key]
    parse = {PiecewiseLinearSchedule: parse_schedule, tuple: _parse_float_list}.get(kind, kind)
    try:
        return parse(text)
    except ConfigError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: expected {noun}, got {text!r}") from exc


def _validate(cfg):
    _validate_finite(cfg)
    # calibrate runs no steps, and convergence takes its steps from taus and tau_fine
    if cfg.mode in ("pde", "ode-coupled", "ode-driven"):
        if cfg.tau <= 0.0:
            raise ConfigError(f"tau must be positive, got {cfg.tau}")
        if cfg.T < cfg.tau:
            raise ConfigError(f"horizon T={cfg.T} is shorter than one step tau={cfg.tau}")
    if cfg.mode == "pde" and cfg.M < 2:
        raise ConfigError(f"pde mode needs M >= 2, got {cfg.M}")
    # pde alone reads out_times; a run starts at t = 0, and a time past its end writes nothing
    if cfg.mode == "pde" and min(cfg.out_times, default=0.0) < 0.0:
        raise ConfigError(f"key 'out_times': output time {min(cfg.out_times)!r} is negative")
    if cfg.closure not in ("eq", "neq", "hyst"):
        raise ConfigError(f"unknown closure {cfg.closure!r}")
    if cfg.envelope not in ("three-condition", "two-condition"):
        raise ConfigError(f"unknown envelope variant {cfg.envelope!r}")
    _validate_laws(cfg)
    if cfg.face_average not in ("harmonic", "arithmetic"):
        raise ConfigError(f"key 'face_average': unknown face averaging {cfg.face_average!r}")
    if cfg.mode == "convergence":
        if not cfg.taus:
            raise ConfigError("key 'taus': convergence mode needs a non-empty tau sweep")
        if not cfg.tau_fine > 0.0:
            raise ConfigError(f"key 'tau_fine' must be positive, got {cfg.tau_fine!r}")
        strides = set()
        for tau in cfg.taus:
            if not tau > 0.0:
                raise ConfigError(f"key 'taus': sweep step {tau!r} is not positive")
            stride = whole_steps(tau, cfg.tau_fine, "sweep step")
            if stride < 2:
                raise ConfigError(
                    f"key 'taus': sweep step {tau!r} is not coarser than tau_fine {cfg.tau_fine!r}"
                )
            if stride in strides:
                raise ConfigError(f"key 'taus': sweep step {tau!r} is listed twice")
            strides.add(stride)
            if cfg.T < tau:
                raise ConfigError(f"horizon T={cfg.T} is shorter than one sweep step {tau}")
            whole_steps(cfg.T, tau, "horizon T")


def whole_steps(span, tau, what):
    """How many steps ``tau`` make up ``span``, to within 1e-9 relative.

    A span that is not a whole number of steps is a config error naming ``what``.
    """
    steps = span / tau
    if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
        raise ConfigError(f"{what} {span} is not a whole number of steps {tau}")
    return round(steps)


def _validate_finite(cfg):
    # every number a key holds, whether or not the mode reads it: a float,
    # each entry of a number list, each breakpoint of a schedule
    for key, kind in _KINDS.items():
        value = getattr(cfg, key)
        if kind is PiecewiseLinearSchedule:
            numbers = [number for point in value.breakpoints for number in point]
        elif kind is tuple:
            numbers = value
        elif kind is float:
            numbers = (value,)
        else:
            continue
        for number in numbers:
            if not math.isfinite(number):
                raise ConfigError(f"key {key!r} must be finite, got {number!r}")


def _validate_expressions(cfg):
    # every expression key, whether or not the mode reads it: a malformed
    # expression, or one naming what its key does not bind, fails here, before
    # any step runs; each is compiled with its key's names, as the run uses it
    for key, names in _EXPR_KEY_NAMES.items():
        expr = getattr(cfg, key)
        if expr == "auto" and key in _AUTO_KEYS:
            continue
        try:
            for node in ast.walk(_compile_expression(expr)):
                if isinstance(node, ast.Name) and node.id not in names and node.id not in _EXPR_NAMES:
                    raise ConfigError(
                        f"expression {expr!r} uses unknown name {node.id!r}; "
                        f"it may use {', '.join(names)} and the math names"
                    )
        except ConfigError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
        expression_function(expr, names)


def _validate_laws(cfg):
    # only the keys the mode reads: pde alone reads the capacities and
    # conductivities, and ode-driven and calibrate always read the envelope
    positive = ["b"]
    if cfg.mode == "pde":
        positive += ["c_u", "c_f", "k_u", "k_f"]
    closure = cfg.closure if cfg.mode in ("pde", "ode-coupled", "convergence") else "hyst"
    if closure == "neq":
        positive.append("rate")
    elif closure == "hyst":
        positive.append("b_bar")
    for key in positive:
        value = getattr(cfg, key)
        if not value > 0.0:
            raise ConfigError(f"key {key!r} must be positive, got {value!r}")
    if closure == "hyst":
        if not cfg.theta0 < 0.0:
            raise ConfigError(f"key 'theta0' must be negative, got {cfg.theta0!r}")
        try:
            calibrate_envelope(cfg.b, cfg.b_bar, cfg.theta0, cfg.envelope)
        except DegenerateCalibration as exc:
            raise ConfigError(f"keys 'b_bar' and 'theta0' calibrate no envelope: {exc}") from exc
    # the coupled scalar system's stiffness; with a >= 0 its Newton slope is at least 1
    if cfg.mode in ("ode-coupled", "convergence") and not cfg.a_coef >= 0.0:
        raise ConfigError(f"key 'a_coef' must be non-negative, got {cfg.a_coef!r}")


# the syntax an expression may use: no attribute, subscript, lambda, comprehension, assignment,
# unpacking or text, which could reach past the namespace, and no operator a float cannot take
_EXPR_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Call, ast.IfExp, ast.BinOp, ast.UnaryOp,
    ast.BoolOp, ast.Compare, ast.boolop, ast.cmpop,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.UAdd, ast.USub, ast.Not,
)


def _syntax_name(node):
    # what an expression may not use, as its text: a bare operator unparses
    # to nothing, so it is unparsed between blank operands
    if isinstance(node, ast.unaryop):
        return "the operator " + ast.unparse(ast.UnaryOp(node, ast.Name(""))).strip()
    if isinstance(node, ast.operator):
        return "the operator " + ast.unparse(ast.BinOp(ast.Name(""), node, ast.Name(""))).strip()
    return f"{type(node).__name__} {ast.unparse(node)}"


@functools.lru_cache(maxsize=256)
def _compile_expression(expr):
    # the checked tree, float-valued: each constant an int or float literal made
    # a float, each truth value a condition, and each part that uses no name
    # evaluated once, so 10**400 fails here, not at a step; eval() of a string
    # strips leading blanks, ast.parse() does not
    try:
        tree = ast.parse(expr.lstrip(" \t"), "<config>", "eval")
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse expression {expr!r}: {exc}") from exc
    for node in ast.walk(tree):
        other = isinstance(node, ast.Constant) and type(node.value) not in (int, float)
        if other or not isinstance(node, _EXPR_NODES) or getattr(node, "id", "").startswith("_"):
            raise ConfigError(f"expression {expr!r} may not use {_syntax_name(node)}")
    conditions = set()  # the nodes whose value is read as a truth value
    for node in ast.walk(tree):  # each node after its parent
        name = getattr(getattr(node, "func", None), "id", None)
        if name in _EXPR_CALLS and len(node.args) != _EXPR_CALLS[name]:
            raise ConfigError(
                f"expression {expr!r} calls {name} with {len(node.args)} arguments; "
                f"it takes {_EXPR_CALLS[name]}"
            )
        # a truth value (a comparison, not, and, or) may only be read as a condition:
        # an if's test, where's first argument, an operand of not, and or or, or a
        # branch of an if read as a condition
        op = getattr(node, "op", None)
        if isinstance(node, (ast.Compare, ast.BoolOp)) or isinstance(op, ast.Not):
            if node not in conditions:
                text = ast.unparse(node)
                raise ConfigError(
                    f"expression {expr!r} uses the truth value {text} as a number; "
                    f"write it as a condition, such as 1.0 if {text} else 0.0"
                )
        if isinstance(node, ast.IfExp):
            branches = [node.body, node.orelse] if node in conditions else []
            conditions.update([node.test, *branches])
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "where":
            conditions.add(node.args[0])
        elif isinstance(node, ast.BoolOp) or isinstance(op, ast.Not):
            conditions.update(ast.iter_child_nodes(node))
    try:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                node.value = float(node.value)
        for node in ast.walk(tree.body):
            if isinstance(node, ast.expr) and not any(isinstance(n, ast.Name) for n in ast.walk(node)):
                code = compile(ast.Expression(node), "<config>", "eval")
                eval(code, {"__builtins__": {}})  # noqa: S307 - numbers only
    except (ArithmeticError, TypeError) as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    return tree


def _lambda(names, body):
    # ``lambda <names>: <body>`` over the math namespace
    args = [ast.arg(name) for name in names]
    params = ast.arguments(posonlyargs=[], args=args, kwonlyargs=[], kw_defaults=[], defaults=[])
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, body)))
    return eval(compile(tree, "<config>", "eval"), _EXPR_GLOBALS)  # noqa: S307 - local config files


@functools.lru_cache(maxsize=256)
def expression_function(expr, names):
    """The config expression ``expr`` as a function of ``names``, in order.

    The checked expression is compiled once, as ``lambda <names>: <expr>``
    over the math namespace, so each evaluation is one call.  The names are
    its parameters: they shadow the math names and never outlive a call.  A
    call that raises, or whose value is complex (such as a negative number
    to a fractional power), is a config error.
    """
    fn = _lambda(names, _compile_expression(expr).body)

    def evaluate(*args):
        try:
            value = fn(*args)
        except Exception as exc:
            raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
        if isinstance(value, complex):
            raise ConfigError(f"expression {expr!r} is not real: {value!r}")
        return value

    return evaluate


def eval_expression(expr, **names):
    """Evaluate a config expression over the math namespace plus ``names``."""
    return expression_function(expr, tuple(names))(*names.values())


_BLOCK_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub,
              ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _block_node(node):
    """The checked, float-valued ``node`` over an array of times.

    Only numbers, ``t``, ``pi``, ``+ - * /``, unary ``-``, comparisons with
    one operator, ``if ... else`` (as ``where``) and calls of the namespace's
    functions have a block form; anything else raises ValueError.  Numpy's
    ``**`` and ``%`` need not round as Python's do, and ``and``, ``or``,
    ``not`` and chained comparisons do not work on arrays.
    """
    if isinstance(node, ast.Constant) or (isinstance(node, ast.Name) and node.id in ("t", "pi")):
        return node
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return ast.UnaryOp(node.op, _block_node(node.operand))
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BLOCK_OPS):
        return ast.BinOp(_block_node(node.left), node.op, _block_node(node.right))
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], _BLOCK_OPS):
        return ast.Compare(_block_node(node.left), node.ops, [_block_node(node.comparators[0])])
    if isinstance(node, ast.IfExp):
        parts = [_block_node(part) for part in (node.test, node.body, node.orelse)]
        return ast.Call(ast.Name("where", ast.Load()), parts, [])
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") in _EXPR_CALLS:
        return ast.Call(node.func, [_block_node(arg) for arg in node.args], [])
    raise ValueError(ast.unparse(node))


@functools.lru_cache(maxsize=256)
def expression_block(expr):
    """The time expression ``expr`` over an array of times, or None if it has no block form.

    The checked expression is compiled once, as ``lambda t: <expr>`` with
    each ``a if c else b`` rewritten as ``where(c, a, b)`` (see
    ``_block_node`` for the syntax that has a block form).  The returned
    function gives the float value at every time of an array, each with the
    bits of ``float(expression_function(expr, ("t",))(t))``.  It returns None
    instead, and the block must be evaluated step by step, when the block
    raises, divides by zero, overflows, makes an invalid value or gives a
    value that is not finite: each of those may raise, warn or fail at its
    own step when evaluated step by step.
    """
    try:
        body = _block_node(_compile_expression(expr).body)
    except ValueError:
        return None
    fn = _lambda(("t",), body)

    def evaluate(times):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                values = np.asarray(fn(times), dtype=float)
        except Exception:
            return None
        if not np.isfinite(values).all():
            return None
        return np.broadcast_to(values, times.shape)

    return evaluate


# time steps whose forcing or drive is sampled together: one block form
# evaluation per block, and in ode-driven one evaluation of both curves
BLOCK_STEPS = 1024


def step_times(start, stop, tau, stride=1):
    """The times n*tau of steps n = start, start + stride, ... below stop.

    Each is ``float(n)*tau``, the bits of ``n*tau``; the array is scaled in
    place, so no second array of its length is made.
    """
    times = np.arange(start, stop, stride, dtype=float)
    times *= tau
    return times


def sample_times(function, times):
    """``function`` of time at each of ``times``, as an iterable of floats.

    A vectorized function (one whose ``vectorized`` is true) is called once
    over the whole array.  Any other function is called once per time,
    lazily as the values are consumed, so a failing call surfaces at its own
    step; ``float`` is applied by ``map`` too, so no Python frame but the
    function's own runs per time.
    """
    if getattr(function, "vectorized", False):
        return function(times)
    return map(float, map(function, times.tolist()))
