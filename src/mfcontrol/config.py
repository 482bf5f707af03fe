"""Strict flat key-value configuration for experiment runs.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
are ignored.  Dotted keys select nested settings: `problem.*` overrides a
parameter of the chosen problem family, `grid.*` sets the discretization,
`sweep.*` configures the robustness sweep lattice.  Unknown keys are
rejected with a nearest-match suggestion, and so is a key set twice; type
mismatches report the offending line number.

Each key is declared once, on the `RunConfig` field it sets, with its kind
(str, int, float or bool) and, for counts, its lower bound.  Parsing, the
count checks and `RunConfig.to_items` all read those declarations.  The one
alias is `problem.kernel_subsample`, which for `cs2d` spells the run's
`kernel_subsample`.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from .nag import METHODS
from .problems import (
    CuckerSmaleParams,
    PortfolioParams,
    cs2d_grid,
    cs2d_problem,
    portfolio_grid,
    portfolio_problem,
)

_PROBLEMS = {
    "portfolio": (PortfolioParams, portfolio_problem, portfolio_grid),
    "cs2d": (CuckerSmaleParams, cs2d_problem, cs2d_grid),
}


def _key(key: str, kind: type, default=MISSING, lower: Optional[int] = None):
    """Field set by config `key`, parsed as `kind`; a count below `lower` is rejected."""
    return field(default=default, metadata={"key": key, "kind": kind, "lower": lower})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment settings; each field but the overrides is one key."""

    problem: str = _key("problem", str)
    method: str = _key("method", str, "fipde")
    cells: int = _key("grid.cells", int, 50, lower=1)
    time_steps: int = _key("grid.time_steps", int, 50, lower=1)
    particles: int = _key("particles", int, 10_000, lower=1)
    tau: float = _key("tau", float, 1.0 / 6.0)
    iterations: int = _key("iterations", int, 20, lower=0)
    seed: int = _key("seed", int, 0)
    eval_seed: int = _key("eval_seed", int, 1_000_003)
    output: str = _key("output", str, "out")
    dump_adjoint: bool = _key("dump_adjoint", bool, False)
    dump_trajectories: bool = _key("dump_trajectories", bool, False)
    kernel_subsample: Optional[int] = _key("kernel_subsample", int, None, lower=1)
    initial_policy: Optional[str] = _key("initial_policy", str, None)
    sweep_q_min_lo: float = _key("sweep.q_min_lo", float, 0.5)
    sweep_q_min_hi: float = _key("sweep.q_min_hi", float, 1.5)
    sweep_q_max_lo: float = _key("sweep.q_max_lo", float, 1.5)
    sweep_q_max_hi: float = _key("sweep.q_max_hi", float, 2.5)
    sweep_steps: int = _key("sweep.steps", int, 11, lower=1)
    sweep_iterations: int = _key("sweep.iterations", int, 8, lower=0)
    problem_overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.problem not in _PROBLEMS:
            known = ", ".join(sorted(_PROBLEMS))
            raise ConfigError(f"unknown problem {self.problem!r}; known: {known}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; known: {', '.join(METHODS)}")
        if self.dump_adjoint and self.method == "emreg":
            raise ConfigError("dump_adjoint writes the PDE adjoint; method emreg has none")
        for key, f in _KEYS.items():
            lower, value = f.metadata["lower"], getattr(self, f.name)
            if lower is not None and value is not None and value < lower:
                raise ConfigError(f"{key} must be at least {lower}, got {value!r}")
        # NaN fails every comparison, so it would pass `tau <= 0`
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau!r}")

    @property
    def sweep_q_min(self) -> Tuple[float, float]:
        """(lo, hi) range of the sweep's q_min axis."""
        return (self.sweep_q_min_lo, self.sweep_q_min_hi)

    @property
    def sweep_q_max(self) -> Tuple[float, float]:
        """(lo, hi) range of the sweep's q_max axis."""
        return (self.sweep_q_max_lo, self.sweep_q_max_hi)

    def problem_params(self):
        """Problem parameter dataclass with overrides applied."""
        # values were already coerced to the field types at parse time
        return replace(_PROBLEMS[self.problem][0](), **self.problem_overrides)

    def build(self):
        """(problem, grid) pair described by this configuration."""
        _, make_problem, make_grid = _PROBLEMS[self.problem]
        params = self.problem_params()
        problem = make_problem(params, kernel_subsample=self.kernel_subsample)
        grid = make_grid(params, cells=self.cells, time_steps=self.time_steps)
        return problem, grid

    def to_items(self) -> Dict[str, str]:
        """Flat key -> value-string mapping that re-parses to an equal config."""
        items = {
            key: _format(getattr(self, f.name), f.metadata["kind"])
            for key, f in _KEYS.items()
            if getattr(self, f.name) is not None
        }
        for name, value in sorted(self.problem_overrides.items()):
            items[f"problem.{name}"] = _format(value, float)
        return items


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


# config key -> the RunConfig field it sets, in field (and `to_items`) order
_KEYS = {f.metadata["key"]: f for f in fields(RunConfig) if "key" in f.metadata}


def _format(value, kind: type) -> str:
    if kind is bool:
        return "true" if value else "false"
    return repr(value) if kind is float else str(value)


def _convert(raw: str, kind: type, key: str, line: int):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            if "/" in raw:  # allow exact fractions like 1/6
                num, den = raw.split("/", 1)
                return float(num) / float(den)
            return float(raw)
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"line {line}: expected {kind.__name__} for key {key!r}, got {raw!r}"
        ) from None


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, known, n=1)
    return f"; closest known key: {close[0]!r}" if close else ""


def parse_items(items: List[Tuple[str, str, int]]) -> RunConfig:
    """Build a RunConfig from (key, value, line) triples."""
    values: Dict[str, object] = {}
    overrides: Dict[str, object] = {}
    problem_name = next((v.strip() for k, v, _ in items if k == "problem"), None)
    lines: Dict[str, int] = {}
    for key, _, line in items:
        if key in lines:
            raise ConfigError(f"line {line}: key {key!r} is already set on line {lines[key]}")
        lines[key] = line
    alias = None
    for key, raw, line in items:
        if key in _KEYS:
            f = _KEYS[key]
            values[f.name] = _convert(raw, f.metadata["kind"], key, line)
        elif key == "problem.kernel_subsample" and problem_name == "cs2d":
            # kernel_subsample as spelled while the Cucker-Smale drift had a
            # cap of its own; given both spellings, they must agree
            alias = _convert(raw, int, key, line)
            if alias < 1:
                raise ConfigError(f"line {line}: {key} must be a positive atom count")
        elif key.startswith("problem."):
            pname = key[len("problem."):]
            if problem_name is None or problem_name not in _PROBLEMS:
                raise ConfigError(
                    f"line {line}: problem overrides require a valid 'problem' key"
                )
            cls = _PROBLEMS[problem_name][0]
            valid = {f.name: f for f in fields(cls)}
            if pname not in valid:
                raise ConfigError(
                    f"line {line}: unknown parameter {key!r} for problem "
                    f"{problem_name!r}{_suggest(pname, valid)}"
                )
            default = getattr(cls(), pname)
            if isinstance(default, tuple):
                raise ConfigError(
                    f"line {line}: parameter {key!r} is not overridable from config"
                )
            overrides[pname] = _convert(raw, float, key, line)
        else:
            raise ConfigError(
                f"line {line}: unknown key {key!r}{_suggest(key, list(_KEYS))}"
            )

    if "problem" not in values:
        raise ConfigError("missing required key 'problem'")
    cap = values.setdefault("kernel_subsample", alias)
    if alias is not None and cap != alias:
        raise ConfigError(
            f"line {lines['kernel_subsample']}: kernel_subsample = {cap} and line "
            f"{lines['problem.kernel_subsample']}: problem.kernel_subsample = {alias} disagree"
        )

    return RunConfig(problem_overrides=overrides, **values)


def parse_config(path) -> RunConfig:
    """Parse a configuration file; see the module docstring for the format."""
    items: List[Tuple[str, str, int]] = []
    with open(path) as fh:
        for lineno, rawline in enumerate(fh, start=1):
            line = rawline.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            items.append((key.strip(), value.strip(), lineno))
    return parse_items(items)
