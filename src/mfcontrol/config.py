"""Strict flat key-value configuration for experiment runs.

Format: one `key = value` pair per line, `#` starts a comment, blank lines
are ignored.  Dotted keys select nested settings: `problem.*` overrides a
parameter of the chosen problem family, `grid.*` sets the discretization,
`sweep.*` configures the robustness sweep lattice.  Unknown keys are
rejected with a nearest-match suggestion; type mismatches report the
offending line number.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field, fields, replace
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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment settings."""

    problem: str
    method: str = "fipde"
    cells: int = 50
    time_steps: int = 50
    particles: int = 10_000
    tau: float = 1.0 / 6.0
    iterations: int = 20
    seed: int = 0
    eval_seed: int = 1_000_003
    output: str = "out"
    dump_adjoint: bool = False
    dump_trajectories: bool = False
    kernel_subsample: Optional[int] = None
    momentum_cap: Optional[float] = None
    initial_policy: Optional[str] = None
    sweep_q_min: Tuple[float, float] = (0.5, 1.5)
    sweep_q_max: Tuple[float, float] = (1.5, 2.5)
    sweep_steps: int = 11
    sweep_iterations: int = 8
    problem_overrides: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.problem not in _PROBLEMS:
            known = ", ".join(sorted(_PROBLEMS))
            raise ConfigError(f"unknown problem {self.problem!r}; known: {known}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; known: {', '.join(METHODS)}")
        if self.dump_adjoint and self.method == "emreg":
            raise ConfigError("dump_adjoint writes the PDE adjoint; method emreg has none")
        for name, value in (
            ("cells", self.cells),
            ("time_steps", self.time_steps),
            ("particles", self.particles),
            ("iterations", self.iterations + 1),  # 0 iterations is allowed
        ):
            if value < 1:
                raise ConfigError(f"{name} must be positive")
        # NaN fails every comparison, so it would pass `tau <= 0`
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"tau must be positive and finite, got {self.tau!r}")
        if self.momentum_cap is not None and math.isnan(self.momentum_cap):
            raise ConfigError("momentum_cap must be a number, got nan")
        if self.kernel_subsample is not None and self.kernel_subsample < 1:
            raise ConfigError("kernel_subsample must be a positive atom count")
        if self.sweep_steps < 1:
            raise ConfigError("sweep.steps must be positive")

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
        items: Dict[str, str] = {"problem": self.problem, "method": self.method}
        items["grid.cells"] = str(self.cells)
        items["grid.time_steps"] = str(self.time_steps)
        items["particles"] = str(self.particles)
        items["tau"] = repr(self.tau)
        items["iterations"] = str(self.iterations)
        items["seed"] = str(self.seed)
        items["eval_seed"] = str(self.eval_seed)
        items["output"] = self.output
        items["dump_adjoint"] = "true" if self.dump_adjoint else "false"
        items["dump_trajectories"] = "true" if self.dump_trajectories else "false"
        if self.kernel_subsample is not None:
            items["kernel_subsample"] = str(self.kernel_subsample)
        if self.momentum_cap is not None:
            items["momentum_cap"] = repr(self.momentum_cap)
        if self.initial_policy is not None:
            items["initial_policy"] = self.initial_policy
        items["sweep.q_min_lo"] = repr(self.sweep_q_min[0])
        items["sweep.q_min_hi"] = repr(self.sweep_q_min[1])
        items["sweep.q_max_lo"] = repr(self.sweep_q_max[0])
        items["sweep.q_max_hi"] = repr(self.sweep_q_max[1])
        items["sweep.steps"] = str(self.sweep_steps)
        items["sweep.iterations"] = str(self.sweep_iterations)
        for name, value in sorted(self.problem_overrides.items()):
            items[f"problem.{name}"] = repr(value)
        return items


class ConfigError(ValueError):
    """Configuration parse or validation failure."""


# key -> (attribute on RunConfig, converter name)
_SCHEMA = {
    "problem": ("problem", "str"),
    "method": ("method", "str"),
    "grid.cells": ("cells", "int"),
    "grid.time_steps": ("time_steps", "int"),
    "particles": ("particles", "int"),
    "tau": ("tau", "float"),
    "iterations": ("iterations", "int"),
    "seed": ("seed", "int"),
    "eval_seed": ("eval_seed", "int"),
    "output": ("output", "str"),
    "dump_adjoint": ("dump_adjoint", "bool"),
    "dump_trajectories": ("dump_trajectories", "bool"),
    "kernel_subsample": ("kernel_subsample", "int"),
    "momentum_cap": ("momentum_cap", "float"),
    "initial_policy": ("initial_policy", "str"),
    "sweep.q_min_lo": ("_sweep_q_min_lo", "float"),
    "sweep.q_min_hi": ("_sweep_q_min_hi", "float"),
    "sweep.q_max_lo": ("_sweep_q_max_lo", "float"),
    "sweep.q_max_hi": ("_sweep_q_max_hi", "float"),
    "sweep.steps": ("sweep_steps", "int"),
    "sweep.iterations": ("sweep_iterations", "int"),
}


def _convert(raw: str, kind: str, key: str, line: int):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            if "/" in raw:  # allow exact fractions like 1/6
                num, den = raw.split("/", 1)
                return float(num) / float(den)
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except (ValueError, ZeroDivisionError):
        raise ConfigError(
            f"line {line}: expected {kind} for key {key!r}, got {raw!r}"
        ) from None


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, known, n=1)
    return f"; closest known key: {close[0]!r}" if close else ""


def parse_items(items: List[Tuple[str, str, int]]) -> RunConfig:
    """Build a RunConfig from (key, value, line) triples."""
    values: Dict[str, object] = {}
    overrides: Dict[str, object] = {}
    problem_name = next((v.strip() for k, v, _ in items if k == "problem"), None)
    lines = {key: line for key, _, line in items}
    alias = None
    for key, raw, line in items:
        if key in _SCHEMA:
            attr, kind = _SCHEMA[key]
            values[attr] = _convert(raw, kind, key, line)
        elif key == "problem.kernel_subsample" and problem_name == "cs2d":
            # kernel_subsample as spelled while the Cucker-Smale drift had a
            # cap of its own; given both spellings, they must agree
            alias = _convert(raw, "int", key, line)
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
            overrides[pname] = _convert(raw, "float", key, line)
        else:
            raise ConfigError(
                f"line {line}: unknown key {key!r}{_suggest(key, list(_SCHEMA))}"
            )

    if "problem" not in values:
        raise ConfigError("missing required key 'problem'")
    cap = values.setdefault("kernel_subsample", alias)
    if alias is not None and cap != alias:
        raise ConfigError(
            f"line {lines['kernel_subsample']}: kernel_subsample = {cap} and line "
            f"{lines['problem.kernel_subsample']}: problem.kernel_subsample = {alias} disagree"
        )

    sweep_q_min = (
        values.pop("_sweep_q_min_lo", 0.5),
        values.pop("_sweep_q_min_hi", 1.5),
    )
    sweep_q_max = (
        values.pop("_sweep_q_max_lo", 1.5),
        values.pop("_sweep_q_max_hi", 2.5),
    )
    return RunConfig(
        sweep_q_min=sweep_q_min,
        sweep_q_max=sweep_q_max,
        problem_overrides=overrides,
        **values,
    )


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
