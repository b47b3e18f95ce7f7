"""Runtime configuration for the command-line front end.

Settings come from (in increasing priority) built-in defaults, a
``key = value`` file at ./phaseopt.cfg or the path given by --config,
the PHASEOPT_DIM environment variable, and explicit command-line flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .measure import DEFAULT_GRID
from .phase_matrix import EPS_EQUIV

__all__ = ["Config", "load_config", "DEFAULT_CONFIG_NAME"]

DEFAULT_CONFIG_NAME = "phaseopt.cfg"


@dataclass
class Config:
    dim: int = 64
    tol_equiv: float = EPS_EQUIV
    grid: int = DEFAULT_GRID
    recovery_depth: Optional[int] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if not self.tol_equiv > 0:
            raise ValueError("tol_equiv must be positive")
        if self.grid < 2:
            raise ValueError("grid must be at least 2")


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in ("dim", "grid", "recovery_depth"):
        return int(raw)
    return float(raw)


def load_config(path: Optional[str] = None, env=None) -> Config:
    """Build a Config from an optional file and the environment."""
    env = os.environ if env is None else env
    values = {}
    cfg_path = Path(path) if path else Path(DEFAULT_CONFIG_NAME)
    if cfg_path.is_file():
        known = {f.name for f in fields(Config)}
        for lineno, line in enumerate(cfg_path.read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{cfg_path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{cfg_path}:{lineno}: unknown setting {key!r}")
            values[key] = _parse_value(key, raw)
    elif path:
        raise FileNotFoundError(f"config file {path} not found")
    if "PHASEOPT_DIM" in env:
        values["dim"] = int(env["PHASEOPT_DIM"])
    return Config(**values)
