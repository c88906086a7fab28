"""Run configuration: one flat record of every hyperparameter, JSON in/out."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import inspect
import math
from dataclasses import InitVar, dataclass


def dict_hash(d: dict) -> str:
    """sha256 of the key-sorted JSON text of a config dict."""
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


@dataclass
class RunConfig:
    fourier_dim: int = 32  # deterministic mapping dim, must be 4 * levels
    id_dim: InitVar[int | None] = None  # derived: d_model
    id_hidden: int = 64
    grade_embed: int = 16
    d_model: int = 64
    heads: int = 4
    diffusion_steps: int = 2
    k_geo: int = 10
    k_sem: int = 5
    k_max: InitVar[float | None] = None  # derived: k_geo + k_sem
    eta: float = 10.0
    kappa_km: float = 100.0
    restart: float = 0.2
    attn_dim: int = 32
    head_hidden: int = 128
    t_in: int = 30
    tau: int = 14
    batch: int = 32
    lr: float = 1e-3
    weight_decay: float = 1e-5
    max_epochs: int = 300
    patience: int = 20
    seed: int = 42
    coeff_mode: str = "signed"  # signed | positive (smoothing-only control)

    def __post_init__(self, id_dim, k_max):
        # JSON gives strings, bools, fractions and NaN as readily as the
        # numbers a field means; each would fail later, far from its field
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            ok, need = {
                "int": (number and isinstance(value, int), "an integer"),
                "float": (number and math.isfinite(value), "a finite number"),
                "str": (isinstance(value, str), "a string"),
            }[f.type]
            if not ok:
                raise ValueError(f"config field {f.name}={value!r} must be {need}")
        # derived, not fields: the identity width is the gate's d_model and the
        # bound of beta is the table width K; passable, at the derived value
        # only, because the benchmark's workloads still pass them
        for name, given, rule, derived in (
            ("id_dim", id_dim, "d_model", self.d_model),
            ("k_max", k_max, "k_geo + k_sem", self.k_geo + self.k_sem),
        ):
            if given is not None and given != derived:
                raise ValueError(f"config field {name}={given!r} is no longer supported: "
                                 f"it is {rule} = {derived}")
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.fourier_dim % 4 != 0:
            raise ValueError("fourier_dim must be a multiple of 4")
        for name in ("fourier_dim", "grade_embed", "d_model", "heads", "k_geo",
                     "t_in", "tau", "batch", "max_epochs", "patience",
                     "eta", "kappa_km", "lr", "attn_dim", "head_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.k_sem < 0 or self.diffusion_steps < 0:
            raise ValueError("k_sem and diffusion_steps must be non-negative")
        if self.seed < 0:  # numpy seeds no generator from a negative value
            raise ValueError(f"config field seed={self.seed!r} must be non-negative")
        if not 0.0 <= self.restart < 1.0:
            raise ValueError("restart must be in [0, 1)")
        if self.coeff_mode not in ("signed", "positive"):
            raise ValueError(f"unknown coeff_mode {self.coeff_mode!r}")

    @property
    def fourier_levels(self) -> int:
        return self.fourier_dim // 4

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        return dict_hash(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, not {type(d).__name__}")
        known = set(inspect.signature(cls).parameters)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        with open(path) as fh:
            d = json.load(fh)
        if overrides and isinstance(d, dict):  # from_dict refuses any other d
            d.update(overrides)
        return cls.from_dict(d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# the InitVar defaults would linger as class attributes that read None
del RunConfig.id_dim, RunConfig.k_max
