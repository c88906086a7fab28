"""Run configuration: one flat record of every hyperparameter, JSON in/out."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


def dict_hash(d: dict) -> str:
    """sha256 of the key-sorted JSON text of a config dict."""
    return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()


# field -> the only value still implemented (None: any value, a runtime setting)
REMOVED_FIELDS = {
    "workers": None,
    "fusion_mode": "signed",
    "rank_mode": "abs",
    "norm_mode": "abs",
    "edge_source": "last",
    "eps_norm": 1e-8,
}


@dataclass
class RunConfig:
    fourier_dim: int = 32  # deterministic mapping dim, must be 4 * levels
    id_dim: int = 64
    id_hidden: int = 64
    grade_embed: int = 16
    d_model: int = 64
    heads: int = 4
    diffusion_steps: int = 2
    k_geo: int = 10
    k_sem: int = 5
    k_max: float = 15.0
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
    per_station_norm: bool = False
    refresh_semantic_every: int = 0

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise ValueError("d_model must be divisible by heads")
        if self.id_dim != self.d_model:
            raise ValueError("id_dim must equal d_model (gate concatenation)")
        if self.fourier_dim % 4 != 0:
            raise ValueError("fourier_dim must be a multiple of 4")
        for name in ("fourier_dim", "grade_embed", "d_model", "heads", "k_geo",
                     "t_in", "tau", "batch", "max_epochs", "patience",
                     "k_max", "eta", "kappa_km", "lr", "attn_dim", "head_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.k_sem < 0 or self.diffusion_steps < 0:
            raise ValueError("k_sem and diffusion_steps must be non-negative")
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
        # fields stored by earlier versions are dropped so that their config
        # files and checkpoints still load, but only at the one value that is
        # still implemented: any other value asked for a different model
        for name, kept in REMOVED_FIELDS.items():
            if name in d and kept is not None and d[name] != kept:
                raise ValueError(f"config field {name}={d[name]!r} is no longer supported")
        d = {k: v for k, v in d.items() if k not in REMOVED_FIELDS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def load(cls, path, overrides: dict | None = None) -> "RunConfig":
        with open(path) as fh:
            d = json.load(fh)
        if overrides:
            d.update(overrides)
        return cls.from_dict(d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
