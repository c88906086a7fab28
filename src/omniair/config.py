"""Run configuration: one flat record of every hyperparameter, JSON in/out."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass


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
    fusion_mode: str = "signed"  # signed | softmax | sum
    coeff_mode: str = "signed"  # signed | positive (smoothing-only control)
    rank_mode: str = "abs"  # abs | signed
    norm_mode: str = "abs"  # abs | plain
    edge_source: str = "last"  # last | mean time step for edge features
    per_station_norm: bool = False
    refresh_semantic_every: int = 0
    eps_norm: float = 1e-8

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
        if self.fusion_mode not in ("signed", "softmax", "sum"):
            raise ValueError(f"unknown fusion_mode {self.fusion_mode!r}")
        if self.coeff_mode not in ("signed", "positive"):
            raise ValueError(f"unknown coeff_mode {self.coeff_mode!r}")
        if self.rank_mode not in ("abs", "signed"):
            raise ValueError(f"unknown rank_mode {self.rank_mode!r}")
        if self.norm_mode not in ("abs", "plain"):
            raise ValueError(f"unknown norm_mode {self.norm_mode!r}")
        if self.edge_source not in ("last", "mean"):
            raise ValueError(f"unknown edge_source {self.edge_source!r}")

    @property
    def fourier_levels(self) -> int:
        return self.fourier_dim // 4

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        # earlier versions stored the runtime setting ``workers`` here; drop
        # it so that their config files and checkpoints still load
        d = {k: v for k, v in d.items() if k != "workers"}
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
