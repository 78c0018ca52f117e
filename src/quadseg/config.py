"""Run configuration: one flat record of every knob a training run reads.

Configs live in line-based ``key = value`` text files so an experiment is
reproducible from its config and seed alone.  Parsing is strict — an unknown
key is an error, not a warning — and ``parse_config(serialize_config(c))``
returns an equal record.  Command-line overrides reuse the same per-field
converters, so a flag accepts exactly the file syntax for that field.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .objectives import DiscConfig

__all__ = [
    "RunConfig",
    "serialize_config",
    "parse_config",
    "apply_overrides",
    "parse_kv_lines",
    "format_kv_lines",
    "value_text",
    "parse_value",
]


@dataclass(frozen=True)
class RunConfig:
    # encoder
    channels: tuple[int, ...] = (8, 16, 32, 64)
    depths: tuple[int, ...] = (1, 1, 1, 1)
    heads: tuple[int, ...] = (1, 1, 2, 4)
    sr_ratios: tuple[int, ...] = (8, 4, 2, 1)
    ffn_expand: int = 4
    share_branch_weights: bool = True
    # decoder; the last three are pinned (``_PINNED``)
    embed_dim: int = 64
    num_classes: int = 2
    extra_hidden: bool = False
    share_heads: bool = True
    # discriminator
    disc_channels: tuple[int, ...] = (8, 16, 32, 64, 1)
    leaky_slope: float = 0.2
    # optimization
    lr: float = 2e-3
    disc_lr: float = 1e-4
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_steps: int = 150          # lr-schedule linear warmup
    iterations: int = 4000           # adaptation steps
    warmup_iterations: int = 500     # source-only steps before adaptation
    batch: int = 2
    seed: int = 42
    # adaptation
    beta1: float = 0.1               # weight of the target pseudo-label loss
    beta2: float = 1.0               # weight of the generator adversarial loss
    tau: float = 0.9                 # pseudo-label confidence threshold
    temperature: float = 4.0         # prototype-affinity softmax temperature
    lambda_ema: float = 0.9999
    class_weight_pl: float = 10.0
    crop: int = 64
    # ablation toggles
    self_training: bool = True
    adversarial: bool = True
    label_correction: bool = True
    use_cross_src: bool = True
    use_cross_tgt: bool = True
    # bookkeeping
    eval_every: int = 100

    def __post_init__(self):
        # each would otherwise fail late: a ZeroDivisionError at the first
        # training step, a model that predicts only background, or a reshape
        # error deep in Mix-FFN
        for name in ("eval_every", "embed_dim", "ffn_expand"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # keys that stay in the config text so that old configs and
        # checkpoints parse, but that have one value: the model knows one
        # head of two classes and nothing else
        for name, (value, why) in _PINNED.items():
            if getattr(self, name) != value:
                raise ValueError(f"{name} must be {value_text(value)} ({why}), "
                                 f"got {value_text(getattr(self, name))}")
        # a nan or inf rate, weight or slope passes every range check below
        # and dies mid-training as a non-finite forward
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        # re-raise structural violations now, not when warmup or adapt
        # first builds the part
        enc = self.encoder_config()
        self.decoder_config()
        self.disc_config()
        if self.batch < 1 or self.iterations < 0 or self.warmup_iterations < 0:
            raise ValueError("batch/iteration counts out of range")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        if not 0.0 <= self.lambda_ema < 1.0:
            raise ValueError("lambda_ema must lie in [0, 1)")
        if self.temperature <= 0.0 or self.crop < 32:
            raise ValueError("temperature must be positive, crop >= 32")
        if self.crop % enc.patch:
            raise ValueError(f"crop {self.crop} is not a multiple of the "
                             f"patch size {enc.patch}")
        grid = self.crop // enc.patch
        for i, ratio in enumerate(self.sr_ratios):
            if i:
                grid = (grid + 1) // 2           # stride-2 patch merge
            if grid % ratio:
                raise ValueError(
                    f"crop {self.crop} gives stage {i} a {grid}x{grid} token "
                    f"grid, which sr_ratios[{i}] = {ratio} does not divide")
        # the critic scores crop x crop masks, and each of its layers
        # (kernel 4, stride 2, padding 1) floors the side to half
        side = self.crop
        for i in range(len(self.disc_channels)):
            side //= 2
            if side < 1:
                raise ValueError(
                    f"crop {self.crop} is too small for a "
                    f"{len(self.disc_channels)}-layer critic: layer {i} "
                    f"would output 0x0 (disc_channels = {self.disc_channels})")

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(channels=self.channels, depths=self.depths,
                             heads=self.heads, sr_ratios=self.sr_ratios,
                             ffn_expand=self.ffn_expand,
                             share_branch_weights=self.share_branch_weights)

    def decoder_config(self) -> DecoderConfig:
        return DecoderConfig(embed_dim=self.embed_dim)

    def disc_config(self) -> DiscConfig:
        return DiscConfig(in_channels=self.num_classes,
                          channels=self.disc_channels,
                          leaky_slope=self.leaky_slope)


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}

# key -> (the one value it may take, why)
_PINNED = {
    "num_classes": (2, "background and line"),
    "share_heads": (True, "one head serves both domains"),
    "extra_hidden": (False, "the head is one fuse layer and a classifier"),
}


def value_text(value) -> str:
    """A field value as ``key = value`` text: bools as true/false, tuples
    comma-joined, floats by ``repr`` so that they read back exactly."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_value(key: str, kind: str, text: str):
    """The value that ``value_text`` wrote for a field of annotated type
    ``kind``; malformed text raises ``ValueError`` naming ``key``."""
    text = text.strip()
    try:
        if kind == "bool":
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind in ("tuple[int, ...]", "tuple[str, ...]"):
            if not text:
                raise ValueError
            items = text.split(",")
            return tuple(map(int, items)) if kind == "tuple[int, ...]" \
                else tuple(items)
    except ValueError:
        raise ValueError(f"{key}: expected {kind}, got {text!r}") from None
    raise AssertionError(f"unhandled field type {kind!r} for {key}")


def format_kv_lines(items: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in sorted(items.items()))


def parse_kv_lines(text: str) -> dict[str, str]:
    """Split ``key = value`` lines; blank lines and ``#`` comments skipped."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError(f"line {ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def serialize_config(cfg: RunConfig) -> str:
    """The config as sorted ``key = value`` lines joined by newlines, with
    no trailing one, so that a checkpoint stores the text exactly."""
    return format_kv_lines(
        {name: value_text(getattr(cfg, name)) for name in _FIELDS}
    ).removesuffix("\n")


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Build a config from text, starting from ``base`` (or the defaults).

    Every key must name a RunConfig field; unknown keys are rejected so a
    typo cannot silently fall back to a default.
    """
    items = parse_kv_lines(text)
    unknown = sorted(set(items) - set(_FIELDS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    values = {name: parse_value(name, _FIELDS[name].type, raw)
              for name, raw in items.items()}
    return dataclasses.replace(base or RunConfig(), **values)


def apply_overrides(cfg: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Apply flag-style overrides (field name -> file-syntax value)."""
    if not overrides:
        return cfg
    return parse_config(format_kv_lines(overrides), base=cfg)
