"""The model, training and masking configurations.

Each key's name, type and default is declared here once. A key that a
command-line flag may set also declares that flag, in its field's metadata
(``flag``), and ``cli.build_parser`` reads it from there. This module imports
no numpy, so the parser is built before --threads has set the BLAS variables.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

VARIANTS = ("interbert", "single_stream")
VARIANT_INTERBERT, VARIANT_SINGLE_STREAM = VARIANTS
PRECISIONS = ("float64", "float32")


def flag(default, spelling: str, help: str, choices: tuple | None = None):
    """A field that the flag ``spelling`` also sets, typed by ``default`` (a
    switch for a bool), with its ``help`` and, for a string, its ``choices``."""
    return field(default=default, metadata={"flag": spelling, "help": help, "choices": choices})


def _known(cls, data: dict, section: str) -> dict:
    """``data``, once each of its keys is a field of ``cls``."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")
    return data


@dataclass
class ModelConfig:
    """Network dimensions. Widths, depths, vocabulary and feature width
    default to the full-scale configuration, but max_objects (16; 100 under
    --paper-scale) and num_object_classes (the CLI reads it off the corpus)
    do not. The CLI substitutes desk-scale values unless --paper-scale is passed."""

    hidden_size: int = flag(768, "--hidden-size", "width of every layer")
    num_heads: int = flag(12, "--num-heads", "attention heads per layer")
    ffn_size: int = flag(3072, "--ffn-size", "inner width of each feed-forward block")
    num_interaction_layers: int = flag(12, "--interaction-layers", "layers over the fused image+text sequence")
    num_extraction_layers: int = flag(6, "--extraction-layers", "layers of each stream after the interaction")
    vocab_size: int = 30522
    object_feature_dim: int = 2048
    max_text_len: int = 40
    max_objects: int = 16
    num_object_classes: int = 33
    ln_eps: float = 1e-12
    init_std: float = 0.02
    architecture_variant: str = flag(VARIANT_INTERBERT, "--variant", "two-stream or single-stream network",
                                     VARIANTS)
    tie_msm_weights: bool = flag(False, "--tie-msm-weights", "tie the token head to the token embeddings")

    def validate(self) -> None:
        if self.architecture_variant not in VARIANTS:
            raise ValueError(f"unknown architecture_variant: {self.architecture_variant!r}")
        for name in ("num_heads", "ffn_size", "vocab_size", "object_feature_dim", "max_text_len",
                     "max_objects", "num_object_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden_size <= 0 or self.hidden_size % self.num_heads != 0:
            raise ValueError(f"hidden_size {self.hidden_size} must be a positive multiple of num_heads {self.num_heads}")
        if self.num_interaction_layers < 1:
            raise ValueError("need at least one interaction layer")
        if self.architecture_variant == VARIANT_INTERBERT and self.num_extraction_layers < 1:
            raise ValueError("the two-stream variant needs at least one extraction layer per stream")
        if self.num_extraction_layers < 0:
            raise ValueError("num_extraction_layers must be non-negative")
        if self.ln_eps <= 0 or self.init_std <= 0:
            raise ValueError("ln_eps and init_std must be positive")

    @property
    def limits(self) -> dict:
        """What every sample must meet, as keywords of ``data.check_limits``
        and ``make_batch``: the length limits and the object feature width.
        Pretraining, which reads the object labels, adds the class count."""
        return {"max_text_len": self.max_text_len, "max_objects": self.max_objects,
                "feature_dim": self.object_feature_dim}

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**_known(cls, data, "model"))


@dataclass
class MaskingConfig:
    anchor_prob: float = flag(0.1, "--anchor-prob", "masking anchor probability")
    max_extension: int = flag(2, "--max-extension", "max tokens a text anchor extends over")
    iou_threshold: float = flag(0.4, "--iou-threshold", "region-linking overlap threshold")
    action_mask_prob: float = 0.8
    action_random_prob: float = 0.1
    action_keep_prob: float = 0.1

    def validate(self) -> None:
        if not 0.0 <= self.anchor_prob <= 1.0:
            raise ValueError("anchor_prob must be a probability")
        if self.max_extension < 0:
            raise ValueError("max_extension must be non-negative")
        if self.iou_threshold < 0.0:
            raise ValueError("iou_threshold must be non-negative")
        mix = (self.action_mask_prob, self.action_random_prob, self.action_keep_prob)
        if any(p < 0 for p in mix) or abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError("action mix must be non-negative and sum to 1")

    @classmethod
    def from_dict(cls, data: dict) -> "MaskingConfig":
        cfg = cls(**_known(cls, data, "masking"))
        cfg.validate()
        return cfg


@dataclass
class TrainConfig:
    """Optimization hyperparameters. Loss weights default to 1 each; the
    hard-negative share stays at 0.2 because pushing it higher makes the
    matching task hard enough to stall early training. ``shards`` is how many
    contiguous shards each step's batch is cut into; it fixes the arithmetic,
    while the number of processes that run them follows the machine."""

    lambda_msm: float = 1.0
    lambda_mrm: float = 1.0
    lambda_itm: float = 1.0
    learning_rate: float = flag(1e-4, "--lr", "peak learning rate")
    beta1: float = 0.9
    beta2: float = flag(0.9999, "--beta2", "AdamW second-moment decay")
    eps: float = 1e-6
    weight_decay: float = flag(0.01, "--weight-decay", "AdamW weight decay")
    warmup_steps: int = flag(100, "--warmup", "steps of linear learning-rate warmup")
    total_steps: int = flag(500, "--steps", "optimizer steps")
    batch_size: int = flag(16, "--batch-size", "samples per step")
    seed: int = 0
    ema_rate: float = flag(0.9999, "--ema-rate", "decay of finetuning's parameter average")
    hard_negative_prob: float = flag(0.2, "--hard-neg-prob", "share of mismatched pairs drawn hard")
    mgm_on_negatives: bool = False
    itm_on_masked: bool = True
    num_distractors: int = 3
    precision: str = flag("float64", "--precision", "floating-point type of parameters and arithmetic",
                          PRECISIONS)
    shards: int = 2
    masking: MaskingConfig = field(default_factory=MaskingConfig)

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.warmup_steps < 0 or self.total_steps < 1 or self.warmup_steps > self.total_steps:
            flags = {f.name: f.metadata.get("flag") for f in fields(self)}
            raise ValueError("need 0 <= warmup_steps <= total_steps and total_steps >= 1, got "
                             f"warmup_steps {self.warmup_steps} ({flags['warmup_steps']}) and "
                             f"total_steps {self.total_steps} ({flags['total_steps']})")
        if self.batch_size < 2:
            raise ValueError("batch_size must be at least 2")
        if not 0.0 <= self.hard_negative_prob <= 1.0:
            raise ValueError("hard_negative_prob must be a probability")
        if not 0.0 <= self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in [0, 1]")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {PRECISIONS}")
        if self.num_distractors < 1:
            raise ValueError("need at least one distractor image")
        if not 1 <= self.shards <= self.batch_size:
            raise ValueError("shards must lie in [1, batch_size]")
        self.masking.validate()

    @property
    def dtype(self) -> str:
        """The numpy dtype of ``precision``, which numpy reads by its name."""
        return self.precision

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(_known(cls, data, "train"))
        if isinstance(data.get("masking"), dict):
            data["masking"] = MaskingConfig.from_dict(data["masking"])
        cfg = cls(**data)
        cfg.validate()
        return cfg
