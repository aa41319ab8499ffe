"""Loss assembly, optimization, and the training loops."""

from ..config import TrainConfig
from .losses import itm_loss, mrm_loss, msm_loss, total_loss
from .loop import (
    FinetuneMetrics,
    FinetuneResult,
    PretrainResult,
    StepMetrics,
    TrainingDiverged,
    finetune_retrieval,
    pretrain,
    write_metrics_csv,
)
from .optim import AdamWState, adamw_step, ema_update, lr_at

__all__ = [
    "AdamWState",
    "FinetuneMetrics",
    "FinetuneResult",
    "PretrainResult",
    "StepMetrics",
    "TrainConfig",
    "TrainingDiverged",
    "adamw_step",
    "ema_update",
    "finetune_retrieval",
    "itm_loss",
    "lr_at",
    "mrm_loss",
    "msm_loss",
    "pretrain",
    "total_loss",
    "write_metrics_csv",
]
