"""Network definition: configuration, layout, parameters, forward passes."""

from ..config import VARIANT_INTERBERT, VARIANT_SINGLE_STREAM, ModelConfig
from .config import IMAGE_SEGMENT, TEXT_SEGMENT, SequenceLayout, build_layout
from .network import (
    GEOMETRY_DIM,
    InterBert,
    ModelOutputs,
    count_parameters,
    image_geometry,
    init_parameters,
    parameter_spec,
)

__all__ = [
    "GEOMETRY_DIM",
    "IMAGE_SEGMENT",
    "InterBert",
    "ModelConfig",
    "ModelOutputs",
    "SequenceLayout",
    "TEXT_SEGMENT",
    "VARIANT_INTERBERT",
    "VARIANT_SINGLE_STREAM",
    "build_layout",
    "count_parameters",
    "image_geometry",
    "init_parameters",
    "parameter_spec",
]
