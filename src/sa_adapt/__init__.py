"""Online style adaptation and object-gated contrastive alignment toolkit.

Numerical building blocks for steering feature-map styles onto a bank of
self-organized prototypes (with test-time adaptation) and for contrasting
object-level class queries across domains, plus a CLI harness that drives
both over synthetic multi-domain streams.
"""

from .class_query_attention import (
    AttentionParams,
    KeyValues,
    TokenSequence,
    cross_attend,
    init_class_queries,
    project_keys_values,
    run_encoder_side,
    tokens_from_pyramid,
)
from .config import RunConfig
from .contrastive_alignment import (
    ContrastiveBatch,
    LossReport,
    contrastive_loss,
    total_loss,
)
from .errors import FormatError, StateError
from .object_gating import (
    Annotation,
    AnnotationRecord,
    GatingMaskSet,
    PixelMaskSet,
    align_to_tokens,
    build_masks,
    parse_annotations,
)
from .style_memory_bank import StyleMemoryBank, StylePrototype, UpdateReport, load
from .style_projection import ProjectionResult, project
from .style_statistics import EPSILON, ChannelStats, compute_stats, style_distance
from .tensor_core import softmax

__version__ = "0.1.0"

__all__ = [
    "Annotation",
    "AnnotationRecord",
    "AttentionParams",
    "ChannelStats",
    "ContrastiveBatch",
    "EPSILON",
    "FormatError",
    "GatingMaskSet",
    "KeyValues",
    "LossReport",
    "PixelMaskSet",
    "ProjectionResult",
    "RunConfig",
    "StateError",
    "StyleMemoryBank",
    "StylePrototype",
    "TokenSequence",
    "UpdateReport",
    "align_to_tokens",
    "build_masks",
    "compute_stats",
    "contrastive_loss",
    "cross_attend",
    "init_class_queries",
    "load",
    "parse_annotations",
    "project",
    "project_keys_values",
    "run_encoder_side",
    "softmax",
    "style_distance",
    "tokens_from_pyramid",
    "total_loss",
]
