"""Online style adaptation and object-gated contrastive alignment toolkit.

Numerical building blocks for steering feature-map styles onto a bank of
self-organized prototypes (with test-time adaptation) and for contrasting
object-level class queries across domains, plus a CLI harness that drives
both over synthetic multi-domain streams.
"""

from .class_query_attention import (
    AttentionParams,
    TokenSequence,
    cross_attend,
    init_class_queries,
    load_tensors,
    run_encoder_side,
    save_tensors,
    sine_positions,
    tokens_from_pyramid,
)
from .config import RunConfig, load_config
from .contrastive_alignment import (
    ContrastiveBatch,
    LossReport,
    contrastive_loss,
    contrastive_loss_value,
    total_loss,
)
from .errors import FormatError, StateError
from .object_gating import (
    Annotation,
    AnnotationRecord,
    GatingMaskSet,
    align_to_tokens,
    build_masks,
    format_annotations,
    from_interchange,
    parse_annotations,
)
from .style_memory_bank import StyleMemoryBank, StylePrototype, UpdateReport, load
from .style_projection import ProjectionResult, project, project_pyramid
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
    "LossReport",
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
    "contrastive_loss_value",
    "cross_attend",
    "format_annotations",
    "from_interchange",
    "init_class_queries",
    "load",
    "load_config",
    "load_tensors",
    "parse_annotations",
    "project",
    "project_pyramid",
    "run_encoder_side",
    "save_tensors",
    "sine_positions",
    "softmax",
    "style_distance",
    "tokens_from_pyramid",
    "total_loss",
]
