"""Per-category gating masks from box annotations, aligned to token layouts.

A pixel (x, y) belongs to category c's mask iff it lies inside ANY box of
that category, with inclusive bounds on both ends: x_min <= x <= x_max and
y_min <= y <= y_max. Coordinates are continuous; a pixel is identified
with the integer lattice point at its index, so a box (0, 0, 1, 1) covers
exactly the 2x2 top-left pixels.

Token alignment downsamples each image-resolution mask (``PixelMaskSet``)
onto every pyramid level by max pooling over floor-partition cells (a token
cell is attendable iff ANY covered pixel is set, so small objects survive),
then concatenates the levels in pyramid order, row-major within a level,
into a ``GatingMaskSet`` that keeps the level shapes as its token layout.

Mask polarity: True marks a token the category's query may attend; False
positions are ignored by the attention (key-padding semantics).

Annotation text format: one image per line,

    <image_id> <height> <width> [<class> <xmin> <ymin> <xmax> <ymax>]...

whitespace-separated, ``#`` starts a comment line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Box = tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)


@dataclass
class Annotation:
    """Boxes in pixel units with one integer category id per box."""

    boxes: list[Box]
    categories: list[int]

    def __post_init__(self):
        if len(self.boxes) != len(self.categories):
            raise ValueError(
                f"{len(self.boxes)} boxes but {len(self.categories)} category ids"
            )
        self.boxes = [tuple(float(v) for v in b) for b in self.boxes]
        self.categories = [int(c) for c in self.categories]
        for b in self.boxes:
            if len(b) != 4 or not all(np.isfinite(b)):
                raise ValueError(f"malformed box {b}")
            if b[0] > b[2] or b[1] > b[3]:
                raise ValueError(f"box has x_min > x_max or y_min > y_max: {b}")


@dataclass
class AnnotationRecord:
    image_id: str
    image_size: tuple[int, int]  # (H, W)
    annotation: Annotation


@dataclass
class PixelMaskSet:
    """Per-category masks at image resolution; the image is (H, W)."""

    per_category: np.ndarray  # (C, H, W) bool
    present: np.ndarray  # (C,) bool, True iff the category has boxes


@dataclass
class GatingMaskSet:
    """Per-category token masks over the levels of one token layout."""

    token_masks: np.ndarray  # (C, N) bool, N = sum(h * w for h, w in level_shapes)
    present: np.ndarray  # (C,) bool, True iff the category has boxes
    level_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        self.level_shapes = tuple(map(tuple, self.level_shapes))


def build_masks(
    ann: Annotation, image_size: tuple[int, int], num_categories: int
) -> PixelMaskSet:
    """Rasterize per-category union-of-boxes masks at image resolution."""
    h, w = image_size
    if h < 1 or w < 1:
        raise ValueError(f"image size must be positive, got {image_size}")
    if num_categories < 1:
        raise ValueError("num_categories must be >= 1")
    masks = np.zeros((num_categories, h, w), dtype=bool)
    present = np.zeros(num_categories, dtype=bool)
    for (x_min, y_min, x_max, y_max), cat in zip(ann.boxes, ann.categories):
        if not 0 <= cat < num_categories:
            raise ValueError(f"category id {cat} out of range [0, {num_categories})")
        present[cat] = True
        rows = slice(max(0, math.ceil(y_min)), max(0, math.floor(y_max) + 1))
        cols = slice(max(0, math.ceil(x_min)), max(0, math.floor(x_max) + 1))
        masks[cat, rows, cols] = True
    return PixelMaskSet(per_category=masks, present=present)


def _floor_partition(full: int, cells: int) -> np.ndarray:
    """Start offsets of the floor partition of ``full`` positions into ``cells``."""
    if not 1 <= cells <= full:
        raise ValueError(f"cannot partition {full} positions into {cells} cells")
    return (np.arange(cells) * full) // cells


def align_to_tokens(
    pixels: PixelMaskSet, level_shapes: tuple[tuple[int, int], ...]
) -> GatingMaskSet:
    """The token-level masks of ``pixels`` for a multi-scale token sequence.

    Levels are concatenated in the given order; within a level tokens run
    row-major. Token count equals sum(H_l * W_l). A cell's token is the
    exact ``any`` over its rows' slice of the mask, then over its columns'.
    """
    if not level_shapes:
        raise ValueError("level_shapes must be non-empty")
    masks = pixels.per_category
    c, h, w = masks.shape
    per_level = []
    for h_l, w_l in level_shapes:
        rows = _floor_partition(h, h_l).tolist() + [h]
        cols = _floor_partition(w, w_l).tolist() + [w]
        by_rows = np.stack([masks[:, r0:r1].any(axis=1) for r0, r1 in zip(rows, rows[1:])], 1)
        pooled = np.stack([by_rows[:, :, c0:c1].any(axis=2) for c0, c1 in zip(cols, cols[1:])], 2)
        per_level.append(pooled.reshape(c, h_l * w_l))
    token_masks = np.concatenate(per_level, axis=1)
    return GatingMaskSet(token_masks, pixels.present, tuple(map(tuple, level_shapes)))


# ---------------------------------------------------------------------------
# annotation ingestion


def parse_annotations(text: str) -> list[AnnotationRecord]:
    """Parse the line-based annotation format documented in the module docstring."""
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if len(fields) < 3 or (len(fields) - 3) % 5 != 0:
                raise ValueError("expected 'id H W [cls x0 y0 x1 y1]...'")
            image_id, h, w = fields[0], int(fields[1]), int(fields[2])
            if h < 1 or w < 1:
                raise ValueError(f"image size must be positive, got ({h}, {w})")
            boxes, cats = [], []
            for i in range(3, len(fields), 5):
                cats.append(int(fields[i]))
                boxes.append(tuple(float(v) for v in fields[i + 1 : i + 5]))
            annotation = Annotation(boxes=boxes, categories=cats)
        except ValueError as exc:  # a bad integer, size, float or box: name its line
            raise ValueError(f"line {lineno}: {exc}") from None
        records.append(AnnotationRecord(image_id, (h, w), annotation))
    return records

