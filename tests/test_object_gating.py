import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sa_adapt.object_gating import (
    Annotation,
    PixelMaskSet,
    align_to_tokens,
    build_masks,
    parse_annotations,
)

import oracles


def random_annotation(rng, image_size, num_categories, n_boxes):
    h, w = image_size
    boxes, cats = [], []
    for _ in range(n_boxes):
        x0, x1 = sorted(rng.uniform(-1, w, size=2))
        y0, y1 = sorted(rng.uniform(-1, h, size=2))
        boxes.append((x0, y0, x1, y1))
        cats.append(int(rng.integers(0, num_categories)))
    return Annotation(boxes=boxes, categories=cats)


class TestBuildMasks:
    def test_inclusive_unit_box(self):
        ann = Annotation(boxes=[(0, 0, 1, 1)], categories=[0])
        ms = build_masks(ann, (4, 4), 1)
        expected = np.zeros((4, 4), dtype=bool)
        expected[:2, :2] = True
        np.testing.assert_array_equal(ms.per_category[0], expected)

    def test_zero_boxes_all_absent(self):
        ms = build_masks(Annotation(boxes=[], categories=[]), (5, 5), 3)
        assert not ms.per_category.any()
        assert not ms.present.any()

    def test_matches_point_in_box_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ann = random_annotation(rng, (12, 17), 4, 50)
            ms = build_masks(ann, (12, 17), 4)
            expected = oracles.masks_point_in_box(
                ann.boxes, ann.categories, (12, 17), 4
            )
            np.testing.assert_array_equal(ms.per_category, expected)

    # fractional, negative and out-of-image coordinates, signed zeros and huge values
    coordinate = st.floats(-3, 12) | st.sampled_from([0.0, -0.0, 1e300, -1e300])

    @settings(deadline=None, max_examples=300)
    @given(
        image_size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
        num_categories=st.integers(1, 3),
        boxes=st.lists(st.tuples(coordinate, coordinate, coordinate, coordinate,
                                 st.integers(0, 2)), max_size=6),
    )
    @example(image_size=(3, 4), num_categories=2,
             boxes=[(-0.0, 0.0, -0.0, 0.0, 0), (-1e300, 2.5, 1e300, 1e300, 1)])
    def test_box_slices_match_point_in_box_oracle(self, image_size, num_categories, boxes):
        ann = Annotation(
            boxes=[(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
                   for x0, y0, x1, y1, _ in boxes],
            categories=[cat % num_categories for *_, cat in boxes],
        )
        ms = build_masks(ann, image_size, num_categories)
        expected = oracles.masks_point_in_box(
            ann.boxes, ann.categories, image_size, num_categories
        )
        np.testing.assert_array_equal(ms.per_category, expected)
        present = np.isin(np.arange(num_categories), ann.categories)
        np.testing.assert_array_equal(ms.present, present)

    def test_fractional_corner_pixels_by_center(self):
        # box (0.3, 0.2, 1.7, 2.2): pixels with integer coordinate inside
        ann = Annotation(boxes=[(0.3, 0.2, 1.7, 2.2)], categories=[0])
        ms = build_masks(ann, (4, 4), 1)
        expected = np.zeros((4, 4), dtype=bool)
        expected[1:3, 1:2] = True  # y in {1, 2}, x in {1}
        np.testing.assert_array_equal(ms.per_category[0], expected)

    def test_union_of_boxes_equals_or_of_masks(self):
        rng = np.random.default_rng(1)
        a = random_annotation(rng, (10, 10), 2, 8)
        b = random_annotation(rng, (10, 10), 2, 8)
        merged = Annotation(boxes=a.boxes + b.boxes, categories=a.categories + b.categories)
        mask_a = build_masks(a, (10, 10), 2).per_category
        mask_b = build_masks(b, (10, 10), 2).per_category
        mask_union = build_masks(merged, (10, 10), 2).per_category
        np.testing.assert_array_equal(mask_union, mask_a | mask_b)

    def test_adding_box_is_monotone(self):
        rng = np.random.default_rng(2)
        ann = random_annotation(rng, (9, 9), 3, 5)
        bigger = Annotation(
            boxes=ann.boxes + [(2, 2, 6, 6)], categories=ann.categories + [1]
        )
        before = build_masks(ann, (9, 9), 3).per_category
        after = build_masks(bigger, (9, 9), 3).per_category
        assert np.all(after | ~before)  # before => after

    def test_category_out_of_range(self):
        ann = Annotation(boxes=[(0, 0, 1, 1)], categories=[5])
        with pytest.raises(ValueError):
            build_masks(ann, (4, 4), 3)

    @pytest.mark.parametrize(
        "image_size, num_categories, message",
        [((0, 4), 1, r"image size must be positive, got \(0, 4\)"),
         ((4, 4), 0, "num_categories must be >= 1")],
        ids=["zero-side", "no-categories"],
    )
    def test_empty_image_or_category_set_rejected(self, image_size, num_categories, message):
        with pytest.raises(ValueError, match=message):
            build_masks(Annotation(boxes=[], categories=[]), image_size, num_categories)

    @pytest.mark.parametrize(
        "boxes, categories, message",
        [([(0, 0, 1, 1), (0, 0, 2, 2)], [0], "2 boxes but 1 category ids"),
         ([(0, 0, 1)], [0], r"malformed box \(0.0, 0.0, 1.0\)")],
        ids=["more-boxes-than-categories", "three-value-box"],
    )
    def test_malformed_annotation_rejected(self, boxes, categories, message):
        with pytest.raises(ValueError, match=message):
            Annotation(boxes=boxes, categories=categories)

    def test_degenerate_box_order_rejected(self):
        with pytest.raises(ValueError):
            Annotation(boxes=[(3, 0, 1, 1)], categories=[0])


class TestAlignToTokens:
    def test_full_image_box_attends_everywhere(self):
        ann = Annotation(boxes=[(0, 0, 7, 7)], categories=[0])
        ms = align_to_tokens(build_masks(ann, (8, 8), 1), [(4, 4), (2, 2), (1, 1)])
        assert ms.token_masks.all()
        assert ms.token_masks.shape == (1, 16 + 4 + 1)

    def test_single_pixel_survives_max_pool(self):
        ann = Annotation(boxes=[(0, 0, 0, 0)], categories=[0])
        ms = align_to_tokens(build_masks(ann, (8, 8), 1), [(4, 4), (2, 2)])
        level0 = ms.token_masks[0, :16].reshape(4, 4)
        level1 = ms.token_masks[0, 16:].reshape(2, 2)
        assert level0[0, 0] and level0.sum() == 1
        assert level1[0, 0] and level1.sum() == 1

    def test_matches_any_pool_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ann = random_annotation(rng, (11, 13), 3, 10)
            ms = build_masks(ann, (11, 13), 3)
            shapes = [(5, 6), (3, 3), (2, 4)]
            aligned = align_to_tokens(ms, shapes)
            expected = oracles.token_align_any(ms.per_category, shapes)
            np.testing.assert_array_equal(aligned.token_masks, expected)

    @settings(deadline=None, max_examples=100)
    @given(
        size=st.tuples(st.integers(1, 17), st.integers(1, 17)),
        cells=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=3),
        density=st.floats(0.0, 0.3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=(13, 7), cells=[(0.25, 0.34), (0.34, 0.17)], density=0.05, seed=0)
    def test_any_pool_on_sizes_the_levels_do_not_divide(self, size, cells, density, seed):
        # cells[i] picks each level's shape within the image, 13x7 into 4x3 and 5x2 above
        h, w = size
        shapes = [(1 + int(fh * (h - 1)), 1 + int(fw * (w - 1))) for fh, fw in cells]
        per_category = np.random.default_rng(seed).random((3, h, w)) < density
        ms = PixelMaskSet(per_category, per_category.any(axis=(1, 2)))
        aligned = align_to_tokens(ms, shapes)
        expected = oracles.token_align_any(per_category, shapes)
        assert aligned.token_masks.dtype == bool
        assert aligned.token_masks.tobytes() == expected.tobytes()

    def test_token_count_matches_level_sizes(self):
        ann = Annotation(boxes=[(0, 0, 3, 3)], categories=[0])
        shapes = [(6, 6), (3, 3), (2, 2)]
        ms = align_to_tokens(build_masks(ann, (12, 12), 2), shapes)
        assert ms.token_masks.shape[1] == sum(h * w for h, w in shapes)

    def test_monotone_under_added_boxes(self):
        rng = np.random.default_rng(4)
        ann = random_annotation(rng, (8, 8), 2, 4)
        bigger = Annotation(
            boxes=ann.boxes + [(1, 1, 5, 5)], categories=ann.categories + [0]
        )
        shapes = [(4, 4), (2, 2)]
        t_before = align_to_tokens(build_masks(ann, (8, 8), 2), shapes).token_masks
        t_after = align_to_tokens(build_masks(bigger, (8, 8), 2), shapes).token_masks
        assert np.all(t_after | ~t_before)

    def test_empty_level_list_rejected(self):
        ms = build_masks(Annotation(boxes=[], categories=[]), (4, 4), 1)
        with pytest.raises(ValueError):
            align_to_tokens(ms, [])

    def test_upsampling_rejected(self):
        ms = build_masks(Annotation(boxes=[], categories=[]), (4, 4), 1)
        with pytest.raises(ValueError):
            align_to_tokens(ms, [(8, 8)])


class TestAnnotationIo:
    def test_text_parses_to_records(self):
        text = "img_001 480 640 3 1.5 0.1 10.25 20.5\nempty_img 32 32\n"
        parsed = parse_annotations(text)
        assert len(parsed) == 2
        assert parsed[0].image_id == "img_001"
        assert parsed[0].image_size == (480, 640)
        assert parsed[0].annotation.boxes == [(1.5, 0.1, 10.25, 20.5)]
        assert parsed[0].annotation.categories == [3]
        assert parsed[1].image_id == "empty_img"
        assert parsed[1].image_size == (32, 32)
        assert parsed[1].annotation.boxes == []
        assert parsed[1].annotation.categories == []

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\nimg 4 4 0 0 0 1 1\n"
        (rec,) = parse_annotations(text)
        assert rec.image_id == "img"

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_annotations("img 4 4 0 0 0 1\n")  # five-tuple truncated

    @pytest.mark.parametrize(
        "line, message",
        [
            ("img 4e1 48 0 2 3 20 25", "invalid literal for int() with base 10: '4e1'"),
            ("img 40 48 0 zz 3 20 25", "could not convert string to float: 'zz'"),
            ("img 40 48 0 2 3 20 nan", "malformed box (2.0, 3.0, 20.0, nan)"),
            ("img 40 48 0 30 3 20 25",
             "box has x_min > x_max or y_min > y_max: (30.0, 3.0, 20.0, 25.0)"),
            ("img 40 48 0 2 3 20", "expected 'id H W [cls x0 y0 x1 y1]...'"),
            ("img 0 0", "image size must be positive, got (0, 0)"),
            ("img -3 4 0 0 0 1 1", "image size must be positive, got (-3, 4)"),
        ],
        ids=["float-height", "word-coordinate", "nan-coordinate", "x-min-above-x-max",
             "field-count", "zero-size", "negative-height"],
    )
    def test_every_error_names_its_line(self, line, message):
        with pytest.raises(ValueError) as exc:
            parse_annotations(f"# header\nok 4 4 0 0 0 1 1\n{line}\n")
        assert str(exc.value) == f"line 3: {message}"
