import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracles import (Box, ScoredBox, box_from_center, corners, encode_box, iou,
                         nms)
from mrfdet.anchors import (center_to_corner, corner_to_center, decode_array,
                            encode_array, generate_anchors, iou_matrix,
                            match_anchors, nms_array)
from mrfdet.tensor_core import ShapeError

box_coords = st.tuples(st.floats(0, 50), st.floats(0, 50),
                       st.floats(1, 40), st.floats(1, 40))


def make_box(coords, class_id=0, score=None):
    x, y, w, h = coords
    return ScoredBox(x, y, x + w, y + h, class_id, score)


def pixel_iou(a: Box, b: Box, grid=400):
    """Counting oracle: IoU from per-pixel membership on a fine grid."""
    lo = min(a.xmin, b.xmin, a.ymin, b.ymin)
    hi = max(a.xmax, b.xmax, a.ymax, b.ymax)
    xs = np.linspace(lo, hi, grid, endpoint=False) + (hi - lo) / (2 * grid)
    xx, yy = np.meshgrid(xs, xs)

    def mask(box):
        return ((xx >= box.xmin) & (xx < box.xmax) &
                (yy >= box.ymin) & (yy < box.ymax))

    ma, mb = mask(a), mask(b)
    inter = (ma & mb).sum()
    union = (ma | mb).sum()
    return inter / union if union else 0.0


def pair_iou(a: Box, b: Box) -> float:
    return float(iou_matrix(corners([a]), corners([b]))[0, 0])


class TestIoU:
    def test_hand_case_25_over_175(self):
        # 10x10 boxes offset by (5, 5): intersection 25, union 175.
        a = Box(0, 0, 10, 10)
        b = Box(5, 5, 15, 15)
        assert pair_iou(a, b) == pytest.approx(25 / 175)

    def test_identical_and_disjoint(self):
        a = Box(2, 3, 8, 9)
        assert pair_iou(a, a) == 1.0
        assert pair_iou(a, Box(8, 3, 14, 9)) == 0.0
        assert pair_iou(a, Box(100, 100, 110, 110)) == 0.0

    def test_containment(self):
        outer = Box(0, 0, 10, 10)
        inner = Box(2, 2, 7, 7)
        assert pair_iou(outer, inner) == pytest.approx(25 / 100)

    def test_against_pixel_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = make_box(rng.uniform(1, 30, 4))
            b = make_box(rng.uniform(1, 30, 4))
            assert pair_iou(a, b) == pytest.approx(pixel_iou(a, b), abs=0.02)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(1)
        boxes_a = [make_box(rng.uniform(1, 30, 4)) for _ in range(6)]
        boxes_b = [make_box(rng.uniform(1, 30, 4)) for _ in range(4)]
        m = iou_matrix(corners(boxes_a), corners(boxes_b))
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert m[i, j] == pytest.approx(iou(a, b))

    def test_empty_matrix(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)

    @given(box_coords, box_coords)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, ca, cb):
        a, b = make_box(ca), make_box(cb)
        v = pair_iou(a, b)
        assert v == pair_iou(b, a)
        assert 0.0 <= v <= 1.0 + 1e-12


class TestEncodeDecode:
    def test_hand_fixture(self):
        # gt centered half an anchor-width right of the anchor, twice as wide:
        # t = (0.5, 0, ln 2, 0).
        d = corners([box_from_center(10, 10, 4, 6)])
        g = corners([box_from_center(12, 10, 8, 6)])
        t_cx, t_cy, t_w, t_h = encode_array(g, d)[0]
        assert t_cx == pytest.approx(0.5)
        assert t_cy == pytest.approx(0.0)
        assert t_w == pytest.approx(np.log(2.0))
        assert t_h == pytest.approx(0.0)

    def test_identity_encoding(self):
        d = corners([box_from_center(5, 7, 3, 2)])
        assert encode_array(d, d)[0].tolist() == [0.0, 0.0, 0.0, 0.0]

    @given(box_coords, box_coords)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, cg, cd):
        g = corners([make_box(cg)])
        d = corners([make_box(cd)])
        r = decode_array(encode_array(g, d), d)
        for got, want in zip(r[0], g[0]):
            assert got == pytest.approx(want, abs=1e-9)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(2)
        gs = [make_box(rng.uniform(1, 30, 4)) for _ in range(8)]
        ds = [make_box(rng.uniform(1, 30, 4)) for _ in range(8)]
        t = encode_array(corners(gs), corners(ds))
        for i, (g, d) in enumerate(zip(gs, ds)):
            np.testing.assert_allclose(t[i], encode_box(g, d))
        back = decode_array(t, corners(ds))
        np.testing.assert_allclose(back, corners(gs), atol=1e-9)

    def test_corner_center_inverse(self):
        rng = np.random.default_rng(3)
        a = corners([make_box(rng.uniform(1, 30, 4)) for _ in range(10)])
        np.testing.assert_allclose(center_to_corner(corner_to_center(a)), a)

    def test_degenerate_rejected(self):
        with pytest.raises(ShapeError, match="positive extents"):
            encode_array(np.array([[5, 5, 5, 10.0]]), np.array([[0, 0, 4, 4.0]]))


class TestGenerateAnchors:
    def test_count(self):
        # Per cell: one box per ratio plus the geometric-mean extra box.
        anchors = generate_anchors([8, 4], [16, 32, 64], [[1, 2, 0.5], [1, 2, 0.5]], 64)
        assert anchors.shape == (8 * 8 * 4 + 4 * 4 * 4, 4)

    def test_first_cell_geometry(self):
        anchors = generate_anchors([4], [16, 32], [[1.0, 2.0]], 64)
        # Cell (0,0) center is (8, 8). Ratio-1 box: 16x16, clipped at 0.
        np.testing.assert_allclose(anchors[0], [0, 0, 16, 16])
        # Ratio-2 box: w = 16*sqrt(2), h = 16/sqrt(2), centered at (8, 8).
        w, h = 16 * np.sqrt(2), 16 / np.sqrt(2)
        np.testing.assert_allclose(anchors[1], [max(0, 8 - w / 2), 8 - h / 2,
                                                8 + w / 2, 8 + h / 2])
        # Extra box: side sqrt(16 * 32).
        side = np.sqrt(16 * 32)
        np.testing.assert_allclose(anchors[2], [max(0, 8 - side / 2),
                                                max(0, 8 - side / 2),
                                                8 + side / 2, 8 + side / 2])

    def test_clipped_to_image(self):
        anchors = generate_anchors([2, 1], [40, 60, 80], [[1, 2, 3, 0.5, 1 / 3],
                                                          [1, 2, 0.5]], 64)
        assert (anchors >= 0).all() and (anchors <= 64).all()

    def test_scale_length_validated(self):
        with pytest.raises(ShapeError, match="scale"):
            generate_anchors([4, 2], [16, 32], [[1], [1]], 64)

    def test_ordering_cells_row_major(self):
        anchors = generate_anchors([2], [10, 20], [[1.0]], 64)
        # Two boxes per cell, cells scanned row-major: centers follow
        # (16,16), (48,16), (16,48), (48,48).
        centers = corner_to_center(anchors)[:, :2]
        np.testing.assert_allclose(centers[0], [16, 16])
        np.testing.assert_allclose(centers[2], [48, 16])
        np.testing.assert_allclose(centers[4], [16, 48])
        np.testing.assert_allclose(centers[6], [48, 48])


def brute_force_match(anchors, gts, threshold):
    """Reference matcher mirroring the documented two-step rule."""
    ious = iou_matrix(anchors, corners(gts))
    assign = np.full(len(anchors), -1, dtype=np.int64)
    for i in range(len(anchors)):
        j = int(ious[i].argmax())
        if ious[i, j] >= threshold:
            assign[i] = j
    claimed = set()
    for j in range(len(gts)):
        best, best_iou = -1, -2.0
        for i in range(len(anchors)):
            if i not in claimed and ious[i, j] > best_iou:
                best, best_iou = i, ious[i, j]
        assign[best] = j
        claimed.add(best)
    return assign


class TestMatching:
    def grid_anchors(self):
        return generate_anchors([8, 4], [12, 28, 44], [[1, 2, 0.5], [1, 2, 0.5]], 64)

    def test_every_gt_gets_a_positive(self):
        anchors = self.grid_anchors()
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = rng.integers(1, 4)
            gts = [make_box((rng.uniform(0, 40), rng.uniform(0, 40),
                             rng.uniform(6, 24), rng.uniform(6, 24)))
                   for _ in range(n)]
            a = match_anchors(anchors, corners(gts))
            assert set(a[a >= 0]) == set(range(n))

    def test_matches_brute_force(self):
        anchors = self.grid_anchors()
        rng = np.random.default_rng(5)
        for trial in range(20):
            gts = [make_box((rng.uniform(0, 40), rng.uniform(0, 40),
                             rng.uniform(6, 24), rng.uniform(6, 24)))
                   for _ in range(rng.integers(1, 4))]
            got = match_anchors(anchors, corners(gts))
            np.testing.assert_array_equal(got, brute_force_match(anchors, gts, 0.5))

    def test_shared_best_anchor_still_covers_both_gts(self):
        # Two gts whose best anchor is the same one: the second must fall
        # back to the next-best unclaimed anchor.
        anchors = np.array([[0, 0, 10, 10], [0, 0, 11, 11], [40, 40, 50, 50.0]])
        gts = np.array([[0, 0, 10, 10], [0.5, 0.5, 10.5, 10.5]])
        a = match_anchors(anchors, gts, pos_threshold=0.9)
        assert set(a[:2]) == {0, 1}
        assert a[2] == -1

    def test_no_gts(self):
        a = match_anchors(np.array([[0, 0, 5, 5.0]]), np.zeros((0, 4)))
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, [-1])

    def test_threshold_validated(self):
        with pytest.raises(ShapeError):
            match_anchors(np.array([[0, 0, 5, 5.0]]), np.zeros((0, 4)), pos_threshold=0.0)

    def test_assignment_views(self):
        a = match_anchors(np.array([[0, 0, 10, 10], [20, 20, 30, 30.0]]),
                          np.array([[0, 0, 10, 10.0]]))
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, [0, -1])


def brute_force_nms(dets, thr, max_keep):
    """Indices kept by greedy NMS within classes, by (-score, index)."""
    chosen = []
    pool = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    for i in pool:
        ok = all(dets[i].class_id != dets[j].class_id or iou(dets[i], dets[j]) < thr
                 for j in chosen)
        if ok:
            chosen.append(i)
    return chosen[:max_keep]


def nms_array_of(dets, thr=0.45, max_keep=200):
    """nms_array on ScoredBoxes, as a list of indices."""
    return nms_array(corners(dets), np.array([d.score for d in dets]),
                     np.array([d.class_id for d in dets], dtype=np.int64),
                     thr, max_keep).tolist()


class TestNms:
    def test_suppresses_overlap(self):
        dets = [ScoredBox(0, 0, 10, 10, 0, 0.9), ScoredBox(1, 1, 11, 11, 0, 0.8),
                ScoredBox(30, 30, 40, 40, 0, 0.7)]
        kept = nms_array(corners(dets), np.array([0.9, 0.8, 0.7]),
                         np.zeros(3, dtype=np.int64), 0.45)
        assert kept.tolist() == [0, 2]

    def test_classes_independent(self):
        dets = [ScoredBox(0, 0, 10, 10, 0, 0.9), ScoredBox(0, 0, 10, 10, 1, 0.8)]
        assert nms_array_of(dets) == [0, 1]

    def test_tie_break_by_insertion_order(self):
        dets = [ScoredBox(0, 0, 10, 10, 0, 0.5), ScoredBox(0.1, 0, 10.1, 10, 0, 0.5)]
        kept = nms_array(corners(dets), np.array([0.5, 0.5]),
                         np.zeros(2, dtype=np.int64), 0.45)
        assert kept.tolist() == [0]

    def test_max_keep(self):
        dets = [ScoredBox(20 * i, 0, 20 * i + 10, 10, 0, 1.0 - i * 0.01) for i in range(10)]
        scores = np.array([d.score for d in dets])
        assert len(nms_array(corners(dets), scores, np.zeros(10, dtype=np.int64),
                             max_keep=3)) == 3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            dets = [make_box(rng.uniform(0, 30, 4), class_id=int(rng.integers(0, 2)),
                             score=float(rng.uniform(0, 1))) for _ in range(15)]
            assert nms_array_of(dets, 0.4, 8) == brute_force_nms(dets, 0.4, 8)

    def test_equal_scores_in_two_classes(self):
        # Ties order by index across classes; only box 2 shares box 0's class.
        dets = [ScoredBox(0, 0, 10, 10, 1, 0.5), ScoredBox(0, 0, 10, 10, 0, 0.5),
                ScoredBox(1, 0, 11, 10, 1, 0.5), ScoredBox(30, 30, 40, 40, 0, 0.5)]
        assert nms_array_of(dets) == brute_force_nms(dets, 0.45, 200) == [0, 1, 3]

    def test_one_class_past_max_keep(self):
        # Class 0 has 5 disjoint survivors; the pass interleaves the classes
        # by score and stops at max_keep overall.
        dets = ([ScoredBox(20 * i, 0, 20 * i + 10, 10, 0, 0.9 - 0.1 * i) for i in range(5)]
                + [ScoredBox(0, 0, 10, 10, 1, 0.85), ScoredBox(0, 30, 10, 40, 1, 0.45)])
        assert nms_array_of(dets, max_keep=3) == brute_force_nms(dets, 0.45, 3) == [0, 5, 1]
        assert nms_array_of(dets, max_keep=7) == [0, 5, 1, 2, 3, 4, 6]

    def test_survivor_past_the_prefix(self):
        # Ten equal class-0 boxes leave one survivor in the 2 * max_keep = 4
        # prefix; the same box in class 1 ranks 11th and must still be kept.
        boxes = [ScoredBox(0, 0, 10, 10, 0, 1.0) for _ in range(10)]
        dets = boxes + [ScoredBox(0, 0, 10, 10, 1, 0.5)]
        assert nms_array_of(dets, max_keep=2) == brute_force_nms(dets, 0.45, 2) == [0, 10]

    @given(n=st.integers(0, 300), n_classes=st.integers(1, 4),
           max_keep=st.sampled_from([1, 3, 50, 200]), crowded=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_classes_match_brute_force(self, n, n_classes, max_keep, crowded, seed):
        # Scores rounded to 0.1 tie across classes; rounded corners repeat boxes.
        rng = np.random.default_rng(seed)
        xy = np.round(rng.uniform(0, 8 if crowded else 64, (n, 2)))
        wh = np.round(rng.uniform(10 if crowded else 1, 30, (n, 2)))
        scores = np.round(rng.uniform(0, 1, n), 1)
        classes = rng.integers(0, n_classes, n)
        dets = [ScoredBox(*b, class_id=int(c), score=float(s))
                for b, c, s in zip(np.concatenate([xy, xy + wh], axis=1), classes, scores)]
        assert nms_array_of(dets, 0.45, max_keep) == brute_force_nms(dets, 0.45, max_keep)

    def test_array_variant_matches_box_variant(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            dets = [make_box(rng.uniform(0, 30, 4), class_id=0,
                             score=float(rng.uniform(0, 1))) for _ in range(15)]
            boxes = corners(dets)
            scores = np.array([d.score for d in dets])
            keep = nms_array(boxes, scores, np.zeros(15, dtype=np.int64),
                             iou_threshold=0.4, max_keep=8)
            want = nms(dets, iou_threshold=0.4, max_keep=8)
            assert [dets[i].score for i in keep] == [d.score for d in want]

    @pytest.mark.parametrize("max_keep", [1, 3, 50, 200])
    @pytest.mark.parametrize("thr", [0.3, 0.45, 0.7])
    def test_matches_oracle_index_for_index(self, max_keep, thr):
        # Up to 300 boxes cross the 64-row IoU blocks and the 2 * max_keep
        # prefix; crowded trials suppress enough to make the prefix double;
        # rounding makes duplicates and score ties.
        rng = np.random.default_rng(int(thr * 100) + max_keep)
        for trial in range(8):
            n = int(rng.integers(1, 301))
            crowded = trial % 4 >= 2
            xy = rng.uniform(0, 8 if crowded else 64, (n, 2))
            wh = rng.uniform(10 if crowded else 1, 30, (n, 2))
            scores = rng.uniform(0, 1, n)
            if trial % 2:
                xy, wh, scores = np.round(xy), np.round(wh), np.round(scores, 1)
            boxes = np.concatenate([xy, xy + wh], axis=1)
            dets = [ScoredBox(*b, class_id=0, score=float(s)) for b, s in zip(boxes, scores)]
            position = {id(d): i for i, d in enumerate(dets)}
            keep = nms_array(boxes, scores, np.zeros(n, dtype=np.int64), thr, max_keep)
            want = [position[id(d)] for d in nms(dets, thr, max_keep)]
            assert keep.tolist() == want

    def test_prefix_doubles_until_enough_kept(self):
        # 500 identical top boxes leave one survivor per prefix of 6, 12, ...
        # until the prefix reaches the disjoint boxes ranked behind them.
        boxes = np.array([[0.0, 0.0, 10.0, 10.0]] * 500 +
                         [[20.0 * i, 20.0, 20.0 * i + 10, 30.0] for i in range(5)])
        scores = np.array([1.0] * 500 + [0.5 - 0.01 * i for i in range(5)])
        dets = [ScoredBox(*b, class_id=0, score=float(s)) for b, s in zip(boxes, scores)]
        keep = nms_array(boxes, scores, np.zeros(505, dtype=np.int64), 0.45, max_keep=3)
        assert keep.tolist() == [0, 500, 501]
        assert [dets[i] for i in keep] == nms(dets, 0.45, 3)
