"""Grid walks, region compression, and deadline accounting."""

import io
import math
import re
import time
import tracemalloc
from itertools import chain, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from oracles import (_bounded, load_trace_linewise, save_trace, segment_regions_bruteforce,
                     walk_eager, walk_steps, write_walk_csv_rowwise)
from renderopt import pcg64, prerender
from renderopt.config import WalkSettings
from renderopt.errors import shown
from renderopt.prerender import (MAX_WALK_STEPS, EncodingSpec, GridWorld,
                                 PanoramaFrame, TimingModel, encode_frame,
                                 hop_deadline, load_trace, neighbors,
                                 segment_regions, simulate_walk,
                                 step_latency, write_walk_csv)

WORLD = GridWorld(width=20, height=20)
TIMING = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0,
                     avatar_speed=1.0)
ENCODING = EncodingSpec(base_i_size=100_000.0, ratio_floor=0.1, decay=4.0)
WORK = WalkSettings().panorama_work


class TestHopDeadline:
    def test_default_density_and_speed(self):
        assert hop_deadline(WORLD, TIMING) == 20.0

    def test_linear_in_inverse_speed(self):
        fast = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0,
                           avatar_speed=2.0)
        assert hop_deadline(WORLD, fast) == 10.0

    def test_linear_in_spacing(self):
        wide = GridWorld(width=20, height=20, spacing=0.04)
        assert hop_deadline(wide, TIMING) == 40.0


class TestNeighbors:
    def test_interior_has_four(self):
        assert len(neighbors(WORLD, (10, 10))) == 4

    def test_corner_has_two(self):
        assert len(neighbors(WORLD, (0, 0))) == 2

    def test_single_point_grid_has_none(self):
        assert neighbors(GridWorld(width=1, height=1), (0, 0)) == []

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            neighbors(WORLD, (20, 0))

    def test_diagonal_flag_adds_four(self):
        diag = GridWorld(width=20, height=20, diagonal=True)
        assert len(neighbors(diag, (10, 10))) == 8


def _points(world):
    return [(x, y) for y in range(world.height) for x in range(world.width)]


class TestSegmentRegions:
    def test_exact_single_region(self):
        world = GridWorld(width=5, height=5)
        center_of = segment_regions(world)
        assert {center_of(p) for p in _points(world)} == {(2, 2)}

    def test_ten_by_ten_has_four_regions(self):
        world = GridWorld(width=10, height=10)
        center_of = segment_regions(world)
        assert {center_of(p) for p in _points(world)} == {(2, 2), (7, 2), (2, 7), (7, 7)}

    def test_centers_map_to_themselves(self):
        center_of = segment_regions(WORLD)
        for center in {center_of(p) for p in _points(WORLD)}:
            assert center_of(center) == center

    @pytest.mark.parametrize("w,h,k", [(5, 5, 5), (6, 6, 5), (10, 10, 5),
                                       (13, 9, 3), (7, 7, 7), (1, 1, 1),
                                       (50, 50, 5), (23, 17, 5)])
    def test_nearest_center_under_manhattan(self, w, h, k):
        world = GridWorld(width=w, height=h, region_side=k)
        center_of = segment_regions(world)
        centers = {center_of(p) for p in _points(world)}
        for x, y in _points(world):
            dists = {(cx, cy): abs(cx - x) + abs(cy - y) for cx, cy in centers}
            best = min(dists.values())
            winners = [c for c, d in dists.items() if d == best]
            # on a tie, the lower center along each axis: the first row-major
            assert center_of((x, y)) == min(winners, key=lambda c: (c[1], c[0]))


@hyp_settings(max_examples=150, deadline=None)
@given(w=st.integers(1, 60), h=st.integers(1, 60), k=st.sampled_from([1, 3, 5, 7, 9]))
def test_segmentation_matches_bruteforce(w, h, k):
    world = GridWorld(width=w, height=h, region_side=k)
    center_of = segment_regions(world)
    expected = segment_regions_bruteforce(world)
    assert {p: center_of(p) for p in _points(world)} == expected


class TestEncodeFrame:
    def test_center_is_reference_frame(self):
        frame = encode_frame((2, 2), ENCODING, (2, 2))
        assert frame.kind == "I"
        assert frame.size == ENCODING.base_i_size
        assert frame.reference is None

    def test_distance_ramp_value(self):
        enc = EncodingSpec(base_i_size=1000.0, ratio_floor=0.1, decay=4.0)
        frame = encode_frame((0, 2), enc, (2, 2))  # dist 2
        assert frame.kind == "P"
        assert frame.size == pytest.approx(550.0)
        assert frame.reference == (2, 2)

    def test_floor_reached_in_slow_decay_limit(self):
        enc = EncodingSpec(base_i_size=1000.0, ratio_floor=0.1, decay=1e9)
        frame = encode_frame((1, 2), enc, (2, 2))  # dist 1
        assert frame.size == pytest.approx(100.0, rel=1e-6)

    def test_never_inflates_and_respects_floor(self):
        world = GridWorld(width=23, height=17)
        center_of = segment_regions(world)
        for point in _points(world):
            frame = encode_frame(point, ENCODING, center_of(point))
            assert frame.size <= ENCODING.base_i_size
            assert frame.size >= ENCODING.ratio_floor * ENCODING.base_i_size
            if frame.kind == "P":
                assert frame.reference == center_of(point)


class TestStepLatency:
    def test_cached_reference_frame(self):
        frame = PanoramaFrame(grid_point=(2, 2), kind="I", size=1e6, reference=None)
        assert step_latency(frame, TIMING, work=100.0) == pytest.approx(6.0)

    def test_delta_frame_pays_transmission(self):
        timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=100.0)
        frame = PanoramaFrame(grid_point=(0, 0), kind="P", size=550.0, reference=(2, 2))
        assert step_latency(frame, timing, work=100.0) == pytest.approx(11.5)

    def test_monotone_in_size(self):
        sizes = np.linspace(0, 1e5, 30)
        lats = [step_latency(PanoramaFrame((0, 0), "P", s, (2, 2)), TIMING, 100.0)
                for s in sizes]
        assert np.all(np.diff(lats) >= 0)


class TestSimulateWalk:
    def test_default_walk_never_misses(self):
        result = simulate_walk(WORLD, TIMING, 1000, 3, ENCODING, WORK)
        assert result.deadline_misses == 0
        assert max(walk_steps(result)[1]) <= hop_deadline(WORLD, TIMING)

    def test_tiny_bandwidth_misses_every_fresh_delta_step(self):
        starved = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=0.001)
        trace = tuple((x, 0) for x in range(20))  # row 0 holds no region centers
        result = simulate_walk(WORLD, starved, 19, 0, ENCODING, WORK, trace=trace)
        assert result.deadline_misses == result.steps == 19

    def test_compression_beats_full_frame_baseline(self):
        result = simulate_walk(WORLD, TIMING, 500, 0, ENCODING, WORK)
        assert result.bytes_all_i_baseline == 500 * ENCODING.base_i_size
        assert result.bytes_transmitted <= result.bytes_all_i_baseline
        assert result.bytes_transmitted / result.bytes_all_i_baseline < 1.0

    def test_revisits_do_not_pay_twice(self):
        # oscillate between two non-center points: only two fresh fetches
        trace = tuple((0, 0) if i % 2 == 0 else (0, 1) for i in range(11))
        result = simulate_walk(WORLD, TIMING, 10, 0, ENCODING, WORK, trace=trace)
        center_of = segment_regions(WORLD)
        frames = {p: encode_frame(p, ENCODING, center_of(p)) for p in ((0, 0), (0, 1))}
        assert result.bytes_transmitted == pytest.approx(
            frames[(0, 0)].size + frames[(0, 1)].size)

    def test_misses_bounded_by_steps(self):
        result = simulate_walk(WORLD, TIMING, 200, 9, ENCODING, WORK)
        assert result.deadline_misses <= result.steps

    def test_seed_reproducibility(self):
        a = simulate_walk(WORLD, TIMING, 300, 11, ENCODING, WORK)
        b = simulate_walk(WORLD, TIMING, 300, 11, ENCODING, WORK)
        assert walk_steps(a) == walk_steps(b)
        assert a.bytes_transmitted == b.bytes_transmitted

    def test_trace_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            simulate_walk(WORLD, TIMING, 1, 0, ENCODING, WORK, trace=((0, 0), (0, 20)))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate_walk(WORLD, TIMING, 0, 0, ENCODING, WORK)

    def test_diagonal_deadline_scales_with_hop_length(self):
        world = GridWorld(width=10, height=10, diagonal=True)
        # latency 21ms: above the straight deadline (20ms), below the
        # diagonal one (28.28ms)
        timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0)
        enc = EncodingSpec(base_i_size=120_000.0, ratio_floor=1.0, decay=4.0)
        straight = simulate_walk(world, timing, 1, 0, enc, WORK, trace=((0, 0), (1, 0)))
        diagonal = simulate_walk(world, timing, 1, 0, enc, WORK, trace=((0, 0), (1, 1)))
        assert straight.deadline_misses == 1
        assert diagonal.deadline_misses == 0

    def test_teleporting_trace_hop_rejected(self):
        trace = ((0, 0), (1, 0), (5, 5))
        with pytest.raises(ValueError, match=r"trace step 2: hop \(1, 0\) -> \(5, 5\)"):
            simulate_walk(WORLD, TIMING, 2, 0, ENCODING, WORK, trace=trace)

    def test_trace_hop_must_move(self):
        with pytest.raises(ValueError, match="trace step 1"):
            simulate_walk(WORLD, TIMING, 1, 0, ENCODING, WORK, trace=((3, 3), (3, 3)))

    def test_diagonal_trace_hop_legal_only_on_diagonal_floor(self):
        trace = ((0, 0), (1, 1), (2, 0))
        diag = GridWorld(width=20, height=20, diagonal=True)
        assert simulate_walk(diag, TIMING, 2, 0, ENCODING, WORK, trace=trace).steps == 2
        with pytest.raises(ValueError, match="trace step 1"):
            simulate_walk(WORLD, TIMING, 2, 0, ENCODING, WORK, trace=trace)

    def test_walk_record_holds_each_step_fact_once(self):
        # a dict per step held ~6 MB for 20 000 steps; three per-step lists
        # (frame, latency, missed) held 25 bytes a step. One outcome id a step
        # is 8 bytes, plus the list's over-allocation.
        steps = 200_000
        simulate_walk(WORLD, TIMING, 10, 3, ENCODING, WORK)  # imports done
        tracemalloc.start()
        try:
            result = simulate_walk(WORLD, TIMING, steps, 3, ENCODING, WORK)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.steps == len(result.step_outcomes) == steps
        assert held < 12 * steps
        # on an axis floor a point has at most two outcomes: the entry that
        # fetches its P-frame, and an axis hop into it once the frame is kept
        assert len(result.outcomes) <= 2 * WORLD.width * WORLD.height
        # one frame object per entered point, however often it is entered
        entered = {frame.grid_point for frame, _, _ in result.outcomes}
        assert len({id(frame) for frame, _, _ in result.outcomes}) == len(entered)

    def test_frames_encoded_once_per_entered_point(self, monkeypatch):
        calls = []
        real = prerender.encode_frame

        def counting(point, encoding, center):
            calls.append(point)
            return real(point, encoding, center)

        monkeypatch.setattr(prerender, "encode_frame", counting)
        world = GridWorld(width=300, height=300)
        result = simulate_walk(world, TIMING, 400, 4, ENCODING, WORK)
        assert sorted(calls) == sorted({frame.grid_point for frame, _, _ in result.outcomes})


def _neighbour_path(world, start, hops, rng):
    path = [start]
    for _ in range(hops):
        options = neighbors(world, path[-1])
        path.append(options[int(rng.integers(len(options)))])
    return tuple(path)


def _assert_walk_matches_eager(out, world, timing, seed, trace_seed):
    """Seeded and replayed walks equal the eager reference step by step, and
    their CSV is byte-equal to the one csv.writer writes row by row."""
    traces = [None]
    if world.width * world.height > 1:      # a one-point floor has no hop to replay
        start = (0, world.height - 1)
        traces.append(_neighbour_path(world, start, 600, np.random.default_rng(trace_seed)))
    for trace in traces:
        # a replay reads its points one at a time, as from a trace file
        result = simulate_walk(world, timing, 600, seed, ENCODING, WORK,
                               trace=None if trace is None else iter(trace))
        frames, latencies, missed, bytes_tx = walk_eager(world, timing, 600, seed, ENCODING,
                                                         WORK, trace)
        assert walk_steps(result) == (frames, latencies, missed)
        assert result.bytes_transmitted == bytes_tx
        assert result.deadline_misses == sum(missed)
        write_walk_csv(result, out / "steps.csv")
        write_walk_csv_rowwise(result, out / "rowwise.csv")
        assert (out / "steps.csv").read_bytes() == (out / "rowwise.csv").read_bytes()


@pytest.mark.parametrize("w,h,k,diagonal", [(23, 17, 5, False), (23, 17, 7, True),
                                            (12, 9, 5, True), (6, 11, 3, False)])
def test_walk_matches_eager_reference(tmp_path, w, h, k, diagonal):
    world = GridWorld(width=w, height=h, region_side=k, diagonal=diagonal)
    timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=5000.0)
    _assert_walk_matches_eager(tmp_path, world, timing, seed=7, trace_seed=w * h)


@hyp_settings(max_examples=60, deadline=None)
@given(w=st.integers(1, 30), h=st.integers(1, 30), k=st.integers(0, 15).map(lambda n: 2 * n + 1),
       diagonal=st.booleans(), bandwidth=st.floats(500.0, 20_000.0), seed=st.integers(0, 2**32))
@example(w=1, h=1, k=1, diagonal=True, bandwidth=500.0, seed=0)       # no neighbour: stays
@example(w=30, h=30, k=7, diagonal=True, bandwidth=1000.0, seed=1)    # most P-frames miss
def test_walk_matches_eager_reference_on_any_floor(tmp_path_factory, w, h, k, diagonal,
                                                   bandwidth, seed):
    world = GridWorld(width=w, height=h, region_side=k, diagonal=diagonal)
    timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=bandwidth)
    _assert_walk_matches_eager(tmp_path_factory.mktemp("walk"), world, timing, seed, seed)


class TestBlockDraws:
    """A seeded walk picks its next point from raw draws taken in blocks from
    `renderopt.pcg64`, its own integer-only PCG64."""

    @hyp_settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**256), wanted=st.integers(0, 1200))
    @example(seed=0, wanted=0)
    @example(seed=2**32 - 1, wanted=300)
    @example(seed=2**32, wanted=1)
    @example(seed=2**128 - 1, wanted=511)              # four words, the most one pool takes
    @example(seed=2**128, wanted=513)                  # five: the remaining-entropy branch
    @example(seed=int("9" * 4300), wanted=4000)        # the largest --seed argparse accepts
    def test_stream_equals_random_raw(self, seed, wanted):
        """The walk's draw source gives `default_rng(seed).bit_generator
        .random_raw`'s 64-bit draws, low half first, over three blocks."""
        halves = prerender._halves(seed, wanted)
        draws = 3 * pcg64._BLOCK
        raw = [lo | hi << 32 for lo, hi in islice(zip(halves, halves), draws)]
        assert raw == np.random.default_rng(seed).bit_generator.random_raw(draws).tolist()

    def test_blocks_end_at_the_draws_asked_for(self):
        # a 300-step walk on a 200x200 floor takes 300 halves: 150 draws, one block
        assert len(next(pcg64._blocks(*pcg64._seeded(0), 150))) == 300
        blocks = pcg64._blocks(*pcg64._seeded(0), 600)
        assert [len(next(blocks)) for _ in range(4)] == [512, 512, 176, 512]

    def test_largest_seed_seeds_in_milliseconds(self):
        seed = int("9" * 4300)
        started = time.process_time()
        pcg64._seeded(seed)
        assert time.process_time() - started < 0.05

    def test_negative_seed_raises_as_numpy_does(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            prerender._halves(-1, 1)

    @hyp_settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64),
           ns=st.lists(st.one_of(st.integers(1, 8), st.integers(1, 2**32 - 1)),
                       min_size=1, max_size=100),
           w=st.integers(1, 5), h=st.integers(1, 5), diagonal=st.booleans())
    @example(seed=9001, ns=[7, 1, 2**31 + 1] * 1500, w=3, h=3, diagonal=True)  # many rejections
    def test_equals_rng_integers(self, seed, ns, w, h, diagonal):
        """A seeded walk's own picks, each its next point's index among the
        neighbours, are what `rng.integers(n)` gives one call at a time on a
        fresh generator with the same seed. `oracles._bounded`, the reference
        the rejection tests below hold the walk's inline pick to, gives them
        too over the walk's draw source at any n; past n = 2**31 the rejection
        zone is nearly half of all halves. The walk draws from `pcg64`, so a
        numpy release that changes how `Generator.integers` draws no longer
        moves a walk: this test then fails, and says only that the walk's
        picks are no longer numpy's."""
        world = GridWorld(width=w, height=h, diagonal=diagonal)
        current = (w // 2, h // 2)
        picks = []
        for frame in walk_steps(simulate_walk(world, TIMING, 60, seed, ENCODING, WORK))[0]:
            options = neighbors(world, current) or [current]
            picks.append((options.index(frame.grid_point), len(options)))
            current = frame.grid_point
        rng = np.random.default_rng(seed)
        assert [i for i, _ in picks] == [int(rng.integers(n)) for _, n in picks]
        rng = np.random.default_rng(seed)
        halves = prerender._halves(seed, len(ns))
        assert [_bounded(halves, n) for n in ns] == [int(rng.integers(n)) for n in ns]

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_rejected_half_takes_the_next(self, n):
        # for a walk's n a half is rejected with probability below 2**-29, so
        # no seed reaches this branch: take the halves h with h * n = k mod
        # 2**32 for every k below the threshold instead, each three times
        threshold = (2**32 - n) % n
        rejected = [k * pow(n, -1, 2**32) % 2**32 for k in range(threshold)] * 3
        assert rejected and all((h * n) & 0xFFFFFFFF < threshold for h in rejected)
        assert _bounded(iter([*rejected, 2**32 - 1, 0]), n) == n - 1
        if n == 7:          # no floor has a point with 7 neighbours: the reference alone
            return
        # a seeded walk starts at the floor's middle, on a 3x2 floor an edge
        # point: 3 neighbours on an axis floor, 5 on a diagonal one
        world = GridWorld(width=3, height=2, diagonal=n == 5)
        options = neighbors(world, (1, 1))
        assert len(options) == n
        halves = iter([*rejected, 2**32 - 1, 0])
        with mock.patch.object(prerender, "_halves", lambda seed, wanted: halves):
            result = simulate_walk(world, TIMING, 1, 0, ENCODING, WORK)
        assert walk_steps(result)[0][0].grid_point == options[n - 1]
        assert next(halves) == 0

    def test_one_option_takes_no_half(self):
        assert _bounded(iter([2**32 - 1, 0]), 1) == 0
        # a 1x1 floor stays put, and takes no half
        halves = iter([2**32 - 1, 0])
        with mock.patch.object(prerender, "_halves", lambda seed, wanted: halves):
            result = simulate_walk(GridWorld(width=1, height=1), TIMING, 3, 0, ENCODING, WORK)
        assert [f.grid_point for f in walk_steps(result)[0]] == [(0, 0)] * 3
        assert next(halves) == 2**32 - 1
        # a 1x3 floor: the middle has two neighbours and takes the first
        # half, an end has one and takes none, and the middle takes the second
        halves = iter([2**32 - 1, 0])
        with mock.patch.object(prerender, "_halves", lambda seed, wanted: halves):
            result = simulate_walk(GridWorld(width=1, height=3), TIMING, 3, 0, ENCODING, WORK)
        assert [f.grid_point for f in walk_steps(result)[0]] == [(0, 0), (0, 1), (0, 2)]
        assert next(halves, None) is None


_FIELD = st.integers(-10**30, 10**30)


class TestTraceIO:
    @hyp_settings(max_examples=60, deadline=None)
    @given(points=st.lists(st.tuples(_FIELD, _FIELD), min_size=1, max_size=20))
    @example(points=[(0, 0), (1, 0), (1, 1), (2, 1)])
    def test_round_trip(self, tmp_path_factory, points):
        path = tmp_path_factory.mktemp("trace") / "walk.trace"
        save_trace(path, points)
        assert tuple(load_trace(path)) == tuple(points)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            list(load_trace(path))

    def test_gaps_in_step_indices_allowed(self, tmp_path):
        path = tmp_path / "gaps.trace"
        path.write_text("# comment\n0 0 0\n\n3 1 0\n10 1 1\n")
        assert tuple(load_trace(path)) == ((0, 0), (1, 0), (1, 1))

    @pytest.mark.parametrize("text, lineno", [("0 0 0\n1 1 0\n1 2 0\n", 3),
                                              ("0 0 0\n2 1 0\n1 2 0\n", 3),
                                              ("5 0 0\n# c\n4 1 0\n", 3)])
    def test_non_increasing_step_index_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        echo = re.escape(f"{shown(str(path))}:{lineno}: step index")
        with pytest.raises(ValueError, match=echo):
            list(load_trace(path))

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0 0 0\n1 1.5 0\n")
        with pytest.raises(ValueError, match=re.escape(f"{shown(str(path))}:2: expected")):
            list(load_trace(path))

    def test_long_bad_line_echo_is_capped(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0 0 0\n1 0 " + "9" * 5000 + "\n")     # past int()'s digit limit
        with pytest.raises(ValueError) as info:
            list(load_trace(path))
        assert str(info.value).endswith(f"{shown(str(path))}:2: expected 'step_index x y' "
                                        f"integers, got '1 0 {'9' * 55}...")

    def test_trace_past_the_walk_cap_is_refused_while_reading(self, tmp_path):
        path = tmp_path / "long.trace"
        path.write_text("".join(f"{i} {i % 2} 0\n" for i in range(6)) + "not a point\n")
        # a 5-step walk reads its 6 points, then the malformed line after them
        with pytest.raises(ValueError, match=re.escape(f"{shown(str(path))}:7: expected")):
            simulate_walk(WORLD, TIMING, 5, 0, ENCODING, WORK, trace=load_trace(path))
        # a seventh point is refused before the malformed line after it is read
        path.write_text("".join(f"{i} {i % 2} 0\n" for i in range(7)) + "not a point\n")
        with pytest.raises(ValueError, match="^trace has more than 5 steps; a walk takes "
                                             "from 1 to 5$"):
            simulate_walk(WORLD, TIMING, 5, 0, ENCODING, WORK, trace=load_trace(path))

    def test_a_byte_that_is_not_utf8_is_reported_when_the_walk_reaches_it(self, tmp_path):
        # a byte that is not UTF-8 is a fault of its line: a 5-step walk that
        # stops before that line refuses its seventh point, though the byte
        # is in the block read; one that reaches the line names it
        path = tmp_path / "ahead.trace"
        for points, problem in [(7, "trace has more than 5 steps; a walk takes from 1 to 5"),
                                (6, f"{shown(str(path))}:7: byte 0xff is not UTF-8, in b'\\xff'")]:
            path.write_bytes(_points_text(points).encode() + b"\xff\n")
            with pytest.raises(ValueError) as info:
                simulate_walk(WORLD, TIMING, 5, 0, ENCODING, WORK, trace=load_trace(path))
            assert str(info.value) == problem
        # a byte past the text reader's first 8192-byte chunks is named with
        # its line, not with its place in a chunk
        path.write_bytes(_points_text(3000).encode() + b"3000 \xff 0\n")
        assert path.read_bytes().index(b"\xff") == 25_895
        with pytest.raises(ValueError) as info:
            list(load_trace(path))
        assert str(info.value) == (f"{shown(str(path))}:3001: byte 0xff is not UTF-8, "
                                   f"in b'3000 \\xff 0'")

    def test_csv_export_schema(self, tmp_path):
        result = simulate_walk(WORLD, TIMING, 10, 0, ENCODING, WORK)
        path = tmp_path / "steps.csv"
        write_walk_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,x,y,kind,size,latency_ms,missed"
        assert len(lines) == 11


class TestValidation:
    def test_world_invariants(self):
        with pytest.raises(ValueError):
            GridWorld(width=0, height=5)
        with pytest.raises(ValueError):
            GridWorld(width=5, height=5, spacing=0.0)
        with pytest.raises(ValueError):
            GridWorld(width=5, height=5, region_side=4)

    def test_timing_invariants(self):
        with pytest.raises(ValueError):
            TimingModel(t_request=0.0, render_throughput=1.0, bandwidth=1.0)

    def test_encoding_invariants(self):
        with pytest.raises(ValueError):
            EncodingSpec(ratio_floor=0.0)
        with pytest.raises(ValueError):
            EncodingSpec(decay=0.0)

    def test_mobility_invariants(self):
        # a replay takes one step per point after the start, from 1 to horizon steps
        for points in range(8):
            trace = [(i % 2, 0) for i in range(points)]
            if 2 <= points <= 6:
                result = simulate_walk(WORLD, TIMING, 5, 0, ENCODING, WORK, trace=trace)
                assert result.steps == points - 1
                # the all-I baseline counts the steps walked
                assert result.bytes_all_i_baseline == (points - 1) * ENCODING.base_i_size
                continue
            problem = "no" if points < 2 else "more than 5"
            with pytest.raises(ValueError, match=f"^trace has {problem} steps; a walk takes "
                                                 f"from 1 to 5$"):
                simulate_walk(WORLD, TIMING, 5, 0, ENCODING, WORK, trace=trace)


@hyp_settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 30), h=st.integers(1, 30), k=st.sampled_from([1, 3, 5, 7]))
def test_every_point_assigned_exactly_once(w, h, k):
    # each point's center is one grid point, and that center's own center
    world = GridWorld(width=w, height=h, region_side=k)
    center_of = segment_regions(world)
    for point in _points(world):
        center = center_of(point)
        assert world.contains(center)
        assert center_of(center) == center


@hyp_settings(max_examples=60, deadline=None)
@given(indices=st.lists(st.integers(-5, 20), min_size=1, max_size=8))
def test_trace_loads_iff_indices_strictly_increase(tmp_path_factory, indices):
    path = tmp_path_factory.mktemp("trace") / "walk.trace"
    path.write_text("".join(f"{i} {n} 0\n" for n, i in enumerate(indices)))
    if all(a < b for a, b in zip(indices, indices[1:])):
        assert tuple(load_trace(path)) == tuple((n, 0) for n in range(len(indices)))
    else:
        with pytest.raises(ValueError, match="indices must strictly increase"):
            list(load_trace(path))


_CAP = prerender._TRACE_LINE_CHARS
_BLOCK = prerender._TRACE_BLOCK_CHARS
_ODD_LINES = ["1_0 0 0", "\u0661 0 0", "0 0", "0 0 0 0", "1.5 0 0", "0x1 0 0", "- 1 0 0",
              "0 0 0 # note", "\x00", "\u00a00 0 0", "0\x1c0 0"]


def _points_text(count: int, first: int = 0) -> str:
    """Canonical lines of the points (i % 2, 0), indices from `first`: a walk
    back and forth along row 0."""
    return "".join(f"{i} {i % 2} 0\n" for i in range(first, first + count))


def _filled(chars: int) -> str:
    """Exactly `chars` characters of whole lines: points 0 to chars // 16 - 1,
    then one comment line."""
    text = _points_text(chars // 16)
    return text + "#" * (chars - len(text) - 1) + "\n"


def _padded(chars: int) -> str:
    """One point line of exactly `chars` characters, its newline included."""
    return "1000000 1 0".ljust(chars - 1) + "\n"


@st.composite
def trace_texts(draw):
    """A trace file's text: point lines written canonically or with signs,
    leading zeros, tabs and padding; runs of canonical lines long enough to
    span several blocks; comments, blanks, fields at and past int's digit
    limit, lines around the cap, indices that do not increase, and junk;
    each line ended by LF, CRLF or CR, the last one maybe by nothing. The
    points go back and forth along row 0, so the text walks on WORLD up to
    its first fault."""
    index, n, lines = draw(st.integers(-3, 3)), 0, []
    for kind in draw(st.lists(st.sampled_from(["point", "point", "point", "run", "comment",
                                               "blank", "back", "huge", "cap", "odd", "junk"]),
                              max_size=12)):
        if kind == "run":
            k = draw(st.integers(1, 7000))
            lines.append("".join(f"{index + i} {(n + i) % 2} 0\n" for i in range(k)))
            index, n = index + k, n + k
            continue
        space = draw(st.sampled_from([" ", "\t", " \t ", "\f", "\v", "  "]))
        lead, tail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
        if kind in ("point", "back", "huge", "cap"):
            if kind == "back":
                index -= draw(st.integers(1, 3))
            x = "9" * draw(st.sampled_from([4299, 4300, 4301, 5000])) if kind == "huge" \
                else draw(st.sampled_from(["", "+", "0", "+00"])) + str(n % 2)
            y = draw(st.sampled_from(["0", "-0", "+0", "00"]))
            sign = "+" if index >= 0 and draw(st.booleans()) else ""
            line = lead + space.join([f"{sign}{index}", x, y]) + tail
            if kind == "cap":           # CAP - 2 to CAP + 2 characters, the newline included
                line += " " * max(0, _CAP + draw(st.integers(-2, 2)) - 1 - len(line))
            index, n = index + draw(st.integers(1, 3)), n + 1
        elif kind == "comment":
            line = lead + "#" + draw(st.text(max_size=12))
        elif kind == "blank":
            line = lead + tail
        elif kind == "odd":
            line = draw(st.sampled_from(_ODD_LINES))
        else:
            line = draw(st.text(max_size=8))
        lines.append(line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _read(points) -> tuple[list, str | None]:
    """The points an iterator yields up to its first fault, and that fault's message."""
    seen = []
    try:
        for point in points:
            seen.append(point)
    except ValueError as exc:
        return seen, str(exc)
    return seen, None


def _replay(points, horizon: int):
    """A replay's summary and step outcomes on WORLD, or its fault's message."""
    try:
        result = simulate_walk(WORLD, TIMING, horizon, 0, ENCODING, WORK, trace=points)
    except ValueError as exc:
        return str(exc)
    return result.summary(), result.step_outcomes


@hyp_settings(max_examples=80, deadline=None)
@given(text=trace_texts(), block=st.one_of(st.just(_BLOCK), st.integers(1, 40)),
       horizon=st.one_of(st.integers(1, 8), st.just(MAX_WALK_STEPS)))
# a line straddling a block boundary
@example(text=_filled(_BLOCK - 5) + _points_text(3, 10**6), block=_BLOCK, horizon=MAX_WALK_STEPS)
# lines of _CAP and _CAP + 1 characters, newline included, at a block's end
# (the rest read by the capped readline) and from a block's start
@example(text=_filled(_BLOCK - 10) + _padded(_CAP) + _points_text(2, 2 * 10**6), block=_BLOCK,
         horizon=MAX_WALK_STEPS)
@example(text=_filled(_BLOCK - 10) + _padded(_CAP + 1) + _points_text(2, 2 * 10**6),
         block=_BLOCK, horizon=MAX_WALK_STEPS)
@example(text=_filled(_BLOCK) + _padded(_CAP) + _points_text(2, 2 * 10**6), block=_BLOCK,
         horizon=MAX_WALK_STEPS)
@example(text=_filled(_BLOCK) + _padded(_CAP + 1), block=_BLOCK, horizon=MAX_WALK_STEPS)
# a line longer than the block and the capped readline together
@example(text=_filled(_BLOCK - 10) + _padded(_BLOCK + 3 * _CAP), block=_BLOCK,
         horizon=MAX_WALK_STEPS)
# the last line, with no newline, of _CAP and _CAP + 1 characters
@example(text=_points_text(3) + _padded(_CAP + 1)[:-1], block=_BLOCK, horizon=MAX_WALK_STEPS)
@example(text=_points_text(3) + _padded(_CAP + 2)[:-1], block=_BLOCK, horizon=MAX_WALK_STEPS)
# a 5 000-digit field inside an otherwise valid block
@example(text=_points_text(5) + "5 " + "9" * 5000 + " 0\n" + _points_text(3, 6), block=_BLOCK,
         horizon=MAX_WALK_STEPS)
# a block of comments only, between blocks of points
@example(text=_points_text(2) + "# " + "c" * (_BLOCK - 3) + "\n" + _points_text(2, 2),
         block=_BLOCK, horizon=MAX_WALK_STEPS)
@example(text="0 0 0\n#\n# only a comment\n1 1 0\n", block=6, horizon=MAX_WALK_STEPS)
# a malformed line in the block of the point past the walk's cap: the walk
# refuses the point before the line is read
@example(text=_points_text(7) + "not a point\n", block=_BLOCK, horizon=5)
# an index that does not follow the last one of the block before
@example(text=_filled(_BLOCK) + f"{_BLOCK // 16 - 1} 1 0\n", block=_BLOCK,
         horizon=MAX_WALK_STEPS)
def test_block_reader_matches_line_reader(tmp_path_factory, text, block, horizon):
    # the same points in the same order, and the same fault after as many
    # points, as the reader of one line at a time; so the same replay
    path = tmp_path_factory.mktemp("trace") / "walk.trace"
    path.write_text(text, encoding="utf-8", newline="")
    want = _read(load_trace_linewise(path))
    with mock.patch.object(prerender, "_TRACE_BLOCK_CHARS", block), \
            mock.patch.object(prerender, "_line_points", wraps=prerender._line_points) as lines:
        assert _read(load_trace(path)) == want
        # only a block that holds a fault is read a line at a time
        assert lines.called == (want[1] is not None)
        assert _replay(load_trace(path), horizon) == _replay(load_trace_linewise(path), horizon)


# a text's lines with their ends, split where universal newlines split them
_LINES = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")


@st.composite
def undecodable_traces(draw):
    """(a trace_texts text as bytes, with one byte that is not UTF-8 put into a
    drawn line: into the line itself, a comment made of it, a blank line put
    in its place, or before a CRLF; the text with that line malformed
    instead; the line's number; the line as bytes, end left out; the byte)."""
    lines = _LINES.findall(draw(trace_texts())) or [""]
    at_line = draw(st.integers(0, len(lines) - 1))
    text = lines[at_line].rstrip("\r\n")
    end = lines[at_line][len(text):]
    byte = bytes([draw(st.integers(0x80, 0xFF))])
    at = draw(st.integers(0, min(len(text), 100)))     # inside the line's first read
    where = draw(st.sampled_from(["line", "comment", "blank", "crlf"]))
    if where == "line":
        line = text[:at].encode() + byte + text[at:].encode()
    elif where == "comment":
        line = b"#" + text[:at].encode() + byte + text[at:].encode()
    elif where == "blank":
        line = draw(st.sampled_from([b"", b" ", b"\t "])) + byte
    else:                               # cut to end within the cap
        line, end = text[:_CAP - 2].encode() + byte, "\r\n"
    before, after = "".join(lines[:at_line]), "".join(lines[at_line + 1:])
    return (before.encode() + line + end.encode() + after.encode(),
            before + "not a point" + end + after, at_line + 1, line, byte[0])


@hyp_settings(max_examples=80, deadline=None)
@given(case=undecodable_traces(), block=st.one_of(st.just(_BLOCK), st.integers(1, 40)))
# a byte in a comment, and a lone continuation byte before a CRLF
@example(case=(b"0 0 0\n# caf\xe9\n1 1 0\n", "0 0 0\nnot a point\n1 1 0\n", 2, b"# caf\xe9",
               0xE9), block=_BLOCK)
@example(case=(b"0 0 0\r\n1 1 0\x80\r\n", "0 0 0\r\nnot a point\r\n", 2, b"1 1 0\x80",
               0x80), block=3)
def test_a_byte_that_is_not_utf8_is_a_fault_of_its_line(tmp_path_factory, case, block):
    # the points the line reader yields with that line malformed, and then,
    # unless a fault before it comes first, that line's fault: its first byte
    # that is not UTF-8, and the line's bytes
    raw, malformed, lineno, line, byte = case
    path = tmp_path_factory.mktemp("trace") / "walk.trace"
    path.write_text(malformed, encoding="utf-8", newline="")
    points, fault = _read(load_trace_linewise(path))
    where = f"{shown(str(path))}:{lineno}: "
    if fault == f"{where}expected 'step_index x y' integers, got 'not a point'":
        echo = line.decode(errors="surrogateescape").strip().encode(errors="surrogateescape")
        fault = f"{where}byte {byte:#04x} is not UTF-8, in {shown(echo)}"
    path.write_bytes(raw)
    with mock.patch.object(prerender, "_TRACE_BLOCK_CHARS", block):
        assert _read(load_trace(path)) == (points, fault)


@hyp_settings(max_examples=80, deadline=None)
@given(raw=st.one_of(trace_texts().map(str.encode), undecodable_traces().map(lambda c: c[0])),
       last=st.one_of(st.just(-math.inf), st.integers(-5, 5)))
@example(raw=b"0 0 0\n1 \xff 0\n", last=-math.inf)
@example(raw=b"5 0 0\n# c\n4 1 0\n", last=-math.inf)
def test_line_points_raises_on_every_block_that_block_points_refuses(raw, last):
    # a text read as one block: refused, it holds a line refused on its own,
    # so the line-by-line check raises; passed, it yields the same points
    block = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape").read()
    lines = prerender._line_points("walk.trace", block, 0, last)
    parsed = prerender._block_points(block, last)
    if parsed is None:
        with pytest.raises(ValueError, match="^'walk.trace':[0-9]+: "):
            list(lines)
    else:
        assert list(chain.from_iterable(lines)) == list(parsed[1])
