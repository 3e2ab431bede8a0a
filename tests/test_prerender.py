"""Grid walks, region compression, and deadline accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from oracles import segment_regions_bruteforce
from renderopt import prerender
from renderopt.prerender import (EncodingSpec, GridWorld, MobilitySpec,
                                 PanoramaFrame, TimingModel, encode_frame,
                                 hop_deadline, load_trace, neighbors,
                                 save_trace, segment_regions, simulate_walk,
                                 step_latency, write_walk_csv)

WORLD = GridWorld(width=20, height=20)
TIMING = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0,
                     avatar_speed=1.0)
ENCODING = EncodingSpec(base_i_size=100_000.0, ratio_floor=0.1, decay=4.0)


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


class TestSegmentRegions:
    def test_exact_single_region(self):
        regions = segment_regions(GridWorld(width=5, height=5))
        assert {rid for rid, _ in regions.values()} == {0}
        assert regions[(0, 0)][1] == (2, 2)

    def test_ten_by_ten_has_four_regions(self):
        regions = segment_regions(GridWorld(width=10, height=10))
        assert len({rid for rid, _ in regions.values()}) == 4

    def test_centers_map_to_themselves(self):
        regions = segment_regions(WORLD)
        for _, center in set(regions.values()):
            assert regions[center][1] == center

    @pytest.mark.parametrize("w,h,k", [(5, 5, 5), (6, 6, 5), (10, 10, 5),
                                       (13, 9, 3), (7, 7, 7), (1, 1, 1),
                                       (50, 50, 5), (23, 17, 5)])
    def test_nearest_center_under_manhattan(self, w, h, k):
        world = GridWorld(width=w, height=h, region_side=k)
        regions = segment_regions(world)
        centers = sorted(set(regions.values()))
        assert len(regions) == w * h
        for (x, y), (rid, assigned) in regions.items():
            dists = [abs(cx - x) + abs(cy - y) for _, (cx, cy) in centers]
            best = min(dists)
            winners = [centers[i][0] for i, d in enumerate(dists) if d == best]
            assert rid == min(winners)
            assert abs(assigned[0] - x) + abs(assigned[1] - y) == best

    def test_mapping_length_order_and_bounds(self):
        world = GridWorld(width=7, height=4, region_side=3)
        regions = segment_regions(world)
        assert len(regions) == 28
        assert list(regions) == [(x, y) for y in range(4) for x in range(7)]
        for point in [(-1, 0), (7, 0), (0, 4), (0, -1), "x", (1, 2, 3)]:
            with pytest.raises(KeyError):
                regions[point]
            assert point not in regions

    def test_mapping_is_read_only(self):
        regions = segment_regions(WORLD)
        with pytest.raises(TypeError):
            regions[(0, 0)] = (0, (2, 2))


@hyp_settings(max_examples=150, deadline=None)
@given(w=st.integers(1, 60), h=st.integers(1, 60), k=st.sampled_from([1, 3, 5, 7, 9]))
def test_segmentation_matches_bruteforce(w, h, k):
    world = GridWorld(width=w, height=h, region_side=k)
    regions = segment_regions(world)
    expected = segment_regions_bruteforce(world)
    assert dict(regions) == expected
    assert list(regions) == list(expected)


class TestEncodeFrame:
    def test_center_is_reference_frame(self):
        frame = encode_frame(GridWorld(width=5, height=5), (2, 2), ENCODING)
        assert frame.kind == "I"
        assert frame.size == ENCODING.base_i_size
        assert frame.reference is None

    def test_distance_ramp_value(self):
        enc = EncodingSpec(base_i_size=1000.0, ratio_floor=0.1, decay=4.0)
        frame = encode_frame(GridWorld(width=5, height=5), (0, 2), enc)  # dist 2
        assert frame.kind == "P"
        assert frame.size == pytest.approx(550.0)
        assert frame.reference == (2, 2)

    def test_floor_reached_in_slow_decay_limit(self):
        enc = EncodingSpec(base_i_size=1000.0, ratio_floor=0.1, decay=1e9)
        frame = encode_frame(GridWorld(width=5, height=5), (1, 2), enc)  # dist 1
        assert frame.size == pytest.approx(100.0, rel=1e-6)

    def test_never_inflates_and_respects_floor(self):
        world = GridWorld(width=23, height=17)
        regions = segment_regions(world)
        for point in regions:
            frame = encode_frame(world, point, ENCODING, regions)
            assert frame.size <= ENCODING.base_i_size
            assert frame.size >= ENCODING.ratio_floor * ENCODING.base_i_size
            if frame.kind == "P":
                assert frame.reference == regions[point][1]


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
        result = simulate_walk(WORLD, TIMING, MobilitySpec(), 1000, seed=3,
                               encoding=ENCODING)
        assert result.deadline_misses == 0
        assert max(result.per_step_latency) <= hop_deadline(WORLD, TIMING)

    def test_tiny_bandwidth_misses_every_fresh_delta_step(self):
        starved = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=0.001)
        trace = tuple((x, 0) for x in range(20))  # row 0 holds no region centers
        result = simulate_walk(WORLD, starved, MobilitySpec(kind="trace", trace=trace),
                               19, seed=0, encoding=ENCODING)
        assert result.deadline_misses == result.steps == 19

    def test_compression_beats_full_frame_baseline(self):
        result = simulate_walk(WORLD, TIMING, MobilitySpec(), 500, seed=0,
                               encoding=ENCODING)
        assert result.bytes_all_i_baseline == 500 * ENCODING.base_i_size
        assert result.bytes_transmitted <= result.bytes_all_i_baseline
        assert result.bytes_transmitted / result.bytes_all_i_baseline < 1.0

    def test_revisits_do_not_pay_twice(self):
        # oscillate between two non-center points: only two fresh fetches
        trace = tuple((0, 0) if i % 2 == 0 else (0, 1) for i in range(11))
        result = simulate_walk(WORLD, TIMING, MobilitySpec(kind="trace", trace=trace),
                               10, seed=0, encoding=ENCODING)
        frames = {p: encode_frame(WORLD, p, ENCODING) for p in ((0, 0), (0, 1))}
        assert result.bytes_transmitted == pytest.approx(
            frames[(0, 0)].size + frames[(0, 1)].size)

    def test_misses_bounded_by_steps(self):
        result = simulate_walk(WORLD, TIMING, MobilitySpec(), 200, seed=9,
                               encoding=ENCODING)
        assert result.deadline_misses <= result.steps

    def test_seed_reproducibility(self):
        a = simulate_walk(WORLD, TIMING, MobilitySpec(), 300, seed=11, encoding=ENCODING)
        b = simulate_walk(WORLD, TIMING, MobilitySpec(), 300, seed=11, encoding=ENCODING)
        assert a.rows == b.rows
        assert a.bytes_transmitted == b.bytes_transmitted
        assert a.per_step_latency == b.per_step_latency

    def test_prerender_count_matches_neighborhood(self):
        trace = tuple((x, 5) for x in range(6))
        result = simulate_walk(WORLD, TIMING, MobilitySpec(kind="trace", trace=trace),
                               5, seed=0, encoding=ENCODING)
        current = trace[0]
        for row, nxt in zip(result.rows, trace[1:]):
            assert row["prerendered_neighbors"] == len(neighbors(WORLD, current))
            current = nxt

    def test_trace_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            simulate_walk(WORLD, TIMING,
                          MobilitySpec(kind="trace", trace=((0, 0), (0, 20))),
                          1, seed=0)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            simulate_walk(WORLD, TIMING, MobilitySpec(), 0, seed=0)

    def test_diagonal_deadline_scales_with_hop_length(self):
        world = GridWorld(width=10, height=10, diagonal=True)
        # latency 21ms: above the straight deadline (20ms), below the
        # diagonal one (28.28ms)
        timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=8000.0)
        enc = EncodingSpec(base_i_size=120_000.0, ratio_floor=1.0, decay=4.0)
        straight = simulate_walk(world, timing,
                                 MobilitySpec(kind="trace", trace=((0, 0), (1, 0))),
                                 1, seed=0, encoding=enc)
        diagonal = simulate_walk(world, timing,
                                 MobilitySpec(kind="trace", trace=((0, 0), (1, 1))),
                                 1, seed=0, encoding=enc)
        assert straight.deadline_misses == 1
        assert diagonal.deadline_misses == 0

    def test_teleporting_trace_hop_rejected(self):
        mobility = MobilitySpec(kind="trace", trace=((0, 0), (1, 0), (5, 5)))
        with pytest.raises(ValueError, match=r"trace step 2: hop \(1, 0\) -> \(5, 5\)"):
            simulate_walk(WORLD, TIMING, mobility, 2, seed=0)

    def test_trace_hop_must_move(self):
        mobility = MobilitySpec(kind="trace", trace=((3, 3), (3, 3)))
        with pytest.raises(ValueError, match="trace step 1"):
            simulate_walk(WORLD, TIMING, mobility, 1, seed=0)

    def test_diagonal_trace_hop_legal_only_on_diagonal_floor(self):
        mobility = MobilitySpec(kind="trace", trace=((0, 0), (1, 1), (2, 0)))
        diag = GridWorld(width=20, height=20, diagonal=True)
        assert simulate_walk(diag, TIMING, mobility, 2, seed=0).steps == 2
        with pytest.raises(ValueError, match="trace step 1"):
            simulate_walk(WORLD, TIMING, mobility, 2, seed=0)

    def test_frames_encoded_once_per_entered_point(self, monkeypatch):
        calls = []
        real = prerender.encode_frame

        def counting(world, point, encoding, regions=None):
            calls.append(point)
            return real(world, point, encoding, regions)

        monkeypatch.setattr(prerender, "encode_frame", counting)
        world = GridWorld(width=300, height=300)
        result = simulate_walk(world, TIMING, MobilitySpec(), 400, seed=4, encoding=ENCODING)
        entered = {(row["x"], row["y"]) for row in result.rows}
        assert sorted(calls) == sorted(entered)


def _eager_walk(world, timing, mobility, horizon, seed, encoding, panorama_work=100.0):
    """Reference walk: every frame encoded up front from the brute-force
    segmentation, then the same path, caching and deadline rules."""
    regions = segment_regions_bruteforce(world)
    frames = {p: encode_frame(world, p, encoding, regions) for p in regions}
    deadline = hop_deadline(world, timing)
    rng = np.random.default_rng(seed)
    current = mobility.trace[0] if mobility.kind == "trace" else (
        world.width // 2, world.height // 2)
    fetched, bytes_tx, latencies, rows = set(), 0.0, [], []
    for step in range(1, horizon + 1):
        options = neighbors(world, current)
        if mobility.kind == "trace":
            nxt = mobility.trace[step]
        else:
            nxt = options[int(rng.integers(len(options)))] if options else current
        frame = frames[nxt]
        cached = frame.kind == "P" and nxt in fetched
        hop = math.hypot(nxt[0] - current[0], nxt[1] - current[1]) if world.diagonal else 1.0
        latency = step_latency(frame, timing, panorama_work, cached=cached)
        if frame.kind == "P" and not cached:
            bytes_tx += frame.size
            fetched.add(nxt)
        latencies.append(latency)
        rows.append({"step": step, "x": nxt[0], "y": nxt[1], "kind": frame.kind,
                     "size": frame.size, "latency_ms": latency,
                     "missed": int(latency > deadline * max(hop, 1.0)),
                     "prerendered_neighbors": len(options)})
        current = nxt
    return rows, bytes_tx, latencies


def _neighbour_path(world, start, hops, rng):
    path = [start]
    for _ in range(hops):
        options = neighbors(world, path[-1])
        path.append(options[int(rng.integers(len(options)))])
    return tuple(path)


@pytest.mark.parametrize("w,h,k,diagonal", [(23, 17, 5, False), (23, 17, 7, True),
                                            (12, 9, 5, True), (6, 11, 3, False)])
def test_walk_matches_eager_reference(w, h, k, diagonal):
    world = GridWorld(width=w, height=h, region_side=k, diagonal=diagonal)
    timing = TimingModel(t_request=1.0, render_throughput=20.0, bandwidth=5000.0)
    trace = _neighbour_path(world, (0, h - 1), 600, np.random.default_rng(w * h))
    for mobility in (MobilitySpec(), MobilitySpec(kind="trace", trace=trace)):
        result = simulate_walk(world, timing, mobility, 600, seed=7, encoding=ENCODING)
        rows, bytes_tx, latencies = _eager_walk(world, timing, mobility, 600, 7, ENCODING)
        assert result.rows == rows
        assert result.bytes_transmitted == bytes_tx
        assert result.per_step_latency == latencies
        assert result.deadline_misses == sum(row["missed"] for row in rows)


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        points = [(0, 0), (1, 0), (1, 1), (2, 1)]
        path = tmp_path / "walk.trace"
        save_trace(path, points)
        assert load_trace(path) == tuple(points)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0 1\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_gaps_in_step_indices_allowed(self, tmp_path):
        path = tmp_path / "gaps.trace"
        path.write_text("# comment\n0 0 0\n\n3 1 0\n10 1 1\n")
        assert load_trace(path) == ((0, 0), (1, 0), (1, 1))

    @pytest.mark.parametrize("text, lineno", [("0 0 0\n1 1 0\n1 2 0\n", 3),
                                              ("0 0 0\n2 1 0\n1 2 0\n", 3),
                                              ("5 0 0\n# c\n4 1 0\n", 3)])
    def test_non_increasing_step_index_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.trace:{lineno}: step index"):
            load_trace(path)

    def test_non_integer_field_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0 0 0\n1 1.5 0\n")
        with pytest.raises(ValueError, match="bad.trace:2: expected"):
            load_trace(path)

    def test_csv_export_schema(self, tmp_path):
        result = simulate_walk(WORLD, TIMING, MobilitySpec(), 10, seed=0,
                               encoding=ENCODING)
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
        with pytest.raises(ValueError):
            MobilitySpec(kind="hover")
        with pytest.raises(ValueError):
            MobilitySpec(kind="trace", trace=((0, 0),))


@hyp_settings(max_examples=40, deadline=None)
@given(w=st.integers(1, 30), h=st.integers(1, 30), k=st.sampled_from([1, 3, 5, 7]))
def test_every_point_assigned_exactly_once(w, h, k):
    world = GridWorld(width=w, height=h, region_side=k)
    regions = segment_regions(world)
    assert set(regions) == {(x, y) for x in range(w) for y in range(h)}


@hyp_settings(max_examples=60, deadline=None)
@given(indices=st.lists(st.integers(-5, 20), min_size=1, max_size=8))
def test_trace_loads_iff_indices_strictly_increase(tmp_path_factory, indices):
    path = tmp_path_factory.mktemp("trace") / "walk.trace"
    path.write_text("".join(f"{i} {n} 0\n" for n, i in enumerate(indices)))
    if all(a < b for a, b in zip(indices, indices[1:])):
        assert load_trace(path) == tuple((n, 0) for n in range(len(indices)))
    else:
        with pytest.raises(ValueError, match="indices must strictly increase"):
            load_trace(path)
