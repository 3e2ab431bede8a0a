"""Grid-world pre-rendering with reference/delta panorama compression.

The virtual floor is a dense lattice of panorama points. Movement between
adjacent points must be covered by the hop deadline T = spacing / speed, which
bounds request + render + transmit for the entered point's panorama. Points
are grouped into square regions; each region's central panorama is a
self-contained I-frame, every other point a smaller P-frame decoded against
that center. Devices hold all I-frames from session start, and keep any
P-frame they have already fetched, so a frame crosses the downlink at most
once per walk.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from operator import index
from pathlib import Path

import numpy as np

from .errors import check

Coord = tuple[int, int]


@dataclass(frozen=True)
class GridWorld:
    """Lattice of panorama points with square compression regions."""

    width: int
    height: int
    spacing: float = 0.02          # meters between adjacent points
    region_side: int = 5           # points per region side, odd
    diagonal: bool = False         # include diagonal hops (deadline scales per hop)

    def __post_init__(self):
        check(self.width >= 1, "width", "an integer >= 1", self.width)
        check(self.height >= 1, "height", "an integer >= 1", self.height)
        check(self.spacing > 0, "spacing", "a positive number", self.spacing)
        check(self.region_side >= 1 and self.region_side % 2 == 1, "region_side",
              "an odd integer >= 1", self.region_side)

    def contains(self, point: Coord) -> bool:
        x, y = point
        return 0 <= x < self.width and 0 <= y < self.height


@dataclass(frozen=True)
class TimingModel:
    """Latency budget pieces: request, collaborative render+encode, downlink."""

    t_request: float               # ms
    render_throughput: float       # work units per ms
    bandwidth: float               # bytes per ms
    avatar_speed: float = 1.0      # m/s

    def __post_init__(self):
        for name in ("t_request", "render_throughput", "bandwidth", "avatar_speed"):
            check(getattr(self, name) > 0, name, "a positive number", getattr(self, name))


@dataclass(frozen=True)
class EncodingSpec:
    """Size model for the compressed panoramas.

    P-frame size is base_i_size * (ratio_floor + (1 - ratio_floor) *
    min(1, dist / decay)) with dist the Euclidean grid distance to the region
    center, so sizes ramp linearly from the floor up to the I-frame size.
    """

    base_i_size: float = 100_000.0   # bytes
    ratio_floor: float = 0.1
    decay: float = 4.0

    def __post_init__(self):
        check(self.base_i_size > 0, "base_i_size", "a positive number", self.base_i_size)
        check(0 < self.ratio_floor <= 1, "ratio_floor", "in (0, 1]", self.ratio_floor)
        check(self.decay > 0, "decay", "a positive number", self.decay)


@dataclass(frozen=True)
class PanoramaFrame:
    grid_point: Coord
    kind: str                      # "I" or "P"
    size: float                    # bytes
    reference: Coord | None        # region center for P-frames


@dataclass(frozen=True)
class MobilitySpec:
    """Avatar path source: seeded random walk or a replayed trace."""

    kind: str = "random_walk"      # "random_walk" | "trace"
    start: Coord | None = None     # defaults to the grid middle
    trace: tuple[Coord, ...] = ()

    def __post_init__(self):
        if self.kind not in ("random_walk", "trace"):
            raise ValueError(f"unknown mobility kind {self.kind!r}")
        if self.kind == "trace" and len(self.trace) < 2:
            raise ValueError("trace mobility needs at least a start and one step")


@dataclass
class WalkResult:
    steps: int
    deadline_misses: int
    bytes_transmitted: float
    bytes_all_i_baseline: float
    per_step_latency: list[float]
    rows: list[dict] = field(default_factory=list)   # per-step breakdown for CSV export

    def summary(self) -> dict:
        return {
            "steps": self.steps,
            "deadline_misses": self.deadline_misses,
            "bytes_transmitted": self.bytes_transmitted,
            "bytes_all_i_baseline": self.bytes_all_i_baseline,
            "bytes_ratio": self.bytes_transmitted / self.bytes_all_i_baseline
            if self.bytes_all_i_baseline else 0.0,
            "mean_latency_ms": sum(self.per_step_latency) / len(self.per_step_latency)
            if self.per_step_latency else 0.0,
        }


def hop_deadline(world: GridWorld, timing: TimingModel) -> float:
    """Milliseconds available per hop: time to cross one grid spacing."""
    return 1000.0 * world.spacing / timing.avatar_speed


def neighbors(world: GridWorld, point: Coord) -> list[Coord]:
    """Adjacent grid points, clipped to bounds. 4-neighborhood unless diagonal."""
    if not world.contains(point):
        raise ValueError(f"point {point} outside {world.width}x{world.height} grid")
    x, y = point
    offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    if world.diagonal:
        offsets += [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    out = []
    for dx, dy in offsets:
        q = (x + dx, y + dy)
        if world.contains(q):
            out.append(q)
    return out


def _nearest_tile(pos: int, length: int, k: int) -> tuple[int, int]:
    """Along one axis: the tile whose center is nearest to `pos` (the lower
    tile on a tie), and that center.

    Tiles are k wide from 0; a partial last tile uses its median point. The
    own tile's center is at most (k-1)/2 away and the previous tile's at
    least (k+1)/2, so only the next tile can win instead: a short last one.
    """
    tile = pos // k
    start = tile * k
    center = start + (min(k, length - start) - 1) // 2
    if pos > center and start + k < length:
        nxt = start + k + (min(k, length - start - k) - 1) // 2
        if nxt - pos < pos - center:
            return tile + 1, nxt
    return tile, center


class RegionMap(Mapping):
    """Read-only map from every grid point to (region id, center point).

    Iterates row-major, like a dict filled y-outer, x-inner; points off the
    grid raise KeyError. Manhattan distance is a sum of per-axis distances
    and region ids are row-major over the tile grid, so the nearest center
    with the lowest id is the per-axis nearest tile column and tile row:
    each lookup is O(1) and the map stores no per-point or per-tile data.
    """

    def __init__(self, world: GridWorld):
        self._width, self._height = world.width, world.height
        self._side = world.region_side
        self._tiles_per_row = -(-world.width // world.region_side)

    def __getitem__(self, point: Coord) -> tuple[int, Coord]:
        try:
            x, y = map(index, point)
            if 0 <= x < self._width and 0 <= y < self._height:
                tx, cx = _nearest_tile(x, self._width, self._side)
                ty, cy = _nearest_tile(y, self._height, self._side)
                return ty * self._tiles_per_row + tx, (cx, cy)
        except (TypeError, ValueError):
            pass
        raise KeyError(point)

    def __iter__(self) -> Iterator[Coord]:
        return ((x, y) for y in range(self._height) for x in range(self._width))

    def __len__(self) -> int:
        return self._width * self._height


def segment_regions(world: GridWorld) -> RegionMap:
    """Map every point to (region id, center point).

    Centers come from the square tiling (row-major region ids; partial border
    tiles use their median point); each point is assigned to its nearest
    center under Manhattan distance with ties broken toward the lower region
    id, so border points next to a small partial tile join the closer region.
    Costs O(1); see `RegionMap`.
    """
    return RegionMap(world)


def encode_frame(world: GridWorld, point: Coord, encoding: EncodingSpec,
                 regions: Mapping[Coord, tuple[int, Coord]] | None = None) -> PanoramaFrame:
    """Frame for one grid point: I at region centers, distance-ramped P elsewhere."""
    if regions is None:
        regions = segment_regions(world)
    _, center = regions[point]
    if point == center:
        return PanoramaFrame(grid_point=point, kind="I",
                             size=encoding.base_i_size, reference=None)
    dist = math.hypot(point[0] - center[0], point[1] - center[1])
    ratio = encoding.ratio_floor + (1.0 - encoding.ratio_floor) * min(1.0, dist / encoding.decay)
    return PanoramaFrame(grid_point=point, kind="P",
                         size=encoding.base_i_size * ratio, reference=center)


def step_latency(frame: PanoramaFrame, timing: TimingModel, work: float,
                 cached: bool = False) -> float:
    """Request + render/encode + transmit, in ms.

    Frames already on the device (every I-frame, and any P-frame fetched
    earlier in the session) contribute zero transmission time.
    """
    transmit = 0.0 if (frame.kind == "I" or cached) else frame.size / timing.bandwidth
    return timing.t_request + work / timing.render_throughput + transmit


def simulate_walk(world: GridWorld, timing: TimingModel, mobility: MobilitySpec,
                  horizon: int, seed: int, encoding: EncodingSpec | None = None,
                  panorama_work: float = 100.0) -> WalkResult:
    """Walk the avatar for `horizon` steps and account latency and bytes.

    Every step pre-renders all neighbors of the current point, then the
    avatar enters one of them; only the entered point's latency is charged.
    A step misses its deadline iff that latency exceeds the hop deadline.
    Bytes are charged once per P-frame (the device keeps fetched frames) and
    compared against a baseline that re-sends a full I-frame every step.
    A replayed trace must start on the grid and hop only to neighbors.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if encoding is None:
        encoding = EncodingSpec()
    regions = segment_regions(world)
    frames: dict[Coord, PanoramaFrame] = {}    # encoded on first entry
    deadline = hop_deadline(world, timing)

    if mobility.kind == "trace":
        path = mobility.trace
        if len(path) < horizon + 1:
            raise ValueError(
                f"trace has {len(path)} points but horizon {horizon} needs {horizon + 1}"
            )
        current = path[0]
    else:
        path = None
        current = mobility.start if mobility.start is not None else (
            world.width // 2, world.height // 2)
    if not world.contains(current):
        raise ValueError(f"start point {current} outside grid")

    rng = np.random.default_rng(seed)
    fetched: set[Coord] = set()        # P-frames already on the device
    misses = 0
    bytes_tx = 0.0
    latencies: list[float] = []
    rows: list[dict] = []

    for step in range(1, horizon + 1):
        options = neighbors(world, current)
        # pre-render panoramas for every neighbor (the work the edge performs
        # each step so any move is covered)
        prerendered = len(options)
        if path is not None:
            nxt = path[step]
            if nxt not in options:
                raise ValueError(f"trace step {step}: hop {current} -> {nxt} "
                                 f"is not to a grid neighbour")
        else:
            nxt = options[int(rng.integers(len(options)))] if options else current
        frame = frames.get(nxt)
        if frame is None:
            frame = frames[nxt] = encode_frame(world, nxt, encoding, regions)
        cached = frame.kind == "P" and nxt in fetched
        if world.diagonal:
            hop_len = math.hypot(nxt[0] - current[0], nxt[1] - current[1])
            step_deadline = deadline * max(hop_len, 1.0)
        else:
            step_deadline = deadline
        latency = step_latency(frame, timing, panorama_work, cached=cached)
        missed = latency > step_deadline
        if missed:
            misses += 1
        if frame.kind == "P" and not cached:
            bytes_tx += frame.size
            fetched.add(nxt)
        latencies.append(latency)
        rows.append({
            "step": step,
            "x": nxt[0],
            "y": nxt[1],
            "kind": frame.kind,
            "size": frame.size,
            "latency_ms": latency,
            "missed": int(missed),
            "prerendered_neighbors": prerendered,
        })
        current = nxt

    return WalkResult(
        steps=horizon,
        deadline_misses=misses,
        bytes_transmitted=bytes_tx,
        bytes_all_i_baseline=horizon * encoding.base_i_size,
        per_step_latency=latencies,
        rows=rows,
    )


def load_trace(path: str | Path) -> tuple[Coord, ...]:
    """Read a mobility trace: one `step_index x y` line per point, with step
    indices strictly increasing in file order."""
    points: list[Coord] = []
    last: int | None = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            index, x, y = (int(part) for part in parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'step_index x y' integers, "
                             f"got {line!r}") from None
        if last is not None and index <= last:
            raise ValueError(f"{path}:{lineno}: step index {index} does not follow "
                             f"{last}; indices must strictly increase")
        last = index
        points.append((x, y))
    return tuple(points)


def save_trace(path: str | Path, points: list[Coord]) -> None:
    lines = [f"{i} {x} {y}" for i, (x, y) in enumerate(points)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_walk_csv(result: WalkResult, path: str | Path) -> None:
    """Per-step breakdown: step, point, kind, size, latency_ms, missed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "x", "y", "kind", "size", "latency_ms", "missed"])
        for row in result.rows:
            writer.writerow([row["step"], row["x"], row["y"], row["kind"],
                             repr(float(row["size"])), repr(float(row["latency_ms"])),
                             row["missed"]])
