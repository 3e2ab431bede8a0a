"""Grid-world pre-rendering with reference/delta panorama compression.

The virtual floor is a dense lattice of panorama points. Movement between
adjacent points must be covered by the hop deadline T = spacing / speed, which
bounds request + render + transmit for the entered point's panorama. Points
are grouped into square regions; each region's central panorama is a
self-contained I-frame, every other point a smaller P-frame decoded against
that center. So a walk needs one fact per entered point, its region's
center, and `segment_regions` gives it as a function of the point: the
nearest center, the lower one on a tie. Devices hold all I-frames from
session start, and keep any P-frame they have already fetched, so a frame
crosses the downlink at most once per walk.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, islice
from operator import lt
from pathlib import Path

from .errors import check, open_regular, shown, writing

Coord = tuple[int, int]

# the longest walk: prerender-sim peaks at ~31 MB RSS for it on the default floor,
# seeded or replayed
MAX_WALK_STEPS = 1_000_000


@dataclass(frozen=True)
class GridWorld:
    """Lattice of panorama points with square compression regions."""

    width: int = 20
    height: int = 20
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

    t_request: float = 1.0             # ms
    render_throughput: float = 20.0    # work units per ms
    bandwidth: float = 8000.0          # bytes per ms
    avatar_speed: float = 1.0          # m/s

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


@dataclass
class WalkResult:
    bytes_transmitted: float
    bytes_all_i_baseline: float
    # the walk's distinct step outcomes, each (entered point's frame, latency,
    # deadline missed), and per step the id of its outcome in that table; a
    # frame is one shared object per point, and its grid_point is that point
    outcomes: list[tuple[PanoramaFrame, float, bool]]
    step_outcomes: list[int]

    @property
    def steps(self) -> int:
        return len(self.step_outcomes)

    def _each_step(self, column: int) -> Iterator:
        """Column `column` of the outcome table (1 latency, 2 missed) at every
        step, in step order."""
        return map([outcome[column] for outcome in self.outcomes].__getitem__,
                   self.step_outcomes)

    @property
    def deadline_misses(self) -> int:
        return sum(self._each_step(2))

    def summary(self) -> dict:
        return {
            "steps": self.steps,
            "deadline_misses": self.deadline_misses,
            "bytes_transmitted": self.bytes_transmitted,
            "bytes_all_i_baseline": self.bytes_all_i_baseline,
            "bytes_ratio": self.bytes_transmitted / self.bytes_all_i_baseline
            if self.bytes_all_i_baseline else 0.0,
            "mean_latency_ms": sum(self._each_step(1)) / self.steps if self.steps else 0.0,
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


def _nearest_tile(pos: int, length: int, k: int) -> int:
    """Along one axis: the center of the tile nearest to `pos`, the lower
    tile's on a tie.

    Tiles are k wide from 0; a partial last tile uses its median point. The
    own tile's center is at most (k-1)/2 away and the previous tile's at
    least (k+1)/2, so only the next tile can win instead: a short last one.
    """
    start = pos - pos % k
    center = start + (min(k, length - start) - 1) // 2
    if pos > center and start + k < length:
        nxt = start + k + (min(k, length - start - k) - 1) // 2
        if nxt - pos < pos - center:
            return nxt
    return center


def segment_regions(world: GridWorld) -> Callable[[Coord], Coord]:
    """The floor's regions, as a function from a grid point to its region's
    center.

    Centers come from the square tiling (partial border tiles use their
    median point); a point belongs to its nearest center under Manhattan
    distance, so border points next to a small partial tile join the closer
    region. Manhattan distance is a sum of per-axis distances, so that
    center is the nearest tile center along each axis, and on a tie the
    lower one: each lookup is O(1), and nothing is stored per point or tile.
    """
    width, height, side = world.width, world.height, world.region_side

    def center_of(point: Coord) -> Coord:
        return _nearest_tile(point[0], width, side), _nearest_tile(point[1], height, side)

    return center_of


def encode_frame(point: Coord, encoding: EncodingSpec, center: Coord) -> PanoramaFrame:
    """Frame for one grid point whose region's center is `center`: the
    I-frame at the center itself, a distance-ramped P-frame elsewhere."""
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


def _halves(seed: int, wanted: int) -> Iterator[int]:
    """The 32-bit halves `np.random.default_rng(seed).integers` consumes, in
    its order: each raw 64-bit PCG64 draw's low half, then its high half.
    They come from `pcg64`, which only a seeded walk imports; no numpy is
    loaded. A draw is computed when a half of it is asked for, in blocks
    sized so that the first `wanted` halves take no draw past them."""
    from .pcg64 import halves
    return halves(seed, (wanted + 1) // 2)


def simulate_walk(world: GridWorld, timing: TimingModel, horizon: int, seed: int,
                  encoding: EncodingSpec, panorama_work: float,
                  trace: Iterable[Coord] | None = None) -> WalkResult:
    """Walk the avatar and account latency and bytes.

    Every step pre-renders all neighbors of the current point, then the
    avatar enters one of them; only the entered point's latency is charged.
    A step misses its deadline iff that latency exceeds the hop deadline.
    Bytes are charged once per P-frame (the device keeps fetched frames) and
    compared against a baseline that re-sends a full I-frame every step.
    With no `trace` the walk takes `horizon` seeded steps from the grid
    middle. A replay starts at the trace's first point and takes one step per
    later point, each only to a neighbor, reading the trace as it walks; it
    must take from 1 to `horizon` steps, and reading stops at the point past
    that. The result holds each distinct step outcome once and one id per step.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    center_of = segment_regions(world)
    deadline = hop_deadline(world, timing)
    # a hop's deadline scales with its length, so it is indexed by |dx| + |dy|:
    # a stay (on a 1x1 floor) and an axis hop get `deadline`, a diagonal hop more
    hop_deadlines = [deadline * max(math.hypot(dx, dy), 1.0)
                     for dx, dy in ((0, 0), (1, 0), (1, 1))]

    if trace is None:
        points = None
        current = (world.width // 2, world.height // 2)
    else:
        points = iter(trace)
        current = next(points, None)
    if current is not None and not world.contains(current):
        raise ValueError(f"start point {shown(current)} outside grid")

    if points is None:
        draw = _halves(seed, horizon).__next__   # a step takes one half, bar rejections
    outcomes: list[tuple[PanoramaFrame, float, bool]] = []
    step_outcomes: list[int] = []

    def new_outcome(frame: PanoramaFrame, cached: bool, hop: int) -> int:
        latency = step_latency(frame, timing, panorama_work, cached=cached)
        outcomes.append((frame, latency, latency > hop_deadlines[hop]))
        return len(outcomes) - 1

    # per point, filled on the first visit: its neighbours, per neighbour the
    # outcome id of a hop into it once its frame is on the device, their
    # number n, and the threshold below which a seeded pick rejects a half,
    # (2**32 - n) % n; a replay onto a one-point floor finds n == 0
    around: dict[Coord, tuple[list[Coord], list[int | None], int, int]] = {}
    frames: dict[Coord, PanoramaFrame] = {}      # per entered point
    # per (entered point, hop kind |dx| + |dy|): the outcome id once its frame
    # is on the device; every I-frame is, and a P-frame from its first entry on
    kept: dict[tuple[Coord, int], int] = {}
    bytes_tx = 0.0

    for step in range(1, horizon + 1):
        if points is not None and (nxt := next(points, None)) is None:
            break
        # pre-render panoramas for every neighbor (the work the edge performs
        # each step so any move is covered)
        near = around.get(current)
        if near is None:
            options = neighbors(world, current)
            if not options and points is None:      # a one-point floor: the walk stays put
                options = [current]
            n = len(options)
            near = around[current] = (options, [None] * n, n, n and 0x100000000 % n)
        options, ids, n, threshold = near
        if points is None:
            # the integer in [0, n) `Generator.integers(n)` draws: Lemire's
            # multiply-shift, which rejects a half while the low 32 bits of
            # half * n fall below the threshold (Lemire, "Fast Random Integer
            # Generation in an Interval", ACM TOMACS 29(1), 2019); n == 1
            # takes no half
            i = 0
            if n > 1:
                m = draw() * n
                while m & 0xFFFFFFFF < threshold:
                    m = draw() * n
                i = m >> 32
            nxt = options[i]
        else:
            try:
                i = options.index(nxt)
            except ValueError:
                raise ValueError(f"trace step {step}: hop {shown(current)} -> {shown(nxt)} "
                                 f"is not to a grid neighbour") from None
        oid = ids[i]
        if oid is None:
            hop = abs(nxt[0] - current[0]) + abs(nxt[1] - current[1])
            frame = frames.get(nxt)
            if frame is None:
                frame = frames[nxt] = encode_frame(nxt, encoding, center_of(nxt))
                if frame.kind == "P":       # the entry that fetches it has its own outcome
                    bytes_tx += frame.size
                    oid = new_outcome(frame, False, hop)
            if oid is None:
                oid = kept.get((nxt, hop))
                if oid is None:
                    oid = kept[nxt, hop] = new_outcome(frame, True, hop)
                ids[i] = oid
        step_outcomes.append(oid)
        current = nxt

    if points is not None and (not step_outcomes or next(points, None) is not None):
        raise ValueError(f"trace has {f'more than {horizon}' if step_outcomes else 'no'} steps; "
                         f"a walk takes from 1 to {horizon}")
    return WalkResult(bytes_transmitted=bytes_tx,
                      bytes_all_i_baseline=len(step_outcomes) * encoding.base_i_size,
                      outcomes=outcomes, step_outcomes=step_outcomes)


# a trace line: blank, a comment, or three ASCII integers. The file is decoded
# with errors="surrogateescape" (PEP 383), so a byte that is not UTF-8 reads as
# a lone surrogate in _TRACE_UNDECODED, which no line may hold
_TRACE_FIELD = r"[+-]?[0-9]+"
_TRACE_UNDECODED = r"\udc80-\udcff"
_TRACE_COMMENT = rf"#[^\n{_TRACE_UNDECODED}]*"
# the longest trace line, newline included; three fields at int()'s
# 4300-digit limit fit in it, and a longer line is malformed
_TRACE_LINE_CHARS = 16_384
# characters a replay reads at a time, and then the rest of the last line; the
# block regex holds ~0.8 KB of backtracking state a line until its match ends,
# so a block of short lines peaks at ~0.7 MB while it is parsed (5.2 MB at 64 KiB)
_TRACE_BLOCK_CHARS = 8_192


# whole trace lines, each of the grammar above, with whitespace that stays
# on its line (ASCII `\s` but the newline), and at most _TRACE_LINE_CHARS
# characters, its newline included; a line matches one way, so a failed match
# backtracks in time linear in the block. Compiled by the first replay, and
# then found in re's cache.
_TRACE_BLOCK_LINE = "{s}*(?:{c}|{f}{s}+{f}{s}+{f}{s}*|)".format(
    s=r"[ \t\r\f\v]", c=_TRACE_COMMENT, f=_TRACE_FIELD)
_TRACE_BLOCK = (rf"(?:(?=.{{0,{_TRACE_LINE_CHARS - 1}}}\n){_TRACE_BLOCK_LINE}\n)*"
                rf"(?=.{{0,{_TRACE_LINE_CHARS}}}\Z){_TRACE_BLOCK_LINE}")


def _block_points(block: str, last: float) -> tuple[float, Iterator[Coord]] | None:
    """The last step index of a block of whole trace lines and an iterator of
    its points, parsed in C: one regex match, one split, `int` over the
    fields and one pass over the indices, which must strictly increase from
    `last`. None if any check fails: a line off the grammar or past the cap,
    a field past int's digit limit, or an index out of order."""
    if re.fullmatch(_TRACE_BLOCK, block, re.ASCII) is None:
        return None
    if "#" in block:
        block = re.sub(_TRACE_COMMENT, "", block)
    try:
        values = list(map(int, block.split()))
    except ValueError:                  # longer than int's digit limit
        return None
    indices = values[0::3]
    if not all(map(lt, chain((last,), indices), indices)):
        return None
    return (indices[-1] if indices else last), zip(values[1::3], values[2::3])


def _line_fault(path: str | Path, lineno: int, line: str, last: float) -> ValueError:
    """The fault of a trace line `_block_points` refuses after step index
    `last`: its index, if the line passes on its own; else the first byte
    that is not UTF-8 in it; else the line, as malformed."""
    where = f"{shown(str(path))}:{lineno}: "
    if (alone := _block_points(line, -math.inf)) is not None:
        return ValueError(f"{where}step index {shown(alone[0])} does not follow "
                          f"{shown(last)}; indices must strictly increase")
    if undecoded := re.search(f"[{_TRACE_UNDECODED}]", line):
        return ValueError(f"{where}byte {ord(undecoded[0]) - 0xDC00:#04x} is not UTF-8, in "
                          f"{shown(line.strip().encode('utf-8', 'surrogateescape'))}")
    longer = f" in a line longer than {_TRACE_LINE_CHARS} characters" \
        if len(line) > _TRACE_LINE_CHARS else ""
    return ValueError(f"{where}expected 'step_index x y' integers, "
                      f"got {shown(line.strip())}{longer}")


def _line_points(path: str | Path, block: str, lineno: int,
                 last: float) -> Iterator[Iterator[Coord]]:
    """The points of a block `_block_points` refuses, an iterator per line:
    each line, numbered after `lineno` and read at most _TRACE_LINE_CHARS + 1
    characters at a time, is checked by `_block_points` as a block of its
    own, indices following `last`. The block holds a line it refuses, so
    this raises that line's fault, after every point before it."""
    lines = iter(partial(io.StringIO(block).readline, _TRACE_LINE_CHARS + 1), "")
    for lineno, line in enumerate(lines, start=lineno + 1):
        parsed = _block_points(line, last)
        if parsed is None:
            raise _line_fault(path, lineno, line, last)
        last, points = parsed
        yield points


def _trace_blocks(path: str | Path) -> Iterator[Iterator[Coord]]:
    """The points of a trace file, an iterator per block read: the points
    `_block_points` parses, or, for a block that fails its checks, an
    iterator per line from `_line_points`, up to the fault it raises."""
    last: float = -math.inf            # the step index before the first
    lineno = 0                         # lines in the blocks before
    with open_regular(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.read(_TRACE_BLOCK_CHARS):
            if not block.endswith("\n"):
                block += fh.readline(_TRACE_LINE_CHARS + 1)
            parsed = _block_points(block, last)
            if parsed is None:          # it holds a line it refuses, where this raises
                yield from _line_points(path, block, lineno, last)
            else:
                last, points = parsed
                yield points
            lineno += block.count("\n")


def load_trace(path: str | Path) -> Iterator[Coord]:
    """Each point of a mobility trace, read as it is asked for: one
    `step_index x y` line per point, with step indices strictly increasing in
    file order. The file is regular and UTF-8, fields are ASCII integers, and
    blank lines and lines starting with `#` are skipped; a line longer than
    _TRACE_LINE_CHARS characters, its newline included, or holding a byte that
    is not UTF-8, comments included, is a fault. The file is read
    _TRACE_BLOCK_CHARS characters at a time, and then the rest of the block's
    last line, at most _TRACE_LINE_CHARS + 1 characters, so reading runs at
    most one block past the last point asked for. Every fault is raised as
    the walk reaches it, after every point before it, with its line's number."""
    return chain.from_iterable(_trace_blocks(path))


class _Reprs(dict):
    """Float to its repr, computed on first lookup."""

    def __missing__(self, value: float) -> str:
        text = self[value] = repr(float(value))
        return text


def write_walk_csv(result: WalkResult, path: str | Path) -> None:
    """Per-step breakdown: step, point, kind, size, latency_ms, missed; lines
    end in CRLF, as csv.writer ends them. Each outcome's line tail (all but
    the step) is rendered once, with each distinct float's repr made once,
    and the lines are written 8192 at a time, not through `errors.write_csv`:
    a walk has up to MAX_WALK_STEPS rows but few distinct outcomes, and that
    writer takes over ten times as long for the same bytes (100 000 steps:
    355 ms against 29 ms, median of 5 on 2 cores)."""
    text = _Reprs()                    # repr of each distinct size and latency
    tails = [f"{frame.grid_point[0]},{frame.grid_point[1]},{frame.kind},"
             f"{text[frame.size]},{text[latency]},{missed:d}\r\n"
             for frame, latency, missed in result.outcomes]
    steps = zip(count(1), map(tails.__getitem__, result.step_outcomes))
    with writing(path), open(path, "w", newline="") as fh:
        fh.write("step,x,y,kind,size,latency_ms,missed\r\n")
        while lines := [f"{step},{tail}" for step, tail in islice(steps, 8192)]:
            fh.write("".join(lines))
