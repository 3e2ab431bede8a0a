"""`np.random.default_rng(seed)`'s raw stream in integer-only Python.

A seeded walk draws from this stream, so it loads no numpy, and its bits do
not depend on the installed numpy. Two fixed, published algorithms give the
stream. numpy's `SeedSequence` hashes the seed's 32-bit words into a pool of
four and draws `generate_state(4, uint64)` from it: a 128-bit state and a
128-bit increment. PCG64 then steps a 128-bit LCG and outputs XSL-RR 128/64
of each new state (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905, 2014).

Python pays for each integer operation, so a block of draws is computed in
a few operations on one packed integer, one slot of _SLOT bytes per draw:
the LCG's j-th state from `state` is A_j * state + C_j mod 2**128, with
A_j = MULT**j and C_j = inc * (1 + MULT + ... + MULT**(j-1)). Only the
rotation is done draw by draw.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Iterator
from itertools import chain, islice

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645       # PCG's default 128-bit multiplier
_BLOCK = 256                   # the most draws one block computes
_SLOT = 33                     # bytes a draw's slot takes: A_j * state + C_j < 2**257


def _packed(values: list[int]) -> int:
    return int.from_bytes(b"".join(v.to_bytes(_SLOT, "little") for v in values), "little")


def _powers() -> tuple[list[int], list[int]]:
    """A_j and C_j / inc, for j from 1 to _BLOCK."""
    a, g = [_MULT], [1]
    for _ in range(_BLOCK - 1):
        a.append(a[-1] * _MULT & _M128)
        g.append((g[-1] * _MULT + 1) & _M128)
    return a, g


_A, _G = map(_packed, _powers())
# each slot's XSL fold, hi ^ lo, at its bits 0-63, and its rotation, the
# state's top six bits, at bits 64-69; one format reads both from every slot
# of a block, a shorter block's padded with zeros, so that no format is
# compiled per block length
_FOLD, _ROTATION = _packed([_M64] * _BLOCK), _packed([63 << 64] * _BLOCK)
_FOLDS = struct.Struct("<" + "QB24x" * _BLOCK)


def _hasher(const: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix, whose hash constant advances by `mult` a call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    x = 0xCA01F9DD * x - 0x4973F715 * y & _M32
    return x ^ x >> 16


def _seeded(seed: int) -> tuple[int, int]:
    """PCG64's state and increment once `SeedSequence(seed)` has seeded it."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    drawn = _hasher(0x8B51F9DD, 0x58F38DED)
    # generate_state(4, uint64): eight words, paired low word first
    w = [drawn(pool[i]) | drawn(pool[i + 1]) << 32 for i in (0, 2, 0, 2)]
    inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
    # PCG's srandom: from state 0, step, add the seed's 128 bits, step
    return ((inc + (w[0] << 64 | w[1])) * _MULT + inc) & _M128, inc


def _blocks(state: int, inc: int, draws: int) -> Iterator[tuple[int, ...]]:
    offsets = inc * _G
    while True:
        k = min(draws, _BLOCK) if draws > 0 else _BLOCK
        draws -= k
        cut = (1 << 8 * _SLOT * k) - 1
        states = state * (_A & cut) + (offsets & cut)
        folded = (states >> 64 ^ states) & _FOLD | states >> 58 & _ROTATION
        xr = iter(_FOLDS.unpack(folded.to_bytes(_SLOT * _BLOCK, "little")))
        rotated = [x * 0x10000000000000001 >> r & _M64 for x, r in islice(zip(xr, xr), k)]
        yield struct.unpack(f"<{2 * k}I", struct.pack(f"<{k}Q", *rotated))
        state = states >> 8 * _SLOT * (k - 1) & _M128


def halves(seed: int, draws: int) -> Iterator[int]:
    """The raw 64-bit draws of `default_rng(seed).bit_generator`, each as its
    low 32-bit half, then its high half. Draws are computed when a half of
    them is asked for, in blocks of at most _BLOCK: the first blocks end at
    draw `draws`, and the later ones hold _BLOCK each."""
    return chain.from_iterable(_blocks(*_seeded(seed), draws))
