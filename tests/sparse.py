"""Sparse files for memory probes: an archive of any apparent size that takes a
few KB on disk where the file system keeps holes, so a reader that would
allocate for what it reads can be tried on a size past the memory cap.

`save_sparse_npz` writes the zip records by hand, since `zipfile` writes a
member only from bytes it is given; `holes_kept` tells whether the file
system kept the hole, and a test that needs it skips where it did not.
"""

from __future__ import annotations

import io
import os
import struct
from pathlib import Path

import numpy as np

_ZIP64 = 45                       # the zip version that reads zip64 fields
_DOS_DATE = 0x21                  # 1980-01-01
_FAR = 0xFFFFFFFF                 # a 32-bit field whose value is in the zip64 extra


def save_sparse_npz(path: str | Path, items: int, name: str = "params") -> int:
    """Write a .npz archive of one stored member, `<name>.npy`, whose .npy
    header declares `items` little-endian float64s and whose data are a hole,
    read as zeros; return the member's size in bytes. Sizes and offsets are
    zip64 fields, so the member may pass 4 GiB. The CRC recorded is 0, so a
    reader that reads the member through fails its CRC check at the end."""
    head = io.BytesIO()
    np.lib.format.write_array_header_1_0(head, {"descr": "<f8", "fortran_order": False,
                                                "shape": (items,)})
    size = len(head.getvalue()) + 8 * items
    member = f"{name}.npy".encode()
    sizes = struct.pack("<2H2Q", 1, 16, size, size)     # zip64 extra: both sizes
    local = struct.pack("<4s2B4HL2L2H", b"PK\x03\x04", _ZIP64, 0, 0, 0, 0, _DOS_DATE, 0,
                        _FAR, _FAR, len(member), len(sizes)) + member + sizes
    central = struct.pack("<4s4B4HL2L5H2L", b"PK\x01\x02", _ZIP64, 3, _ZIP64, 0, 0, 0, 0,
                          _DOS_DATE, 0, _FAR, _FAR, len(member), len(sizes), 0, 0, 0, 0,
                          0) + member + sizes
    start = len(local) + size                          # where the central directory starts
    end64 = struct.pack("<4sQ2H2L4Q", b"PK\x06\x06", 44, _ZIP64, _ZIP64, 0, 0, 1, 1,
                        len(central), start)
    locator = struct.pack("<4sLQL", b"PK\x06\x07", 0, start + len(central), 1)
    end = struct.pack("<4s4H2LH", b"PK\x05\x06", 0, 0, 1, 1, len(central), _FAR, 0)
    with open(path, "wb") as fh:
        fh.write(local + head.getvalue())
        fh.seek(start)
        fh.write(central + end64 + locator + end)
    return size


def holes_kept(path: str | Path) -> bool:
    """Whether the file at `path` takes under 1 MiB on disk."""
    return os.stat(path).st_blocks * 512 < 1 << 20
