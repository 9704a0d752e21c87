"""Checked binary sidecars: what parsing a file gives, as raw arrays beside it.

A sidecar of the file at ``path`` (the source) is ``path + ".cache"``: one
JSON header line, then a payload of raw arrays. The header holds a format
tag, the source's byte length and CRC-32 under ``<kind>_bytes`` and
``<kind>_crc32``, whatever else its writer needs to lay the payload out, and
``crc32``: the CRC-32 of the other header fields, as ``json.dumps`` writes
them in file order, followed by the payload. The cohort CSV and the
checkpoint JSON writers each leave one beside their file, and their loaders
read it in place of a parse only when ``read`` proves it belongs to the
source; the source stays the data, and a sidecar is safe to delete.

Threat model: the CRCs catch edits and truncation of either file and a
source copied over the one the sidecar was written for; they do not stop
someone who can write the sidecar file anyway.
"""
from __future__ import annotations

import functools
import json
import math
import os
import stat
import zlib

import numpy as np

from .atomic import atomic_write

SUFFIX = ".cache"
READ_CHUNK = 1 << 20   # bytes per read of the source


def write(path: str, head: str, payload) -> None:
    """Write the sidecar of ``path``: ``head`` with ``crc32`` first, as one JSON line, then the payload.

    ``head`` is the header less ``crc32`` as ``json.dumps`` writes it: an
    object holding the format tag and the source's length and CRC-32.
    ``payload()`` yields the payload's byte views in file order; it is
    called twice, once for the CRC and once into the file, so no
    payload-wide buffer is built. The write goes through ``atomic_write``,
    so a sidecar is whole or is the previous one.
    """
    crc = zlib.crc32(head.encode())
    for chunk in payload():
        crc = zlib.crc32(chunk, crc)
    with atomic_write(path + SUFFIX, binary=True) as fh:
        fh.write(f'{{"crc32": {crc}, {head[1:]}\n'.encode())
        for chunk in payload():
            fh.write(chunk)


def _nonblocking(path: str, flags: int) -> int:
    """``open``'s opener for a sidecar: a FIFO in its place opens without waiting for a writer."""
    return os.open(path, flags | os.O_NONBLOCK)


def read(path: str, fmt: str, kind: str, layout) -> tuple[dict, list] | None:
    """The header (less ``crc32``) and payload arrays of the sidecar of ``path``, or None.

    ``layout(head)`` gives the payload's arrays in file order as ``(dtype,
    shape)`` pairs, or None for a header its caller cannot use. The sidecar
    is used only if it is a regular file (a FIFO in its place never blocks
    the read), its tag is ``fmt``, the source, read in 1 MiB chunks, has the
    recorded length and CRC-32, and the payload has the layout's length and
    the recorded CRC-32 with nothing after it. The arrays are allocated only
    once the length matches and are read straight into. Any failed check or
    read error returns None, so the caller parses the source: a bad sidecar
    never raises, and nothing is written.
    """
    source_bytes, source_crc = kind + "_bytes", kind + "_crc32"
    try:
        with open(path + SUFFIX, "rb", opener=_nonblocking) as fh, open(path, "rb") as source:
            info = os.fstat(fh.fileno())
            size = os.fstat(source.fileno()).st_size
            if not stat.S_ISREG(info.st_mode):
                return None
            line = fh.readline(READ_CHUNK + 6 * size)   # a source byte is at most 6 JSON bytes
            head = json.loads(line) if line.endswith(b"\n") else None
            if not isinstance(head, dict) or [head.get("format"), head.get(source_bytes)] != [fmt, size]:
                return None
            crc32 = head.pop("crc32", None)
            specs = layout(head)
            if specs is None or info.st_size != len(line) + sum(
                    np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in specs):
                return None
            crc = total = 0
            for chunk in iter(functools.partial(source.read, READ_CHUNK), b""):
                crc, total = zlib.crc32(chunk, crc), total + len(chunk)
            if (total, crc) != (size, head.get(source_crc)):
                return None
            crc = zlib.crc32(json.dumps(head).encode())
            arrays = [np.empty(shape, dtype) for dtype, shape in specs]
            for array in arrays:
                view = array.reshape(-1).view(np.uint8)   # a memoryview cast refuses empty arrays
                if fh.readinto(view) != len(view):
                    return None
                crc = zlib.crc32(view, crc)
            if crc != crc32 or fh.read(1):
                return None
    except (OSError, ValueError, RecursionError):
        return None
    return head, arrays
