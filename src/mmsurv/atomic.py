"""Whole-file writes: an output file changes only once its new bytes are complete.

``atomic_write`` hands out a sibling temporary file and moves it onto the
target with ``os.replace`` when the body finishes. A body that raises,
``MemoryError`` and ``KeyboardInterrupt`` included, leaves the target with
its old bytes (or absent, if it was new) and removes the temporary file, so
no half-written checkpoint, cohort CSV or cohort cache, which could load as
a smaller valid cohort, is ever left under the target's name.
"""
from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path: str, binary: bool = False):
    """Open a file that replaces ``path`` when the ``with`` body returns.

    The file takes UTF-8 text, or bytes when ``binary`` is set. The
    temporary file is opened with ``open``, so its mode follows the umask as
    a direct write's would.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8")
    except OSError as e:  # name the file the caller asked for, as a direct write would
        e.filename = path
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
