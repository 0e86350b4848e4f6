"""All-or-nothing output files.

Every artifact and manifest is written to a temporary file next to its
final path and renamed over it only once the writer has finished, so a run
that fails mid-write leaves either the previous file or none, never a
truncated one beside a stale manifest.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["atomic_open"]


@contextmanager
def atomic_open(path, newline=None):
    """Text file handle whose contents appear at path only on a clean exit."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
