"""All-or-nothing output files, and the one CSV text format.

Every artifact and manifest is written to a temporary file next to its
final path and renamed over it only once the writer has finished, so a run
that fails mid-write leaves either the previous file or none, never a
truncated one beside a stale manifest.  Every CSV artifact is written by
write_csv, so its text format is decided here alone.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

__all__ = ["atomic_open", "fmt17", "write_csv"]

# Rows formatted and written per step: bounds the CSV text held in memory.
_BLOCK_ROWS = 1 << 16


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


def fmt17(values):
    """The "%.17g" text of each value, as an object array of str.

    17 significant digits round-trip every float64, and integers up to 2**53
    print as plain integers.
    """
    return np.array([format(v, ".17g") for v in np.asarray(values).tolist()], dtype=object)


def write_csv(path, header, blocks):
    """Write a CSV atomically, at most _BLOCK_ROWS rows of text at a time.

    Each block holds one equal-length column per header name.  Numeric
    columns are written as fmt17 text, any other column (text from fmt17)
    as it is.
    """
    with atomic_open(path, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            columns = list(map(np.asarray, block))
            if len(columns) != len(header):
                raise ValueError(f"block has {len(columns)} columns for {len(header)} names")
            for lo in range(0, max(map(len, columns)), _BLOCK_ROWS):
                part = [c[lo : lo + _BLOCK_ROWS] for c in columns]
                text = [fmt17(c) if c.dtype.kind in "iuf" else c for c in part]
                fh.write("\n".join(map(",".join, zip(*text, strict=True))) + "\n")
