"""Atomic filesystem write helpers shared by every artifact producer.

Every durable artifact the repo writes — ``*.trace.gz`` captures, CSV
exports, cache entries — goes through the same temp-then-rename
discipline: write the full content to a sibling temp file, flush and
fsync it, then :func:`os.replace` it over the destination.
``os.replace`` is atomic on POSIX (and on Windows for same-volume
renames), so a reader never observes a torn file and an interrupt
mid-write leaves at worst an orphaned ``*.tmp.<pid>`` sibling, never a
corrupted artifact.
"""

from __future__ import annotations

import os
import pathlib
from contextlib import contextmanager
from typing import IO, Iterator

__all__ = ["atomic_open", "atomic_write_bytes", "atomic_write_text"]


def _temp_path(path: pathlib.Path) -> pathlib.Path:
    # PID-suffixed so concurrent writers (pool workers, parallel CI
    # jobs) never clobber each other's in-flight temp file.
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


@contextmanager
def atomic_open(
    path: str | os.PathLike,
    mode: str = "w",
    *,
    newline: str | None = None,
) -> Iterator[IO]:
    """Open a temp sibling for writing; rename over ``path`` on success.

    The rename only happens if the body completes without raising —
    on error the temp file is removed and the destination is untouched.
    """
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_open is write-only; got mode {mode!r}")
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = _temp_path(target)
    fh = open(tmp, mode, newline=newline)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
    except BaseException:
        fh.close()
        tmp.unlink(missing_ok=True)
        raise
    fh.close()
    os.replace(tmp, target)


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-then-rename."""
    with atomic_open(path, "wb") as fh:
        fh.write(data)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via temp-then-rename."""
    with atomic_open(path, "w") as fh:
        fh.write(text)
