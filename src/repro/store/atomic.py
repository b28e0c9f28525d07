"""Atomic, durable file writes for everything the store persists.

Depends on the standard library only, so any module — in
:mod:`repro.store` or :mod:`repro.sweep` — can import it without pulling
either package's ``__init__`` into an import cycle.
"""

from __future__ import annotations

import os
import tempfile


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entry table to disk (POSIX; no-op elsewhere).

    After ``os.replace`` the *file* contents are durable but the rename
    itself lives in the directory, which has its own write-back cache.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        # Windows (and some exotic filesystems) cannot open directories;
        # the rename is still atomic, just not crash-durable.
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    The temp file is fsynced before the rename and the directory after it,
    so an interrupted write never leaves a truncated file behind and a
    crash never surfaces an empty-but-renamed one.  Concurrent writers of
    the same path simply race to a complete file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except FileNotFoundError:
            pass
        raise
