"""Atomic artifact writes: temp file + ``os.replace``.

Campaign counterexamples, benchmark snapshots and golden-trace fixtures
are all *evidence* — files a later process re-reads and re-verifies.  A
worker or campaign killed mid-``write`` must never leave a truncated
file that half-parses: every artifact writer in the repository routes
through these helpers, which stage the full content in a temporary file
in the destination directory and promote it with :func:`os.replace`
(atomic on POSIX and Windows within one filesystem).  Readers therefore
see either the previous complete artifact or the new complete artifact,
never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile


def atomic_write_text(path: str, text: str, encoding: str = "utf-8") -> str:
    """Write ``text`` to ``path`` atomically; return ``path``.

    The temporary file lives in ``path``'s directory so the final
    ``os.replace`` never crosses a filesystem boundary (cross-device
    renames are not atomic).  On any failure the temporary file is
    removed and the destination is untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, staging = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return path


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write ``data`` to ``path`` atomically; return ``path``.

    The binary sibling of :func:`atomic_write_text`: same staging-file
    protocol, same guarantee that readers see either the previous
    complete file or the new complete file, never a prefix.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, staging = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
    return path


def atomic_write_json(path: str, payload, **dump_kwargs) -> str:
    """Serialize ``payload`` and write it atomically; return ``path``.

    Serialization happens *before* any file is touched, so an
    unserializable payload can never clobber an existing artifact.
    """
    text = json.dumps(payload, **dump_kwargs) + "\n"
    return atomic_write_text(path, text)


class AtomicLineWriter:
    """Incrementally build a text artifact; promote it atomically on commit.

    The streaming sibling of :func:`atomic_write_text` for artifacts too
    large to hold in memory — per-case JSONL logs of million-case chaos
    campaigns, incremental counterexample files.  Lines append to a
    staging file in the destination directory as they are produced (RSS
    stays flat no matter how many lines are written); :meth:`commit`
    fsyncs and promotes with ``os.replace``, :meth:`discard` removes the
    staging file and leaves the destination untouched.  Used as a context
    manager it commits on clean exit and discards when an exception is in
    flight, so readers still only ever see a complete artifact or none.
    """

    def __init__(self, path: str, encoding: str = "utf-8"):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, self._staging = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        self._handle = os.fdopen(fd, "w", encoding=encoding)
        self.lines = 0

    def write(self, text: str) -> None:
        """Append raw text (caller supplies any newlines)."""
        self._handle.write(text)
        self.lines += text.count("\n")

    def write_line(self, text: str) -> None:
        """Append one newline-terminated line."""
        self._handle.write(text + "\n")
        self.lines += 1

    def write_json_line(self, payload) -> None:
        """Append one canonical (sorted-key) JSON line."""
        self.write_line(json.dumps(payload, sort_keys=True))

    def commit(self) -> str:
        """Flush, fsync and atomically promote the staging file."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()
        os.replace(self._staging, self.path)
        return self.path

    def discard(self) -> None:
        """Drop the staging file; the destination is untouched."""
        try:
            self._handle.close()
        finally:
            try:
                os.unlink(self._staging)
            except OSError:
                pass

    def __enter__(self) -> "AtomicLineWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.discard()
