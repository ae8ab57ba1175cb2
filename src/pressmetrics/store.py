"""Plain-file persistence: JSON Lines and CSV with atomic writes.

Every stage output is written to a temp file in the destination directory
and renamed into place, so an interrupted run never leaves partial output
where a later stage could read it (crawled pages are committed by the crawl
manifest, which names a page only once it is written). CSVs are UTF-8, LF
line endings, header row always present. Every text writer returns the
SHA-256 hex digest of the bytes it wrote, so a stage records its outputs
without reading them back.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import socket
import tempfile
from pathlib import Path


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> str:
    data = text.encode("utf-8")
    atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


def _jsonl_line(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_jsonl(path: str | Path, records: list[dict]) -> str:
    return atomic_write_text(path, "".join(map(_jsonl_line, records)))


def stream_jsonl(path: str | Path, records) -> str:
    """Write the JSON Lines file ``path`` one record at a time, as the
    iterable ``records`` yields them, and return the SHA-256 hex digest of
    its bytes. Each line is appended to ``<path>.partial`` and flushed before
    the next record is drawn; the file is renamed to ``path`` only once
    ``records`` is exhausted. If ``records`` raises, the partial file keeps
    every line written before it."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    digest = hashlib.sha256()
    with open(partial, "wb") as fh:
        for record in records:
            data = _jsonl_line(record).encode("utf-8")
            fh.write(data)
            fh.flush()
            digest.update(data)
    os.replace(partial, path)
    return digest.hexdigest()


def read_jsonl(path: str | Path):
    """Each record of a JSON Lines file; blank lines are skipped. A malformed
    line fails with a ValueError that names the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: {err.msg} at column {err.colno}") from err
            yield record


def _csv_rows(path: str | Path, convert):
    """Each ``(line number, convert(row))`` of a headed CSV; see read_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields, "
                                 f"got {len(fields)}")
            try:
                value = convert(dict(zip(header, fields)))
            except (KeyError, ValueError) as err:
                detail = f"missing column {err}" if isinstance(err, KeyError) else err
                raise ValueError(f"{path}:{reader.line_num}: {detail}") from err
            yield reader.line_num, value


def read_csv(path: str | Path, convert) -> list:
    """``convert`` applied to each row (a dict keyed by the header) of a
    headed CSV; blank lines are skipped. A row whose field count differs
    from the header's, or whose conversion raises KeyError or ValueError,
    fails with a ValueError that names the file and the line."""
    return [value for _, value in _csv_rows(path, convert)]


def read_mapping(path: str | Path, convert) -> dict:
    """The table of ``(key, value)`` pairs that ``convert`` makes of the rows
    of a headed CSV, read as read_csv reads them. A key repeated with its
    value is accepted; a key given two values fails with a ValueError that
    names the file and both lines."""
    first: dict = {}  # key -> (value, line)
    for lineno, (key, value) in _csv_rows(path, convert):
        kept, kept_line = first.setdefault(key, (value, lineno))
        if kept != value:
            raise ValueError(f"{path}:{lineno}: {key!r} maps to {value!r}, but to {kept!r} "
                             f"on line {kept_line}")
    return {key: value for key, (value, _) in first.items()}


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return atomic_write_text(path, buf.getvalue())


def write_json(path: str | Path, payload) -> str:
    return atomic_write_text(path, json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n")


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


class DirectoryLock:
    """One pipeline run owns its output directory exclusively.

    The lock file names its owner's PID and hostname. A lock whose owner was
    on this host and no longer exists (a run that was killed) is broken, and
    ``broke_stale`` says so. A live owner, one this process may not signal,
    one on another host, or a lock that names no owner still blocks. Two runs
    that break the same stale lock at the same moment can both proceed.
    """

    def __init__(self, directory: str | Path):
        self.path = Path(directory) / ".pressmetrics.lock"
        self.broke_stale = False

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for attempt in range(2):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt or not self._owner_is_gone():
                    raise RuntimeError(f"output directory is locked by another run: {self.path} "
                                       f"(remove it if no run is using the directory)") from None
                self.path.unlink(missing_ok=True)
                self.broke_stale = True
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"pid": os.getpid(), "host": socket.gethostname()}))
        return self

    def _owner_is_gone(self) -> bool:
        try:
            owner = json.loads(self.path.read_text(encoding="utf-8"))
            pid, host = int(owner["pid"]), owner["host"]
        except (OSError, ValueError, KeyError, TypeError):
            return False  # gone already, or names no owner
        if host != socket.gethostname():
            return False
        try:
            os.kill(pid, 0)  # signal 0 only checks that the process exists
        except ProcessLookupError:
            return True
        except PermissionError:  # it exists, under another user
            pass
        return False

    def __exit__(self, *exc):
        try:
            self.path.unlink()
        except OSError:
            pass
        return False
