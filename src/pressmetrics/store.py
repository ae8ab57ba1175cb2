"""Plain-file persistence: JSON Lines and CSV, committed by rename.

Every output streams: its text is encoded, hashed and written in blocks, so
no stage holds a whole report or stage file. JSON Lines outputs go to
``<name>.partial``, flushed after each record, and are renamed into place
after the last one, so a failed stage leaves the partial file and the
previous output. CSV and JSON reports go to a mkstemp file in the
destination directory and are renamed. Crawled page bodies are appended to
one pack, and the crawl manifest line naming each follows it. CSVs are UTF-8,
LF line endings, header row always present. Each writer returns the SHA-256
hex digest of the bytes it wrote, and each reader puts the digest of the
bytes it decoded in a ``digests`` dict.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from contextlib import suppress
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace


_TEMP_SUFFIX = ".tmp"
_BLOCK = 1024  # chunks of a report's text joined into one write
_JSON = json.JSONEncoder(indent=2, ensure_ascii=False, sort_keys=True)


def is_temp_file(path: str | Path) -> bool:
    """Whether ``path`` is named as the report writers name their temp files,
    ``<name>.<random>.tmp``: one left behind is a write killed before its rename."""
    return Path(path).name.endswith(_TEMP_SUFFIX)


def _write_blocks(fh, chunks, n: int) -> str:
    """Write the text ``chunks`` to ``fh``, each ``n`` joined, encoded, written,
    flushed and hashed before the next is drawn; returns the SHA-256 hex digest."""
    digest = hashlib.sha256()
    chunks = iter(chunks)
    while block := list(islice(chunks, n)):
        data = "".join(block).encode("utf-8")
        fh.write(data)
        fh.flush()
        digest.update(data)
    return digest.hexdigest()


def _replace(path: str | Path, write):
    """``write(fh)``'s result, written to a mkstemp file that is renamed to
    ``path`` once it returns; if it raises, ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=_TEMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            result = write(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise
    return result


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    _replace(path, lambda fh: fh.write(data))


def atomic_write_text(path: str | Path, text: str) -> str:
    return write_text(path, [text])


def write_text(path: str | Path, chunks) -> str:
    """Replace ``path`` with the text ``chunks``, streamed through a temp file."""
    return _replace(path, lambda fh: _write_blocks(fh, chunks, _BLOCK))


def write_jsonl(path: str | Path, records) -> str:
    """Write the JSON Lines file ``path`` one record at a time, as the
    iterable ``records`` yields them, and return the SHA-256 hex digest of
    its bytes. Each line is appended to ``<path>.partial`` and flushed before
    the next record is drawn; the file is renamed to ``path`` only once
    ``records`` is exhausted. If ``records`` raises, the partial file keeps
    every line written before it and ``path`` is left as it was."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    with open(partial, "wb") as fh:
        digest = _write_blocks(fh, (json.dumps(r, ensure_ascii=False) + "\n" for r in records), 1)
    os.replace(partial, path)
    return digest


def _converted(convert, record, path, lineno: int, missing: str):
    """``convert(record)``; a KeyError, TypeError or ValueError names the file and line."""
    try:
        return convert(record)
    except (KeyError, TypeError, ValueError) as err:
        detail = f"missing {missing} {err}" if isinstance(err, KeyError) else err
        raise ValueError(f"{path}:{lineno}: {detail}") from err


def typed(record: dict, key: str, kind: type):
    """``record[key]`` if it is a ``kind``; another JSON type is refused, not converted."""
    if type(value := record[key]) is not kind:
        raise ValueError(f"field {key!r} is {value!r}, not a {kind.__name__}")
    return value


def strings(record: dict, key: str) -> list[str]:
    """``record[key]`` if it is a list of str; as typed, nothing is converted."""
    value = typed(record, key, list)
    for item in value:  # a loop: all() over a generator costs three times as much
        if type(item) is not str:
            raise ValueError(f"field {key!r} is {value!r}, not a list of str")
    return value


def read_jsonl(path: str | Path, digests: dict | None = None, convert=None):
    """Each record of a JSON Lines file, or ``convert(record)``; blank lines
    are skipped. A malformed line, or a record that ``convert`` refuses, fails
    with a ValueError that names the file and the line. Given ``digests``, the
    SHA-256 hex digest of the bytes read is stored under ``str(path)`` after
    the last record."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            digest.update(raw)
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: {err.msg} at column {err.colno}") from err
            except (ValueError, RecursionError) as err:  # not UTF-8, too deep, too long a number
                raise ValueError(f"{path}:{lineno}: {err}") from err
            yield record if convert is None else _converted(convert, record, path, lineno, "field")
    if digests is not None:
        digests[str(path)] = digest.hexdigest()


def read_json(path: str | Path, digests: dict | None = None):
    """The JSON document in ``path``, with its digest stored as read_jsonl
    stores it. A malformed document fails with a ValueError that names the file."""
    data = Path(path).read_bytes()
    try:
        document = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: {err}") from err
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return document


def _csv_rows(path: str | Path, convert, digests: dict | None):
    """Each ``(line number, convert(row))`` of a headed CSV; see read_csv."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # each chunk up to a "\n" is hashed as read, then split where csv ends
        # lines ("\n", "\r\n" or a lone "\r") and decoded one line at a time
        reader = csv.reader(line.decode("utf-8") for chunk in fh if not digest.update(chunk)
                            for line in chunk.splitlines(keepends=True))
        try:
            header = next(reader, [])
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ValueError(f"{path}:{reader.line_num}: expected {len(header)} fields, "
                                     f"got {len(fields)}")
                yield reader.line_num, _converted(convert, dict(zip(header, fields)), path,
                                                  reader.line_num, "column")
        except csv.Error as err:
            raise ValueError(f"{path}:{reader.line_num}: {err}") from err
        except UnicodeDecodeError as err:  # raised before csv counts the line
            raise ValueError(f"{path}:{reader.line_num + 1}: {err}") from err
    if digests is not None:
        digests[str(path)] = digest.hexdigest()


def read_csv(path: str | Path, convert, digests: dict | None = None) -> list:
    """``convert`` applied to each row (a dict keyed by the header) of a
    headed CSV; blank lines are skipped, and ``digests`` is filled as
    read_jsonl fills it. A line that is not UTF-8, a row that csv cannot
    read, one whose field count differs from the header's, or one whose
    conversion raises KeyError, TypeError or ValueError fails with a
    ValueError that names the file and the line."""
    return [value for _, value in _csv_rows(path, convert, digests)]


def read_mapping(path: str | Path, convert, digests: dict | None = None) -> dict:
    """The table of ``(key, value)`` pairs that ``convert`` makes of the rows
    of a headed CSV, read as read_csv reads them. A key repeated with its
    value is accepted; a key given two values fails with a ValueError that
    names the file and both lines."""
    first: dict = {}  # key -> (value, line)
    for lineno, (key, value) in _csv_rows(path, convert, digests):
        kept, kept_line = first.setdefault(key, (value, lineno))
        if kept != value:
            raise ValueError(f"{path}:{lineno}: {key!r} maps to {value!r}, but to {kept!r} "
                             f"on line {kept_line}")
    return {key: value for key, (value, _) in first.items()}


def write_csv(path: str | Path, header: list[str], rows) -> str:
    """The header and each row of the iterable ``rows``, streamed as write_text streams."""
    lines = csv.writer(SimpleNamespace(write=str), lineterminator="\n")  # writerow returns the line
    return write_text(path, map(lines.writerow, chain([header], rows)))


def write_json(path: str | Path, payload) -> str:
    """``payload`` as json.dump writes it with indent 2, sorted keys and no ASCII escapes."""
    return write_text(path, chain(_JSON.iterencode(payload), ["\n"]))


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()

