"""Append-only store of spectrum fingerprints for collision hunting.

One record per line, JSON-encoded with a fixed field order, behind a
versioned header line. Appends never rewrite existing lines, so a crash
can corrupt at most the final line; readers report and skip unreadable
lines instead of failing. Identifiers are content-derived, which makes
re-adding the same map a no-op.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import CorruptEntry, DuplicateId
from .parser import format_map
from .poly import rational_map_from_text
from .spectrum import (
    DEFAULT_QUANTUM,
    SpectrumFingerprint,
    _fnv64,
    fingerprint,
    quantized_levels,
    spectrum,
)

HEADER = "#multispec-catalog v1"
_HEADER_LINE = (HEADER + "\n").encode()
_BODY = len(_HEADER_LINE)  # where the first record line starts
_DIGEST = re.compile("[0-9a-f]{16}")


@dataclass(frozen=True)
class CatalogEntry:
    """One store line: these fields, in this order, as a JSON object."""

    id: str
    map_text: str
    degree: int
    max_period: int
    quantum: float
    digest: str  # 16 hex characters
    levels: tuple  # per level, per entry: (re_string, im_string)
    tags: tuple[str, ...]
    created_at: str  # RFC 3339


FIELD_ORDER = [field.name for field in fields(CatalogEntry)]


@dataclass(frozen=True)
class QueryResult:
    entries: tuple[CatalogEntry, ...]
    skipped: tuple[tuple[int, str], ...]  # (line number, reason)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class ScanResult:
    groups: tuple[tuple[CatalogEntry, ...], ...]
    skipped: tuple[tuple[int, str], ...]


def entry_id(map_text: str, degree: int, max_period: int, quantum: float) -> str:
    key = f"{map_text}\x1f{degree}\x1f{max_period}\x1f{quantum!r}"
    return f"{_fnv64(key.encode('utf-8')):016x}"


def make_entry(map_text: str, degree: int, max_period: int,
               fp: SpectrumFingerprint, levels, tags=(),
               created_at: str | None = None) -> CatalogEntry:
    if created_at is None:
        created_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
    levels_t = tuple(tuple((re, im) for re, im in level) for level in levels)
    return CatalogEntry(
        id=entry_id(map_text, degree, max_period, fp.quantum),
        map_text=map_text,
        degree=degree,
        max_period=max_period,
        quantum=fp.quantum,
        digest=fp.hex_digest,
        levels=levels_t,
        tags=tuple(tags),
        created_at=created_at,
    )


def entry_for_map(map_text: str, max_period: int,
                  quantum: float = DEFAULT_QUANTUM, tags=(),
                  created_at: str | None = None) -> CatalogEntry:
    """Parse, compute the spectrum, and assemble a catalog entry.

    The stored map_text is the canonical rendering of the parsed map, so
    equal maps written differently get equal ids.
    """
    f = rational_map_from_text(map_text)
    canonical = format_map(f)
    s = spectrum(f, max_period)
    fp = fingerprint(s, quantum)
    levels = [[(repr(re), repr(im)) for re, im in level]
              for level in quantized_levels(s, quantum)]
    return make_entry(canonical, f.degree, max_period, fp, levels, tags, created_at)


def _encode(entry: CatalogEntry) -> str:
    # json writes the tuples in `levels` and `tags` as arrays
    return json.dumps({name: getattr(entry, name) for name in FIELD_ORDER},
                      separators=(",", ":"))


# A record exactly as `_encode` writes it. Its strings are printable ASCII
# without a quote or backslash, so each JSON value is the raw text; its
# integers have no sign or leading zero, and at most 18 digits, so int()
# never meets its digit limit; its quantum has a fraction or an exponent,
# so float() reads it as json.loads does (an integer literal such as -0
# would read as 0.0 through int). Any line it fits, `_decode` accepts with
# the same fields; any other line is left to `_decode`.
_TEXT_CHARS = r"[ !#-\[\]-~]*"
_TEXT = f'"{_TEXT_CHARS}"'
_NATURAL = "0|[1-9][0-9]{0,17}"


def _list_of(item: str) -> str:
    return rf"\[(?:{item}(?:,{item})*)?\]"


def _is_str_list(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _is_levels(value) -> bool:
    return type(value) is list and all(
        type(level) is list and all(_is_str_list(pair) and len(pair) == 2 for pair in level)
        for level in value)


def _is(*types):
    return lambda value: type(value) in types


class _Field(NamedTuple):
    """A record field: its text in a `_CANONICAL` line, the conversion
    `_decode` applies to its JSON value, and the kind that value must be,
    since the conversions alone coerce 2.7 or true to a degree, "xy" to
    two tags."""

    layout: str
    convert: Callable
    kind: str
    is_kind: Callable


_FIELDS = {
    # an all-digit id may be written as a bare integer
    "id": _Field(_TEXT, str, "a string or an integer", _is(str, int)),
    "map_text": _Field(f'"(?P<map_text>{_TEXT_CHARS})"', str, "a string", _is(str)),
    "degree": _Field(f"(?P<degree>{_NATURAL})", int, "an integer", _is(int)),
    "max_period": _Field(f"(?P<max_period>{_NATURAL})", int, "an integer", _is(int)),
    "quantum": _Field(
        rf"(?P<quantum>-?(?:{_NATURAL})(?:\.[0-9]+(?:e[-+]?[0-9]+)?|e[-+]?[0-9]+))",
        float, "a number", _is(int, float)),
    "digest": _Field('"(?P<digest>[0-9a-f]{16})"', str, "a string", _is(str)),
    "levels": _Field(
        _list_of(_list_of(rf"\[{_TEXT},{_TEXT}\]")),
        lambda value: tuple(tuple((str(re), str(im)) for re, im in level) for level in value),
        "a list of lists of [re, im] string pairs", _is_levels),
    "tags": _Field(_list_of(_TEXT), lambda value: tuple(str(t) for t in value),
                   "a list of strings", _is_str_list),
    "created_at": _Field(_TEXT, str, "a string", _is(str)),
}
# `_decode` converts levels first, then the rest in field order, and checks
# kinds only once all have converted: a line with several bad fields is
# skipped for the first fault in that order
_CONVERSION_ORDER = ["levels"] + [name for name in FIELD_ORDER if name != "levels"]
# anchored per line, so `finditer` over a store visits its canonical lines
_CANONICAL = re.compile((r"(?m)^\{" + ",".join(
    f'"{name}":{_FIELDS[name].layout}' for name in FIELD_ORDER) + r"\}$").encode())


def _decode(raw: bytes, line_number: int) -> CatalogEntry:
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptEntry(line_number, f"not valid UTF-8: {exc.reason}") from None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptEntry(line_number, f"not valid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer past int()'s digit limit
        raise CorruptEntry(line_number, f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise CorruptEntry(line_number, "record is not an object")
    if list(obj.keys()) != FIELD_ORDER:
        raise CorruptEntry(line_number, "unknown or misordered fields")
    try:
        entry = CatalogEntry(**{name: _FIELDS[name].convert(obj[name])
                                for name in _CONVERSION_ORDER})
        for name in FIELD_ORDER:
            if not _FIELDS[name].is_kind(obj[name]):
                raise TypeError(f"{name} is not {_FIELDS[name].kind}")
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise CorruptEntry(line_number, f"bad field: {exc}") from None
    if not _DIGEST.fullmatch(entry.digest):
        raise CorruptEntry(line_number, "digest is not 16 hex characters")
    return entry


def _store_buffer(data: bytes) -> bytes:
    """The store, after the header check, with \r\n and a lone \r read as
    newlines, as text mode reads them; copied only if it holds a \r."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not (data.startswith(_HEADER_LINE) or data == HEADER.encode()):
        raise CorruptEntry(1, f"missing header {HEADER!r}")
    return data


def _numbered_lines(data: bytes):
    """(line number, undecoded line) for each record line, after the header check."""
    return enumerate(_store_buffer(data).split(b"\n")[1:], start=2)


def _key(match: re.Match) -> tuple[tuple, str]:
    """(degree, max_period, quantum, digest) and map_text, as `_decode` would give."""
    degree, max_period, quantum, digest, map_text = match.group(
        "degree", "max_period", "quantum", "digest", "map_text")
    return (int(degree), int(max_period), float(quantum), digest.decode()), map_text.decode()


def _match_canonical(raw: bytes) -> tuple[tuple, str] | None:
    """The `_key` of a line in the `_CANONICAL` layout, else None."""
    match = _CANONICAL.fullmatch(raw)
    return _key(match) if match else None


def _read_store(data: bytes, digest: bytes | None = None
                ) -> tuple[list[tuple], list[tuple[int, str]]]:
    """Key the record lines by one pass of `_CANONICAL` over the buffer.

    The lines between matches are off the layout: each is decoded in full,
    so every corrupt line is reported, a torn character spoiling only its
    own line. Given a `digest`, only matches holding it are kept. Returns
    the records, each (key, map_text, line number, line) with `line` a
    canonical line's raw bytes, for `_entry` to decode, or any other line's
    entry; and the skipped (line number, reason) pairs.
    """
    buf = _store_buffer(data)
    records: list[tuple] = []
    skipped: list[tuple[int, str]] = []

    def decode_lines(start, end, first):
        for i, raw in enumerate(buf[start:end].split(b"\n"), start=first):
            if not raw:
                continue
            try:
                e = _decode(raw, i)
            except CorruptEntry as exc:
                skipped.append((exc.line_number, exc.reason))
                continue
            records.append(((e.degree, e.max_period, e.quantum, e.digest), e.map_text, i, e))

    # `start` and `i`: the offset and number of the first line not yet read
    start, i = _BODY, 2
    for match in _CANONICAL.finditer(buf, _BODY):
        at = match.start()
        if at != start:
            decode_lines(start, at - 1, i)
            i += buf.count(b"\n", start, at)
        if digest is None or match["digest"] == digest:
            records.append((*_key(match), i, match[0]))
        start, i = match.end() + 1, i + 1
    decode_lines(start, len(buf), i)
    return records, skipped


def _lines_holding(buf: bytes, needles: tuple[bytes, ...]):
    """Each record line of `buf` that holds one of `needles`, once, in store order."""
    found = [buf.find(needle, _BODY) for needle in needles]
    while max(found) >= 0:
        at = min(f for f in found if f >= 0)
        end = buf.find(b"\n", at)
        end = len(buf) if end < 0 else end
        yield buf[buf.rfind(b"\n", 0, at) + 1:end]
        found = [f if f < 0 or f > end else buf.find(needle, end + 1)
                 for f, needle in zip(found, needles)]


def _entry(record: tuple) -> CatalogEntry:
    _, _, line_number, line = record
    return line if isinstance(line, CatalogEntry) else _decode(line, line_number)


def catalog_add(store_path, entry: CatalogEntry) -> str:
    """Append an entry; a no-op when its id is stored with the same payload.

    `created_at` is not part of the payload: a re-add with another stamp
    leaves the stored line and its stamp as they are. The check and the
    append run under an exclusive advisory lock on the store, so
    concurrent writers cannot store one id twice; readers take no lock.
    A missing or empty store gets the header first, a torn final line its
    newline. A line can store the id only by spelling it out (as a string,
    or as a bare integer if all-digit) or through a JSON escape, so one
    `find` for the id and one for a backslash pick the lines to decode.
    Returns the entry id. Raises DuplicateId when the id exists with a
    different payload (other tags, say), and OSError for filesystem trouble.
    """
    # imported here so that `import multispec` works where fcntl is
    # missing; only writers need the lock
    import fcntl

    with Path(store_path).open("a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        data = fh.read()
        if not data:
            data = _HEADER_LINE
            fh.write(data)
        encoded = _encode(entry)
        for line in _lines_holding(_store_buffer(data), (entry.id.encode(), b"\\")):
            try:
                # the line number goes only into the CorruptEntry passed over here
                existing = _decode(line, 0)
            except CorruptEntry:
                continue
            if existing.id == entry.id:
                if _encode(replace(existing, created_at=entry.created_at)) == encoded:
                    return entry.id
                raise DuplicateId(f"id {entry.id} already stored with different payload")
        fh.write((b"" if data.endswith((b"\n", b"\r")) else b"\n") + encoded.encode() + b"\n")
        fh.flush()
    return entry.id


def catalog_query(store_path, fp: SpectrumFingerprint,
                  degree: int, max_period: int) -> QueryResult:
    """All entries matching digest, quantum, degree, and max_period."""
    records, skipped = _read_store(Path(store_path).read_bytes(), fp.hex_digest.encode())
    key = (degree, max_period, fp.quantum, fp.hex_digest)
    hits = tuple(_entry(r) for r in records if r[0] == key)
    return QueryResult(hits, tuple(skipped))


def catalog_scan_collisions(store_path) -> ScanResult:
    """Groups of >= 2 distinct maps sharing a fingerprint key."""
    records, skipped = _read_store(Path(store_path).read_bytes())
    # key -> map_text -> the first record with that text
    groups: dict[tuple, dict[str, tuple]] = {}
    for r in records:
        degree, max_period, quantum, digest = r[0]
        groups.setdefault((degree, max_period, repr(quantum), digest), {}).setdefault(r[1], r)
    out = tuple(tuple(_entry(r) for r in members.values())
                for members in groups.values() if len(members) >= 2)
    return ScanResult(out, tuple(skipped))
