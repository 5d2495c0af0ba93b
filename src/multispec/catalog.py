"""Append-only store of spectrum fingerprints for collision hunting.

One record per line, JSON-encoded with a fixed field order, behind a
versioned header line. Appends never rewrite existing lines, so a crash
can corrupt at most the final line; readers report and skip unreadable
lines instead of failing. Identifiers are content-derived, which makes
re-adding the same map a no-op.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import CorruptEntry, DuplicateId
from .parser import format_map
from .poly import DEFAULT_MAX_ROOTS, rational_map_from_text
from .spectrum import (
    DEFAULT_QUANTUM,
    SpectrumFingerprint,
    _fnv64,
    fingerprint,
    quantized_levels,
    spectrum,
)

HEADER = "#multispec-catalog v1"
FIELD_ORDER = [
    "id", "map_text", "degree", "max_period", "quantum",
    "digest", "levels", "tags", "created_at",
]

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    map_text: str
    degree: int
    max_period: int
    quantum: float
    digest: str  # 16 hex characters
    levels: tuple  # per level, per entry: (re_string, im_string)
    tags: tuple[str, ...]
    created_at: str  # RFC 3339


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
                  created_at: str | None = None,
                  max_roots: int = DEFAULT_MAX_ROOTS) -> CatalogEntry:
    """Parse, compute the spectrum, and assemble a catalog entry.

    The stored map_text is the canonical rendering of the parsed map, so
    equal maps written differently get equal ids.
    """
    f = rational_map_from_text(map_text)
    canonical = format_map(f)
    s = spectrum(f, max_period, max_roots)
    fp = fingerprint(s, quantum)
    levels = [[(repr(re), repr(im)) for re, im in level]
              for level in quantized_levels(s, quantum)]
    return make_entry(canonical, f.degree, max_period, fp, levels, tags, created_at)


def _encode(entry: CatalogEntry) -> str:
    obj = {
        "id": entry.id,
        "map_text": entry.map_text,
        "degree": entry.degree,
        "max_period": entry.max_period,
        "quantum": entry.quantum,
        "digest": entry.digest,
        "levels": [[[re, im] for re, im in level] for level in entry.levels],
        "tags": list(entry.tags),
        "created_at": entry.created_at,
    }
    return json.dumps(obj, separators=(",", ":"))


def _decode(line: str, line_number: int) -> CatalogEntry:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptEntry(line_number, f"not valid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise CorruptEntry(line_number, "record is not an object")
    if list(obj.keys()) != FIELD_ORDER:
        raise CorruptEntry(line_number, "unknown or misordered fields")
    try:
        levels = tuple(
            tuple((str(re), str(im)) for re, im in level) for level in obj["levels"]
        )
        entry = CatalogEntry(
            id=str(obj["id"]),
            map_text=str(obj["map_text"]),
            degree=int(obj["degree"]),
            max_period=int(obj["max_period"]),
            quantum=float(obj["quantum"]),
            digest=str(obj["digest"]),
            levels=levels,
            tags=tuple(str(t) for t in obj["tags"]),
            created_at=str(obj["created_at"]),
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise CorruptEntry(line_number, f"bad field: {exc}") from None
    if len(entry.digest) != 16 or any(c not in "0123456789abcdef" for c in entry.digest):
        raise CorruptEntry(line_number, "digest is not 16 hex characters")
    return entry


def _read_store(store_path) -> tuple[list[CatalogEntry], list[tuple[int, str]]]:
    path = Path(store_path)
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0] != HEADER:
        raise CorruptEntry(1, f"missing header {HEADER!r}")
    entries: list[CatalogEntry] = []
    skipped: list[tuple[int, str]] = []
    for i, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            entries.append(_decode(line, i))
        except CorruptEntry as exc:
            skipped.append((exc.line_number, exc.reason))
    return entries, skipped


def catalog_add(store_path, entry: CatalogEntry) -> str:
    """Append an entry; idempotent for identical payloads.

    Returns the entry id. Raises DuplicateId when the id exists with a
    different payload, and OSError for filesystem trouble.
    """
    path = Path(store_path)
    if not path.exists():
        path.write_text(HEADER + "\n", encoding="utf-8")
    entries, _ = _read_store(path)
    encoded = _encode(entry)
    for existing in entries:
        if existing.id == entry.id:
            if _encode(existing) == encoded:
                return entry.id
            raise DuplicateId(f"id {entry.id} already stored with different payload")
    with path.open("a", encoding="utf-8") as fh:
        fh.write(encoded + "\n")
        fh.flush()
    return entry.id


def catalog_query(store_path, fp: SpectrumFingerprint,
                  degree: int, max_period: int) -> QueryResult:
    """All entries matching digest, quantum, degree, and max_period."""
    entries, skipped = _read_store(store_path)
    hits = tuple(
        e for e in entries
        if e.digest == fp.hex_digest
        and e.quantum == fp.quantum
        and e.degree == degree
        and e.max_period == max_period
    )
    return QueryResult(hits, tuple(skipped))


def catalog_scan_collisions(store_path) -> ScanResult:
    """Groups of >= 2 distinct maps sharing a fingerprint key."""
    entries, skipped = _read_store(store_path)
    groups: dict[tuple, list[CatalogEntry]] = {}
    for e in entries:
        key = (e.degree, e.max_period, repr(e.quantum), e.digest)
        groups.setdefault(key, []).append(e)
    out = []
    for members in groups.values():
        distinct: list[CatalogEntry] = []
        seen_texts = set()
        for e in members:
            if e.map_text not in seen_texts:
                seen_texts.add(e.map_text)
                distinct.append(e)
        if len(distinct) >= 2:
            out.append(tuple(distinct))
    return ScanResult(tuple(out), tuple(skipped))
