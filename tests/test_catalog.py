import functools
import json
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from multispec import (
    CorruptEntry,
    DuplicateId,
    SpectrumFingerprint,
    catalog_add,
    catalog_query,
    catalog_scan_collisions,
    entry_for_map,
    fingerprint,
    lattes_mult2,
    rational_map_from_text,
    spectrum,
)
from multispec.catalog import (
    HEADER,
    CatalogEntry,
    QueryResult,
    ScanResult,
    _decode,
    _encode,
    _numbered_lines,
    _read_store,
    entry_id,
    make_entry,
)
from multispec.parser import format_map

STAMP = "2026-08-08T00:00:00+00:00"


@pytest.fixture
def store(tmp_path):
    return tmp_path / "fingerprints.cat"


def fp_of(text, max_period):
    return fingerprint(spectrum(rational_map_from_text(text), max_period))


def test_entry_id_is_pinned():
    # ids are stored in v1 catalogs; a change here orphans every store
    assert entry_id("z^4+1", 4, 3, 1e-6) == "8ede694348028566"


class TestAdd:
    def test_add_creates_store_with_header(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        eid = catalog_add(store, entry)
        lines = store.read_text().splitlines()
        assert lines[0] == HEADER
        assert len(lines) == 2
        assert eid == entry.id

    def test_add_is_idempotent(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        first = catalog_add(store, entry)
        second = catalog_add(store, entry)
        assert first == second
        assert len(store.read_text().splitlines()) == 2

    def test_add_is_append_only(self, store):
        catalog_add(store, entry_for_map("z^2", 2, created_at=STAMP))
        before = store.read_text()
        catalog_add(store, entry_for_map("z^3", 2, created_at=STAMP))
        after = store.read_text()
        assert after.startswith(before)

    def test_duplicate_id_with_different_payload(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        catalog_add(store, entry)
        clashing = make_entry(
            entry.map_text, entry.degree, entry.max_period,
            SpectrumFingerprint(int(entry.digest, 16), entry.quantum),
            [[(re, im) for re, im in level] for level in entry.levels],
            tags=("different",), created_at=STAMP,
        )
        assert clashing.id == entry.id
        with pytest.raises(DuplicateId):
            catalog_add(store, clashing)

    def test_unwritable_path_raises_oserror(self, tmp_path):
        target = tmp_path / "missing-dir" / "store.cat"
        with pytest.raises(OSError):
            catalog_add(target, entry_for_map("z^2", 2, created_at=STAMP))

    def test_concurrent_adds_store_one_record(self, store, monkeypatch):
        import threading
        import time

        from multispec import catalog

        encode = catalog._encode

        def slow_encode(entry):
            time.sleep(0.1)
            return encode(entry)

        monkeypatch.setattr(catalog, "_encode", slow_encode)
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        threads = [threading.Thread(target=catalog_add, args=(store, entry)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.read_text().splitlines() == [HEADER, encode(entry)]

    @pytest.mark.parametrize("tail, skipped_lines", [
        pytest.param("", [], id="header-only"),
        pytest.param('\n{"id": "dead', [2], id="torn-record"),
    ])
    def test_torn_final_line_keeps_the_next_record(self, store, tail, skipped_lines):
        # a crash mid-append leaves the last line without its newline
        store.write_text(HEADER + tail, encoding="utf-8")
        catalog_add(store, entry_for_map("z^2", 2, created_at=STAMP))
        result = catalog_query(store, fp_of("z^2", 2), 2, 2)
        assert [e.map_text for e in result] == ["z^2"]
        assert [n for n, _ in result.skipped] == skipped_lines


class TestAddReadsOnlyLinesThatCanHoldTheId:
    def write(self, store, *lines):
        store.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
        return store.read_bytes()

    def test_id_written_with_an_escape(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        letter = next(c for c in entry.id if c in "abcdef")
        escaped = entry.id.replace(letter, f"\\u{ord(letter):04x}", 1)
        line = _encode(entry).replace(f'"id":"{entry.id}"', f'"id":"{escaped}"')
        assert entry.id not in line
        before = self.write(store, line)
        assert catalog_add(store, entry) == entry.id
        assert store.read_bytes() == before
        with pytest.raises(DuplicateId):
            catalog_add(store, replace(entry, tags=("different",)))
        assert store.read_bytes() == before

    def test_corrupt_line_holding_the_id_is_passed_over(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        before = self.write(store, f'{{"id":"{entry.id}", truncated', _encode(entry))
        assert catalog_add(store, entry) == entry.id
        assert store.read_bytes() == before

    def test_all_digit_id_stored_as_a_bare_integer(self, store):
        entry = replace(entry_for_map("z^2", 2, created_at=STAMP), id="1234567890123456")
        line = _encode(entry).replace('"id":"1234567890123456"', '"id":1234567890123456')
        assert line != _encode(entry)
        before = self.write(store, line)
        assert catalog_add(store, entry) == entry.id
        assert store.read_bytes() == before


def test_import_without_fcntl():
    # the package must import on platforms without fcntl; only catalog_add needs it
    import subprocess
    import sys
    from pathlib import Path

    import multispec

    src = str(Path(multispec.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); sys.modules['fcntl'] = None; import multispec"
    subprocess.run([sys.executable, "-c", code], check=True)


class TestQuery:
    def test_round_trip(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        catalog_add(store, entry)
        hits = catalog_query(store, fp_of("z^2", 2), 2, 2)
        assert len(hits) == 1
        assert hits.entries[0].map_text == "z^2"

    def test_unseen_fingerprint(self, store):
        catalog_add(store, entry_for_map("z^2", 2, created_at=STAMP))
        hits = catalog_query(store, fp_of("z^3", 2), 3, 2)
        assert len(hits) == 0

    def test_elementary_pair_collision(self, store):
        for text in ("z^4+1", "(z^2+1)^2"):
            catalog_add(store, entry_for_map(text, 3, created_at=STAMP))
        hits = catalog_query(store, fp_of("z^4+1", 3), 4, 3)
        assert sorted(e.map_text for e in hits) == ["z^4+1", "z^4+2*z^2+1"]

    def test_crlf_store_reads_as_in_text_mode(self, store):
        entry = entry_for_map("z^2", 2, created_at=STAMP)
        store.write_bytes(f"{HEADER}\r\n{_encode(entry)}\r\n".encode())
        hits = catalog_query(store, fp_of("z^2", 2), 2, 2)
        assert [e.id for e in hits] == [entry.id] and hits.skipped == ()
        before = store.read_bytes()
        catalog_add(store, entry)
        assert store.read_bytes() == before

    def test_stored_entry_recomputes_to_same_fingerprint(self, store):
        entry = entry_for_map("(z^2+1)/(z-1)", 2, created_at=STAMP)
        catalog_add(store, entry)
        hits = catalog_query(store, fp_of("(z^2+1)/(z-1)", 2), 2, 2)
        stored = hits.entries[0]
        recomputed = entry_for_map(stored.map_text, stored.max_period,
                                   stored.quantum, created_at=STAMP)
        assert recomputed.digest == stored.digest
        assert recomputed.id == stored.id


class TestScan:
    def test_power_maps_do_not_collide(self, store):
        for text in ("z^2", "z^3"):
            catalog_add(store, entry_for_map(text, 2, created_at=STAMP))
        assert catalog_scan_collisions(store).groups == ()

    def test_elementary_pair_one_group(self, store):
        for text in ("z^4+1", "(z^2+1)^2", "z^2"):
            catalog_add(store, entry_for_map(text, 3 if "4" in text or "(" in text else 3,
                                             created_at=STAMP))
        groups = catalog_scan_collisions(store).groups
        assert len(groups) == 1
        assert len(groups[0]) == 2

    def test_lattes_family_groups_as_five(self, store):
        for params in ((1, 0), (0, 1), (-1, 0), (2, 1), (1, -1)):
            text = format_map(lattes_mult2(params))
            catalog_add(store, entry_for_map(text, 2, created_at=STAMP))
        groups = catalog_scan_collisions(store).groups
        assert [len(g) for g in groups] == [5]

    def test_corrupt_final_line_skipped_with_report(self, store):
        for text in ("z^4+1", "(z^2+1)^2"):
            catalog_add(store, entry_for_map(text, 3, created_at=STAMP))
        with open(store, "a", encoding="utf-8") as fh:
            fh.write('{"id": "0123456789abcdef", "map_text爆": truncated')
        result = catalog_scan_collisions(store)
        assert len(result.groups) == 1
        assert len(result.skipped) == 1
        assert result.skipped[0][0] == 4  # 1 header + 2 entries + corrupt line

    def test_unknown_fields_rejected(self, store):
        catalog_add(store, entry_for_map("z^2", 2, created_at=STAMP))
        line = store.read_text().splitlines()[1]
        doctored = line[:-1] + ',"extra":1}'
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(doctored + "\n")
        result = catalog_query(store, fp_of("z^2", 2), 2, 2)
        assert len(result.entries) == 1
        assert len(result.skipped) == 1

    def test_missing_header_is_fatal(self, store):
        store.write_text("not a catalog\n")
        with pytest.raises(CorruptEntry):
            catalog_scan_collisions(store)


def _dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


# the JSON and unpacking messages are worded as Python 3.11 words them
HUGE_INT_REASON = ("not valid JSON: Exceeds the limit (4300 digits) for integer string "
                   "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
                   "to increase the limit")


@pytest.mark.parametrize("doctor, reason", [
    pytest.param(lambda obj: "{not json",
                 "not valid JSON: Expecting property name enclosed in double quotes",
                 id="invalid-json"),
    pytest.param(lambda obj: "[1, 2]", "record is not an object", id="non-object"),
    pytest.param(lambda obj: _dumps({"map_text": obj.pop("map_text"), **obj}),
                 "unknown or misordered fields", id="misordered"),
    pytest.param(lambda obj: _dumps({**obj, "levels": [[["1", "0", "0"]]]}),
                 "bad field: too many values to unpack (expected 2)", id="level-pair-of-3"),
    pytest.param(lambda obj: _dumps({**obj, "degree": "two"}),
                 "bad field: invalid literal for int() with base 10: 'two'", id="degree-two"),
    # levels converts before the other fields, so its error names the line
    pytest.param(lambda obj: _dumps({**obj, "degree": "two", "levels": [[["1", "0", "0"]]]}),
                 "bad field: too many values to unpack (expected 2)", id="levels-and-degree"),
    pytest.param(lambda obj: _dumps({**obj, "digest": "0123456789abcde"}),
                 "digest is not 16 hex characters", id="digest-15"),
    pytest.param(lambda obj: _dumps({**obj, "digest": "0123456789ABCDEF"}),
                 "digest is not 16 hex characters", id="digest-uppercase"),
    pytest.param(lambda obj: _dumps({**obj, "digest": "0123456789abcdeg"}),
                 "digest is not 16 hex characters", id="digest-g"),
    # values that the conversions would coerce
    pytest.param(lambda obj: _dumps({**obj, "degree": 2.7}),
                 "bad field: degree is not an integer", id="degree-float"),
    pytest.param(lambda obj: _dumps({**obj, "degree": True}),
                 "bad field: degree is not an integer", id="degree-true"),
    pytest.param(lambda obj: _dumps({**obj, "degree": "2"}),
                 "bad field: degree is not an integer", id="degree-string"),
    pytest.param(lambda obj: _dumps({**obj, "max_period": 2.0}),
                 "bad field: max_period is not an integer", id="max-period-float"),
    pytest.param(lambda obj: _dumps({**obj, "quantum": "1e-6"}),
                 "bad field: quantum is not a number", id="quantum-string"),
    pytest.param(lambda obj: _dumps({**obj, "quantum": True}),
                 "bad field: quantum is not a number", id="quantum-true"),
    pytest.param(lambda obj: _dumps({**obj, "quantum": 10**400}),
                 "bad field: int too large to convert to float", id="quantum-int-overflow"),
    pytest.param(lambda obj: _dumps({**obj, "id": None}),
                 "bad field: id is not a string or an integer", id="id-null"),
    pytest.param(lambda obj: _dumps({**obj, "map_text": 5}),
                 "bad field: map_text is not a string", id="map-text-int"),
    pytest.param(lambda obj: _dumps({**obj, "digest": 5}),
                 "bad field: digest is not a string", id="digest-int"),
    pytest.param(lambda obj: _dumps({**obj, "created_at": 5}),
                 "bad field: created_at is not a string", id="created-at-int"),
    pytest.param(lambda obj: _dumps({**obj, "tags": "xy"}),
                 "bad field: tags is not a list of strings", id="tags-string"),
    pytest.param(lambda obj: _dumps({**obj, "tags": [1]}),
                 "bad field: tags is not a list of strings", id="tags-of-int"),
    pytest.param(lambda obj: _dumps({**obj, "levels": [["ab"]]}),
                 "bad field: levels is not a list of lists of [re, im] string pairs",
                 id="level-pair-string"),
    pytest.param(lambda obj: _dumps({**obj, "levels": [[[None, None]]]}),
                 "bad field: levels is not a list of lists of [re, im] string pairs",
                 id="level-pair-nulls"),
    pytest.param(lambda obj: _dumps({**obj, "levels": [[{"1": 0, "0": 0}]]}),
                 "bad field: levels is not a list of lists of [re, im] string pairs",
                 id="level-pair-object"),
    # integers past int()'s 4300-digit limit
    pytest.param(lambda obj: _dumps(obj).replace('"degree":2', '"degree":' + "9" * 5000),
                 HUGE_INT_REASON, id="degree-huge"),
    pytest.param(lambda obj: _dumps(obj).replace('"max_period":2', '"max_period":' + "9" * 5000),
                 HUGE_INT_REASON, id="max-period-huge"),
])
def test_query_reports_each_corrupt_line(store, doctor, reason):
    entry = entry_for_map("z^2", 2, created_at=STAMP)
    catalog_add(store, entry)
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(doctor(json.loads(_encode(entry))) + "\n")
    result = catalog_query(store, fp_of("z^2", 2), 2, 2)
    assert [e.map_text for e in result] == ["z^2"]
    assert result.skipped == ((3, reason),)


@pytest.mark.parametrize("field, stored", [("degree", 4), ("max_period", 3)])
def test_scan_skips_a_line_holding_a_huge_integer(store, field, stored):
    for text in ("z^4+1", "(z^2+1)^2"):
        catalog_add(store, entry_for_map(text, 3, created_at=STAMP))
    line = store.read_text().splitlines()[1]
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(line.replace(f'"{field}":{stored},', f'"{field}":{"9" * 5000},') + "\n")
    result = catalog_scan_collisions(store)
    assert [len(group) for group in result.groups] == [2]
    assert result.skipped == ((4, HUGE_INT_REASON),)


# -- query and scan against the full-decode reader they replaced ------------

def _reference_read(store):
    """Every record line decoded in full, as the catalog read before `_read_store`."""
    entries, skipped = [], []
    for i, line in _numbered_lines(store.read_bytes()):
        if not line:
            continue
        try:
            entries.append(_decode(line, i))
        except CorruptEntry as exc:
            skipped.append((exc.line_number, exc.reason))
    return entries, tuple(skipped)


def _reference_query(store, fp, degree, max_period):
    entries, skipped = _reference_read(store)
    hits = tuple(
        e for e in entries
        if e.digest == fp.hex_digest
        and e.quantum == fp.quantum
        and e.degree == degree
        and e.max_period == max_period
    )
    return QueryResult(hits, skipped)


def _reference_scan(store):
    entries, skipped = _reference_read(store)
    groups = {}
    for e in entries:
        groups.setdefault((e.degree, e.max_period, repr(e.quantum), e.digest), []).append(e)
    out = []
    for members in groups.values():
        distinct, seen_texts = [], set()
        for e in members:
            if e.map_text not in seen_texts:
                seen_texts.add(e.map_text)
                distinct.append(e)
        if len(distinct) >= 2:
            out.append(tuple(distinct))
    return ScanResult(tuple(out), skipped)


def _mixed_store_lines():
    """(line bytes, line ending) pairs: canonical and non-canonical, valid and not."""
    quartic = entry_for_map("z^4+1", 3, created_at=STAMP)
    flipped = entry_for_map("(z^2+1)^2", 3, created_at=STAMP)
    square = entry_for_map("z^2", 2, created_at=STAMP)
    letter = next(c for c in flipped.id if c in "abcdef")
    escape = f"\\u{ord(letter):04x}"
    escaped_id = _encode(flipped).replace(
        f'"id":"{flipped.id}"', f'"id":"{flipped.id.replace(letter, escape, 1)}"')
    bare_id = _encode(replace(square, id="1234567890123456", map_text="z^2 bare")).replace(
        '"id":"1234567890123456"', '"id":1234567890123456')

    def with_quantum(literal, text):
        return _encode(replace(square, map_text=text)).replace(
            '"quantum":1e-06', f'"quantum":{literal}')

    lines = [
        (_encode(quartic), "\n"),
        (json.dumps(json.loads(_encode(square))), "\r"),  # valid, with spaces
        (escaped_id, "\r\n"),
        ("", "\n"),
        (bare_id, "\n"),
        # 1 and 1.0 are one quantum; -0 reads as 0.0 through int, unlike -0.0
        (with_quantum("1", "q int"), "\n"),
        (with_quantum("1.0", "q float"), "\n"),
        (with_quantum("-0", "q int zero"), "\r"),
        (with_quantum("-0.0", "q negative zero"), "\n"),
        (with_quantum("0.0", "q zero"), "\n"),
        (with_quantum("1E400", "q upper exponent"), "\n"),
        (with_quantum("1e400", "q lower exponent"), "\n"),
        ('{"id": "dead", "tags": ["\u7206'.encode()[:-1], "\n"),  # torn inside a character
        ("{broken", "\n"),
        (_encode(quartic).replace('"degree":4', '"degree":"4"'), "\n"),
        (_encode(replace(quartic, map_text="z^4+1 \u2603")), "\n"),  # escaped by _encode
        (_encode(quartic), "\n"),  # a re-add
        (_encode(replace(quartic, tags=("again",))), "\r\n"),  # same text, other tags
        (_encode(flipped), "\n"),
        (_encode(replace(square, map_text="z^2 twin")), "\n"),
    ]
    return [(raw if isinstance(raw, bytes) else raw.encode(), ending.encode())
            for raw, ending in lines]


def test_query_and_scan_match_the_full_decode_reader(store):
    lines = _mixed_store_lines()
    store.write_bytes(HEADER.encode() + b"\r\n" + b"".join(raw + end for raw, end in lines))
    records, skipped = _read_store(store.read_bytes())
    # both readings are exercised: lines keyed by layout alone and lines decoded in full
    assert {type(r[3]) for r in records} == {bytes, CatalogEntry}
    assert skipped == [
        (14, "not valid UTF-8: unexpected end of data"),
        (15, "not valid JSON: Expecting property name enclosed in double quotes"),
        (16, "bad field: degree is not an integer"),
    ]

    scan = catalog_scan_collisions(store)
    assert repr(scan) == repr(_reference_scan(store))
    assert [[e.map_text for e in g] for g in scan.groups] == [
        ["z^4+1", "z^4+2*z^2+1", "z^4+1 \u2603"],
        ["z^2", "z^2 bare", "z^2 twin"],
        ["q int", "q float"],
        ["q int zero", "q zero"],
        ["q upper exponent", "q lower exponent"],
    ]

    entries, _ = _reference_read(store)
    keys = {(e.degree, e.max_period, e.quantum, e.digest) for e in entries}
    keys.add((4, 3, 1e-6, "0" * 16))  # held by no line
    for degree, max_period, quantum, digest in sorted(keys, key=repr):
        fp = SpectrumFingerprint(int(digest, 16), quantum)
        result = catalog_query(store, fp, degree, max_period)
        assert repr(result) == repr(_reference_query(store, fp, degree, max_period))


# -- add, query and scan against full-decode references, on random stores ---

@functools.cache
def _mixed_pieces():
    """The lines of `_mixed_store_lines`, and entries stored and not stored there."""
    quartic = entry_for_map("z^4+1", 3, created_at=STAMP)
    flipped = entry_for_map("(z^2+1)^2", 3, created_at=STAMP)
    square = entry_for_map("z^2", 2, created_at=STAMP)
    bare = replace(square, id="1234567890123456", map_text="z^2 bare")
    entries = (quartic, flipped, bare, entry_for_map("z^3", 2, created_at=STAMP))
    return tuple(raw for raw, _ in _mixed_store_lines()), entries


def _reference_add(store, entry):
    """`catalog_add` decoding every line, as it did before its search."""
    data = store.read_bytes()
    if not data:
        data = (HEADER + "\n").encode()
        store.write_bytes(data)
    for i, line in _numbered_lines(data):
        try:
            existing = _decode(line, i)
        except CorruptEntry:
            continue
        if existing.id == entry.id:
            if _encode(replace(existing, created_at=entry.created_at)) == _encode(entry):
                return entry.id
            raise DuplicateId(f"id {entry.id} already stored with different payload")
    with open(store, "ab") as fh:
        fh.write((b"" if data.endswith((b"\n", b"\r")) else b"\n")
                 + _encode(entry).encode() + b"\n")
    return entry.id


def _outcome(add, store, data, entry):
    store.write_bytes(data)
    try:
        result = add(store, entry)
    except (CorruptEntry, DuplicateId) as exc:
        result = repr(exc)
    return result, store.read_bytes()


_ENDINGS = st.sampled_from([b"\n", b"\r\n", b"\r"])


@st.composite
def _stores(draw):
    lines, entries = _mixed_pieces()
    body = draw(st.lists(st.tuples(st.sampled_from((b"",) + lines), _ENDINGS), max_size=12))
    data = HEADER.encode() + draw(_ENDINGS) + b"".join(raw + end for raw, end in body)
    # a torn final line: a record cut short, or one whose newline never came
    torn = draw(st.sampled_from([b"", lines[0][:40], lines[0], lines[2]]))
    # new ids: a plain one, one that every line holds, and two that span a line end
    new_id = draw(st.sampled_from(["fedcba9876543210", "", "\n", "}\n{"]))
    return data + torn, draw(st.sampled_from(entries)), new_id


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_stores())
def test_add_query_and_scan_match_the_full_decode_references(store, drawn):
    data, stored, new_id = drawn
    store.write_bytes(data)
    assert repr(catalog_scan_collisions(store)) == repr(_reference_scan(store))

    entries, _ = _reference_read(store)
    keys = {(e.degree, e.max_period, e.quantum, e.digest) for e in entries}
    keys.add((4, 3, 1e-6, "0" * 16))  # held by no line
    for degree, max_period, quantum, digest in keys:
        fp = SpectrumFingerprint(int(digest, 16), quantum)
        assert (repr(catalog_query(store, fp, degree, max_period))
                == repr(_reference_query(store, fp, degree, max_period)))

    new = replace(stored, id=new_id, map_text="z^2 new")
    for entry in (stored, replace(stored, tags=("other",)), new):
        assert (_outcome(catalog_add, store, data, entry)
                == _outcome(_reference_add, store, data, entry))


def test_add_query_and_scan_decode_only_what_they_return(store, monkeypatch):
    from multispec import catalog

    square = entry_for_map("z^2", 2, created_at=STAMP)
    # 2,000 canonical lines; every 500th shares the square's digest
    lines = [_encode(replace(square, id=f"{k:016x}", map_text=f"z^2 {k}",
                             digest=square.digest if k % 500 == 0 else f"{k:016x}"))
             for k in range(1, 2001)]
    store.write_text("\n".join([HEADER, *lines]) + "\n", encoding="utf-8")
    decoded = []

    def counting(raw, line_number):
        decoded.append(line_number)
        return _decode(raw, line_number)

    monkeypatch.setattr(catalog, "_decode", counting)
    assert catalog_add(store, square) == square.id  # a new id
    assert decoded == []
    assert catalog_add(store, square) == square.id  # a re-add
    assert len(decoded) == 1
    decoded.clear()
    hits = catalog_query(store, SpectrumFingerprint(int(square.digest, 16), square.quantum), 2, 2)
    assert [e.map_text for e in hits] == ["z^2 500", "z^2 1000", "z^2 1500", "z^2 2000", "z^2"]
    assert decoded == [501, 1001, 1501, 2001, 2002]
    decoded.clear()
    groups = catalog_scan_collisions(store).groups
    assert [len(group) for group in groups] == [5]
    assert decoded == [501, 1001, 1501, 2001, 2002]
