"""Property tests, run with a fixed example sequence."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from multispec.catalog import CatalogEntry, _decode, _encode, _match_canonical  # noqa: E402

# characters a JSON writer must escape or may mangle: a quote, a backslash,
# a control character, the line separator U+2028 and one outside the BMP
_TRICKY = st.sampled_from(['"', "\\", "\n", "\u2028", "\U0001f600"])
_TEXT = st.text(alphabet=st.one_of(st.characters(), _TRICKY))

# printable ASCII without a quote or backslash: JSON writes it unescaped
_PLAIN_TEXT = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                             blacklist_characters='"\\'))


def _entries(text):
    return st.builds(
        CatalogEntry,
        id=text,
        map_text=text,
        degree=st.integers(2, 10**6),
        max_period=st.integers(1, 64),
        quantum=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        digest=st.from_regex("[0-9a-f]{16}", fullmatch=True),
        levels=st.lists(st.lists(st.tuples(text, text), max_size=4).map(tuple),
                        max_size=3).map(tuple),
        tags=st.lists(text, max_size=4).map(tuple),
        created_at=text,
    )


_ENTRIES = _entries(_TEXT)
_PLAIN_ENTRIES = _entries(_PLAIN_TEXT)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ENTRIES)
def test_catalog_line_round_trip(entry):
    assert _decode(_encode(entry).encode(), 2) == entry


def _texts(entry):
    return [entry.id, entry.map_text, entry.digest, entry.created_at, *entry.tags,
            *(part for level in entry.levels for pair in level for part in pair)]


def _key(entry):
    return (entry.degree, entry.max_period, entry.quantum, entry.digest), entry.map_text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(_ENTRIES, _PLAIN_ENTRIES))
def test_canonical_layout_keys_the_encoded_line(entry):
    # the layout matches exactly when every text field is written unescaped,
    # and then reads the entry's own key and map_text
    line = _encode(entry).encode()
    canonical = _match_canonical(line)
    plain = all(all(" " <= c <= "~" and c not in '"\\' for c in t) for t in _texts(entry))
    assert (canonical is not None) == plain
    if canonical:
        assert canonical == _key(entry)


_LINE = _encode(CatalogEntry(
    id="8ede694348028566", map_text="z^4+1", degree=12, max_period=10, quantum=1.5e-06,
    digest="a08ab888abba5d49", levels=((("1.5", "-0.0"), ("2e-06", "0.0")), ()),
    tags=("a", "b c"), created_at="2026-08-08T00:00:00+00:00",
))


def _single_edits(line):
    for i in range(len(line)):
        yield line[:i] + line[i + 1:]
        for c in '0-.e"\\,]} ':
            if c != line[i]:
                yield line[:i] + c + line[i + 1:]


def test_canonical_layout_admits_only_lines_decode_accepts_alike():
    matched = 0
    for edited in _single_edits(_LINE):
        canonical = _match_canonical(edited.encode())
        if canonical is None:
            continue
        matched += 1
        assert _key(_decode(edited.encode(), 2)) == canonical, edited
    # edits inside the text fields and the digits keep the layout; the rest do not
    assert 0 < matched < len(_LINE) * 11
