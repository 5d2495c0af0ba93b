"""Property tests, run with a fixed example sequence."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from multispec.catalog import CatalogEntry, _decode, _encode, _match_canonical  # noqa: E402
from multispec.spectrum import (  # noqa: E402
    _GRID_PHASE,
    ZERO_TAIL_REL_TOL,
    MultiplierSpectrum,
    _quantize_entry,
    compare_spectra,
    zero_multiplier_count,
)

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


# Spectrum readers on entries whose components are below 2**1023, where each
# modulus is a double. Each reader must give exactly what its plain formula
# gives wherever that formula answers: the entry rule scales by a power of
# two, which is exact. The formulas are written out as the readers computed
# them before the rule.

_BOUND = 2.0**1023
_COMPONENT = st.one_of(
    st.floats(-_BOUND, _BOUND, exclude_min=True, exclude_max=True),
    st.builds(math.copysign, st.floats(2.0**1022, _BOUND, exclude_max=True),
              st.sampled_from([1.0, -1.0])),
    st.floats(-2.0**-1022, 2.0**-1022, allow_subnormal=True),
    st.sampled_from([0.0, -0.0]),
)
_ENTRY = st.builds(complex, _COMPONENT, _COMPONENT)


def _plain_distance(ea, eb):
    return abs(ea - eb) / max(1.0, abs(ea), abs(eb))


def _plain_cell(e, quantum):
    mag = abs(e)
    exp2 = int(round(math.log2(mag))) if mag > 1.0 else 0
    step = quantum * 2.0**exp2
    return (int(math.floor(e.real / step + _GRID_PHASE)),
            int(math.floor(e.imag / step + _GRID_PHASE)), exp2)


def _plain_zero_count(level):
    scale = max(1.0, max(abs(e) for e in level))
    count = 0
    for e in reversed(level):
        if abs(e) > ZERO_TAIL_REL_TOL * scale:
            break
        count += 1
    return count


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ENTRY, _ENTRY)
@example(complex(1.5 * 2.0**1022, 1.5 * 2.0**1022), complex(-1.5 * 2.0**1022, -1.5 * 2.0**1022))
def test_distance_is_the_plain_formula(ea, eb):
    a = MultiplierSpectrum(2, 1, ((ea,),))
    b = MultiplierSpectrum(2, 1, ((eb,),))
    try:
        want = _plain_distance(ea, eb)
    except OverflowError:  # |ea - eb| past the double range: the rule answers
        want = None
    _, dist = compare_spectra(a, b)
    if want is None:
        assert 1.0 <= dist <= 2.0
    else:
        assert dist == want


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_ENTRY, st.sampled_from([1e-3, 1e-6, 1e-12]))
def test_cell_is_the_plain_formula(e, quantum):
    assert _quantize_entry(e, quantum) == _plain_cell(e, quantum)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_ENTRY, min_size=1, max_size=6))
def test_zero_count_is_the_plain_formula(level):
    assert zero_multiplier_count(level) == _plain_zero_count(level)
