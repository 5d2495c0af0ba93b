"""Property tests, run with a fixed example sequence."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from multispec.catalog import CatalogEntry, _decode, _encode  # noqa: E402

# characters a JSON writer must escape or may mangle: a quote, a backslash,
# a control character, the line separator U+2028 and one outside the BMP
_TRICKY = st.sampled_from(['"', "\\", "\n", "\u2028", "\U0001f600"])
_TEXT = st.text(alphabet=st.one_of(st.characters(), _TRICKY))

_ENTRIES = st.builds(
    CatalogEntry,
    id=_TEXT,
    map_text=_TEXT,
    degree=st.integers(2, 10**6),
    max_period=st.integers(1, 64),
    quantum=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    digest=st.from_regex("[0-9a-f]{16}", fullmatch=True),
    levels=st.lists(st.lists(st.tuples(_TEXT, _TEXT), max_size=4).map(tuple),
                    max_size=3).map(tuple),
    tags=st.lists(_TEXT, max_size=4).map(tuple),
    created_at=_TEXT,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_ENTRIES)
def test_catalog_line_round_trip(entry):
    assert _decode(_encode(entry).encode(), 2) == entry
