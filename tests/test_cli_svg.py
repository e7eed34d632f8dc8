"""The interval chart's text writer against the ElementTree builder it
replaced."""
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import etree_interval_chart
from rankinfer.cli.svg import interval_chart

_LABELS = st.text(alphabet="ab &<>\"'\t\r\n\x7féß漢😀", max_size=30)
# the characters XML 1.0 forbids in a document
_FORBIDDEN = "".join(map(chr, [*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF]))


@st.composite
def _charts(draw, labels=_LABELS):
    """(labels, lower, rank, upper) of all p populations, L <= rank <= U."""
    p = draw(st.integers(1, 40))
    triples = draw(st.lists(st.lists(st.integers(1, p), min_size=3, max_size=3),
                            min_size=p, max_size=p))
    lower, rank, upper = zip(*map(sorted, triples))
    names = draw(st.lists(labels, min_size=p, max_size=p))
    return names, list(lower), list(rank), list(upper)


@given(chart=_charts())
@settings(deadline=None, max_examples=400)
def test_bytes_match_the_element_tree_builder(chart):
    labels = chart[0]
    assert interval_chart(*chart, len(labels)) == etree_interval_chart(*chart)


@given(chart=_charts(st.text(alphabet=_FORBIDDEN + "a&\t\n\r\x7f\ufffc\ufffd", max_size=6)))
@settings(deadline=None, max_examples=100)
def test_forbidden_characters_drawn_as_replacement(chart):
    labels = chart[0]
    root = ET.fromstring(interval_chart(*chart, len(labels)).encode("utf-8"))
    drawn = [el.text or "" for el in root.iter() if el.get("text-anchor") == "end"]
    # a parser reads each CR LF or lone CR of character data as one LF
    expected = ["".join("\ufffd" if c in _FORBIDDEN else c for c in s)
                .replace("\r\n", "\n").replace("\r", "\n") for s in labels]
    assert sorted(drawn) == sorted(expected)
