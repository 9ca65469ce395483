"""The report format: every rendered document parses back to itself."""

from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import isinstance_render
from quasilines.report import parse, render

# Words that read back as words: not numbers, fractions, true or false.
WORDS = st.tuples(st.sampled_from("abcdxyz"), st.text("abcdxyz019-", max_size=6)).map("".join)
SCALARS = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.booleans(),
    WORDS,
)
TUPLES = st.lists(SCALARS, max_size=4).map(tuple)
ITEMS = st.one_of(SCALARS, TUPLES, st.just(""))
VALUES = st.one_of(ITEMS, st.lists(ITEMS, max_size=4))
ENTRIES = st.lists(st.tuples(WORDS, VALUES), max_size=6, unique_by=lambda entry: entry[0])


@settings(max_examples=300, deadline=None)
@given(ENTRIES)
def test_render_parse_render_is_render(entries):
    text = render(entries)
    assert render(list(parse(text).items())) == text


@pytest.mark.parametrize("item", [(), ""], ids=["empty-tuple", "empty-string"])
def test_empty_item_parses(item):
    # Rejected before as "expected 'key: value', got '- '".
    text = render([("a", [item, 1])])
    assert text == "a:\n- \n- 1\n"
    assert parse(text) == {"a": ["", 1]}


@pytest.mark.parametrize("value", [(), ""], ids=["empty-tuple", "empty-string"])
def test_empty_top_level_value_renders_as_bare_key(value):
    text = render([("a", value), ("b", 1)])
    assert text == "a:\nb: 1\n"
    assert parse(text) == {"a": [], "b": 1}
    assert render(list(parse(text).items())) == text


def test_key_with_trailing_space_still_opens_a_list():
    assert parse("a: \n- 1\n- x y\nb:\n- 2\n") == {"a": [1, ("x", "y")], "b": [2]}


class Level(IntEnum):
    LOW = 1
    HIGH = -2


class Word(str):
    pass


# Every scalar type a report may hold, exact or not, nested in tuples.
ANY_SCALARS = st.one_of(
    SCALARS,
    st.text(max_size=5),
    st.sampled_from(Level),
    st.text(max_size=5).map(Word),
)
NESTED = st.recursive(ANY_SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple),
                      max_leaves=8)
NESTED_ENTRIES = st.lists(st.tuples(WORDS, st.one_of(NESTED, st.lists(NESTED, max_size=3))),
                          max_size=5)


@settings(max_examples=100, deadline=None)
@given(NESTED_ENTRIES)
def test_render_matches_the_isinstance_chain(entries):
    assert render(entries).encode() == isinstance_render(entries).encode()


class Pair(tuple):
    pass


def test_tuple_subclass_takes_the_isinstance_chain():
    entries = [("pair", Pair((1, Fraction(-1, 2)))), ("items", [Pair(("x", Level.LOW))])]
    assert render(entries) == "pair: 1 -1/2\nitems:\n- x 1\n" == isinstance_render(entries)


class Count(int):
    pass


class Ratio(Fraction):
    pass


# bool cannot be subclassed, so True and False themselves stand for it.
@pytest.mark.parametrize("value,exact", [
    (True, True),
    (False, False),
    (Count(-7), -7),
    (Word("x-1"), "x-1"),
    (Pair((Count(2), Word("y"), Ratio(3, 4))), (2, "y", Fraction(3, 4))),
    (Fraction(-1, 2), Fraction(-1, 2)),
    (Ratio(-1, 2), Fraction(-1, 2)),
], ids=["true", "false", "int", "str", "tuple", "fraction", "fraction-subclass"])
def test_subclasses_render_as_their_exact_type(value, exact):
    entries = [("a", value), ("b", [value])]
    text = render(entries)
    assert text == render([("a", exact), ("b", [exact])]) == isinstance_render(entries)


@pytest.mark.parametrize("value", [0.5, (1, 0.5), [(Fraction(1, 2), (2.0,))]])
def test_float_is_not_rendered(value):
    with pytest.raises(TypeError):
        render([("a", value)])
