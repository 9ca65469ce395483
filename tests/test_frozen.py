"""The value classes against ``dataclass(frozen=True)`` twins.

``quasilines.frozen.Frozen`` derives the constructor, ``repr``, ``==``,
``hash`` and ``replace`` of every value class from its field list.  Each
class must behave as the frozen dataclass with the same fields, defaults
and ``__post_init__`` (``conftest.dataclass_twin``) did, because reports
and the refinement pins print these reprs.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataclass_twin
from quasilines import bundles, cubic, divisors, fans, lattice, models
from quasilines.frozen import Frozen

VALUE_CLASSES = sorted(Frozen.__subclasses__(), key=lambda cls: cls.__qualname__)
TWINS = {cls: dataclass_twin(cls) for cls in VALUE_CLASSES}

P1 = fans.make_fan(1, [(1,), (-1,)], [(0,), (1,)])
P2 = fans.make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.sampled_from(["", "a", "b"]),
    st.lists(st.integers(-2, 2), max_size=3).map(tuple),
)
# The fields a __post_init__ checks draw values it mostly accepts; the
# rest of the time both classes must raise the same error.
FIELD_VALUES = {
    ("SplittingType", "exponents"): st.lists(st.integers(-3, 3), max_size=3).map(tuple),
    ("DivisorData", "n"): st.integers(1, 4),
    ("SupportFunction", "fan"): st.sampled_from([P1, P2]),
    ("SupportFunction", "values"): st.lists(st.integers(-1, 1), min_size=2, max_size=3).map(tuple),
    **{("ModelRecord", name): st.one_of(st.none(), st.integers(0, 3)) for name in models.INT_FIELDS},
}


def field_values(cls, data):
    """Values for every field of ``cls``, in field order."""
    return {f.name: data.draw(FIELD_VALUES.get((cls.__name__, f.name), VALUES), label=f.name)
            for f in dataclasses.fields(TWINS[cls])}


def build(cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, or the class and message of its error."""
    try:
        return cls(*args, **kwargs)
    except Exception as error:
        return type(error), str(error)


def test_every_value_class_is_frozen():
    names = {cls.__name__ for cls in VALUE_CLASSES}
    assert names == {
        "SplittingType", "DivisorData", "BlowupPlan", "FibrationReduction",
        "PencilExpansion", "LineCountReport", "ConicCountCertificate",
        "SupportFunction", "CartierCertificate", "SectionsPolyhedron",
        "LatticePointCount", "ExtensionReport", "Fan", "ValidationReport",
        "LinearSolution", "ModelRecord", "RuleFiring", "Contradiction",
        "PropagationResult",
    }
    modules = {bundles, cubic, divisors, fans, lattice, models}
    assert {cls.__module__ for cls in VALUE_CLASSES} == {m.__name__ for m in modules}


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(VALUE_CLASSES), st.data())
def test_agrees_with_dataclass_twin(cls, data):
    twin = TWINS[cls]
    values = field_values(cls, data)
    value, twin_value = build(cls, **values), build(twin, **values)
    if not isinstance(value, Frozen):
        assert value == twin_value  # the same error class and message
        return
    assert repr(value) == repr(twin_value)
    assert hash(value) == hash(twin_value)
    assert build(cls, *values.values()) == value
    assert value.__eq__(twin_value) is NotImplemented and value != twin_value

    # == and hash against a value that differs in at most one field.
    name = data.draw(st.sampled_from(sorted(values)))
    new = data.draw(FIELD_VALUES.get((cls.__name__, name), VALUES))
    other, twin_other = build(cls, **{**values, name: new}), build(twin, **{**values, name: new})
    if isinstance(other, Frozen):
        assert (value == other, value != other) == (
            twin_value == twin_other, twin_value != twin_other)
        assert (hash(value) == hash(other)) == (hash(twin_value) == hash(twin_other))
    # replace is dataclasses.replace.
    replaced = build(value.replace, **{name: new})
    assert repr(replaced) == repr(build(dataclasses.replace, twin_value, **{name: new}))

    # Another class with the same field values is never equal.
    alien = data.draw(st.sampled_from(VALUE_CLASSES))
    n = len(dataclasses.fields(TWINS[alien]))
    args = list(values.values())[:n] + [None] * (n - len(values))
    alien_value, twin_alien = build(alien, *args), build(TWINS[alien], *args)
    if isinstance(alien_value, Frozen):
        assert (value == alien_value) == (twin_value == twin_alien)
        assert (alien_value == value) == (twin_alien == twin_value)

    # Fields can be neither assigned nor deleted.
    for field in values:
        for change in (lambda: setattr(value, field, 0), lambda: delattr(value, field)):
            with pytest.raises(AttributeError) as info:
                change()
            assert type(info.value) is AttributeError
    assert repr(value) == repr(twin_value)

    # A missing, unknown or surplus argument is a TypeError.
    required = [f.name for f in dataclasses.fields(twin) if f.default is dataclasses.MISSING]
    missing = data.draw(st.sampled_from(required))
    for args, kwargs in [((), {k: v for k, v in values.items() if k != missing}),
                         ((), {**values, "bogus": 0}),
                         ((*values.values(), 0), {}),
                         ((*values.values(),), {missing: values[missing]})]:
        for constructor in (cls, twin):
            with pytest.raises(TypeError):
                constructor(*args, **kwargs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(tuple), st.booleans())
def test_fan_store_and_table_are_not_fields(ray, facets):
    fan = fans.Fan(2, ((1, 0), ray), ((0, 1),))
    fresh, twin = fans.Fan(2, ((1, 0), ray), ((0, 1),)), TWINS[fans.Fan](2, ((1, 0), ray), ((0, 1),))
    fan._kernels[(0, 1)] = (((1, 0), (0, 1)), 1)
    if facets:
        object.__setattr__(fan, "_facets", {(0,): [((0, 1), 1)]})
    assert (repr(fan), hash(fan)) == (repr(fresh), hash(fresh)) == (repr(twin), hash(twin))
    assert fan == fresh and {fresh: 1}[fan] == 1
    assert not fresh._kernels and fresh._facets is None
    assert fan.replace()._kernels == {}
