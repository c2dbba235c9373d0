"""The immutable value records: construction, equality, hash, repr, replace."""

import pytest

import coupledfut  # noqa: F401  defines every record class
import coupledfut.cli  # noqa: F401  defines cli.Option
from coupledfut.errors import Record
from coupledfut.polytopes import ParamPolytope, RealizedPolytope
from coupledfut.rationals import ParamPoly
from coupledfut.rings import MonomialTable
from reference import replace

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)
HIDDEN = {RealizedPolytope: ("polytope",), ParamPolytope: ("fan",)}


def test_every_value_class_is_a_record():
    assert len(RECORDS) == 23


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if cls is not MonomialTable],
                         ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    names = tuple(cls.__annotations__)
    values = tuple("v%d" % i for i in range(len(names)))
    rec = cls(*values)
    assert rec == cls(**dict(zip(names, values)))
    assert hash(rec) == hash(cls(*values))
    assert rec != cls("other", *values[1:])
    for name, value in zip(names, values):
        assert getattr(rec, name) == value

    twin = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert rec != twin(*values)
    assert rec.__eq__(twin(*values)) is NotImplemented

    for name in (names[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(rec, name, "changed")
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert getattr(rec, names[0]) == values[0]

    if "__repr__" not in vars(cls):  # ParamPoly and RationalFunction print text
        shown = [n for n in names if n not in HIDDEN.get(cls, ())]
        assert repr(rec) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % (n, v) for n, v in zip(names, values) if n in shown))

    changed = replace(rec, **{names[0]: "new"})
    assert changed == cls("new", *values[1:])
    assert rec == cls(*values)

    for args, kwargs in ((values[:-1], {}), (values + ("extra",), {}),
                         (values, {"unknown": 1}), (values, {names[0]: 1})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    with pytest.raises(TypeError):
        replace(rec, unknown=1)


def test_monomial_table_compares_by_identity():
    table = MonomialTable((), {}, (), ())
    twin = MonomialTable((), {}, (), ())
    assert table == table
    assert table != twin
    assert hash(table) == object.__hash__(table)


def test_source_polytope_is_left_out_of_equality():
    def segment(hi):
        return ParamPolytope.create("c", 1, [((1,), ParamPoly.const(hi)),
                                             ((-1,), ParamPoly.const(0))])

    a = RealizedPolytope(1, 0, (), 1, (), (), (), segment(1))
    b = RealizedPolytope(1, 0, (), 1, (), (), (), segment(2))
    assert a == b
    assert hash(a) == hash(b)
    assert "polytope" not in repr(b)
    assert b.polytope == segment(2)
