"""The package's records (terms, types, signatures, contexts, patterns,
pattern sets and the small result records) are immutable values: built by
position or keyword, equal exactly when class and fields agree, hashable,
printed as ``Name(field=value, ...)`` and destructured by ``match``."""

import importlib
from pathlib import Path

import pytest

import strictpat
from strictpat import (Arrow, Atom, App, Clause, ComplementRule,
                       ComplementRuleTag, Const, EVar, Label, Lam,
                       OccurrenceReport, PatternSet, Signature,
                       SimpleLinearPattern, Var, ZonedContext)
from strictpat.canonicalize import Atomic, Canonical, Neither

A = Atom("a")
X_A = (("x", A),)
P = SimpleLinearPattern(EVar("H1", A, (("x", Label.ONE),)), X_A, A)

# one value of each record class, given as (class, positional fields)
RECORDS = [
    (Atom, ("a",)),
    (Arrow, (A, Label.ONE, A)),
    (Const, ("c",)),
    (Var, ("x",)),
    (Lam, ("x", Label.U, A, Var("x"))),
    (App, (Const("c"), Var("x"), Label.ONE)),
    (EVar, ("E", A, (("x", Label.ONE),))),
    (Signature, ((("a", None), ("c", A)),)),
    (ZonedContext, (X_A, (("y", A),), (("z", A),))),
    (OccurrenceReport, (frozenset({"x"}), frozenset({"x", "y"}), A)),
    (Canonical, (A,)),
    (Atomic, (A,)),
    (Neither, ()),
    (SimpleLinearPattern, (P.term, X_A, A)),
    (PatternSet, (X_A, A, (P.term, Var("x")))),
    (ComplementRuleTag, (ComplementRule.ARGUMENT, 1, "c")),
    (Clause, ("n1", "non_p", P)),
]


def record_classes() -> set:
    """The classes of the package's modules that carry ``__match_args__``
    of their own, leaving out named tuples."""
    found = set()
    for path in Path(strictpat.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"strictpat.{path.stem}")
        found |= {c for c in vars(module).values()
                  if isinstance(c, type) and c.__module__ == module.__name__
                  and "__match_args__" in vars(c) and not issubclass(c, tuple)}
    return found


def test_every_record_class_is_covered():
    assert record_classes() == {cls for cls, _ in RECORDS}


def match_positionally(value):
    """The fields a class pattern with one capture per field binds."""
    names = [f"v{i}" for i in range(len(type(value).__match_args__))]
    scope = {"C": type(value), "value": value}
    exec(f"match value:\n    case C({', '.join(names)}):\n"
         f"        bound = [{', '.join(names)}]", scope)
    return scope["bound"]


@pytest.mark.parametrize("cls, args", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, args):
    fields = cls.__match_args__
    assert len(fields) == len(args)
    value = cls(*args)
    assert [getattr(value, f) for f in fields] == list(args)
    same = cls(**dict(zip(fields, args)))
    assert same == value and not same != value
    assert hash(same) == hash(value)
    assert value.__eq__(object()) is NotImplemented
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{f}={a!r}" for f, a in zip(fields, args)) + ")"
    assert match_positionally(value) == list(args)
    for name in fields + ("new_attribute",):
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert [getattr(value, f) for f in fields] == list(args)


def test_records_default_their_trailing_fields():
    assert ZonedContext() == ZonedContext((), (), ())
    assert ZonedContext(delta=X_A) == ZonedContext((), (), X_A)
    tag = ComplementRuleTag(ComplementRule.FLEX)
    assert (tag.index, tag.head) == (None, None)
    assert ComplementRuleTag(ComplementRule.FLEX, head="c") == \
        ComplementRuleTag(ComplementRule.FLEX, None, "c")
    with pytest.raises(TypeError):
        Var()
    with pytest.raises(TypeError):
        Var("x", "y")


def test_record_equality_needs_the_same_class():
    assert Var("x") != Const("x")
    assert Atom("a") != Const("a")
    assert Canonical(A) != Atomic(A)
    assert len({Var("x"), Const("x"), Var("x")}) == 2


def test_signature_rejects_a_duplicate_declaration():
    with pytest.raises(ValueError, match="duplicate signature declaration: a"):
        Signature((("a", None), ("a", A)))


def test_cached_properties_of_frozen_records():
    sig = Signature((("a", None), ("c", A)))
    assert sig.const_type("c") == A and sig.is_type("a")
    assert sig._table is sig._table == {"a": None, "c": A}
    ctx = ZonedContext(X_A, (), (("y", A),))
    assert ctx.flat() == {"x": A, "y": A}
    assert ctx.gamma_map is ctx.gamma_map
    assert ctx.delta_map == {"y": A} and ctx.omega_map == {}
    # the cache is no field: equality and hashing ignore it
    assert ctx == ZonedContext(X_A, (), (("y", A),))
    assert hash(sig) == hash(Signature((("a", None), ("c", A))))
