"""The package's records (terms, types, signatures, contexts, patterns,
pattern sets and the small result records) are immutable values: built by
position or keyword, equal exactly when class and fields agree, hashable,
printed as ``Name(field=value, ...)`` and destructured by ``match``.
Types are hash-consed: equal types are one object."""

import copy
import importlib
import pickle
import sys
import threading
from pathlib import Path

import pytest

import strictpat
from strictpat import (Arrow, Atom, App, Clause, ComplementRule,
                       ComplementRuleTag, Const, EVar, Label, Lam,
                       OccurrenceReport, PatternSet, Signature,
                       SimpleLinearPattern, Var, ZonedContext, arrow_chain,
                       canonicalize, check, embed_type, parse_signature,
                       parse_term, parse_type)
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


def arrow(dom, label, cod):
    """An arrow built by keyword, apart from any built by position."""
    return Arrow(cod=cod, label=label, dom=dom)


def test_equal_types_are_one_object():
    a_1_a = Arrow(Atom("a"), Label.ONE, Atom("a"))
    assert Atom("a") is Atom(name="a") is A
    assert arrow(Atom(name="a"), Label.ONE, A) is a_1_a
    assert Arrow(a_1_a, Label.U, A) is arrow(a_1_a, Label.U, A)
    assert Arrow(A, Label.U, A) is not a_1_a
    assert Atom("b") is not A
    # the identity hash and equality are object's C slots
    for cls in (Atom, Arrow):
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__
        assert cls.__init__ is object.__init__  # a value found is not refilled


def test_parsed_and_derived_types_are_the_constructed_ones():
    sig = parse_signature("a : type. c : a ->1 a.")
    a_1_a = arrow(A, Label.ONE, A)
    assert sig.const_type("c") is a_1_a
    assert parse_type("(a ->1 a) ->u a", sig) is arrow(a_1_a, Label.U, A)
    # embedding: positive arrows strict, negative ones undetermined
    plain = parse_type("(a -> a) -> a", labeled=False)
    assert embed_type(plain) is arrow(arrow(A, Label.U, A), Label.ONE, A)
    report = check(ZonedContext(), sig, parse_term(r"\x^1:a. c @1 x", sig),
                   a_1_a)
    assert report.inferred_type is a_1_a
    # eta-expansion gives the new binder the domain's very object
    f_type = arrow(a_1_a, Label.U, A)
    eta = canonicalize((("f", f_type),), sig, parse_term("f", sig), f_type)
    assert eta.domty is a_1_a


def test_pickle_and_copy_give_back_the_same_type():
    values = (A, arrow(A, Label.ONE, A), arrow(arrow(A, Label.U, A),
                                               Label.ZERO, Atom("b")))
    for value in values:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) is value
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
    # a record holding types holds the same objects after a round trip
    ctx = ZonedContext((("x", values[2]),))
    assert pickle.loads(pickle.dumps(ctx)).gamma[0][1] is values[2]


def test_threads_that_build_one_type_get_one_object():
    # more threads than cores and a short switch interval, so that threads
    # race to store the same new types; a lost store gives two objects
    workers, start, built = 4, threading.Barrier(4), {}

    def build(i):
        start.wait()
        built[i] = [Arrow(Atom(f"race{n}"), Label.U, Atom(f"race{n + 1}"))
                    for n in range(300)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,))
                   for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(built) == workers
    for types in built.values():
        assert all(a is b for a, b in zip(types, built[0], strict=True))


def test_arrow_chain_is_computed_once():
    sig = parse_signature("a : type. b : type.")
    a = parse_type("a ->1 (a ->u a) ->0 b", sig)
    doms, base = chain = arrow_chain(a)
    assert doms == ((A, Label.ONE), (arrow(A, Label.U, A), Label.ZERO))
    assert base is Atom("b")
    assert arrow_chain(parse_type("a ->1 (a ->u a) ->0 b", sig)) is chain
    assert arrow_chain(A) == ((), A)
