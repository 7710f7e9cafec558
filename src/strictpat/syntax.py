"""Syntax of the strict lambda-calculus.

Abstractions and applications carry occurrence labels:

    labels  k ::= 1 (strict) | 0 (irrelevant) | u (undetermined)
    types   A ::= a | A1 ->k A2
    terms   M ::= c | x | \\x^k:A. M | M1 @k M2 | E[x1^k1, ..., xn^kn]

``E[...]`` is an existential variable (a pattern hole) applied to a labeled
list of distinct in-scope variables.  A label-free input mode (plain ``->``,
``\\x:A.``, juxtaposed application, ``E[x, y]``) is accepted for simply-typed
terms destined for embedding into the labeled calculus.

Types are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): building an ``Atom`` or ``Arrow`` from
fields equal to an existing one's gives that very object, so equal types
are the same object, and they hash and compare by identity.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property, wraps
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Records

_RECORD_SOURCE = """\
def __init__(self, {params}):
{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented
def __hash__(self):
    return hash(({mine}))
"""

_CONSED_SOURCE = """\
def __new__(cls, {params}):
    key = (cls, {fields})
    self = _table.get(key)
    if self is None:
        self = _new(cls)
{sets}
        self = _table.setdefault(key, self)
    return self
def __reduce__(self):
    return self.__class__, ({mine})
"""


def _record_repr(self):
    return self.__class__.__qualname__ + "(" + ", ".join(
        f"{n}={getattr(self, n)!r}" for n in self.__match_args__) + ")"


def _record_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls, table=None):
    """Make cls an immutable record of the fields its own annotations name,
    in order, as ``dataclass(frozen=True)`` does, without importing
    ``dataclasses``.  One ``exec`` per class makes the methods that hot
    paths call: ``__init__`` (a class attribute named like a field is its
    default; ``__post_init__``, where cls defines one, runs last),
    ``__eq__`` (same class, equal fields) and ``__hash__``.  The shared
    ``__repr__``, and the ``__setattr__`` and ``__delattr__`` that raise
    AttributeError, read the field names off ``__match_args__``.

    Given a dict table, cls is hash-consed in it instead: ``__new__`` looks
    the class and fields up there and returns the object it finds, and
    makes, fills and stores one (by ``setdefault``, so of two threads that
    make the same value both get the stored one) only when it finds none.
    cls keeps ``object``'s ``__init__``, which does nothing, so a value
    found again is not filled again, and ``object``'s identity ``__eq__``
    and ``__hash__``, C slots, which are right as equal values are one
    object.  ``__reduce__`` builds a value through ``__new__``, so pickle,
    ``copy`` and ``deepcopy`` give back the stored object."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    ns = {"_set": object.__setattr__, "_new": object.__new__,
          "_table": table}
    params = []
    for n in names:
        if n in cls.__dict__:
            ns[f"_d_{n}"] = cls.__dict__[n]
            params.append(f"{n}=_d_{n}")
        else:
            params.append(n)
    mine = "".join(f"self.{n}," for n in names)
    if table is not None:
        exec(_CONSED_SOURCE.format(
            params=", ".join(params), fields="".join(f"{n}," for n in names),
            sets="\n".join(f"        _set(self, {n!r}, {n})" for n in names),
            mine=mine), ns)
        methods = ("__new__", "__reduce__")
    else:
        sets = [f"    _set(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            sets.append("    self.__post_init__()")
        exec(_RECORD_SOURCE.format(
            params=", ".join(params), sets="\n".join(sets) or "    pass",
            mine=mine, theirs="".join(f"other.{n}," for n in names)), ns)
        methods = ("__init__", "__eq__", "__hash__")
    for method in methods:
        setattr(cls, method, ns[method])
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    cls.__match_args__ = names
    return cls


class Label(Enum):
    """An occurrence label.  Each member is a singleton, so ``object``'s
    identity hash is a correct hash for it; it replaces ``Enum.__hash__``,
    a Python-level call that hashes the member's name, since labels are
    hashed wherever a term is keyed or a record hashed."""

    ONE = "1"
    ZERO = "0"
    U = "u"

    __hash__ = object.__hash__

    def __str__(self):
        return self.value


# ---------------------------------------------------------------------------
# Types

_TYPES = {}  # (class, fields...) -> the one type of that class and fields


def _hash_consed(cls):
    """``_record(cls, _TYPES)``: one object per value of cls."""
    return _record(cls, _TYPES)


@_hash_consed
class Atom:
    """A base type.  Hash-consed: ``Atom("a") is Atom(name="a")``."""

    name: str

    def __str__(self):
        return print_type(self)


@_hash_consed
class Arrow:
    """``dom ->label cod``.  Hash-consed, like ``Atom``: equal arrows are
    one object, so each computes its ``arrow_chain`` once."""

    dom: "Type"
    label: Label
    cod: "Type"

    def __str__(self):
        return print_type(self)

    @cached_property
    def _chain(self):
        doms, a = [], self
        while isinstance(a, Arrow):
            doms.append((a.dom, a.label))
            a = a.cod
        return tuple(doms), a


Type = Union[Atom, Arrow]


def arrow_chain(a: Type) -> tuple[tuple[tuple[Type, Label], ...], Atom]:
    """Split ``A1 ->k1 ... ->kn a`` into (((A1, k1), ...), a).  Exported by
    the package.  The chain of an arrow is computed on its first call and
    kept on the (hash-consed) type, so later calls return the same tuples,
    which are immutable and safe to share."""
    if isinstance(a, Arrow):
        return a._chain
    return (), a


# ---------------------------------------------------------------------------
# Terms

Phi = tuple  # tuple[tuple[str, Label], ...] -- a labeled variable list


@_record
class Const:
    name: str

    def __str__(self):
        return print_term(self)


@_record
class Var:
    name: str

    def __str__(self):
        return print_term(self)


@_record
class Lam:
    var: str
    label: Label
    domty: Type
    body: "Term"

    def __str__(self):
        return print_term(self)


@_record
class App:
    fun: "Term"
    arg: "Term"
    label: Label

    def __str__(self):
        return print_term(self)


@_record
class EVar:
    name: str
    # the type of the hole term E[args] itself: its base type once validated
    # (the parser leaves None); args carries the labels, the scope the types
    type: Optional[Type]
    args: Phi

    def __str__(self):
        return print_term(self)


Term = Union[Const, Var, Lam, App, EVar]


class StrictpatError(Exception):
    """Base of every error the library raises on bad input."""


class InputError(StrictpatError, ValueError):
    """Input out of the range an operation takes: a signature that declares
    a name twice, a program with no clause or with clauses of more than
    one predicate, an enumeration depth below 1 or past the recursion
    limit.  A ValueError too, for callers that catch those."""


class EVarArgHit(StrictpatError):
    """Substitution reached an EVar whose argument list mentions the variable."""


def spine(t: Term) -> tuple[Term, tuple[tuple[Term, Label], ...]]:
    """Decompose ``h @k1 M1 ... @kn Mn`` into (h, ((M1, k1), ...))."""
    args = []
    while isinstance(t, App):
        args.append((t.arg, t.label))
        t = t.fun
    return t, tuple(reversed(args))


def make_spine(head: Term, args) -> Term:
    t = head
    for arg, k in args:
        t = App(t, arg, k)
    return t


def free_vars(t: Term) -> frozenset[str]:
    """The names free in t, EVar arguments included: the free set of
    ``_occurrence_sets``.  Raises TypeError on anything not a term."""
    return frozenset(_occurrence_sets(t)[2])


def _occurrence_sets(t) -> tuple:
    """The strict, used and free names of t, in one walk that reads labels
    only.  A name counts as free wherever it occurs unbound; an ``@1``
    argument adds its strict and used names to its spine's, an ``@u``
    argument its used names only and an ``@0`` argument neither; an
    abstraction drops its binder; a hole counts its 1-labelled arguments
    as strict and its 1- and u-labelled ones as used.  For a well-typed t
    the strict and used sets are the ones ``typecheck.occurrences`` gives.
    The walk keeps its own stack, so it has no depth limit.  Each node
    waits on it with how much its occurrences count (2: strict and used,
    1: used, 0: neither); a binder's name waits beneath its body with the
    weight None, to be unbound when the body is done; bound counts the
    binders of each name around the node."""
    strict, used, free, bound = set(), set(), set(), {}
    todo = [(t, 2)]
    while todo:
        t, weight = todo.pop()
        while isinstance(t, App):
            k = t.label
            todo.append((t.arg, weight if k is Label.ONE else
                         (weight and 1) if k is Label.U else 0))
            t = t.fun
        if isinstance(t, Var):
            x = t.name
            if not bound.get(x):
                free.add(x)
                if weight:
                    used.add(x)
                    if weight == 2:
                        strict.add(x)
        elif isinstance(t, EVar):
            for x, k in t.args:
                if not bound.get(x):
                    free.add(x)
                    if weight and k is not Label.ZERO:
                        used.add(x)
                        if weight == 2 and k is Label.ONE:
                            strict.add(x)
        elif isinstance(t, Lam):
            x = t.var
            bound[x] = bound.get(x, 0) + 1
            todo += ((x, None), (t.body, weight))
        elif weight is None:
            bound[t] -= 1
        elif not isinstance(t, Const):
            raise TypeError(f"not a term: {t!r}")
    return strict, used, free


def iter_evars(t: Term) -> Iterator[EVar]:
    """The EVars of t in order of occurrence, function before argument."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack += (t.arg, t.fun)
        elif isinstance(t, Lam):
            stack.append(t.body)
        elif isinstance(t, EVar):
            yield t


def map_evars(t: Term, f) -> Term:
    """Rebuild t with each EVar e replaced by ``f(e, binders)``, where
    binders are the names bound around e, outermost first.  f is called in
    the order of ``iter_evars``."""
    return _map_evars(t, f, ())


def _map_evars(t, f, binders):
    match t:
        case EVar():
            return f(t, binders)
        case Lam(x, k, a, body):
            return Lam(x, k, a, _map_evars(body, f, binders + (x,)))
        case App(fun, arg, k):
            return App(_map_evars(fun, f, binders), _map_evars(arg, f, binders),
                       k)
    return t


def evar_names(t: Term) -> frozenset[str]:
    return frozenset(e.name for e in iter_evars(t))


def term_size(t: Term) -> int:
    """Size of a term: binders and spine heads cost 1, arguments add up.

    size(h M1 ... Mn) = 1 + sum(size(Mi)); size(\\x. M) = 1 + size(M).
    The walk keeps its own stack, so it has no depth limit."""
    size, todo = 0, [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.fun, t.arg)
        else:
            size += 1
            if isinstance(t, Lam):
                todo.append(t.body)
    return size


def fresh_name(base: str, avoid) -> str:
    """The first of base, base1, base2, ... not in avoid: every binder name
    the library picks (``binder_name``, ``rename_binder``) is picked here."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def binder_name(sig: "Signature", scope) -> str:
    """The name of a new binder: ``fresh_name`` from x, avoiding the names
    sig declares and scope (a set or mapping of the names in scope).  So
    the binder at a given depth of any validated pattern over one
    signature and context has one name."""
    return fresh_name("x", sig.names.union(scope))


def rename_binder(x: str, body: Term, avoid) -> tuple[str, Term]:
    """Rename the binder x of body apart: (z, body with its free x renamed
    z), where z is ``fresh_name`` from x avoiding the set avoid and the
    free names of body."""
    z = fresh_name(x, avoid | free_vars(body))
    return z, body if z == x else rename_free_var(body, x, z)


def rename_free_var(t: Term, old: str, new: str) -> Term:
    """Rename the free occurrences of old in t to new, in EVar argument
    lists too.  Pre: new is not free in t.  A binder of t named new with
    old free under it would capture the renamed occurrences, so it is
    renamed apart first."""
    match t:
        case Var(x):
            return Var(new) if x == old else t
        case Const(_):
            return t
        case Lam(x, k, a, body):
            if x == old:
                return t
            if x == new and old in free_vars(body):
                x, body = rename_binder(new, body, {new})
            return Lam(x, k, a, rename_free_var(body, old, new))
        case App(f, a, k):
            return App(rename_free_var(f, old, new), rename_free_var(a, old, new), k)
        case EVar(name, ty, args):
            return EVar(name, ty, tuple((new if x == old else x, k) for x, k in args))
    raise TypeError(f"not a term: {t!r}")


def subst(n: Term, x: str, m: Term) -> Term:
    """Capture-avoiding substitution [n/x]m, in time linear in m but for
    the binders it renames: a binder of m whose name is free in n, with x
    free beneath it, is renamed apart first, avoiding n's free names and x.

    Raises EVarArgHit if m contains an EVar whose argument list mentions x:
    EVar arguments must remain variables, so such a substitution has no
    representation in this syntax.
    """
    return _subst(n, free_vars(n), x, m)


def _subst(n, free_n, x, m):
    """[n/x]m, given the free names of n; m itself if x is not free in m."""
    if isinstance(m, App):
        f, a = _subst(n, free_n, x, m.fun), _subst(n, free_n, x, m.arg)
        return m if f is m.fun and a is m.arg else App(f, a, m.label)
    if isinstance(m, Lam):
        y, body = m.var, m.body
        if y == x:
            return m
        if y in free_n:
            y, body = rename_binder(y, body, free_n | {x})
        new = _subst(n, free_n, x, body)
        return m if new is body else Lam(y, m.label, m.domty, new)
    if isinstance(m, Var):
        return n if m.name == x else m
    if isinstance(m, EVar) and any(y == x for y, _ in m.args):
        raise EVarArgHit(f"cannot substitute for {x}: argument of EVar {m.name}")
    if isinstance(m, (EVar, Const)):
        return m
    raise TypeError(f"not a term: {m!r}")


def term_key(t: Term) -> tuple:
    """A hashable key, equal for two terms exactly when they agree up to
    renaming of bound variables and a one-to-one renaming of EVars.

    Bound variables become binder depths (de Bruijn levels) and free names
    are kept; EVars are numbered by first occurrence, function before
    argument.  Labels and binder types are kept, EVar types are ignored.
    """
    return _keyed(t, {}, 0, {}, 0)[0]


def _keyed(t, env, depth, evars, base):
    """(term_key of t, t with its holes renamed), in one walk.  env maps
    each bound name to its depth; evars numbers the hole names of t met so
    far, by first occurrence, and the hole numbered i is renamed
    ``H{base + i + 1}``, one new name per old name.  A subterm that the
    renaming leaves unchanged is returned as it is."""
    if isinstance(t, App):
        f, arg, k = t.fun, t.arg, t.label
        fkey, f2 = _keyed(f, env, depth, evars, base)
        akey, arg2 = _keyed(arg, env, depth, evars, base)
        return (("a", k, fkey, akey),
                t if f2 is f and arg2 is arg else App(f2, arg2, k))
    if isinstance(t, EVar):
        name, args = t.name, t.args
        i = evars.setdefault(name, len(evars))
        new = f"H{base + i + 1}"
        return (("e", i, tuple([(env.get(x, x), k) for x, k in args])),
                t if new == name else EVar(new, t.type, args))
    if isinstance(t, Var):
        return ("v", env.get(t.name, t.name)), t
    if isinstance(t, Lam):
        x, k, a, body = t.var, t.label, t.domty, t.body
        key, new = _keyed(body, {**env, x: depth}, depth + 1, evars, base)
        return ("l", k, a, key), t if new is body else Lam(x, k, a, new)
    if isinstance(t, Const):
        return ("c", t.name), t
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Signatures and contexts

@_record
class Signature:
    """Ordered declarations: base types (``a : type.``) and constants."""

    decls: tuple[tuple[str, Optional[Type]], ...]  # None marks a base type

    def __post_init__(self):
        seen = set()
        for name, _ in self.decls:
            if name in seen:
                raise InputError(f"duplicate signature declaration: {name}")
            seen.add(name)

    @cached_property
    def _table(self):
        return dict(self.decls)

    @cached_property
    def names(self) -> frozenset:  # base types and constants alike
        return frozenset(self._table)

    def has(self, name: str) -> bool:
        return name in self._table

    def is_type(self, name: str) -> bool:
        return name in self._table and self._table[name] is None

    def const_type(self, name: str) -> Optional[Type]:
        return self._table.get(name)

    def constants(self) -> Iterator[tuple[str, Type]]:
        for name, ty in self.decls:
            if ty is not None:
                yield name, ty


@_record
class ZonedContext:
    """Three typing zones: gamma (unrestricted), omega (irrelevant),
    delta (strict).  Each is an ordered (name, type) list."""

    gamma: tuple = ()
    omega: tuple = ()
    delta: tuple = ()

    @cached_property
    def gamma_map(self):
        return dict(self.gamma)

    @cached_property
    def omega_map(self):
        return dict(self.omega)

    @cached_property
    def delta_map(self):
        return dict(self.delta)

    def duplicates(self) -> list[str]:
        seen, dups = set(), []
        for name, _ in (*self.gamma, *self.omega, *self.delta):
            if name in seen:
                dups.append(name)
            seen.add(name)
        return dups

    def flat(self) -> dict:
        return {**self.gamma_map, **self.omega_map, **self.delta_map}


# ---------------------------------------------------------------------------
# Concrete syntax

class ParseError(StrictpatError):
    pass


def _where(pos: int) -> str:
    return "at end of input" if pos < 0 else f"at offset {pos}"


def _nesting_limited(parse):
    """The parser recurses at every nesting level, so input nested past the
    interpreter's recursion limit ends in a ParseError, not a RecursionError."""
    @wraps(parse)
    def limited(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except RecursionError:
            raise ParseError("input nested too deeply") from None
    return limited


_TOKEN_RE = re.compile(
    r"""
      (?P<skip>\s+|%[^\n]*)
    | (?P<arrow>->(?:[10u](?![A-Za-z0-9_']))?)
    | (?P<at>@[10u](?![A-Za-z0-9_']))
    | (?P<hat>\^[10u](?![A-Za-z0-9_']))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<punct>[()\[\],:.\\])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.lastgroup != "skip":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, text: str, sig: Optional[Signature], labeled: bool):
        self.toks = _tokenize(text)
        self.i = 0
        self.sig = sig
        # the test of a base type's name; None takes any name
        self.is_type = None if sig is None else sig.is_type
        self.labeled = labeled

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "", -1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.next()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, got {tok[1]!r} {_where(tok[2])}")
        return tok

    def at_end(self):
        return self.i >= len(self.toks)

    def done(self):
        if not self.at_end():
            tok = self.peek()
            raise ParseError(f"trailing input {tok[1]!r} at offset {tok[2]}")

    # -- labels

    def label_of(self, text: str) -> Label:
        return Label(text[-1])

    # -- types

    def type_(self) -> Type:
        left = self.type_atom()
        kind, text, pos = self.peek()
        if kind == "arrow":
            self.next()
            if self.labeled and len(text) == 2:
                raise ParseError(f"arrow at offset {pos} needs a label (->1, ->0, ->u)")
            if not self.labeled and len(text) == 3:
                raise ParseError(f"labeled arrow at offset {pos} in label-free input")
            k = self.label_of(text) if len(text) == 3 else Label.U
            return Arrow(left, k, self.type_())
        return left

    def type_atom(self) -> Type:
        kind, text, pos = self.next()
        if kind == "punct" and text == "(":
            a = self.type_()
            self.expect("punct", ")")
            return a
        if kind == "ident":
            if self.is_type is not None and not self.is_type(text):
                raise ParseError(f"undeclared base type {text!r} at offset {pos}")
            return Atom(text)
        raise ParseError(f"expected a type, got {text!r} {_where(pos)}")

    # -- terms

    def term(self) -> Term:
        kind, text, _ = self.peek()
        if kind == "punct" and text == "\\":
            return self.lam()
        return self.app()

    def lam(self) -> Term:
        self.expect("punct", "\\")
        _, x, _ = self.expect("ident")
        if self.labeled:
            _, hat, _ = self.expect("hat")
            k = self.label_of(hat)
        else:
            k = Label.U
        self.expect("punct", ":")
        a = self.type_()
        self.expect("punct", ".")
        return Lam(x, k, a, self.term())

    def app(self) -> Term:
        t = self.atom()
        while True:
            kind, text, _ = self.peek()
            if self.labeled:
                if kind != "at":
                    return t
                self.next()
                t = App(t, self.atom(), self.label_of(text))
            else:
                if kind == "ident" or (kind == "punct" and text == "("):
                    t = App(t, self.atom(), Label.U)
                else:
                    return t

    def atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "punct" and text == "(":
            t = self.term()
            self.expect("punct", ")")
            return t
        if kind != "ident":
            raise ParseError(f"expected a term, got {text!r} {_where(pos)}")
        name = text
        kind2, text2, _ = self.peek()
        if kind2 == "punct" and text2 == "[":
            if self.sig is not None and self.sig.has(name):
                raise ParseError(f"signature constant {name!r} used as an EVar")
            return EVar(name, None, self.phi())
        if self.sig is not None and self.sig.has(name):
            if self.sig.is_type(name):
                raise ParseError(f"base type {name!r} used as a term")
            return Const(name)
        return Var(name)

    def phi(self) -> Phi:
        self.expect("punct", "[")
        entries = []
        kind, text, _ = self.peek()
        if kind == "punct" and text == "]":
            self.next()
            return ()
        while True:
            _, x, _ = self.expect("ident")
            if self.labeled:
                _, hat, _ = self.expect("hat")
                entries.append((x, self.label_of(hat)))
            else:
                entries.append((x, Label.U))
            kind, text, pos = self.next()
            if kind == "punct" and text == "]":
                return tuple(entries)
            if not (kind == "punct" and text == ","):
                raise ParseError(f"expected ',' or ']' {_where(pos)}")


@_nesting_limited
def parse_term(text: str, sig: Signature, labeled: bool = True) -> Term:
    p = _Parser(text, sig, labeled)
    t = p.term()
    p.done()
    return t


@_nesting_limited
def parse_type(text: str, sig: Optional[Signature] = None, labeled: bool = True) -> Type:
    p = _Parser(text, sig, labeled)
    a = p.type_()
    p.done()
    return a


@_nesting_limited
def parse_signature(text: str, labeled: bool = True) -> Signature:
    """The declarations of text, in order, as one Signature.  A constant's
    type may name only the base types declared before it; a name declared
    twice is an InputError, raised once the whole text has parsed."""
    decls, base_types = [], set()
    p = _Parser(text, None, labeled)
    p.is_type = base_types.__contains__
    while not p.at_end():
        _, name, _ = p.expect("ident")
        p.expect("punct", ":")
        kind, text2, _ = p.peek()
        if kind == "ident" and text2 == "type":
            p.next()
            decls.append((name, None))
            base_types.add(name)
        else:
            decls.append((name, p.type_()))
        p.expect("punct", ".")
    return Signature(tuple(decls))


@_nesting_limited
def parse_context(text: str, sig: Signature, labeled: bool = True):
    """Parse ``x : A, y : B`` into an ordered ((name, type), ...) tuple."""
    p = _Parser(text, sig, labeled)
    entries = []
    if p.at_end():
        return ()
    while True:
        _, name, pos = p.expect("ident")
        if sig.has(name):
            raise ParseError(f"context variable {name!r} shadows a signature constant")
        if any(name == n for n, _ in entries):
            raise ParseError(f"duplicate context variable {name!r} at offset {pos}")
        p.expect("punct", ":")
        entries.append((name, p.type_()))
        if p.at_end():
            return tuple(entries)
        p.expect("punct", ",")


@_nesting_limited
def parse_program(text: str, sig: Signature):
    """Parse clause lines ``name : pred PATTERN.`` into (name, pred, Term)."""
    p = _Parser(text, sig, labeled=True)
    out = []
    while not p.at_end():
        _, name, _ = p.expect("ident")
        p.expect("punct", ":")
        _, pred, _ = p.expect("ident")
        t = p.term()
        p.expect("punct", ".")
        out.append((name, pred, t))
    return out


# ---------------------------------------------------------------------------
# Printing

def print_type(a: Type) -> str:
    if isinstance(a, Atom):
        return a.name
    dom = print_type(a.dom)
    if isinstance(a.dom, Arrow):
        dom = f"({dom})"
    return f"{dom} ->{a.label.value} {print_type(a.cod)}"


def print_phi(phi: Phi) -> str:
    return "[" + ", ".join(f"{x}^{k.value}" for x, k in phi) + "]"


def print_term(t: Term) -> str:
    match t:
        case Const(name) | Var(name):
            return name
        case EVar(name, _, args):
            return name + print_phi(args)
        case Lam(x, k, a, body):
            return f"\\{x}^{k.value}:{print_type(a)}. {print_term(body)}"
        case App(f, arg, k):
            fs = print_term(f)
            if isinstance(f, Lam):
                fs = f"({fs})"
            s = print_term(arg)
            if isinstance(arg, (Lam, App)):
                s = f"({s})"
            return f"{fs} @{k.value} {s}"
    raise TypeError(f"not a term: {t!r}")
