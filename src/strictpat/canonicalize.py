"""Canonical (beta-normal, eta-long) forms.

``whr_step`` performs one weak head reduction step, ``canonicalize``
converts a well-typed term to canonical form (eta-expanding at arrow types,
head-normalizing at base types), and ``classify`` decides whether a term
already is canonical or atomic.  EVars are treated as rigid atomic heads so
patterns can be canonicalized too.
"""

from __future__ import annotations

from typing import Union

from .syntax import (App, Arrow, Atom, EVar, Lam, Signature, StrictpatError,
                     Term, Type, Var, ZonedContext, _record, binder_name,
                     free_vars, make_spine, print_type, rename_binder, spine,
                     subst)
from .typecheck import (ErrorKind, TypingError, _require_disjoint,
                        _zone_conditions, occurrences)

DEFAULT_BUDGET = 100_000


class NonTerminating(StrictpatError):
    """Weak head reduction exceeded its step budget."""


def whr_step(m: Term):
    """One weak head reduction step, or None if m is head-normal.

    Reduces a top-level beta redex, or steps inside the function position
    of an application.  The redex's abstraction and application labels must
    agree."""
    if not isinstance(m, App):
        return None
    f = m.fun
    if isinstance(f, Lam):
        if f.label is not m.label:
            raise TypingError(ErrorKind.LABEL_MISMATCH,
                              f"beta redex pairs \\^{f.label} with @{m.label}")
        return subst(m.arg, f.var, f.body)
    f2 = whr_step(f)
    if f2 is None:
        return None
    return App(f2, m.arg, m.label)


def canonicalize(psi, sig: Signature, m: Term, a: Type,
                 budget: int = DEFAULT_BUDGET) -> Term:
    """Canonical form of m at type a under the flat context psi.

    Pre: m is well-typed at a.  Raises NonTerminating if weak head
    reduction exceeds the step budget, TypingError on structural defects.
    """
    counter = [budget]
    return _canon(dict(psi), sig, m, a, counter)


def _canon(env, sig, m, a, counter):
    if isinstance(a, Arrow):
        if isinstance(m, Lam):
            if m.label is not a.label:
                raise TypingError(ErrorKind.LABEL_MISMATCH,
                                  f"\\^{m.label} at arrow ->{a.label}")
            if m.domty != a.dom:
                raise TypingError(ErrorKind.TYPE_MISMATCH,
                                  f"binder annotation {print_type(m.domty)} "
                                  f"at arrow domain {print_type(a.dom)}")
            # shadowing a name in scope or reading back as a constant
            x, body = m.var, m.body
            if x in env or sig.has(x):
                x, body = rename_binder(x, body, sig.names | env.keys())
            return Lam(x, a.label, a.dom,
                       _canon({**env, x: a.dom}, sig, body, a.cod, counter))
        x = binder_name(sig, env.keys() | free_vars(m))
        if isinstance(m, EVar):
            # a functional hole eta-expands by absorbing the new variable
            inner = EVar(m.name, a.cod, m.args + ((x, a.label),))
        else:
            _require_spine_type(env, sig, m, a)
            inner = App(m, Var(x), a.label)
        return Lam(x, a.label, a.dom,
                   _canon({**env, x: a.dom}, sig, inner, a.cod, counter))
    while True:
        m2 = whr_step(m)
        if m2 is None:
            break
        counter[0] -= 1
        if counter[0] < 0:
            raise NonTerminating("weak head reduction exceeded its step budget")
        m = m2
    if isinstance(m, EVar) and m.type is None:
        m = EVar(m.name, a, m.args)  # an unvalidated hole sits at a
    head, args = spine(m)
    hty = _head_type(env, sig, head, args)
    out = []
    for arg, k in args:
        if not isinstance(hty, Arrow):
            raise TypingError(ErrorKind.TYPE_MISMATCH,
                              f"over-applied head of type {print_type(hty)}")
        if hty.label is not k:
            raise TypingError(ErrorKind.LABEL_MISMATCH,
                              f"application @{k} against arrow ->{hty.label}")
        out.append((_canon(env, sig, arg, hty.dom, counter), k))
        hty = hty.cod
    if hty != a:
        raise TypingError(ErrorKind.TYPE_MISMATCH,
                          f"spine has type {print_type(hty)}, expected {print_type(a)}")
    return make_spine(head, out)


def _head_type(env, sig, head, args) -> Type:
    if isinstance(head, EVar) and args:
        raise TypingError(ErrorKind.TYPE_MISMATCH,
                          f"EVar {head.name} applied outside its bracket list")
    return occurrences(env, sig, head, allow_evars=True)[0]


def _require_spine_type(env, sig, m, a):
    """Before m is eta-expanded at the arrow type a: raise unless m has
    type a, when its head is no abstraction and so fixes its type."""
    head, args = spine(m)
    if isinstance(head, Lam):
        return
    hty = _head_type(env, sig, head, args)
    for _ in args:
        if not isinstance(hty, Arrow):
            raise TypingError(ErrorKind.TYPE_MISMATCH,
                              f"over-applied head of type {print_type(hty)}")
        hty = hty.cod
    if hty != a:
        raise TypingError(ErrorKind.TYPE_MISMATCH,
                          f"term has type {print_type(hty)}, "
                          f"expected {print_type(a)}")


# ---------------------------------------------------------------------------
# Canonicity classification

@_record
class Canonical:
    type: Type


@_record
class Atomic:
    type: Type


@_record
class Neither:
    pass


CanonicityClass = Union[Canonical, Atomic, Neither]


class _Shapeless(Exception):
    pass


def _shape(env, sig, m):
    """('lam' | 'spine', type) for beta-normal eta-long terms; the zone
    conditions are checked separately."""
    if isinstance(m, Lam):
        kind, bty = _shape({**env, m.var: m.domty}, sig, m.body)
        if kind == "spine" and isinstance(bty, Arrow):
            raise _Shapeless("eta-short abstraction body")
        return "lam", Arrow(m.domty, m.label, bty)
    head, args = spine(m)
    if isinstance(head, Lam):
        raise _Shapeless("beta redex")
    hty, _, _ = occurrences(env, sig, head, allow_evars=True)
    for arg, k in args:
        if not isinstance(hty, Arrow) or hty.label is not k:
            raise _Shapeless("spine does not match the head's type")
        akind, aty = _shape(env, sig, arg)
        if akind == "spine" and isinstance(aty, Arrow):
            raise _Shapeless("eta-short argument")
        if aty != hty.dom:
            raise _Shapeless("argument type mismatch")
        hty = hty.cod
    return "spine", hty


def classify(ctx: ZonedContext, sig: Signature, m: Term) -> CanonicityClass:
    """Canonical(A) for abstractions in canonical form, Atomic(A) for
    head-spines whose arguments are canonical, Neither otherwise.

    An Atomic result at a base type is also canonical; ``is_canonical``
    packages that coercion.  EVar heads act as atomic heads of their own
    type, which must be set (as validation sets it)."""
    try:
        _require_disjoint(ctx)
        env = ctx.flat()
        kind, ty = _shape(env, sig, m)
        _, strict, used = occurrences(env, sig, m, allow_evars=True)
        _zone_conditions(ctx, strict, used)
    except (TypingError, _Shapeless):
        return Neither()
    return Canonical(ty) if kind == "lam" else Atomic(ty)


def is_canonical(ctx: ZonedContext, sig: Signature, m: Term, a: Type) -> bool:
    """True when m is canonical at type a (atomic terms are canonical at
    base types)."""
    cls = classify(ctx, sig, m)
    if isinstance(cls, Canonical):
        return cls.type == a
    if isinstance(cls, Atomic):
        return cls.type == a and isinstance(a, Atom)
    return False
