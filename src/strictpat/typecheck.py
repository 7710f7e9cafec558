"""Typing for the strict lambda-calculus.

A zoned judgment  gamma; omega; delta |- M : A  tracks three kinds of
hypotheses: unrestricted (gamma), irrelevant (omega, usable only inside
irrelevant arguments), and strict (delta, each needing at least one strict
occurrence).

``check`` decides the judgment with a single deterministic occurrence
analysis; ``check_declarative`` is the rule-by-rule reference that backtracks
over all splits of the strict zone at strict applications.  They agree on
every term (tested exhaustively); ``check`` additionally reports the
occurrence sets and the inferred type.
"""

from __future__ import annotations

from enum import Enum

from .syntax import (App, Arrow, Const, EVar, Label, Lam, Signature,
                     StrictpatError, Term, Type, Var, ZonedContext,
                     _record, print_type, rename_binder)


class ErrorKind(Enum):
    TYPE_MISMATCH = "type mismatch"
    UNKNOWN_IDENT = "unknown identifier"
    STRICT_VAR_UNUSED = "strict variable unused"
    IRRELEVANT_VAR_USED = "irrelevant variable used"
    LABEL_MISMATCH = "label mismatch"
    ZONE_VIOLATION = "zone violation"
    HOLE_IN_GROUND_TERM = "hole where a ground term is required"


class TypingError(StrictpatError):
    def __init__(self, kind: ErrorKind, message: str, name: str | None = None):
        super().__init__(f"{kind.value}: {message}")
        self.kind = kind
        self.name = name


@_record
class OccurrenceReport:
    strict_set: frozenset
    used_set: frozenset
    inferred_type: Type


def occurrences(env: dict, sig: Signature, m: Term, allow_evars: bool = False):
    """Infer (type, strict variable set, used variable set) for m.

    Checks all structural conditions along the way: identifiers in scope,
    application labels matching arrow labels, argument types matching
    domains, strict binders strictly used, irrelevant binders unused.
    Occurrences inside an irrelevant argument count for neither set;
    occurrences inside an undetermined argument count as used but not strict.
    """
    match m:
        case Var(x):
            if x not in env:
                raise TypingError(ErrorKind.UNKNOWN_IDENT, f"variable {x} not in scope", x)
            return env[x], frozenset((x,)), frozenset((x,))
        case Const(c):
            ty = sig.const_type(c)
            if ty is None:
                raise TypingError(ErrorKind.UNKNOWN_IDENT, f"{c} is not a term constant", c)
            return ty, frozenset(), frozenset()
        case Lam(x, k, a, body):
            bty, bstrict, bused = occurrences({**env, x: a}, sig, body, allow_evars)
            if k is Label.ONE and x not in bstrict:
                raise TypingError(ErrorKind.STRICT_VAR_UNUSED,
                                  f"strict binder {x} has no strict occurrence", x)
            if k is Label.ZERO and x in bused:
                raise TypingError(ErrorKind.IRRELEVANT_VAR_USED,
                                  f"irrelevant binder {x} is used", x)
            return Arrow(a, k, bty), bstrict - {x}, bused - {x}
        case App(f, arg, k):
            fty, fstrict, fused = occurrences(env, sig, f, allow_evars)
            if not isinstance(fty, Arrow):
                raise TypingError(ErrorKind.TYPE_MISMATCH,
                                  f"applied a term of base type {print_type(fty)}")
            if fty.label is not k:
                raise TypingError(ErrorKind.LABEL_MISMATCH,
                                  f"application @{k} against arrow ->{fty.label}")
            aty, astrict, aused = occurrences(env, sig, arg, allow_evars)
            if aty != fty.dom:
                raise TypingError(ErrorKind.TYPE_MISMATCH,
                                  f"argument has type {print_type(aty)}, "
                                  f"domain is {print_type(fty.dom)}")
            if k is Label.ONE:
                return fty.cod, fstrict | astrict, fused | aused
            if k is Label.U:
                return fty.cod, fstrict, fused | aused
            return fty.cod, fstrict, fused
        case EVar(name, ty, args):
            if not allow_evars:
                raise TypingError(ErrorKind.HOLE_IN_GROUND_TERM,
                                  f"EVar {name}", name)
            if ty is None:
                raise TypingError(ErrorKind.TYPE_MISMATCH,
                                  f"EVar {name} has no elaborated type", name)
            seen = set()
            for x, _ in args:
                if x in seen:
                    raise TypingError(ErrorKind.TYPE_MISMATCH,
                                      f"EVar {name} applied to {x} twice", name)
                seen.add(x)
                if x not in env:
                    raise TypingError(ErrorKind.UNKNOWN_IDENT,
                                      f"EVar argument {x} not in scope", x)
            strict = frozenset(x for x, k in args if k is Label.ONE)
            used = frozenset(x for x, k in args if k is not Label.ZERO)
            return ty, strict, used
    raise TypeError(f"not a term: {m!r}")


def _require_disjoint(ctx: ZonedContext):
    dups = ctx.duplicates()
    if dups:
        raise TypingError(ErrorKind.ZONE_VIOLATION,
                          f"variable {dups[0]} declared in more than one zone", dups[0])


def _zone_conditions(ctx: ZonedContext, strict, used):
    for x, _ in ctx.delta:
        if x not in strict:
            raise TypingError(ErrorKind.STRICT_VAR_UNUSED,
                              f"strict hypothesis {x} has no strict occurrence", x)
    for x, _ in ctx.omega:
        if x in used:
            raise TypingError(ErrorKind.IRRELEVANT_VAR_USED,
                              f"irrelevant hypothesis {x} is used", x)


def check(ctx: ZonedContext, sig: Signature, m: Term, a: Type) -> OccurrenceReport:
    """Decide gamma; omega; delta |- m : a by occurrence analysis.

    Returns the occurrence report on success, raises TypingError otherwise.
    m must be EVar-free (pattern typing lives with the patterns).
    """
    _require_disjoint(ctx)
    ty, strict, used = occurrences(ctx.flat(), sig, m, allow_evars=False)
    if ty != a:
        raise TypingError(ErrorKind.TYPE_MISMATCH,
                          f"term has type {print_type(ty)}, expected {print_type(a)}")
    _zone_conditions(ctx, strict, used)
    return OccurrenceReport(strict, used, ty)


# ---------------------------------------------------------------------------
# Declarative reference checker

def syntactic_type(env: dict, sig: Signature, m: Term):
    """The annotation-determined type of m, ignoring every occurrence
    condition; None if the annotations are incoherent."""
    match m:
        case Var(x):
            return env.get(x)
        case Const(c):
            return sig.const_type(c)
        case Lam(x, k, a, body):
            bty = syntactic_type({**env, x: a}, sig, body)
            return None if bty is None else Arrow(a, k, bty)
        case App(f, arg, k):
            fty = syntactic_type(env, sig, f)
            if not (isinstance(fty, Arrow) and fty.label is k):
                return None
            aty = syntactic_type(env, sig, arg)
            return fty.cod if aty == fty.dom else None
        case EVar(_, ty, _):
            return ty
    raise TypeError(f"not a term: {m!r}")


def _delta_splits(d: dict):
    """All ways to split the strict zone in two, first component shrinking:
    for {x, y} the order is (xy|.), (x|y), (y|x), (.|xy)."""
    names = sorted(d)
    n = len(names)
    for mask in range((1 << n) - 1, -1, -1):
        dm = {names[i]: d[names[i]] for i in range(n) if mask & (1 << (n - 1 - i))}
        dn = {x: d[x] for x in names if x not in dm}
        yield dm, dn


def _derive(g: dict, o: dict, d: dict, sig: Signature, m: Term, a: Type) -> bool:
    match m:
        case Const(c):
            return not d and sig.const_type(c) == a
        case Var(x):
            if d:
                return len(d) == 1 and d.get(x) == a
            return g.get(x) == a
        case Lam(x, k, ty, body):
            if not (isinstance(a, Arrow) and a.dom == ty and a.label is k):
                return False
            if x in g or x in o or x in d:
                # contexts are sets of distinct names: alpha-rename the
                # binder rather than displace the outer hypothesis
                x, body = rename_binder(x, body, g.keys() | o.keys() | d.keys())
            g2, o2, d2 = dict(g), dict(o), dict(d)
            {Label.U: g2, Label.ZERO: o2, Label.ONE: d2}[k][x] = ty
            return _derive(g2, o2, d2, sig, body, a.cod)
        case App(f, arg, k):
            fty = syntactic_type({**g, **o, **d}, sig, f)
            if not (isinstance(fty, Arrow) and fty.label is k and fty.cod == a):
                return False
            dom = fty.dom
            if k is Label.U:
                return _derive(g, o, d, sig, f, fty) and \
                    _derive({**g, **d}, o, {}, sig, arg, dom)
            if k is Label.ZERO:
                return _derive(g, o, d, sig, f, fty) and \
                    _derive({**g, **o, **d}, {}, {}, sig, arg, dom)
            for dm, dn in _delta_splits(d):
                if _derive({**g, **dn}, o, dm, sig, f, fty) and \
                        _derive({**g, **dm}, o, dn, sig, arg, dom):
                    return True
            return False
        case EVar(name, _, _):
            raise TypingError(ErrorKind.HOLE_IN_GROUND_TERM, f"EVar {name}",
                              name)
    raise TypeError(f"not a term: {m!r}")


def check_declarative(ctx: ZonedContext, sig: Signature, m: Term, a: Type) -> bool:
    """Reference implementation: try every typing rule, backtracking over
    splits of the strict zone at strict applications."""
    _require_disjoint(ctx)
    return _derive(ctx.gamma_map, ctx.omega_map, ctx.delta_map, sig, m, a)


def strict_splits(ctx: ZonedContext, sig: Signature, m: Term, a: Type):
    """Per-split outcomes for the strict application at the root of m.

    Returns [(delta_fun, delta_arg, derivable), ...] in the same order
    check_declarative attempts them."""
    if not (isinstance(m, App) and m.label is Label.ONE):
        raise ValueError("term is not a strict application")
    _require_disjoint(ctx)
    g, o, d = ctx.gamma_map, ctx.omega_map, ctx.delta_map
    fty = syntactic_type({**g, **o, **d}, sig, m.fun)
    coherent = isinstance(fty, Arrow) and fty.label is Label.ONE and fty.cod == a
    out = []
    for dm, dn in _delta_splits(d):
        ok = coherent and \
            _derive({**g, **dn}, o, dm, sig, m.fun, fty) and \
            _derive({**g, **dm}, o, dn, sig, m.arg, fty.dom)
        out.append((frozenset(dm), frozenset(dn), ok))
    return out
