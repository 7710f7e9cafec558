"""Simple linear patterns, finite sets of them, and the embedding of
simply-typed terms.

A simple linear fully-applied pattern is a canonical term in which

  * every abstraction is undetermined (``\\x^u``) and, once validated,
    binds the name ``binder_name`` gives its scope,
  * every rigid application is strict (``@1``) and matches the head's type,
  * every EVar sits at base type, occurs exactly once, and is applied to
    *all* variables in scope, in standard order (context order, then binder
    nesting order), with arbitrary labels.

The embedding translates simply-typed signatures, contexts and canonical
terms into this fragment: ``(A -> B)+ = A- ->1 B+`` and
``(A -> B)- = A+ ->u B-``, constants positively, abstractions to ``\\x^u``,
applications to ``@1``, EVar arguments to ``^u``.
"""

from __future__ import annotations

from .syntax import (App, Arrow, Atom, Const, EVar, Label, Lam, Signature,
                     StrictpatError, Term, Type, Var, _keyed,
                     _occurrence_sets, _record, arrow_chain, binder_name,
                     free_vars, map_evars, print_term, print_type,
                     rename_binder, rename_free_var, spine, term_key)
from .typecheck import syntactic_type


class PatternError(StrictpatError):
    pass


class NotSimple(PatternError):
    pass


class NotLinear(PatternError):
    pass


class NotCanonical(PatternError):
    pass


class PreconditionViolated(PatternError):
    pass


def head_type(sig: Signature, env, head) -> Type | None:
    """The declared type of a spine head: the signature's for a constant,
    env's for a variable; None for an unknown name or any other head."""
    if isinstance(head, Const):
        return sig.const_type(head.name)
    if isinstance(head, Var):
        return env.get(head.name)
    return None


# ---------------------------------------------------------------------------
# The embedding

def embed_type(a: Type, polarity: str = "+") -> Type:
    """Embed a label-free simple type; positive occurrences get strict
    arrows, negative ones undetermined arrows."""
    if polarity not in ("+", "-"):
        raise ValueError(f"polarity must be '+' or '-', got {polarity!r}")
    if isinstance(a, Atom):
        return a
    if a.label is not Label.U:
        raise ValueError("embed_type expects a label-free type")
    if polarity == "+":
        return Arrow(embed_type(a.dom, "-"), Label.ONE, embed_type(a.cod, "+"))
    return Arrow(embed_type(a.dom, "+"), Label.U, embed_type(a.cod, "-"))


def embed_signature(sig: Signature) -> Signature:
    return Signature(tuple((name, ty if ty is None else embed_type(ty, "+"))
                           for name, ty in sig.decls))


def embed_context(ctx) -> tuple:
    return tuple((x, embed_type(a, "+")) for x, a in ctx)


def embed_term(m: Term, psi, sig: Signature, a: Type | None = None) -> Term:
    """Embed a canonical simply-typed term (label-free input) at type a.

    psi and sig are the simply-typed (label-free) context and signature; the
    type is inferred when omitted.  Raises NotCanonical if m is not a
    canonical term of type a.
    """
    env = dict(psi)
    if a is None:
        a = syntactic_type(env, sig, m)
        if a is None:
            raise NotCanonical("cannot infer the term's type; pass it explicitly")
    return _embed(env, sig, m, a)


def _embed(env, sig, m, a):
    if isinstance(a, Arrow):
        if a.label is not Label.U:
            raise ValueError("embed_term expects a label-free type")
        if not isinstance(m, Lam):
            raise NotCanonical(f"{print_term(m)} is not an abstraction "
                               f"at type {print_type(a)}")
        if m.domty != a.dom:
            raise NotCanonical(f"binder annotation {print_type(m.domty)} does not "
                               f"match domain {print_type(a.dom)}")
        return Lam(m.var, Label.U, embed_type(a.dom, "+"),
                   _embed({**env, m.var: a.dom}, sig, m.body, a.cod))
    head, args = spine(m)
    if isinstance(head, EVar):
        if args:
            raise NotCanonical(f"EVar {head.name} applied outside its bracket list")
        for x, _ in head.args:
            if x not in env:
                raise NotCanonical(f"EVar argument {x} not in scope")
        return EVar(head.name, a, tuple((x, Label.U) for x, _ in head.args))
    hty = head_type(sig, env, head)
    if hty is None:
        raise NotCanonical(f"unbound variable {head.name}" if isinstance(head, Var)
                           else f"unknown constant {head.name}"
                           if isinstance(head, Const) else _lam_head(head, args, a))
    out = head
    for arg, _ in args:
        if not isinstance(hty, Arrow):
            raise NotCanonical(f"over-applied head {print_term(head)}")
        out = App(out, _embed(env, sig, arg, hty.dom), Label.ONE)
        hty = hty.cod
    if hty != a:
        raise NotCanonical(f"spine has type {print_type(hty)}, "
                           f"expected {print_type(a)}")
    return out


def _lam_head(head: Lam, args, a: Type) -> str:
    """Why an abstraction cannot head a term at base type a."""
    if args:
        return "beta redex"
    return f"abstraction \\{head.var} at base type {print_type(a)}"


def is_positively_embedded(a: Type) -> bool:
    """Is a of the form B1 ->1 ... ->1 Bm ->1 base with each Bi negatively
    embedded (all-u arrows over positively embedded domains)?"""
    doms, _ = arrow_chain(a)
    return all(k is Label.ONE and is_negatively_embedded(d) for d, k in doms)


def is_negatively_embedded(a: Type) -> bool:
    doms, _ = arrow_chain(a)
    return all(k is Label.U and is_positively_embedded(d) for d, k in doms)


def embedding_violations(sig: Signature, psi) -> list:
    """Constants/parameters whose types are not positively embedded.

    The complement operation is complete only over such signatures; anything
    else must be rejected."""
    bad = [(name, ty) for name, ty in sig.constants()
           if not is_positively_embedded(ty)]
    bad += [(x, a) for x, a in psi if not is_positively_embedded(a)]
    return bad


# ---------------------------------------------------------------------------
# Pattern validation

@_record
class SimpleLinearPattern:
    """A valid pattern over psi at type.  Its values come from where
    patterns enter the library (``validate_pattern``, and through it
    ``fully_apply`` and ``algebra.parse_pattern_set``), which check their
    input, or from the members of a ``PatternSet`` that a library operation
    built from such values, which are valid by construction.  Nothing
    re-validates them."""
    term: Term  # elaborated: every EVar carries its base type
    psi: tuple  # ((name, Type), ...)
    type: Type


def validate_pattern(psi, sig: Signature, term: Term, a: Type) -> SimpleLinearPattern:
    """Check simplicity/linearity/full application, give every EVar the
    base type it sits at (its arguments' types and labels are read off its
    argument list and the scope) and every binder its canonical name
    (``binder_name``)."""
    psi = tuple(psi)
    seen_psi = set()
    for x, _ in psi:
        if sig.has(x):
            raise NotSimple(f"context variable {x} shadows a signature constant")
        if x in seen_psi:
            raise NotSimple(f"context variable {x} declared twice")
        seen_psi.add(x)
    env = dict(psi)
    return SimpleLinearPattern(
        _validate(sig, set(), {x: x for x in env}, env, term, a), psi, a)


def _validate(sig, evars_seen, names, env, t, ty):
    """The validated form of t at type ty.  names maps each input name in
    scope to its canonical name, in scope order; env maps the canonical
    names to their types; evars_seen holds the hole names met so far."""
    if isinstance(ty, Arrow):
        if ty.label is not Label.U:
            raise NotSimple(f"pattern type has a determined arrow ->{ty.label}")
        if not isinstance(t, Lam):
            raise NotSimple(f"{print_term(t)} is not an abstraction "
                            f"at type {print_type(ty)}")
        if t.label is not Label.U:
            raise NotSimple(f"abstraction \\{t.var}^{t.label} must be ^u")
        if t.domty != ty.dom:
            raise NotSimple(f"binder annotation {print_type(t.domty)} does not "
                            f"match domain {print_type(ty.dom)}")
        if t.var in names or sig.has(t.var):
            raise NotSimple(f"binder {t.var} shadows an enclosing declaration")
        x = binder_name(sig, env)
        return Lam(x, Label.U, t.domty,
                   _validate(sig, evars_seen, {**names, t.var: x},
                             {**env, x: t.domty}, t.body, ty.cod))
    head, args = spine(t)
    if isinstance(head, EVar):
        if args:
            raise NotSimple(f"EVar {head.name} applied outside its bracket list")
        if head.name in evars_seen:
            raise NotLinear(f"EVar {head.name} occurs more than once")
        evars_seen.add(head.name)
        got = [x for x, _ in head.args]
        if got != list(names):
            raise NotSimple(
                f"EVar {head.name} must be applied to all variables in scope "
                f"in standard order ({', '.join(names) or 'none'}), "
                f"got ({', '.join(got)})")
        return EVar(head.name, ty,
                    tuple((names[x], k) for x, k in head.args))
    out = head
    if isinstance(head, Var):
        if head.name not in names:
            raise NotSimple(f"unbound variable {head.name}")
        out = Var(names[head.name])
    hty = head_type(sig, env, out)
    if hty is None:
        raise NotSimple(f"unknown constant {head.name}"
                        if isinstance(head, Const)
                        else _lam_head(head, args, ty) + " in pattern")
    for arg, k in args:
        if k is not Label.ONE:
            raise NotSimple(f"rigid application @{k} must be @1")
        if not isinstance(hty, Arrow):
            raise NotSimple(f"over-applied head {print_term(head)}")
        if hty.label is not Label.ONE:
            raise NotSimple(f"head applied @1 across a ->{hty.label} arrow")
        out = App(out, _validate(sig, evars_seen, names, env, arg, hty.dom),
                  Label.ONE)
        hty = hty.cod
    if hty != ty:
        raise NotSimple(f"pattern has type {print_type(hty)}, "
                        f"expected {print_type(ty)}")
    return out


def fully_apply(psi, sig: Signature, term: Term, a: Type) -> SimpleLinearPattern:
    """Insert the missing scope variables (label 0) into every EVar and
    normalize argument order, then validate.  Every EVar keeps its name, so
    a name written twice is rejected as non-linear, completed or not."""
    names = tuple(x for x, _ in psi)

    def complete(e, binders):
        scope = names + binders
        amap = dict(e.args)
        if len(amap) != len(e.args):
            raise NotSimple(f"EVar {e.name} repeats an argument")
        for x in amap:
            if x not in scope:
                raise NotSimple(f"EVar argument {x} not in scope")
        return EVar(e.name, e.type,
                    tuple((x, amap.get(x, Label.ZERO)) for x in scope))

    return validate_pattern(psi, sig, map_evars(term, complete), a)


# ---------------------------------------------------------------------------
# The instance order, and ground matching as its special case

def instance_of(sig: Signature, p: SimpleLinearPattern,
                q: SimpleLinearPattern) -> bool:
    """A sound, incomplete test that every ground instance of p is an
    instance of q: True only if it holds; False whenever it cannot show it.

    Deciding that one higher-order pattern is an instance of another is
    pattern matching (Miller, JLC 1991), in the instance order of
    Pfenning's generalization (LICS 1991).  Here it is syntactic, and a
    ground term is the special case of a pattern without holes:
    ``match_ground`` runs this same walk, ``_instance``, and
    ``algebra.first_difference`` decides the same relation for enumerated
    terms bottom-up, with the hole rule ``_admits``.  The two
    patterns are walked in parallel: abstractions are entered under one
    name (binder names do not matter), rigid heads must agree, and a hole
    of p facing a rigid node of q fails.  Where q has a hole E[phi] and p
    the subterm t, t fits when its free names lie among phi's names, which
    are distinct, every 1-labelled name of phi is strict in t and no
    0-labelled name is used in t.  The strict, used and free sets of t
    come from one walk of t, ``syntax._occurrence_sets`` (the walk behind
    ``free_vars``), which reads labels only: p and q are valid patterns of
    one space, so t is well-typed at E's position and no type needs
    checking.  A hole of t counts its
    1-labelled arguments as strict and its 1- and u-labelled ones as used,
    so hole against hole is the pointwise label order: 1 and 0 below
    themselves and below u.

    Soundness.  Let m be a ground instance of p; it agrees with p outside
    p's holes, so where q is rigid or binds, m is too, alike.  At a hole
    E[phi] of q, m holds an instance t' of p's subterm t there: t with each
    hole F[psi] of t filled by a term s whose strict set contains psi's
    1-names and whose used set avoids psi's 0-names and lies within psi's
    names.  ``_occurrence_sets`` computes the strict and used sets of t'
    from its children's sets by unions and by removing a bound name, both
    monotone, as ``typecheck.occurrences`` does for a well-typed term, and
    t' differs from t only at the holes, where s's strict set contains
    what F[psi] counts as strict and its used set lies within what F[psi]
    counts as used.  So strict(t') includes strict(t), which includes
    phi's 1-names, and used(t') lies within used(t), which avoids phi's
    0-names.  t' has the type of E's position, and its free names lie
    among t's, so among phi's.  So t' fits E[phi] in the same walk, and m
    is an instance of q.
    """
    if p.psi != q.psi or p.type != q.type:
        raise PreconditionViolated("patterns must share context and type")
    return _instance(p.term, q.term)


def match_ground(psi, sig: Signature, m: Term, p: SimpleLinearPattern) -> bool:
    """Is the ground term m an instance of p?  Raises ValueError if psi is
    not p's context.  m must be well-typed and canonical at p.type (the
    CLI's ``member`` checks it first): the walk (``_instance``, the one
    ``instance_of`` runs) checks no type, label, binder domain or scope.
    At a hole the subterm's sets come from ``free_vars``' walk, which
    reads labels only; on a well-typed term its strict and used sets are
    the ones ``typecheck.occurrences`` gives."""
    if tuple(psi) != p.psi:
        raise ValueError("psi does not match the pattern's context")
    return _instance(m, p.term)


def _instance(t, u):
    """Is every instance of the node t an instance of the pattern node u?
    Where the binders of t and u differ in name, u's is renamed apart from
    both bodies (``rename_binder``) and t's renamed to match.  A binder
    that shadows a name in scope needs no renaming: it hides that name
    from both bodies alike."""
    if isinstance(u, EVar):
        return _admits(u.args, *_occurrence_sets(t))
    if isinstance(u, App):  # rigid spines: head first, then arguments
        return isinstance(t, App) and \
            _instance(t.fun, u.fun) and _instance(t.arg, u.arg)
    if isinstance(u, Lam):
        if not isinstance(t, Lam):
            return False
        tb, ub = t.body, u.body
        if t.var != u.var:
            x, ub = rename_binder(u.var, ub, free_vars(tb))
            tb = rename_free_var(tb, t.var, x)
        return _instance(tb, ub)
    return t == u  # a rigid head


def _admits(phi, strict, used, free) -> bool:
    """Does a term with these strict, used and free sets fit a hole applied
    to phi: phi's names are distinct and hold the free names, each
    1-labelled one is strict and no 0-labelled one is used?"""
    names = {x for x, _ in phi}
    return len(names) == len(phi) and free <= names and \
        all(x in strict if k is Label.ONE else
            k is not Label.ZERO or x not in used for x, k in phi)


# ---------------------------------------------------------------------------
# The universal pattern, pattern sets and equality up to EVar renaming

def universal_pattern(psi, sig: Signature, a: Type,
                      name: str | None = None) -> Term:
    """The pattern every canonical term of type a matches: eta-long all-u
    binders over a hole applied undetermined to everything in scope.  Only
    types whose arrows are all undetermined admit one."""
    doms, base = arrow_chain(a)
    env = dict(psi)
    binders = []
    for dom, k in doms:
        if k is not Label.U:
            raise PreconditionViolated(
                "the universal pattern exists only at all-u arrow types")
        y = binder_name(sig, env)
        env[y] = dom
        binders.append((y, dom))
    t: Term = EVar(name or "H1", base, tuple((x, Label.U) for x in env))
    for y, dom in reversed(binders):
        t = Lam(y, Label.U, dom, t)
    return t


@_record
class PatternSet:
    psi: tuple
    type: Type
    members: tuple  # elaborated pattern Terms, holes named H1, H2, ... in order

    def pattern(self, i: int) -> SimpleLinearPattern:
        return SimpleLinearPattern(self.members[i], self.psi, self.type)

    def patterns(self):
        return [self.pattern(i) for i in range(len(self.members))]


def make_pattern_set(psi, a: Type, terms) -> PatternSet:
    """Normalize: drop duplicates (up to alpha and EVar renaming), then name
    the holes of the kept members H1, H2, ... across the set, in member
    order and within a member in ``iter_evars`` order.  One walk of each
    member gives both its ``term_key`` and its renamed copy; a dropped
    duplicate takes no names.  This is the one place that names the holes
    of a set; distinct members get distinct names.  Within a member each
    hole name gets one new name, so a non-linear member stays non-linear
    and validation still rejects it."""
    out, seen, base = [], set(), 0
    for t in terms:
        holes = {}
        key, renamed = _keyed(t, {}, 0, holes, base)
        if key not in seen:
            seen.add(key)
            out.append(renamed)
            base += len(holes)
    return PatternSet(tuple(psi), a, tuple(out))


def equal_mod_evar_renaming(t1: Term, t2: Term) -> bool:
    """Alpha-equality that additionally matches EVar names by a bijection."""
    return term_key(t1) == term_key(t2)
