"""Complement of a simple linear pattern.

``complement(sig, p)`` returns a finite pattern set whose ground instances
are exactly the canonical terms that are *not* instances of p.  The
algorithm works position by position:

  * a hole with a determined label at position i contributes, for each such
    i, a fresh hole with that label flipped and every other label relaxed
    to u;
  * an abstraction recurses under the binder;
  * a rigid spine contributes one member per *other* head of matching
    target type (applied to fresh universal arguments), plus, for each
    argument position, the same head with that argument complemented and
    the rest universal.

Completeness needs every constant and parameter type to be positively
embedded (all-strict chains over all-u chains); other signatures are
rejected, since no finite pattern set can describe such complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count, product
from typing import Optional

from .syntax import (Const, EVar, Label, Lam, Phi, Signature, Var,
                     arrow_chain, iter_evars, make_spine, map_evars,
                     print_type, spine)
from .patterns import (PreconditionViolated, SimpleLinearPattern,
                       embedding_violations, head_type, make_pattern_set,
                       universal_pattern, validate_pattern)


def not_label(k: Label) -> Optional[Label]:
    """Flip a determined label; undefined (None) on u."""
    return {Label.ONE: Label.ZERO, Label.ZERO: Label.ONE}.get(k)


def not_phi_i(phi: Phi, i: int) -> Optional[Phi]:
    """Flip position i (1-based) of a labeled variable list and relax every
    other position to u; undefined (None) if position i is not determined."""
    if not 1 <= i <= len(phi):
        raise ValueError(f"position {i} out of range for {len(phi)} arguments")
    flipped = not_label(phi[i - 1][1])
    if flipped is None:
        return None
    return tuple((x, flipped if j == i - 1 else Label.U)
                 for j, (x, _) in enumerate(phi))


class ComplementRule(Enum):
    FLEX = "flex"
    UNDER_BINDER = "under-binder"
    DIFFERENT_HEAD = "different-head"
    ARGUMENT = "argument"


@dataclass(frozen=True)
class ComplementRuleTag:
    rule: ComplementRule
    index: Optional[int] = None  # flipped phi position / complemented argument
    head: Optional[str] = None   # replacement head name


def complement_tagged(sig: Signature, p: SimpleLinearPattern):
    """Complement members paired with the rule that produced each."""
    bad = embedding_violations(sig, p.psi)
    if bad:
        name, ty = bad[0]
        raise PreconditionViolated(
            f"complement needs a positively embedded signature/context; "
            f"{name} : {print_type(ty)} is not")
    fresh = map("H{}".format, count(1)).__next__

    def heads(scope):
        for name, ty in sig.constants():
            yield Const(name), ty
        for name, ty in scope:
            yield Var(name), ty

    def universal(scope, a):
        return universal_pattern(scope, sig, a, fresh())

    def neg(scope, t, ty):
        if isinstance(t, EVar):
            out = []
            for i in range(1, len(t.args) + 1):
                phi2 = not_phi_i(t.args, i)
                if phi2 is None:
                    continue
                out.append((EVar(fresh(), ty, phi2),
                            ComplementRuleTag(ComplementRule.FLEX, index=i)))
            return out
        if isinstance(t, Lam):
            inner = neg(scope + [(t.var, t.domty)], t.body, ty.cod)
            return [(Lam(t.var, Label.U, t.domty, n),
                     ComplementRuleTag(ComplementRule.UNDER_BINDER))
                    for n, _ in inner]
        head, args = spine(t)
        doms, _ = arrow_chain(head_type(sig, dict(scope), head))
        out = []
        for g, gty in heads(scope):
            if g == head:
                continue
            gdoms, gbase = arrow_chain(gty)
            if gbase != ty:
                continue
            spine_args = [(universal(scope, dom), Label.ONE)
                          for dom, _ in gdoms]
            out.append((make_spine(g, spine_args),
                        ComplementRuleTag(ComplementRule.DIFFERENT_HEAD,
                                          head=g.name)))
        for i, (arg, _) in enumerate(args):
            for n, _ in neg(scope, arg, doms[i][0]):
                spine_args = [
                    (n if j == i else universal(scope, doms[j][0]), Label.ONE)
                    for j in range(len(args))]
                out.append((make_spine(head, spine_args),
                            ComplementRuleTag(ComplementRule.ARGUMENT, index=i + 1)))
        return out

    return neg(list(p.psi), p.term, p.type)


def complement(sig: Signature, p: SimpleLinearPattern):
    """The pattern set of canonical terms that are not instances of p.

    Requires a positively embedded signature and context (raises
    PreconditionViolated otherwise; no finite pattern set exists there).
    """
    members = [validate_pattern(p.psi, sig, t, p.type).term
               for t, _ in complement_tagged(sig, p)]
    return make_pattern_set(p.psi, p.type, members)


def make_exclusive(sig: Signature, s):
    """Resolve every u label inside every member's EVars into both 1 and 0,
    and drop duplicates.  The copies of one member are pairwise disjoint,
    but members that came from different positions of a complement can
    still overlap: this resolves labels only and does not order the
    positions."""

    def resolve(e, _):  # e's labels under the current ``assign``
        return EVar(e.name, e.type, tuple((x, assign.get((e.name, j), k))
                                          for j, (x, k) in enumerate(e.args)))

    out = []
    for t in s.members:
        slots = [(e.name, j) for e in iter_evars(t)
                 for j, (_, k) in enumerate(e.args) if k is Label.U]
        for bits in product((Label.ONE, Label.ZERO), repeat=len(slots)):
            assign = dict(zip(slots, bits))
            out.append(map_evars(t, resolve))
    return make_pattern_set(s.psi, s.type, out)
