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

These members may overlap; ``make_exclusive`` orders the positions so that
they do not.  Completeness needs every constant and parameter type to be
positively embedded (all-strict chains over all-u chains); other
signatures are rejected, since no finite pattern set can describe such
complements.

The operand is a validated pattern (patterns are validated where they enter
the library: ``validate_pattern``, ``fully_apply``, ``parse_pattern_set``),
and every member the walk builds is a valid pattern by construction (see
``_Negation``), so nothing here re-validates a member or renames the
operand.
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from typing import Optional

from .syntax import (Const, EVar, Label, Lam, Phi, Signature, Var, _record,
                     arrow_chain, evar_names, make_spine, print_type, spine)
from .patterns import (PreconditionViolated, SimpleLinearPattern,
                       embedding_violations, head_type, make_pattern_set,
                       universal_pattern)


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


@_record
class ComplementRuleTag:
    rule: ComplementRule
    index: Optional[int] = None  # flipped phi position / complemented argument
    head: Optional[str] = None   # replacement head name


def _walk(sig: Signature, p: SimpleLinearPattern, ordered: bool):
    """(member, tag) pairs, one per negated position of p.  Every later
    position is universal (or u), and so is every earlier one unless
    ``ordered``, which keeps p's own argument (or label) there."""
    bad = embedding_violations(sig, p.psi)
    if bad:
        name, ty = bad[0]
        raise PreconditionViolated(
            f"complement needs a positively embedded signature/context; "
            f"{name} : {print_type(ty)} is not")
    return _Negation(sig, p, ordered).neg(p.psi, p.term)


class _Negation:
    """One complement walk over p.  A method, not a nested closure, so the
    walk leaves no reference cycle behind.

    Given a validated p, whose holes validation typed, every member the
    walk builds is a validated pattern, so no member is checked again:

      * every binder name is p's own, or one ``universal_pattern`` gives by
        ``binder_name`` on the same scope, as validation would;
      * every new hole has the type of p's hole it flips (or its universal
        argument's base type), lists the whole scope in standard order (p's
        labels with one flipped, or all ``u``) and takes a name of the
        walk's counter that p does not use, so it is fresh in its member,
        beside the holes of p an ordered member keeps;
      * every rigid head is applied ``@1`` across ``->1`` arrows: p's own
        heads are already, and any other constant or parameter is, since
        ``embedding_violations`` has passed before the walk.

    A universal argument is built where a member uses it, so a parameter
    bound in p may take an argument with no universal pattern; that is an
    error only if a member needs one (see ``_universal``)."""

    def __init__(self, sig: Signature, p: SimpleLinearPattern, ordered: bool):
        self.sig, self.ordered = sig, ordered
        taken = evar_names(p.term)  # ordered members keep p's holes
        self.fresh = (h for h in map("H{}".format, count(1))
                      if h not in taken).__next__

    def _universal(self, scope, head, dom):
        """A universal argument of type dom for head, its hole named by the
        walk's counter."""
        try:
            return universal_pattern(scope, self.sig, dom, self.fresh())
        except PreconditionViolated:
            raise PreconditionViolated(
                f"complement needs a universal pattern for each argument of "
                f"{head.name}; {print_type(dom)} has none") from None

    def neg(self, scope, t):
        sig, ordered, fresh = self.sig, self.ordered, self.fresh
        if isinstance(t, EVar):
            out = []
            for i in range(1, len(t.args) + 1):
                phi2 = not_phi_i(t.args, i)
                if phi2 is None:
                    continue
                if ordered:
                    phi2 = t.args[:i - 1] + phi2[i - 1:]
                out.append((EVar(fresh(), t.type, phi2),
                            ComplementRuleTag(ComplementRule.FLEX, index=i)))
            return out
        if isinstance(t, Lam):
            inner = self.neg(scope + ((t.var, t.domty),), t.body)
            return [(Lam(t.var, Label.U, t.domty, n),
                     ComplementRuleTag(ComplementRule.UNDER_BINDER))
                    for n, _ in inner]
        head, args = spine(t)
        doms, base = arrow_chain(head_type(sig, dict(scope), head))
        out = []
        for g, gty in [(Const(c), cty) for c, cty in sig.constants()] + \
                [(Var(x), xty) for x, xty in scope]:
            gdoms, gbase = arrow_chain(gty)
            if g == head or gbase != base:
                continue
            spine_args = [(self._universal(scope, g, dom), Label.ONE)
                          for dom, _ in gdoms]
            out.append((make_spine(g, spine_args),
                        ComplementRuleTag(ComplementRule.DIFFERENT_HEAD,
                                          head=g.name)))
        for i, (arg, _) in enumerate(args):
            for n, _ in self.neg(scope, arg):
                spine_args = [
                    (n if j == i else args[j][0] if ordered and j < i
                     else self._universal(scope, head, doms[j][0]),
                     Label.ONE) for j in range(len(args))]
                out.append((make_spine(head, spine_args),
                            ComplementRuleTag(ComplementRule.ARGUMENT, index=i + 1)))
        return out


def complement_tagged(sig: Signature, p: SimpleLinearPattern):
    """Complement members paired with the rule that produced each."""
    return _walk(sig, p, ordered=False)


def complement(sig: Signature, p: SimpleLinearPattern):
    """The pattern set of canonical terms that are not instances of p.

    Requires a positively embedded signature and context (raises
    PreconditionViolated otherwise; no finite pattern set exists there).
    """
    return make_pattern_set(p.psi, p.type,
                            [t for t, _ in _walk(sig, p, ordered=False)])


def make_exclusive(sig: Signature, p: SimpleLinearPattern):
    """p's complement as an exact cover with pairwise disjoint members: the
    member that negates a position keeps p's own argument (for a hole, its
    label) at every earlier one (Lassez & Marriott, "Explicit representation
    of terms defined by counter examples", JAR 1987).  A ground term outside
    p fails to match p at exactly one first position and matches only the
    member that negates it: earlier members need a mismatch where it agrees
    with p, later ones need p's own argument where it does not."""
    return make_pattern_set(p.psi, p.type,
                            [t for t, _ in _walk(sig, p, ordered=True)])
