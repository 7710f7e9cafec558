"""Intersection (unification) of simple linear patterns.

Linearity makes unification decidable without substitutions: the common
instances of two patterns over the same context and type form a finite
pattern set, computed structurally.

  * hole vs hole: meet the label lists pointwise (1 and 0 clash);
  * hole vs rigid spine: distribute the hole's strict variables over the
    argument positions in every possible way (a strict *parameter head*
    pays for itself), pairing fresh holes with the arguments;
  * rigid vs rigid: heads must agree, arguments intersect pointwise;
  * abstractions recurse under a shared binder.

No step needs a type: a new hole takes the type of the operand hole it
meets, which validation put there where patterns entered the library.
Every member the walk builds is a valid pattern by construction (see
``_Meet``), so nothing here re-validates a member or renames an operand.
"""

from __future__ import annotations

from itertools import count, product
from typing import Optional

from .syntax import (EVar, Label, Lam, Phi, Signature, Var, evar_names,
                     fresh_name, make_spine, map_evars, spine)
from .patterns import (PreconditionViolated, SimpleLinearPattern,
                       make_pattern_set)


def label_meet(k1: Label, k2: Label) -> Optional[Label]:
    """Greatest lower bound of two labels; 1 and 0 are incompatible (None)."""
    if k1 is k2 or k2 is Label.U:
        return k1
    if k1 is Label.U:
        return k2
    return None


def meet_phi(phi1: Phi, phi2: Phi) -> Optional[Phi]:
    """Pointwise meet of two labeled variable lists over the same variables
    in the same order; None when incompatible."""
    if [x for x, _ in phi1] != [x for x, _ in phi2]:
        raise ValueError("labeled variable lists cover different variables")
    out = []
    for (x, k1), (_, k2) in zip(phi1, phi2):
        k = label_meet(k1, k2)
        if k is None:
            return None
        out.append((x, k))
    return tuple(out)


def enumerate_splittings(phi: Phi, n: int, head: Optional[str] = None) -> list:
    """All distributions of phi's strict variables over n premises, each a
    tuple of n phis over phi's variables, one per premise.

    0-labeled variables stay 0 everywhere and u-labeled stay u; each strict
    variable goes strict into exactly one premise (u elsewhere) — except a
    strict head parameter, which is paid by the head occurrence itself and
    relaxes to u everywhere.  For s distributable strict variables this
    yields n^s splittings; with n = 0 the single empty splitting survives
    iff no strict variable other than the head remains."""
    strict_vars = [x for x, k in phi if k is Label.ONE and x != head]
    if strict_vars and n == 0:
        return []
    out = []
    for assignment in product(range(n), repeat=len(strict_vars)):
        owner = dict(zip(strict_vars, assignment))
        parts = []
        for i in range(n):
            part = []
            for x, k in phi:
                if k is Label.ONE and x in owner:
                    part.append((x, Label.ONE if owner[x] == i else Label.U))
                elif k is Label.ONE:
                    part.append((x, Label.U))  # strict head parameter
                else:
                    part.append((x, k))
            parts.append(tuple(part))
        out.append(tuple(parts))
    return out


def rename_apart(p: SimpleLinearPattern, taken) -> SimpleLinearPattern:
    """Rename p's EVars away from the given names (non-colliding names are
    kept).  No operation needs this: holes are local to each pattern."""
    taken = set(taken)
    used = taken | evar_names(p.term)

    def rename(e, _):
        if e.name not in taken:
            return e
        name = fresh_name(e.name, used)
        used.add(name)
        return EVar(name, e.type, e.args)

    return SimpleLinearPattern(map_evars(p.term, rename), p.psi, p.type)


def intersect(sig: Signature, p1: SimpleLinearPattern,
              p2: SimpleLinearPattern):
    """The pattern set of common instances of p1 and p2.

    Pre: same context and type, both validated over sig, so the two name
    the binder at each position alike.  Holes are local to each pattern,
    so the two may share hole names; every hole of the result is fresh.
    The meet reads no declaration of sig.
    """
    if p1.psi != p2.psi or p1.type != p2.type:
        raise PreconditionViolated("patterns must share context and type")
    return make_pattern_set(p1.psi, p1.type, _Meet().meet(p1.term, p2.term))


class _Meet:
    """The walks of one ``intersect`` or ``algebra.set_intersect`` call,
    sharing its hole counter.  ``meet`` gives the members of a meet before
    ``make_pattern_set`` drops duplicates and names the holes; two
    abstractions at one position must bind one name, or it raises
    PreconditionViolated.  Methods, not nested closures, so a call leaves
    no reference cycle.

    Given validated operands, whose holes validation typed, every term
    the walks build is a validated pattern, so no member is checked again:

      * every binder name is an operand's, and operands name the binder at
        each position alike (``binder_name`` on the same scope);
      * every hole is new, takes the type of the operand hole it meets,
        lists the whole scope in standard order (its labels meet or split
        an operand hole's, plus ``u`` for the binders it absorbs) and has
        a name from the call's counter, so it is fresh in its member;
      * every rigid head is an operand's own, applied ``@1`` across the
        ``->1`` arrows the operand already applies it across."""

    def __init__(self):
        self.fresh = map("H{}".format, count(1)).__next__

    def flex_rigid(self, phi, t):
        """Members of (fresh hole with labels phi) meet t."""
        if isinstance(t, Lam):
            # at an arrow type the hole eta-expands, absorbing the binder
            inner = self.flex_rigid(phi + ((t.var, Label.U),), t.body)
            return [Lam(t.var, Label.U, t.domty, n) for n in inner]
        if isinstance(t, EVar):
            m = meet_phi(phi, t.args)
            return [] if m is None else [EVar(self.fresh(), t.type, m)]
        head, args = spine(t)
        if isinstance(head, Var) and dict(phi)[head.name] is Label.ZERO:
            # a rigid occurrence of the head is strict in it, which an
            # irrelevant hole can never cover
            return []
        out = []
        hname = head.name if isinstance(head, Var) else None
        for parts in enumerate_splittings(phi, len(args), head=hname):
            per_arg = [self.flex_rigid(part, arg)
                       for part, (arg, _) in zip(parts, args)]
            for combo in product(*per_arg):
                out.append(make_spine(head, [(c, Label.ONE) for c in combo]))
        return out

    def meet(self, t1, t2):
        if isinstance(t1, EVar):
            return self.flex_rigid(t1.args, t2)
        if isinstance(t2, EVar):
            return self.flex_rigid(t2.args, t1)
        if isinstance(t1, Lam):
            if t1.var != t2.var:
                raise PreconditionViolated(
                    f"binders {t1.var} and {t2.var} at one position: "
                    f"validate both patterns")
            inner = self.meet(t1.body, t2.body)
            return [Lam(t1.var, Label.U, t1.domty, n) for n in inner]
        h1, args1 = spine(t1)
        h2, args2 = spine(t2)
        if h1 != h2:
            return []
        per_arg = [self.meet(a1, a2) for (a1, _), (a2, _) in zip(args1, args2)]
        out = []
        for combo in product(*per_arg):
            out.append(make_spine(h1, [(c, Label.ONE) for c in combo]))
        return out
