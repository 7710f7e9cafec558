"""Finite pattern sets and their boolean algebra, with a ground-term
enumeration oracle.

Pattern sets over a shared context and type are closed under intersection
(pairwise), complement (fold intersection over member complements) and
relative complement; union is literal.  The complement fold meets the raw
members of each member's complement walk (``complement._Negation``) and
normalises once per step, in ``set_intersect``.  ``set_intersect``,
and with it every step of the complement fold and the relative
complement, drops each member that lies inside another single member, by
the sound syntactic rule ``instance_of``.  A member covered only by the
union of others stays: deciding that is Maranget's usefulness problem
(JFP 2007).  A member of one operand that lies inside a single member of
the other is its own intersection with the other set: with A' and B'
those members, A & B = A' | B' | the pairwise meets of the other members.
So ``set_intersect`` gives those members as they are and meets only the
other pairs, in the all-pairs order, and its answer is the all-pairs one,
hole names and order included.  The other operations keep every member
they make.  ``make_pattern_set`` (defined in ``patterns``, exported here)
is the one place that names holes: it numbers the holes of a set's members
H1, H2, ... in order, in the same walk of each member that makes the
member's dedup key.  Holes are local to a pattern, so no operation renames
its operands apart, and each names its own new holes with a plain counter.
Patterns are validated once, where they enter: ``parse_pattern_set``
here, ``patterns.validate_pattern`` and ``patterns.fully_apply``.  The
operations build valid members from valid operands by construction, so
none re-validates what it builds.

``enumerate_ground`` returns every canonical EVar-free term up to a size
bound, as a tuple in a deterministic order.  It fills one table per call of
the terms of each scope, type and exact size, so a subterm is built once
and shared by every term containing it.  A table holds one record per
term: the term, its occurrence summary (strict, used and free variables),
computed once from the children's summaries, and its match state.
``first_difference`` and ``extensional_eq`` use it to compare sets by
their ground instances.  ``first_difference`` walks the sizes in ascending
order and stops at the first size that holds a difference.  It matches
bottom-up (Hoffmann & O'Donnell, JACM 1982): a term's match state is the
set of the two sets' pattern nodes it is an instance of, computed once
from its summary and its children's states by tables keyed by the
summary's sets, by head and the argument state at each position, and by
binder name and body state.  A term is in a set when its state holds one
of the set's member roots.  A term's class, its record without the term,
decides both whether it is in each set and the class of every term built
from it, so ``first_difference``'s tables keep only the first record of
each class, in build order: argument lists come in lexicographic order, so
the first term of a class is built from the first terms of its arguments'
classes, and the first differing term of the full enumeration is kept.
The class of each combination of arguments is computed from their records
before its term is built, so a term is built only for a new class.  The
per-call tables belong to objects that do not refer to themselves, so
reference counting frees them when the call returns.
"""

from __future__ import annotations

from collections import Counter
from functools import partial, reduce
from operator import or_

from .syntax import (App, Arrow, Const, EVar, InputError, Label, Lam,
                     Signature, Term, Type, Var, _record, arrow_chain,
                     binder_name, parse_term, spine, term_key)
from .patterns import (PatternSet, PreconditionViolated, SimpleLinearPattern,
                       _admits, _instance, fully_apply, make_pattern_set,
                       match_ground, universal_pattern)
from .complement import _walk, complement
from .intersect import _Meet


def parse_pattern_set(psi, sig: Signature, a: Type, texts) -> PatternSet:
    """The set of the patterns written in texts over psi at type a, each
    completed and validated by ``fully_apply``."""
    return make_pattern_set(
        psi, a, [fully_apply(psi, sig, parse_term(s, sig), a).term
                 for s in texts])


def _require_same_space(s1: PatternSet, s2: PatternSet):
    if s1.psi != s2.psi or s1.type != s2.type:
        raise PreconditionViolated("pattern sets must share context and type")


def set_union(s1: PatternSet, s2: PatternSet) -> PatternSet:
    _require_same_space(s1, s2)
    return make_pattern_set(s1.psi, s1.type, s1.members + s2.members)


def set_intersect(sig: Signature, s1: PatternSet, s2: PatternSet) -> PatternSet:
    """Union of the pairwise member intersections, normalised once, without
    the members that lie inside another member.

    A member is dropped when ``instance_of``, a sound syntactic rule, puts
    it inside another single member of the union; of two members that
    contain each other the earlier stays.  A member covered only by the
    union of others stays: deciding that is Maranget's usefulness problem
    ("Warnings for pattern matching", JFP 2007).

    A member that lies inside a single member of the other set is its own
    intersection with that set, so no pair holding one is met: with A' and
    B' those members of s1 and of s2, s1 & s2 = A' | B' | the meets of the
    pairs of the other members.  The union is built in the all-pairs
    order, rows s1's members and columns s2's: a row in A' gives its
    member alone; in any other row, a column in B' gives its member in the
    first row that contains it and nowhere else; every other pair is met.
    The answer is the all-pairs one, hole names and order included.  The
    prune keeps, in order, the first term of each class of terms that
    contain each other and lie inside no other term, as ``instance_of`` is
    transitive (its hole rule is monotone; see its soundness argument).
    In the all-pairs union every meet in row a is an instance of a, and
    the meet of a with a member containing it has a among its members, up
    to hole names; likewise every meet in column b is an instance of b,
    and only a row containing b meets it to b.  So both unions have the
    same such classes, each first met at the same pair as the same term up
    to hole names, which ``make_pattern_set`` renames.  Each member's
    rigid nodes are found once per call (see ``_inside``), the columns are
    tested only when some row is not covered, and one ``_Meet``, which
    reads no declaration of sig, walks every pair that is met."""
    _require_same_space(s1, s2)
    walk, out = _Meet(), []
    rows = [_entry(t) for t in s1.members]
    cols = [_entry(t) for t in s2.members]
    covered = [any(_inside(m, n) for n in cols) for m in rows]
    first = [] if all(covered) else [
        next((i for i, n in enumerate(rows) if _inside(m, n)), None)
        for m in cols]
    for i, (m, inside) in enumerate(zip(rows, covered)):
        if inside:
            out.append(m)
            continue
        for n, row in zip(cols, first):
            if row == i:
                out.append(n)
            elif row is None:
                out.extend(map(_entry, walk.meet(m[0], n[0])))
    return make_pattern_set(s1.psi, s1.type, _drop_instances(out))


def _entry(t: Term) -> tuple:
    """(t, its rigid nodes): what the prune compares."""
    return t, _rigid_nodes(t, (), {}).items()


def _drop_instances(entries) -> list:
    """The terms of entries (see ``_entry``), in order, without each one
    that ``instance_of`` puts inside another.  A term is dropped when a
    kept one contains it, and otherwise it drops the kept ones it
    contains, so every term dropped lies inside a kept one and no kept one
    lies inside another."""
    kept = []
    for m in entries:
        if not any(_inside(m, n) for n in kept):
            kept = [n for n in kept if not _inside(n, m)]
            kept.append(m)
    return [n[0] for n in kept]


def _inside(m, n) -> bool:
    """Does ``instance_of`` put m inside n, each an ``_entry``?  Every rigid
    node of a container is a rigid node of each of its instances, at the
    same position, so n's rigid nodes must be m's: a cheap test first."""
    return n[1] <= m[1] and _instance(m[0], n[0])


def _rigid_nodes(t: Term, path: tuple, out: dict) -> dict:
    """out, with every rigid head of t added under its position: the path
    from t's root, 0 for a body, 1 for a function and 2 for an argument."""
    while True:
        if isinstance(t, Lam):
            t, path = t.body, path + (0,)
        elif isinstance(t, App):
            _rigid_nodes(t.arg, path + (2,), out)
            t, path = t.fun, path + (1,)
        else:
            if not isinstance(t, EVar):
                out[path] = t
            return out


def set_complement(sig: Signature, s: PatternSet) -> PatternSet:
    """Fold member complements with set intersection; the complement of the
    empty set is the singleton universal pattern, and that of a one-member
    set its member's ``complement``.

    The fold normalises once per step, in ``set_intersect``: each member's
    complement enters as the raw members of its walk (``complement._walk``),
    neither deduplicated nor renamed, and ``set_intersect``'s final
    ``make_pattern_set`` names every hole of the step's result.  That
    changes no answer.  Hole names are local to a member, and a repeated
    member (a walk of a valid pattern makes none) would come after its
    first copy, so the prune, which drops every term that lies inside a
    kept one, would drop the copy and each meet made from it, and they
    would drop nothing."""
    if not s.members:
        return make_pattern_set(
            s.psi, s.type, [universal_pattern(s.psi, sig, s.type)])
    if len(s.members) == 1:
        return complement(sig, s.pattern(0))
    result = None
    for i in range(len(s.members)):
        c = PatternSet(s.psi, s.type, tuple(
            t for t, _ in _walk(sig, s.pattern(i), ordered=False)))
        result = c if result is None else set_intersect(sig, result, c)
    return result


def relative_complement(sig: Signature, s1: PatternSet,
                        s2: PatternSet) -> PatternSet:
    """Instances of s1 that are not instances of s2."""
    _require_same_space(s1, s2)
    return set_intersect(sig, s1, set_complement(sig, s2))


def member_set(sig: Signature, m: Term, s: PatternSet) -> bool:
    """Does the ground term m match some member of s?"""
    return any(match_ground(s.psi, sig, m, p) for p in s.patterns())


# ---------------------------------------------------------------------------
# Ground enumeration

def enumerate_ground(psi, sig: Signature, a: Type, depth: int) -> tuple:
    """Every canonical EVar-free term of type a over psi with size <= depth,
    sizes ascending, heads in declaration order (signature first, then
    context, then binders).

    Each term it builds gets an occurrence summary (strict set, used set,
    free set): what ``syntax._occurrence_sets``, the walk behind
    ``free_vars``, gives for it in the scope it was built in, computed once
    from its children's summaries by that walk's App and Lam rules, which
    ``occurrences`` applies too.  No type is kept: a term is built at a
    known type, and a subterm at a hole of a well-typed term has the hole's
    type.  The labelled-binder filter reads the body's summary.  ``first_difference`` also gives each term a match state (see
    ``_MatchStates``), computed once from its summary and its children's
    states; here every state is 0.  The tables hold one record per term,
    (term, strict set, used set, free set, state), and this returns the
    terms of the records.  The sets are interned for the call, as most are
    {}, {x} or {x, y}.  Binders are named by ``binder_name``.
    ``first_difference`` keeps only the first record of each class (see
    ``_Enumeration``) in its tables; this returns every term.  A depth
    too large for the recursion limit is an InputError."""
    return tuple(r[0] for r in _Enumeration(sig).up_to(tuple(psi), a, depth))


class _Enumeration:
    """The tables of one enumeration: the records of the terms of each
    (scope, type, exact size), each term built once and shared by every
    term containing it.  A record is (term, strict set, used set, free
    set, match state): the term, its occurrence summary (see
    ``enumerate_ground``) and its state against the nodes of ``match``.
    Each scope's heads, their argument types, own-name sets and spine
    masks, and the scope's binder name are found once, in one head table
    per scope.  Methods, not nested closures, and no bound method in a
    table, so nothing refers to itself and the tables are freed with the
    last reference to the object.

    A term's class is its record without the term.  The class of a term
    decides the class of every term built from it, and which of
    ``match``'s roots it is an instance of: the classes are the states of
    a bottom-up tree automaton, and terms of one class are interchangeable
    (Comon et al., *Tree Automata Techniques and Applications*, ch. 1).
    With ``one_per_class``, each table keeps only the first record of each
    class, in build order: ``_build`` computes each combination's class
    from its argument records, skips a class the table already holds, and
    builds the term only for a new class.  ``_args`` orders argument lists
    by (first size, first argument, rest), so the first term of a class in
    the full table has the first term of its argument's class at each
    position; by induction on size, the kept records are exactly the first
    of each class of the full table, in the same order.  So the first term
    of the full enumeration that has a property of its class is kept."""

    def __init__(self, sig: Signature, match: _MatchStates | None = None,
                 one_per_class: bool = False):
        self.sig = sig
        self.match = _MatchStates(sig, (), ()) if match is None else match
        self.one_per_class = one_per_class
        self.consts = [(Const(n), t) for n, t in sig.constants()]
        self.table = {}  # (scope, type, size) -> its records
        self.heads = {}  # scope -> its head table (see ``_heads``)
        self.sets = {}

    def up_to(self, psi: tuple, a: Type, depth: int):
        """The records of type a over psi with size <= depth, sizes
        ascending, each size built when the one before it has been
        consumed.  Each new scope's tables are built recursively, a few
        frames per size, so a depth past the interpreter's recursion limit
        is an InputError."""
        if depth < 1:
            raise InputError("depth must be at least 1")
        try:
            for size in range(1, depth + 1):
                yield from self.exact(psi, a, size)
        except RecursionError:
            raise InputError(f"depth {depth} is too large to enumerate: "
                             "it exceeds the recursion limit") from None

    def exact(self, scope, ty, size):
        key = (scope, ty, size)
        records = self.table.get(key)
        if records is None:
            records = self.table[key] = list(self._build(scope, ty, size))
        return records

    def _heads(self, scope):
        """The head table of scope: (the name of a binder below it, base
        type -> [(head, argument types, own names, spine masks)]), heads
        in declaration order, built on first use."""
        table = self.heads.get(scope)
        if table is None:
            by_base = {}
            for head, hty in self.consts + [(Var(n), t) for n, t in scope]:
                doms, base = arrow_chain(hty)
                own = self._intern(frozenset((head.name,))) \
                    if isinstance(head, Var) else frozenset()
                by_base.setdefault(base, []).append(
                    (head, tuple(doms), own,
                     self.match.spine_masks.get((head, len(doms)))))
            table = self.heads[scope] = (
                binder_name(self.sig, dict(scope)), by_base)
        return table

    def _intern(self, s):
        return self.sets.setdefault(s, s)

    def _union(self, s, t):
        return s if t <= s else t if s <= t else self._intern(s | t)

    def _drop(self, s, x):
        return self._intern(s - {x}) if x in s else s

    def _build(self, scope, ty, size):
        """The records of (scope, ty, size) in build order; with
        ``one_per_class``, the first of each class alone, each term built
        only once its class is known to be new."""
        if size < 1:
            return
        x, heads = self._heads(scope)
        seen = set() if self.one_per_class else None
        if isinstance(ty, Arrow):
            # no node tests a binder named x: every such state is 0
            lams = self.match.lam_masks if x in self.match.lams else None
            drop = self._drop
            for body, strict, used, free, state in self.exact(
                    scope + ((x, ty.dom),), ty.cod, size - 1):
                if ty.label is Label.ONE and x not in strict or \
                        ty.label is Label.ZERO and x in used:
                    continue
                klass = (drop(strict, x), drop(used, x), drop(free, x),
                         0 if lams is None else lams[x, state])
                if seen is not None:
                    if klass in seen:
                        continue
                    seen.add(klass)
                yield (Lam(x, ty.label, ty.dom, body), *klass)
            return
        union = self._union
        holes = self.match.hole_masks if self.match.holes else None
        for head, doms, own, spines in heads.get(ty, ()):
            for args in self._args(scope, doms, size - 1):
                states = ()
                strict = used = free = own
                for (_, s, u, f, state), k in args:
                    if spines is not None:
                        states += (state,)
                    free = union(free, f)
                    if k is Label.ONE:
                        strict, used = union(strict, s), union(used, u)
                    elif k is Label.U:
                        used = union(used, u)
                state = 0 if holes is None else holes[strict, used, free]
                if spines is not None:
                    state |= spines[states]
                if seen is not None:
                    klass = (strict, used, free, state)
                    if klass in seen:
                        continue
                    seen.add(klass)
                m = head
                for arg, k in args:
                    m = App(m, arg[0], k)
                yield m, strict, used, free, state

    def _args(self, scope, doms, budget):
        """Every list of (record, label) arguments for doms of total size
        budget: first argument's size ascending, then the first argument,
        then the rest, whose lists are built once per size of the first."""
        if not doms:
            if budget == 0:
                yield ()
            return
        (dom, k), rest = doms[0], doms[1:]
        for first_size in range(1, budget - len(rest) + 1):
            mores = list(self._args(scope, rest, budget - first_size))
            if mores:
                for first in self.exact(scope, dom, first_size):
                    for more in mores:
                        yield ((first, k), *more)


class _MatchStates:
    """Bottom-up matching of enumerated terms against the nodes of some
    patterns over one context (Hoffmann & O'Donnell, "Pattern matching in
    trees", JACM 1982).

    Each distinct node of the patterns gets one bit, and a term's match
    state is the set of nodes it is an instance of, as an int; ``roots``
    holds each pattern's bit, in order.  Nodes that test alike share a bit:
    a hole by its argument list, a spine by its head and its arguments'
    bits, an abstraction by its binder name and its body's bit.  As the
    patterns are read, each binder is renamed to the name the enumerator
    gives at that depth (``binder_name`` over the scope), and each name is
    looked up through a map that follows shadowing, as
    ``patterns._validate`` does; a validated pattern reads unchanged.  So a
    term and a pattern node at one position bind the same names, and a
    term's state follows from its summary and its children's states:

      * hole bits from the summary by ``patterns._admits``, the rule of
        ``_instance``, one mask per distinct (strict, used, free) triple;
      * spine bits from the head and the arguments' states: for each
        (head, arity) and argument position, one mask per argument state,
        the OR of the bits of the rules whose argument bit at that position
        the state meets; a spine's mask is the AND of its positions' masks,
        and at arity 0 the OR of all its rules' bits.  The AND is exact
        because each rule has its own bit: a bit is in every position's
        mask exactly when its rule's argument test passes at every
        position.  So a new argument-state tuple costs one lookup per
        position, and each rule is tested once per position and state;
      * abstraction bits from the binder name and the body's state.

    Each mask is computed once, on first use.  A bit is read only by a
    parent's rule, for the node at the same position below the parent's
    node, so from a root down, term and pattern agree in heads and binders,
    hence in scope, and a root's bit says what ``_instance`` says.  A
    term's state, with its summary, is its class: two terms of one class
    match the same roots, and so do the terms built from each with the
    same other children, which is why ``first_difference`` keeps one term
    per class.  The rules are module functions bound by ``partial``, so no
    table refers to the object that holds it."""

    def __init__(self, sig: Signature, psi, members):
        self.sig = sig
        self.bits = {}  # node key -> bit
        self.holes = []  # (bit, argument list) of each hole node
        self.lams = {}  # binder name -> [(bit, body bit)]
        self.spines = {}  # (head, arity) -> [(bit, argument bits)]
        scope = frozenset(x for x, _ in psi)
        self.roots = [self._node(t, {x: x for x in scope}, scope)
                      for t in members]
        self.hole_masks = _Masks(partial(_hole_mask, self.holes))
        self.lam_masks = _Masks(partial(_lam_mask, self.lams))
        # (head, arity) -> the masks of such spines by their argument states,
        # each the AND of one mask per argument position
        self.spine_masks = {}
        for (head, arity), rules in self.spines.items():
            positions = tuple(
                _Masks(partial(_met_mask, [(bit, arg_bits[i])
                                           for bit, arg_bits in rules]))
                for i in range(arity))
            self.spine_masks[head, arity] = _Masks(partial(
                _spine_mask, reduce(or_, [bit for bit, _ in rules]),
                positions))

    def _node(self, t, names, scope):
        """The bit of the node t; names maps the names t may mention to the
        enumerator's, and scope holds the enumerator's names in scope."""
        if isinstance(t, Lam):
            x = binder_name(self.sig, scope)
            body = self._node(t.body, {**names, t.var: x}, scope | {x})
            return self._bit(("lam", x, body),
                             self.lams.setdefault(x, []), body)
        if isinstance(t, EVar):
            phi = tuple((names.get(y, y), k) for y, k in t.args)
            return self._bit(("hole", phi), self.holes, phi)
        head, args = spine(t)
        if isinstance(head, Var):
            head = Var(names.get(head.name, head.name))
        bits = tuple(self._node(arg, names, scope) for arg, _ in args)
        return self._bit((head, bits),
                         self.spines.setdefault((head, len(bits)), []), bits)

    def _bit(self, key, rules, rule):
        bit = self.bits.get(key)
        if bit is None:
            bit = self.bits[key] = 1 << len(self.bits)
            rules.append((bit, rule))
        return bit


class _Masks(dict):
    """Masks by key, each computed by ``rule(key)`` on first use."""

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, key):
        mask = self[key] = self.rule(key)
        return mask


def _hole_mask(holes, summary) -> int:
    strict, used, free = summary
    mask = 0
    for bit, phi in holes:
        if _admits(phi, strict, used, free):
            mask |= bit
    return mask


def _lam_mask(lams, key) -> int:
    x, body = key
    return _met_mask(lams.get(x, ()), body)


def _met_mask(rules, state) -> int:
    """The OR of the bits of the rules (bit, child bit) whose child bit
    state meets."""
    mask = 0
    for bit, child_bit in rules:
        if state & child_bit:
            mask |= bit
    return mask


def _spine_mask(every, positions, states) -> int:
    mask = every
    for masks, state in zip(positions, states):
        mask &= masks[state]
    return mask


def first_difference(sig: Signature, s1: PatternSet, s2: PatternSet,
                     depth: int) -> tuple[Term, bool] | None:
    """The first ground term up to the size bound, in enumeration order,
    that is an instance of exactly one of s1 and s2, as (term, in_first);
    None if there is none.

    It walks the sizes in ascending order over one enumeration table and
    stops at the first size that holds a difference, so larger sizes are
    never built.  No term is walked top-down: every term the enumeration
    builds gets its match state against the nodes of both sets' members
    (``_MatchStates``) once, from its summary and its children's states,
    and a term is in s1 when the state in its record meets the bits of
    s1's members, and likewise for s2.  Each table keeps only the first
    record of each class, (strict set, used set, free set, match state):
    membership is a property of the class, and the first term of each
    class in the full enumeration is built from first terms of classes
    (see ``_Enumeration``), so the first differing term is among those
    kept and the answer is the one the full enumeration gives.  A
    combination of argument records whose class its table already holds is
    skipped before its term is built.  So the tables, and the terms built,
    grow with the number of classes, not of terms.  A depth too large for
    the recursion limit is an InputError."""
    _require_same_space(s1, s2)
    match = _MatchStates(sig, s1.psi, s1.members + s2.members)
    roots1 = reduce(or_, match.roots[:len(s1.members)], 0)
    roots2 = reduce(or_, match.roots[len(s1.members):], 0)
    enumeration = _Enumeration(sig, match, one_per_class=True)
    for m, *_, state in enumeration.up_to(s1.psi, s1.type, depth):
        in_first = state & roots1 != 0
        if in_first != (state & roots2 != 0):
            return m, in_first
    return None


def extensional_eq(sig: Signature, s1: PatternSet, s2: PatternSet,
                   depth: int) -> bool:
    """Do s1 and s2 have the same ground instances up to the size bound?"""
    return first_difference(sig, s1, s2, depth) is None


# ---------------------------------------------------------------------------
# Clause complement

@_record
class Clause:
    name: str
    pred: str
    pattern: SimpleLinearPattern


def clause_complement(sig: Signature, clauses) -> list:
    """Negate a cover: clauses n1..nk for predicate non_<pred> whose heads
    jointly match exactly the terms no input clause head matches."""
    clauses = list(clauses)
    if not clauses:
        raise InputError("no clauses given")
    preds = {c.pred for c in clauses}
    if len(preds) > 1:
        raise InputError(f"clauses mix predicates: {', '.join(sorted(preds))}")
    psi, a = clauses[0].pattern.psi, clauses[0].pattern.type
    for c in clauses:
        if c.pattern.psi != psi or c.pattern.type != a:
            raise PreconditionViolated("clause heads must share context and type")
    s = make_pattern_set(psi, a, [c.pattern.term for c in clauses])
    comp = set_complement(sig, s)
    pred = preds.pop()
    return [Clause(f"n{i + 1}", f"non_{pred}", comp.pattern(i))
            for i in range(len(comp.members))]


def pattern_sets_equal(s1: PatternSet, s2: PatternSet) -> bool:
    """Structural equality: same members up to order, alpha, and EVar
    renaming (not extensional equality)."""
    return s1.psi == s2.psi and s1.type == s2.type and \
        Counter(map(term_key, s1.members)) == \
        Counter(map(term_key, s2.members))
