"""Printed pattern-set members parse back to the very terms printed."""

from strictpat import (Clause, Lam, binder_name, clause_complement,
                       complement, intersect, make_exclusive,
                       make_pattern_set, parse_program, parse_term,
                       print_term, relative_complement, term_key,
                       validate_pattern)
from strictpat.syntax import spine

from conftest import complement_corpus


def canonical_binders(sig, psi, t):
    """Is every binder of t named by ``binder_name`` for its scope?"""
    def go(t, scope):
        if isinstance(t, Lam):
            return t.var == binder_name(sig, scope) and \
                go(t.body, scope | {t.var})
        _, args = spine(t)
        return all(go(arg, scope) for arg, _ in args)
    return go(t, {x for x, _ in psi})


def printed_outputs():
    """(op, sig, psi, a, member, printed line) for every member that ``not``,
    ``not --exclusive``, ``meet``, ``diff`` and ``negate`` print for the
    corpus: each pattern alone, and each ordered pair over one space."""
    groups = {}
    for e in complement_corpus():
        groups.setdefault((id(e.sig), e.ctx, e.type), []).append(e)
    for group in groups.values():
        sig, psi, a = group[0].sig, group[0].psi, group[0].a
        ps = [e.pattern for e in group]
        sets = []
        for p in ps:
            sets += [("not", complement(sig, p)),
                     ("not --exclusive", make_exclusive(sig, p))]
        for p1 in ps:
            for p2 in ps:
                s1 = make_pattern_set(psi, a, [p1.term])
                s2 = make_pattern_set(psi, a, [p2.term])
                sets += [("meet", intersect(sig, p1, p2)),
                         ("diff", relative_complement(sig, s1, s2))]
        for op, s in sets:
            for t in s.members:
                yield op, sig, psi, a, t, print_term(t)
        for p1, p2 in zip(ps, ps[1:]):
            clauses = [Clause("one", "p", p1), Clause("two", "p", p2)]
            for c in clause_complement(sig, clauses):
                t = c.pattern.term
                yield ("negate", sig, psi, a, t,
                       f"{c.name} : {c.pred} {print_term(t)}.")


def test_printed_members_reparse_to_the_same_term():
    ops = set()
    for op, sig, psi, a, t, line in printed_outputs():
        ops.add(op)
        if op == "negate":
            [(_, _, parsed)] = parse_program(line, sig)
        else:
            parsed = parse_term(line, sig)
        again = validate_pattern(psi, sig, parsed, a).term
        assert again == t, (op, line)
        assert term_key(again) == term_key(t)
        assert canonical_binders(sig, psi, t), (op, line)
    assert ops == {"not", "not --exclusive", "meet", "diff", "negate"}
