"""The bundled example suite that ``strictpat selftest`` runs.

``GOLDENS`` is the golden table of the paper's complement, intersection,
exclusive-cover and program-negation examples (Momigliano & Pfenning,
TOCL 2003), one row each; six self-checks follow it.  The CLI imports this
module only when ``selftest`` runs, so no other command compiles it.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import (Atom, ZonedContext, parse_context, parse_program,
                     parse_signature, parse_term, parse_type, print_term,
                     print_type)
from .typecheck import check, strict_splits
from .patterns import (PatternError, SimpleLinearPattern, embed_term,
                       embed_type, fully_apply)
from .complement import complement, make_exclusive
from .intersect import intersect
from .algebra import (Clause, clause_complement, enumerate_ground,
                      first_difference, make_pattern_set, member_set,
                      parse_pattern_set, pattern_sets_equal)

_LAM_SIG = """
exp : type.
lam : (exp ->u exp) ->1 exp.
app : exp ->1 exp ->1 exp.
"""

_PLAIN_LAM_SIG = """
exp : type.
lam : (exp -> exp) -> exp.
app : exp -> exp -> exp.
"""

_A_SIG = "a : type."
_BETA_REDEX = r"app @1 (lam @1 (\x^u:exp. E[x^u])) @1 F[]"
_ETA_REDEX = r"lam @1 (\x^u:exp. app @1 E'[x^0] @1 x)"


def _sorted_members(s):
    return sorted(print_term(t) for t in s.members)


def _pattern(psi, sig, text, a) -> SimpleLinearPattern:
    return fully_apply(psi, sig, parse_term(text, sig), a)


class Golden(NamedTuple):
    """A golden example: ``op`` applied to ``inputs`` over the signature
    text ``sig``, the context ``ctx`` and the type ``type`` gives exactly
    the members ``expected``, up to renaming.  ``op`` is ``not``, ``meet``
    (two patterns), ``exclusive`` (``not --exclusive``) or ``negate``
    (inputs are program clauses, answered by clauses n1..nk)."""
    name: str
    sig: str
    ctx: str
    type: str
    op: str
    inputs: tuple
    expected: tuple


# The golden examples; ``selftest`` and the acceptance suite both run them.
GOLDENS = (
    Golden("complement of E[x^0, y^1]", _A_SIG, "x:a, y:a", "a", "not",
           ("E[x^0, y^1]",), ("F[x^1, y^u]", "G[x^u, y^0]")),
    Golden("complement of E[x^u, y^1]", _A_SIG, "x:a, y:a", "a", "not",
           ("E[x^u, y^1]",), ("F[x^u, y^0]",)),
    Golden("complement of a beta-redex pattern", _LAM_SIG, "", "exp", "not",
           (_BETA_REDEX,), (
               r"lam @1 (\x^u:exp. Z[x^u])",
               r"app @1 (app @1 Z1[] @1 Z2[]) @1 Z3[]")),
    Golden("complement of an eta-redex pattern", _LAM_SIG, "", "exp", "not",
           (_ETA_REDEX,), (
               r"lam @1 (\x^u:exp. app @1 Z[x^1] @1 Z'[x^u])",
               r"lam @1 (\x^u:exp. app @1 Z[x^u] @1 (app @1 Z'[x^u] @1 Z''[x^u]))",
               r"lam @1 (\x^u:exp. app @1 Z[x^u] @1 (lam @1 (\y^u:exp. Z'[x^u, y^u])))",
               r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. Z[x^u, y^u]))",
               r"lam @1 (\x^u:exp. x)",
               r"app @1 Z[] @1 Z'[]")),
    Golden("intersection distributes a strict variable",
           "a : type. c : a ->1 a ->1 a.", "x:a", "a", "meet",
           ("E[x^1]", "c @1 F[x^u] @1 F'[x^u]"),
           ("c @1 H[x^1] @1 H'[x^u]", "c @1 H[x^u] @1 H'[x^1]")),
    Golden("intersection at an irrelevant parameter head is empty", _A_SIG,
           "y : a ->1 a ->1 a", "a", "meet",
           ("E[y^0]", "y @1 F[y^1] @1 F'[y^u]"), ()),
    Golden("intersection at a strict parameter head", _A_SIG,
           "y : a ->1 a ->1 a", "a", "meet",
           ("E[y^1]", "y @1 F[y^1] @1 F'[y^0]"), ("y @1 H[y^1] @1 H'[y^0]",)),
    Golden("two-clause program negates to six clauses", _LAM_SIG, "", "exp",
           "negate", (f"betardx : isredx {_BETA_REDEX}.",
                      f"etardx : isredx {_ETA_REDEX}."), (
               r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. Z[x^u, y^u]))",
               r"lam @1 (\x^u:exp. x)",
               r"lam @1 (\x^u:exp. app @1 Z[x^1] @1 Z'[x^u])",
               r"lam @1 (\x^u:exp. app @1 Z[x^u] @1 (lam @1 (\y^u:exp. Z'[x^u, y^u])))",
               r"lam @1 (\x^u:exp. app @1 Z[x^u] @1 (app @1 Z'[x^u] @1 Z''[x^u]))",
               r"app @1 (app @1 Z1[] @1 Z2[]) @1 Z3[]")),
    Golden("exclusive complement of E[x^0, y^1]", _A_SIG, "x:a, y:a",
           "a", "exclusive", ("E[x^0, y^1]",), ("F[x^1, y^u]", "G[x^0, y^0]")),
)


def golden_failure(g: Golden) -> str | None:
    """Why the golden example g does not hold, or None when it does."""
    sig = parse_signature(g.sig)
    psi = parse_context(g.ctx, sig)
    a = parse_type(g.type, sig)
    if g.op == "negate":
        clauses = [Clause(n, p, fully_apply(psi, sig, t, a))
                   for n, p, t in parse_program("\n".join(g.inputs), sig)]
        neg = clause_complement(sig, clauses)
        heads = [(c.name, c.pred) for c in neg]
        if heads != [(f"n{i}", "non_" + clauses[0].pred)
                     for i in range(1, len(g.expected) + 1)]:
            return f"clauses {heads}"
        got = make_pattern_set(psi, a, [c.pattern.term for c in neg])
    else:
        ps = [_pattern(psi, sig, t, a) for t in g.inputs]
        op = {"meet": intersect, "not": complement, "exclusive": make_exclusive}
        got = op[g.op](sig, *ps)
    want = parse_pattern_set(psi, sig, a, g.expected)
    if pattern_sets_equal(got, want):
        return None
    return "got " + "; ".join(_sorted_members(got))


def _selftest_cases():
    A, EXP = Atom("a"), Atom("exp")
    sig = parse_signature(_LAM_SIG)
    cases = [(g.name, lambda g=g: golden_failure(g) is None) for g in GOLDENS]

    def contraction():
        sig2 = parse_signature("a : type. b : type.")
        ctx = ZonedContext(delta=(("x", parse_type("a ->1 a ->1 b", sig2)),
                                  ("y", Atom("a"))))
        m = parse_term("x @1 y @1 y", sig2)
        check(ctx, sig2, m, Atom("b"))
        outcomes = [ok for _, _, ok in strict_splits(ctx, sig2, m, Atom("b"))]
        return outcomes == [True, True, False, False]
    cases.append(("contraction uses exactly two strict splits", contraction))

    def membership_oracle():
        sig_u = parse_signature("a : type. b : a. c : a ->u a.")
        psi = parse_context("x:a", sig_u)
        s = parse_pattern_set(psi, sig_u, A, ["E[x^0]"])
        en = [print_term(t) for t in enumerate_ground(psi, sig_u, A, 2)]
        return en == ["b", "x", "c @u b", "c @u x"] and \
            member_set(sig_u, parse_term("b", sig_u), s) and \
            not member_set(sig_u, parse_term("x", sig_u), s)
    cases.append(("ground enumeration and membership", membership_oracle))

    def bounded_equality():
        sig_s = parse_signature("a : type. b : a. c : a ->1 a ->1 a.")
        psi = parse_context("x:a", sig_s)

        def pset(*texts):
            return parse_pattern_set(psi, sig_s, A, texts)
        equal = first_difference(sig_s, pset("E[x^u]"),
                                 pset("E[x^1]", "E[x^0]"), 5)
        diff = first_difference(sig_s, pset("E[x^1]"),
                                pset("x", "c @1 E[x^1] @1 F[x^u]"), 5)
        return equal is None and diff is not None and \
            (print_term(diff[0]), diff[1]) == ("c @1 b @1 x", True)
    cases.append(("bounded equality and its first counterexample",
                  bounded_equality))

    def rejection():
        sig_u = parse_signature("a : type. b : a. c : a ->u a.")
        psi = parse_context("x:a", sig_u)
        try:
            complement(sig_u, _pattern(psi, sig_u, "E[x^0]", A))
        except PatternError:
            return True
        return False
    cases.append(("complement rejects a non-embedded signature", rejection))

    def embedding():
        ty = embed_type(parse_type("(exp -> exp) -> exp", labeled=False), "+")
        if print_type(ty) != "(exp ->u exp) ->1 exp":
            return False
        plain = parse_signature(_PLAIN_LAM_SIG, labeled=False)
        k = parse_term(r"lam (\x:exp. lam (\y:exp. x))", plain, labeled=False)
        got = embed_term(k, (), plain)
        want = parse_term(r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. x))", sig)
        return got == want
    cases.append(("embedding of types and terms", embedding))

    def complement_is_exhaustive():
        psi = parse_context("x:exp", sig)
        p = _pattern(psi, sig, r"lam @1 (\y^u:exp. E[x^1, y^u])", EXP)
        s = make_pattern_set(psi, EXP, [p.term])
        c = complement(sig, p)
        for m in enumerate_ground(psi, sig, EXP, 5):
            if member_set(sig, m, s) == member_set(sig, m, c):
                return False
        return True
    cases.append(("complement splits ground terms exactly", complement_is_exhaustive))

    return cases


def run_selftest(out) -> int:
    """Run every case, appending one ``ok``/``FAIL`` line each and a
    count to out; 0 when all pass, else 1."""
    failed, cases = 0, _selftest_cases()
    for name, run in cases:
        try:
            ok = run()
        except Exception as e:  # a crash is a failure, keep testing
            ok = False
            out.append(f"FAIL {name} ({type(e).__name__}: {e})")
        else:
            out.append(("ok   " if ok else "FAIL ") + name)
        if not ok:
            failed += 1
    out.append(f"{len(cases) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1
