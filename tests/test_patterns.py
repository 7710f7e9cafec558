"""Embedding, simple linear patterns, full application, ground matching."""

import itertools
import random

import pytest

from strictpat import (App, Atom, Const, EVar, Label, Lam, NotCanonical,
                       NotLinear, NotSimple, PreconditionViolated,
                       SimpleLinearPattern, Var,
                       ZonedContext, check, complement, embed_context,
                       embed_signature, embed_term, embed_type,
                       embedding_violations, equal_mod_evar_renaming,
                       free_vars, fresh_name, fully_apply, instance_of,
                       intersect, make_exclusive, match_ground,
                       parse_context,
                       parse_signature, parse_term, parse_type, print_term,
                       print_type, spine, universal_pattern,
                       validate_pattern)

from strictpat.patterns import _admits
from strictpat.syntax import rename_free_var
from strictpat.typecheck import TypingError, occurrences

from conftest import (A, A_SIG, AB_SIG, EXP, LABELS, LAM_SIG, PLAIN_LAM_SIG,
                      STRICT_SIG, CorpusEntry, complement_corpus, ground,
                      ground_for, pat, strip_labels)
from test_algebra import YX_A, containment_groups, strict_head


def plain(text, sig=None):
    return parse_type(text, sig, labeled=False)


def test_embed_type_golden():
    got = embed_type(plain("(exp -> exp) -> exp"))
    assert print_type(got) == "(exp ->u exp) ->1 exp"
    assert embed_type(plain("exp")) == EXP
    # positive embedding flips polarity at each domain
    got2 = embed_type(plain("((exp -> exp) -> exp) -> exp"))
    assert print_type(got2) == "((exp ->1 exp) ->u exp) ->1 exp"
    assert print_type(embed_type(plain("(exp -> exp) -> exp"), "-")) == \
        "(exp ->1 exp) ->u exp"


def test_embed_type_rejects_labeled_input():
    with pytest.raises(ValueError):
        embed_type(parse_type("exp ->1 exp", LAM_SIG))


def test_embed_signature_and_context():
    got = embed_signature(PLAIN_LAM_SIG)
    assert got == LAM_SIG
    psi = parse_context("x:exp, f:exp -> exp", PLAIN_LAM_SIG, labeled=False)
    assert embed_context(psi) == \
        (("x", EXP), ("f", parse_type("exp ->1 exp", LAM_SIG)))


def test_embed_term_golden():
    k = parse_term(r"lam (\x:exp. lam (\y:exp. x))", PLAIN_LAM_SIG,
                   labeled=False)
    got = embed_term(k, (), PLAIN_LAM_SIG)
    assert got == parse_term(r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. x))",
                             LAM_SIG)
    psi = parse_context("x:exp", PLAIN_LAM_SIG, labeled=False)
    open_term = parse_term("app x x", PLAIN_LAM_SIG, labeled=False)
    assert embed_term(open_term, psi, PLAIN_LAM_SIG) == \
        parse_term("app @1 x @1 x", LAM_SIG)


def test_embed_term_requires_canonical_input():
    psi = parse_context("x:exp", PLAIN_LAM_SIG, labeled=False)
    with pytest.raises(NotCanonical):
        embed_term(parse_term(r"(\y:exp. y) x", PLAIN_LAM_SIG, labeled=False),
                   psi, PLAIN_LAM_SIG)
    with pytest.raises(NotCanonical):
        # eta-short: lam's argument must be an abstraction
        embed_term(parse_term("lam x", PLAIN_LAM_SIG, labeled=False),
                   psi, PLAIN_LAM_SIG,
                   plain("exp", PLAIN_LAM_SIG))


def test_embedded_terms_typecheck():
    corpus = [
        ("", "exp", r"lam (\x:exp. x)"),
        ("", "exp", r"lam (\x:exp. lam (\y:exp. app y x))"),
        ("x:exp", "exp", "app x x"),
        ("x:exp, f:exp -> exp", "exp", r"app (f x) (lam (\y:exp. f y))"),
        ("", "(exp -> exp) -> exp", r"\f:exp -> exp. f (lam (\y:exp. f y))"),
    ]
    for ctx_text, ty_text, term_text in corpus:
        psi = parse_context(ctx_text, PLAIN_LAM_SIG, labeled=False)
        a = plain(ty_text, PLAIN_LAM_SIG)
        m = parse_term(term_text, PLAIN_LAM_SIG, labeled=False)
        got = embed_term(m, psi, PLAIN_LAM_SIG, a)
        # canonical terms land at the negative type, under a positive context
        report = check(ZonedContext(gamma=embed_context(psi)), LAM_SIG, got,
                       embed_type(a, "-"))
        assert report.inferred_type == embed_type(a, "-")


def test_embedding_is_inverse_of_label_erasure():
    psi_plain = parse_context("x:exp", PLAIN_LAM_SIG, labeled=False)
    for m in ground(LAM_SIG, (("x", EXP),), EXP, 6):
        assert embed_term(strip_labels(m), psi_plain, PLAIN_LAM_SIG, EXP) == m


def test_embedding_violations():
    assert embedding_violations(LAM_SIG, ()) == []
    assert embedding_violations(STRICT_SIG, ()) == []
    bad = embedding_violations(AB_SIG, ())
    assert [name for name, _ in bad] == ["c"]
    psi = parse_context("f:exp ->0 exp", LAM_SIG)
    assert [name for name, _ in embedding_violations(LAM_SIG, psi)] == ["f"]


def test_validate_pattern_accepts_and_elaborates():
    psi = parse_context("x:a, y:a", AB_SIG)
    p = validate_pattern(psi, AB_SIG, parse_term("E[x^0, y^1]", AB_SIG), A)
    assert p.term == EVar("E", A, (("x", Label.ZERO), ("y", Label.ONE)))
    under = pat(LAM_SIG, "", "exp", r"lam @1 (\x^u:exp. E[x^1])")
    assert under.term.arg.body == EVar("E", EXP, (("x", Label.ONE),))


def holes_at(sig, env, t, a):
    """Each EVar of the canonical term t at type a, with the type of the
    position it sits at, read off the binders and the heads' types."""
    if isinstance(t, EVar):
        yield t, a
    elif isinstance(t, Lam):
        yield from holes_at(sig, {**env, t.var: t.domty}, t.body, a.cod)
    else:
        head, args = spine(t)
        hty = env[head.name] if isinstance(head, Var) else \
            sig.const_type(head.name)
        for arg, _ in args:
            yield from holes_at(sig, env, arg, hty.dom)
            hty = hty.cod


def test_every_validated_hole_carries_its_base_type():
    entries = complement_corpus()
    patterns = [e.pattern for e in entries]
    for e, p in zip(entries, patterns):
        space = [q for f, q in zip(entries, patterns)
                 if (f.sig, f.ctx, f.type) == (e.sig, e.ctx, e.type)]
        sets = [complement(e.sig, p), make_exclusive(e.sig, p)] + \
            [intersect(e.sig, p, q) for q in space]
        terms = [p.term] + [t for s in sets for t in s.members]
        for t in terms:
            for hole, a in holes_at(e.sig, dict(p.psi), t, p.type):
                assert isinstance(a, Atom) and hole.type == a, print_term(t)
    psi = parse_context("x:exp", LAM_SIG)
    for ty in ("exp", "exp ->u exp", "(exp ->u exp) ->u exp ->u exp"):
        a = parse_type(ty, LAM_SIG)
        [(hole, base)] = holes_at(LAM_SIG, dict(psi),
                                  universal_pattern(psi, LAM_SIG, a), a)
        assert hole.type == base == EXP


def test_validate_pattern_rejections():
    psi = parse_context("x:a", AB_SIG)

    def bad(err, text, ty="a", sig=AB_SIG, ctx=psi):
        with pytest.raises(err):
            validate_pattern(ctx, sig, parse_term(text, sig),
                             parse_type(ty, sig))

    bad(NotSimple, "E[]")                          # not fully applied
    bad(NotSimple, "c @1 E[x^u]")                  # @1 across a ->u arrow
    bad(NotSimple, "c @u E[x^u]")                  # rigid applications are @1
    bad(NotSimple, r"\y^1:exp. E[y^u]", "exp ->1 exp", LAM_SIG, ())
    bad(NotSimple, r"\x^u:exp. E[x^u]", "exp ->u exp", LAM_SIG,
        parse_context("x:exp", LAM_SIG))           # binder shadows the context
    bad(NotLinear, "app @1 E[] @1 E[]", "exp", LAM_SIG, ())
    bad(NotSimple, "E[y^u, x^u]", "a", AB_SIG,
        parse_context("x:a, y:a", AB_SIG))         # arguments out of order
    bad(NotSimple, "w")                            # unbound head
    bad(NotSimple, "b @1 b")                       # over-applied head


def test_validate_pattern_names_binders_canonically():
    psi = parse_context("x:exp", LAM_SIG)

    def canon(text, ty="exp", ctx=psi):
        p = validate_pattern(ctx, LAM_SIG, parse_term(text, LAM_SIG),
                             parse_type(ty, LAM_SIG))
        # the canonical form validates to itself
        assert validate_pattern(ctx, LAM_SIG, p.term, p.type) == p
        return print_term(p.term)

    assert canon(r"lam @1 (\y^u:exp. lam @1 (\z^u:exp. "
                 r"app @1 z @1 E[x^u, y^0, z^1]))") == \
        r"lam @1 (\x1^u:exp. lam @1 (\x2^u:exp. " \
        r"app @1 x2 @1 E[x^u, x1^0, x2^1]))"
    # an input name may be the canonical name of another binder
    assert canon(r"\x1^u:exp. \y^u:exp. app @1 x1 @1 E[x1^0, y^1]",
                 "exp ->u exp ->u exp", ()) == \
        r"\x^u:exp. \x1^u:exp. app @1 x @1 E[x^0, x1^1]"
    # sibling binders at one depth get one name
    assert canon(r"app @1 (lam @1 (\y^u:exp. E[x^0, y^1])) @1 "
                 r"(lam @1 (\z^u:exp. F[x^1, z^0]))") == \
        r"app @1 (lam @1 (\x1^u:exp. E[x^0, x1^1])) @1 " \
        r"(lam @1 (\x1^u:exp. F[x^1, x1^0]))"
    # a canonical name the input does not bind stays unbound
    for text in (r"lam @1 (\y^u:exp. x1)",
                 r"lam @1 (\y^u:exp. lam @1 (\z^u:exp. x1))"):
        with pytest.raises(NotSimple, match="unbound variable x1"):
            canon(text, "exp", ())
    # binder names also avoid the signature
    sig = parse_signature("a : type. x : a.")
    p = validate_pattern((), sig, parse_term(r"\y^u:a. E[y^1]", sig),
                         parse_type("a ->u a", sig))
    assert print_term(p.term) == r"\x1^u:a. E[x1^1]"
    for ctx, text in ((psi, r"lam @1 (\x^u:exp. E[x^u])"),
                      ((), r"lam @1 (\y^u:exp. lam @1 (\y^u:exp. E[y^u]))")):
        with pytest.raises(NotSimple, match="shadows an enclosing declaration"):
            canon(text, "exp", ctx)


def test_fully_apply_inserts_vacuous_arguments():
    p = pat(LAM_SIG, "", "exp", r"lam @1 (\x^u:exp. app @1 E[] @1 x)")
    body = p.term.arg.body
    e = body.fun.arg
    assert e == EVar("E", EXP, (("x", Label.ZERO),))
    # an already fully applied EVar keeps its name too
    q = pat(LAM_SIG, "x:exp", "exp", "E[x^1]")
    assert q.term == EVar("E", EXP, (("x", Label.ONE),))


def test_fully_apply_keeps_a_hole_named_twice_non_linear():
    psi = parse_context("x:exp", LAM_SIG)
    for text in ("app @1 E[] @1 E[]", "app @1 E[] @1 E[x^0]"):
        with pytest.raises(NotLinear, match="EVar E occurs more than once"):
            fully_apply(psi, LAM_SIG, parse_term(text, LAM_SIG), EXP)


def test_fully_apply_orders_arguments():
    psi = parse_context("x:a, y:a", AB_SIG)
    p = fully_apply(psi, AB_SIG, parse_term("E[y^1]", AB_SIG), A)
    assert p.term.args == (("x", Label.ZERO), ("y", Label.ONE))


def test_fully_apply_preserves_ground_instances():
    # omitting a scope variable means the same as labelling it 0
    explicit = pat(LAM_SIG, "x:exp", "exp", "E[x^0]")
    implicit = pat(LAM_SIG, "x:exp", "exp", "E[]")
    psi = (("x", EXP),)
    for m in ground(LAM_SIG, psi, EXP, 6):
        assert match_ground(psi, LAM_SIG, m, explicit) == \
            match_ground(psi, LAM_SIG, m, implicit)


def test_match_ground():
    psi = parse_context("x:a", AB_SIG)
    vac = pat(AB_SIG, "x:a", "a", "E[x^0]")
    strict = pat(AB_SIG, "x:a", "a", "E[x^1]")
    psi_t = tuple(psi)
    # under this non-embedded signature c @u x uses x without a strict
    # occurrence, so it is an instance of neither E[x^0] nor E[x^1]
    cases = [("b", True, False), ("x", False, True),
             ("c @u b", True, False), ("c @u x", False, False)]
    for text, in_vac, in_strict in cases:
        m = parse_term(text, AB_SIG)
        assert match_ground(psi_t, AB_SIG, m, vac) == in_vac
        assert match_ground(psi_t, AB_SIG, m, strict) == in_strict
    # an unvalidated hole naming x twice puts x in two zones: no instance
    twice = SimpleLinearPattern(
        EVar("E", A, (("x", Label.U), ("x", Label.ONE))), psi_t, A)
    assert not match_ground(psi_t, AB_SIG, parse_term("x", AB_SIG), twice)


def test_match_ground_structural():
    p = pat(LAM_SIG, "", "exp", r"lam @1 (\x^u:exp. app @1 E[x^0] @1 x)")
    yes = parse_term(r"lam @1 (\y^u:exp. app @1 (lam @1 (\w^u:exp. w)) @1 y)",
                     LAM_SIG)
    no = parse_term(r"lam @1 (\y^u:exp. app @1 y @1 y)", LAM_SIG)
    other_head = parse_term(r"app @1 (lam @1 (\y^u:exp. y)) @1 "
                            r"(lam @1 (\y^u:exp. y))", LAM_SIG)
    assert match_ground((), LAM_SIG, yes, p)
    assert not match_ground((), LAM_SIG, no, p)
    assert not match_ground((), LAM_SIG, other_head, p)


def rename_binders(m, pick, depth=0, env=None):
    """An alpha-variant of m: the binder at nesting depth d is named pick(d),
    or a fresh variant of it where that would capture a free variable.
    EVar argument lists follow their binders."""
    env = env or {}
    match m:
        case Var(x):
            return Var(env.get(x, x))
        case EVar(name, ty, args):
            return EVar(name, ty, tuple((env.get(x, x), k) for x, k in args))
        case Lam(x, k, a, body):
            taken = {env.get(v, v) for v in free_vars(body) - {x}}
            y = fresh_name(pick(depth), taken)
            return Lam(y, k, a, rename_binders(body, pick, depth + 1,
                                               {**env, x: y}))
        case App(f, arg, k):
            return App(rename_binders(f, pick, depth, env),
                       rename_binders(arg, pick, depth, env), k)
    return m


def binder_names(t):
    match t:
        case Lam(x, _, _, body):
            return [x] + binder_names(body)
        case App(f, arg, _):
            return binder_names(f) + binder_names(arg)
    return []


# a pattern with both a context variable and a binder
OPEN_LAM = CorpusEntry("open-lam", LAM_SIG, "x:exp", "exp",
                       r"lam @1 (\y^u:exp. E[x^u, y^1])")


def test_match_ground_ignores_binder_names():
    # the corpus patterns and their complements (which nest binders), plus
    # OPEN_LAM
    for entry in complement_corpus() + [OPEN_LAM]:
        psi = tuple(entry.psi)
        top = entry.pattern
        patterns = [top] + complement(entry.sig, top).patterns()
        for p in patterns:
            for m in ground_for(entry, 6):
                want = match_ground(psi, entry.sig, m, p)
                for pick in binder_picks(psi, p.term):
                    m2 = rename_binders(m, pick)
                    assert match_ground(psi, entry.sig, m2, p) == want, \
                        (entry.name, print_term(p.term), print_term(m2))
    # the fresh name must avoid the ground body too: here it is x1
    p = pat(LAM_SIG, "", "exp",
            r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. E[x^0, y^1]))")
    for body, want in (("app @1 y @1 x1", False), ("app @1 x1 @1 x1", True)):
        m = parse_term(rf"lam @1 (\y^u:exp. lam @1 (\x1^u:exp. {body}))",
                       LAM_SIG)
        assert match_ground((), LAM_SIG, m, p) is want


def test_match_ground_on_terms_sharing_a_subterm():
    # one subterm object under two binders named the other way round: the
    # answer follows the binder the subterm names, not the object
    p = pat(LAM_SIG, "", "exp",
            r"lam @1 (\y^u:exp. lam @1 (\z^u:exp. E[y^1, z^0]))")
    shared = Var("v")

    def nest(outer, inner):
        def lam(x, body):
            return App(Const("lam"), Lam(x, Label.U, EXP, body), Label.ONE)
        return lam(outer, lam(inner, shared))

    terms = [nest("v", "w"), nest("w", "v")]
    assert [match_ground((), LAM_SIG, m, p) for m in terms] == [True, False]


def test_match_ground_on_terms_it_must_rename():
    # each term's binders differ from the pattern's, so each match renames
    # both holes anew, into the same names and summaries each time; a cache
    # of hole checks that let a renamed hole die would hand its id, and its
    # answer, to a later one (F's answer is False, E's True)
    p = pat(LAM_SIG, "", "exp", r"app @1 (lam @1 (\x^u:exp. E[x^1])) @1 "
                                r"(lam @1 (\x^u:exp. F[x^0]))")

    def lam(x):
        return App(Const("lam"), Lam(x, Label.U, EXP, Var(x)), Label.ONE)

    assert not any(match_ground((), LAM_SIG,
                                App(App(Const("app"), lam(f"y{i}"), Label.ONE),
                                    lam(f"y{i}"), Label.ONE), p)
                   for i in range(2000))


def test_match_ground_renames_a_shadowing_binder_and_checks_psi():
    psi = (("x", EXP),)
    uses_binder = pat(LAM_SIG, "x:exp", "exp",
                      r"lam @1 (\y^u:exp. E[x^0, y^1])")
    uses_ctx = pat(LAM_SIG, "x:exp", "exp",
                   r"lam @1 (\y^u:exp. F[x^1, y^0])")
    # the ground binder x shadows the context variable x
    shadowing = parse_term(r"lam @1 (\x^u:exp. x)", LAM_SIG)
    plain_binder = parse_term(r"lam @1 (\y^u:exp. x)", LAM_SIG)
    for p, want in ((uses_binder, [True, False]), (uses_ctx, [False, True])):
        assert [match_ground(psi, LAM_SIG, m, p)
                for m in (shadowing, plain_binder)] == want
    with pytest.raises(ValueError):
        match_ground((("z", EXP),), LAM_SIG, shadowing, uses_binder)
    with pytest.raises(ValueError):
        match_ground((), LAM_SIG, shadowing, uses_binder)


def test_equal_mod_evar_renaming():
    t = parse_term("app @1 E[] @1 F[]", LAM_SIG)
    s = parse_term("app @1 G[] @1 H[]", LAM_SIG)
    assert equal_mod_evar_renaming(t, s)
    # the renaming must be a bijection
    collapsed = parse_term("app @1 G[] @1 G[]", LAM_SIG)
    assert not equal_mod_evar_renaming(t, collapsed)
    assert not equal_mod_evar_renaming(collapsed, t)
    # binder names are ignored, labels are not
    assert equal_mod_evar_renaming(
        parse_term(r"lam @1 (\x^u:exp. E[x^1])", LAM_SIG),
        parse_term(r"lam @1 (\y^u:exp. F[y^1])", LAM_SIG))
    assert not equal_mod_evar_renaming(
        parse_term(r"lam @1 (\x^u:exp. E[x^1])", LAM_SIG),
        parse_term(r"lam @1 (\y^u:exp. F[y^u])", LAM_SIG))
    # a bound variable never equals a free one of the same name, in a spine
    # or in an EVar's argument list
    assert not equal_mod_evar_renaming(
        parse_term(r"lam @1 (\x^u:exp. x)", LAM_SIG),
        parse_term(r"lam @1 (\y^u:exp. x)", LAM_SIG))
    assert not equal_mod_evar_renaming(
        parse_term(r"lam @1 (\x^u:exp. E[x^1])", LAM_SIG),
        parse_term(r"lam @1 (\y^u:exp. E[x^1])", LAM_SIG))
    # a shadowed binder keeps its own depth
    inner = r"lam @1 (\x^u:exp. lam @1 (\x^u:exp. lam @1 (\z^u:exp. {})))"
    assert not equal_mod_evar_renaming(parse_term(inner.format("x"), LAM_SIG),
                                       parse_term(inner.format("z"), LAM_SIG))
    # EVar types are ignored: the elaborated pattern equals the parsed term
    elaborated = pat(LAM_SIG, "", "exp", "app @1 E[] @1 F[]").term
    assert elaborated.arg.type == EXP and t.arg.type is None
    assert equal_mod_evar_renaming(elaborated, s)


def test_instance_of_is_sound_and_reflexive_on_the_corpus():
    # every ordered pair of corpus patterns over one space: when instance_of
    # holds, each ground instance of the first matches the second
    entries = complement_corpus()
    held = set()
    for e in entries:
        p = e.pattern
        assert instance_of(e.sig, p, p), e.name
        terms = [m for m in ground_for(e, 7)
                 if match_ground(e.psi, e.sig, m, p)]
        for f in entries:
            if (f.sig, f.ctx, f.type) != (e.sig, e.ctx, e.type) or f is e:
                continue
            q = f.pattern
            if instance_of(e.sig, p, q):
                held.add((e.name, f.name))
                assert all(match_ground(e.psi, e.sig, m, q) for m in terms), \
                    (e.name, f.name)
    assert {("lam-strict", "lam-any"), ("identity", "lam-strict"),
            ("lam-const", "lam-any"), ("pair-ground", "pair-any"),
            ("flex-1-1", "flex-u-1"), ("flex-u-1", "flex-u-u"),
            ("flex-0-0", "flex-u-u")} <= held
    assert ("lam-any", "lam-strict") not in held
    assert ("identity", "lam-const") not in held
    # incomplete: over x:a alone E[x^1] and x have the one instance x, but a
    # hole never fits a rigid node
    strict, var = pat(A_SIG, "x:a", "a", "E[x^1]"), pat(A_SIG, "x:a", "a", "x")
    assert instance_of(A_SIG, var, strict)
    assert not instance_of(A_SIG, strict, var)


def binder_picks(psi, t):
    """The binder renamings of test_match_ground_ignores_binder_names: onto
    the first context name, onto t's own binder names innermost first, and
    onto one name."""
    ctx_name = psi[0][0] if psi else "x"
    names = binder_names(t)[::-1] or ["x"]
    return (lambda d: ctx_name, lambda d: names[d % len(names)],
            lambda d: "z")


def test_instance_of_ignores_binder_names():
    # the corpus pairs of the soundness test, each pattern's binders
    # renamed apart from the other's, into names that shadow the context
    # or the pattern's own binders at other depths
    entries = complement_corpus()
    for e in entries:
        for f in entries:
            if (f.sig, f.ctx, f.type) != (e.sig, e.ctx, e.type):
                continue
            p, q, psi = e.pattern, f.pattern, tuple(e.psi)
            want = instance_of(e.sig, p, q)
            for pick in binder_picks(psi, p.term):
                p2 = SimpleLinearPattern(rename_binders(p.term, pick), psi,
                                         p.type)
                q2 = SimpleLinearPattern(rename_binders(q.term, pick), psi,
                                         q.type)
                for pp, qq in ((p2, q), (p, q2), (p2, q2)):
                    assert instance_of(e.sig, pp, qq) is want, \
                        (e.name, f.name, print_term(pp.term),
                         print_term(qq.term))


def test_instance_of_on_a_ground_term_is_match_ground():
    # a ground term is a pattern without holes: one walk decides both
    for entry in complement_corpus():
        psi, a = tuple(entry.psi), entry.a
        top = entry.pattern
        terms = list(ground_for(entry, 6))
        for p in [top] + complement(entry.sig, top).patterns():
            for m in terms:
                assert instance_of(entry.sig, SimpleLinearPattern(m, psi, a),
                                   p) == match_ground(psi, entry.sig, m, p), \
                    (entry.name, print_term(p.term), print_term(m))


def test_instance_of_hole_against_hole_is_the_pointwise_label_order():
    # psi below phi iff at each position the labels agree or phi's is u
    for k1 in LABELS:
        for k2 in LABELS:
            for j1 in LABELS:
                for j2 in LABELS:
                    p = pat(A_SIG, "x:a, y:a", "a", f"E[x^{k1}, y^{k2}]")
                    q = pat(A_SIG, "x:a, y:a", "a", f"F[x^{j1}, y^{j2}]")
                    want = all(k is j or j is Label.U
                               for k, j in ((k1, j1), (k2, j2)))
                    assert instance_of(A_SIG, p, q) is want, (p, q)


def test_instance_of_rejects_patterns_over_different_spaces():
    with pytest.raises(PreconditionViolated):
        instance_of(A_SIG, pat(A_SIG, "x:a", "a", "E[x^1]"),
                    pat(A_SIG, "x:a, y:a", "a", "E[x^1, y^u]"))


def typed_instance(sig, env, t, u):
    """The typed hole rule that ``_instance`` replaced, as a reference: at
    a hole the subterm's strict and used sets come from ``occurrences``
    over env, the types of the names in scope (an ill-typed subterm fits
    no hole), and its free set from ``free_vars``, decided by ``_admits``.
    Binders are renamed as ``_instance`` renames them."""
    if isinstance(u, EVar):
        try:
            _, strict, used = occurrences(env, sig, t, allow_evars=True)
        except TypingError:
            return False
        return _admits(u.args, strict, used, free_vars(t))
    if isinstance(u, App):
        return isinstance(t, App) and \
            typed_instance(sig, env, t.fun, u.fun) and \
            typed_instance(sig, env, t.arg, u.arg)
    if isinstance(u, Lam):
        if not isinstance(t, Lam):
            return False
        x, tb, ub = u.var, t.body, u.body
        if t.var != x:
            x = fresh_name(x, free_vars(tb) | free_vars(ub))
            tb = rename_free_var(tb, t.var, x)
            ub = rename_free_var(ub, u.var, x)
        return typed_instance(sig, {**env, x: u.domty}, tb, ub)
    return t == u


def test_instance_walk_renames_apart_the_binders_a_rename_meets():
    # the validated pattern binds x and the term y, so both bodies are
    # renamed to x1, free in neither; the term's inner binder x1 would
    # catch that rename of y and is renamed apart
    p = pat(LAM_SIG, "", "exp", r"lam @1 (\y^u:exp. E[y^1])")
    assert p.term.arg.var == "x"
    m = parse_term(r"lam @1 (\y^u:exp. lam @1 (\x1^u:exp. y))", LAM_SIG)
    assert match_ground((), LAM_SIG, m, p) is True
    assert typed_instance(LAM_SIG, {}, m, p.term) is True


# Every application in a positively embedded signature is @1, so hole
# patterns over constants applied @u and @0 test how the walk counts an
# argument's names by its label.
LABELLED_SIG = parse_signature("a : type. b : a. c : a ->u a. "
                               "d : a ->0 a ->1 a.")


def labelled_hole_patterns():
    return [pat(LABELLED_SIG, "x:a, y:a", "a", f"E[x^{k1}, y^{k2}]")
            for k1 in LABELS for k2 in LABELS]


def test_instance_walk_is_the_typed_rule_on_ground_terms():
    # match_ground against the reference on the corpus patterns and their
    # complements, and on OPEN_LAM, over well-typed ground terms to depth 6
    # and their binder-renamed copies; and on hole patterns over @u and @0
    # applications
    cases = []
    for entry in complement_corpus() + [OPEN_LAM]:
        top = entry.pattern
        cases.append((entry.sig, [top] + complement(entry.sig, top).patterns(),
                      ground_for(entry, 6)))
    cases.append((LABELLED_SIG, labelled_hole_patterns(),
                  ground(LABELLED_SIG, parse_context("x:a, y:a", LABELLED_SIG),
                         A, 6)))
    checked, hits, renamed = 0, 0, 0
    for sig, patterns, terms in cases:
        for p in patterns:
            for m in terms:
                copies = {m} | {rename_binders(m, pick)
                                for pick in binder_picks(p.psi, p.term)}
                for m2 in copies:
                    want = typed_instance(sig, dict(p.psi), m2, p.term)
                    assert match_ground(p.psi, sig, m2, p) is want, \
                        (print_term(p.term), print_term(m2))
                    checked += 1
                    hits += want
                renamed += len(copies) - 1
    assert checked >= 5000 and hits >= 1500 and renamed >= 300


def test_instance_walk_is_the_typed_rule_between_patterns():
    # instance_of against the reference on every ordered pair of members
    # of the seeded lam_app_head, COVERED_MEMBERS and ARROW_SETS groups
    # over lam.sig and of seeded strict_head sets over STRICT_SIG
    groups = [(LAM_SIG, psi, a, terms)
              for psi, a, terms in containment_groups()]
    rng = random.Random(3)
    for _ in range(10):
        heads = [strict_head(rng) for _ in range(3)]
        groups.append((STRICT_SIG, YX_A, A, [
            t for p in heads
            for t in (p.term, *complement(STRICT_SIG, p).members)]))
    pairs, inside = 0, 0
    for sig, psi, a, terms in groups:
        for t, u in itertools.product(terms, repeat=2):
            want = typed_instance(sig, dict(psi), t, u)
            assert instance_of(sig, SimpleLinearPattern(t, psi, a),
                               SimpleLinearPattern(u, psi, a)) is want, \
                (print_term(t), print_term(u))
            pairs += 1
            inside += want
    assert pairs >= 40000 and inside >= 2000
