"""Weak head reduction, canonical forms, and the canonical/atomic split."""

import random

import pytest

from strictpat import (App, Atomic, Canonical, EVar, Label, Lam,
                       Neither, NonTerminating, TypingError, Var,
                       ZonedContext, canonicalize, check, classify,
                       is_canonical, parse_context, parse_signature,
                       parse_term, parse_type, subst, term_key, whr_step)

from conftest import EXP, LAM_SIG, generate_redexes, ground

SIG = parse_signature("a : type. c : a. d : a ->1 a.")
A = parse_type("a", SIG)


def test_whr_step():
    redex = parse_term(r"(\x^1:a. d @1 x) @1 c", SIG)
    assert whr_step(redex) == parse_term("d @1 c", SIG)
    assert whr_step(parse_term("d @1 c", SIG)) is None
    assert whr_step(parse_term(r"\x^1:a. x", SIG)) is None
    # reduction descends into the function position only
    nested = parse_term(r"((\x^u:a ->1 a. x) @u d) @1 c", SIG)
    assert whr_step(nested) == parse_term("d @1 c", SIG)
    inside_arg = parse_term(r"d @1 ((\x^1:a. x) @1 c)", SIG)
    assert whr_step(inside_arg) is None


def test_whr_step_requires_label_agreement():
    with pytest.raises(TypingError):
        whr_step(parse_term(r"(\x^1:a. x) @u c", SIG))


def test_canonicalize_eta_expands():
    got = canonicalize((), LAM_SIG, parse_term("lam", LAM_SIG),
                       parse_type("(exp ->u exp) ->1 exp", LAM_SIG))
    want = parse_term(r"\x^1:exp ->u exp. lam @1 (\x1^u:exp. x @u x1)",
                      LAM_SIG)
    assert term_key(got) == term_key(want)


def test_canonicalize_beta_reduces():
    m = parse_term(r"app @1 ((\x^u:exp. x) @u (lam @1 (\y^u:exp. y))) @1 z",
                   LAM_SIG)
    got = canonicalize((("z", EXP),), LAM_SIG, m, EXP)
    assert got == parse_term(r"app @1 (lam @1 (\y^u:exp. y)) @1 z", LAM_SIG)


def test_canonicalize_absorbs_evars_at_arrows():
    psi = parse_context("x:exp", LAM_SIG)
    a = parse_type("exp ->1 exp", LAM_SIG)
    got = canonicalize(psi, LAM_SIG, EVar("E", a, (("x", Label.U),)), a)
    assert got == Lam("x1", Label.ONE, EXP,
                      EVar("E", EXP, (("x", Label.U), ("x1", Label.ONE))))


def test_canonicalize_diverging_term_hits_budget():
    omega_half = parse_term(r"\z^u:a. z @u z", SIG)
    omega = App(omega_half, omega_half, Label.U)
    with pytest.raises(NonTerminating):
        canonicalize((), SIG, omega, A, budget=500)


def test_canonicalize_fixes_ground_terms():
    psi = parse_context("x:exp", LAM_SIG)
    for m in ground(LAM_SIG, psi, EXP, 6):
        assert canonicalize(psi, LAM_SIG, m, EXP) == m


def test_canonicalize_idempotent_on_redexes():
    rng = random.Random(7)
    psi = (("x", EXP),)
    for ctx, redex, a in generate_redexes(rng, 60):
        once = canonicalize(psi, LAM_SIG, redex, a)
        assert canonicalize(psi, LAM_SIG, once, a) == once
        assert is_canonical(ctx, LAM_SIG, once, a)


def test_canonicalize_agrees_with_substitution():
    redex = parse_term(r"(\z^1:exp. app @1 z @1 z) @1 (lam @1 (\y^u:exp. y))",
                       LAM_SIG)
    got = canonicalize((), LAM_SIG, redex, EXP)
    assert got == subst(redex.arg, "z", redex.fun.body)


def test_classify():
    ctx = ZonedContext(gamma=(("x", EXP),))
    spine = parse_term("app @1 x @1 x", LAM_SIG)
    assert classify(ctx, LAM_SIG, spine) == Atomic(EXP)
    assert is_canonical(ctx, LAM_SIG, spine, EXP)
    lam = parse_term(r"\y^u:exp. y", LAM_SIG)
    assert classify(ctx, LAM_SIG, lam) == \
        Canonical(parse_type("exp ->u exp", LAM_SIG))
    # a bare head of arrow type is atomic but not canonical at that type
    assert classify(ctx, LAM_SIG, parse_term("lam", LAM_SIG)) == \
        Atomic(parse_type("(exp ->u exp) ->1 exp", LAM_SIG))
    assert not is_canonical(ctx, LAM_SIG, parse_term("lam", LAM_SIG),
                            parse_type("(exp ->u exp) ->1 exp", LAM_SIG))


def test_is_canonical_at_an_arrow_type():
    # an abstraction is canonical at its own arrow type only; a head of
    # arrow type standing alone is eta-short there
    ctx = ZonedContext(gamma=(("f", parse_type("exp ->u exp", LAM_SIG)),))
    fun = parse_type("exp ->u exp", LAM_SIG)
    identity = parse_term(r"\x^u:exp. x", LAM_SIG)
    assert is_canonical(ctx, LAM_SIG, identity, fun)
    assert not is_canonical(ctx, LAM_SIG, identity, EXP)
    assert not is_canonical(ctx, LAM_SIG, parse_term("f", LAM_SIG), fun)
    assert is_canonical(ctx, LAM_SIG, parse_term(r"\x^u:exp. f @u x",
                                                 LAM_SIG), fun)


def test_classify_rejects_non_normal_terms():
    ctx = ZonedContext(gamma=(("x", EXP),))
    redex = parse_term(r"(\y^u:exp. y) @u x", LAM_SIG)
    assert classify(ctx, LAM_SIG, redex) == Neither()
    eta_short_arg = parse_term("lam @1 x", LAM_SIG)  # exp where exp ->u exp is due
    assert classify(ZonedContext(gamma=(("x", EXP),)), LAM_SIG,
                    eta_short_arg) == Neither()
    ill_typed = parse_term("app @1 lam @1 x", LAM_SIG)
    assert classify(ctx, LAM_SIG, ill_typed) == Neither()
    unused_strict = Lam("y", Label.ONE, EXP, Var("x"))
    assert classify(ctx, LAM_SIG, unused_strict) == Neither()


def test_subject_reduction_spot():
    rng = random.Random(11)
    for ctx, redex, a in generate_redexes(rng, 40):
        assert check(ctx, LAM_SIG, redex, a)
        reduct = subst(redex.arg, redex.fun.var, redex.fun.body)
        assert check(ctx, LAM_SIG, reduct, a)
