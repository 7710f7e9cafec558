"""Zoned typing: occurrence analysis vs. the declarative backtracker."""

import pytest
from hypothesis import given, strategies as st

from strictpat import (Arrow, Atom, ErrorKind, Label, TypingError,
                       ZonedContext, check, check_declarative,
                       parse_signature, parse_term, parse_type,
                       strict_splits)

from conftest import (A, ORACLE_SIG, det_outcome, oracle_contexts,
                      oracle_disagreements, raw_terms)

SIG2 = parse_signature("a : type. b : type. c : b.")
B = Atom("b")
FUN = parse_type("a ->1 a ->1 b", SIG2)


def err_kind(ctx, sig, text, ty):
    with pytest.raises(TypingError) as e:
        check(ctx, sig, parse_term(text, sig), parse_type(ty, sig))
    return e.value.kind, e.value.name


def test_contraction_example():
    ctx = ZonedContext(delta=(("x", FUN), ("y", A)))
    m = parse_term("x @1 y @1 y", SIG2)
    report = check(ctx, SIG2, m, B)
    assert report.strict_set == {"x", "y"} and report.inferred_type == B
    assert check_declarative(ctx, SIG2, m, B)
    # of the four ways to split {x, y} between the premises of the strict
    # application, exactly the two keeping y available on some side work
    outcomes = [ok for _, _, ok in strict_splits(ctx, SIG2, m, B)]
    assert outcomes == [True, True, False, False]
    splits = [(sorted(dm), sorted(dn)) for dm, dn, _ in
              strict_splits(ctx, SIG2, m, B)]
    assert splits == [(["x", "y"], []), (["x"], ["y"]),
                      (["y"], ["x"]), ([], ["x", "y"])]


def test_empty_delta_identity():
    assert check_declarative(ZonedContext(), SIG2,
                             parse_term(r"\x^1:a. x", SIG2),
                             parse_type("a ->1 a", SIG2))


def test_error_kinds():
    gamma_fun = ZonedContext(gamma=(("y", parse_type("a ->u b", SIG2)),),
                             delta=(("x", A),))
    assert err_kind(gamma_fun, SIG2, "y @u x", "b") == \
        (ErrorKind.STRICT_VAR_UNUSED, "x")
    omega_fun = ZonedContext(gamma=(("y", parse_type("a ->u b", SIG2)),),
                             omega=(("x", A),))
    assert err_kind(omega_fun, SIG2, "y @u x", "b") == \
        (ErrorKind.IRRELEVANT_VAR_USED, "x")
    assert err_kind(ZonedContext(), SIG2, "w", "a")[0] == \
        ErrorKind.UNKNOWN_IDENT
    assert err_kind(ZonedContext(), SIG2, "c @1 c", "b")[0] == \
        ErrorKind.TYPE_MISMATCH
    assert err_kind(ZonedContext(), SIG2, r"\x^u:a. x", "a ->1 a")[0] == \
        ErrorKind.TYPE_MISMATCH
    fun_ctx = ZonedContext(gamma=(("f", parse_type("a ->1 b", SIG2)),
                                  ("x", A)))
    assert err_kind(fun_ctx, SIG2, "f @u x", "b")[0] == \
        ErrorKind.LABEL_MISMATCH
    twice = ZonedContext(gamma=(("x", A),), delta=(("x", A),))
    assert err_kind(twice, SIG2, "x", "a") == \
        (ErrorKind.ZONE_VIOLATION, "x")
    assert err_kind(ZonedContext(), SIG2, "E[]", "a") == \
        (ErrorKind.HOLE_IN_GROUND_TERM, "E")
    with pytest.raises(TypingError) as e:
        check_declarative(ZonedContext(), SIG2, parse_term("E[]", SIG2), A)
    assert e.value.kind is ErrorKind.HOLE_IN_GROUND_TERM


def test_binder_occurrence_conditions():
    assert err_kind(ZonedContext(), SIG2, r"\x^1:a. c", "a ->1 b") == \
        (ErrorKind.STRICT_VAR_UNUSED, "x")
    fun_ctx = ZonedContext(gamma=(("f", parse_type("a ->u b", SIG2)),))
    assert err_kind(fun_ctx, SIG2, r"\x^0:a. f @u x", "a ->0 b") == \
        (ErrorKind.IRRELEVANT_VAR_USED, "x")
    # under a vacuous application the occurrence does not count as a use
    report = check(fun_ctx, SIG2,
                   parse_term(r"\x^0:a. \g^u:a ->0 b. g @0 x", SIG2),
                   parse_type("a ->0 (a ->0 b) ->u b", SIG2))
    assert "x" not in report.used_set


def test_irrelevance_fails_for_redexes():
    # well-typed with x irrelevant, but the variable must still be in scope
    ctx = ZonedContext(omega=(("x", A),))
    m = parse_term(r"(\y^0:a. c) @0 x", SIG2)
    assert check(ctx, SIG2, m, B).used_set == frozenset()
    assert check_declarative(ctx, SIG2, m, B)
    kind, name = err_kind(ZonedContext(), SIG2, r"(\y^0:a. c) @0 x", "b")
    assert (kind, name) == (ErrorKind.UNKNOWN_IDENT, "x")


def test_shadowing_resolves_to_the_inner_binder():
    ctx = ZonedContext(delta=(("x", A),))
    m = parse_term(r"\x^u:b. x", SIG2)
    # the delta x is shadowed and never strictly used
    with pytest.raises(TypingError) as e:
        check(ctx, SIG2, m, parse_type("b ->u b", SIG2))
    assert e.value.kind is ErrorKind.STRICT_VAR_UNUSED
    assert not check_declarative(ctx, SIG2, m, parse_type("b ->u b", SIG2))
    inner = ZonedContext(gamma=(("x", A),))
    assert check(inner, SIG2, m, parse_type("b ->u b", SIG2))


def test_declarative_renames_a_shadowing_binder_apart():
    # the outer x shadows the context's x and is renamed to x1, which
    # meets the inner binder x1: that one is renamed apart in turn
    m = parse_term(r"\x^u:a. \x1^u:a. x", SIG2)
    a = parse_type("a ->u a ->u a", SIG2)
    for ctx, want in ((ZonedContext(gamma=(("x", A),)), True),
                      (ZonedContext(delta=(("x", A),)), False)):
        try:
            got = bool(check(ctx, SIG2, m, a))
        except TypingError:
            got = False
        assert got is want
        assert check_declarative(ctx, SIG2, m, a) is want


def test_check_atomic_nary():
    # atomic n-ary spines h @1 M1 ... @1 Mn
    sig = parse_signature("a : type. c : a. d : a ->1 a.")
    ctx = ZonedContext(delta=(("y", parse_type("a ->1 a ->1 a", sig)),))
    m = parse_term("y @1 c @1 c", sig)
    # y occurs in neither argument; the head occurrence itself is strict
    assert check(ctx, sig, m, A).strict_set == {"y"}
    assert check_declarative(ctx, sig, m, A)
    dx = ZonedContext(delta=(("x", A),))
    assert check(dx, sig, parse_term("d @1 x", sig), A).inferred_type == A
    with pytest.raises(TypingError) as e:
        check(dx, sig, parse_term("d @u x", sig), A)
    assert e.value.kind is ErrorKind.LABEL_MISMATCH


def test_atomic_nary_agrees_with_declarative():
    sig = parse_signature("a : type. c : a.")
    fun = parse_type("a ->1 a ->1 a", sig)
    args = [parse_term(t, sig) for t in ("c", "x", "y")]
    for zone in ("gamma", "omega", "delta"):
        ctx = ZonedContext(**{zone: (("x", fun), ("y", A))})
        for t1 in args:
            for t2 in args:
                m = parse_term("x @1 u1 @1 u2", sig)
                m = type(m)(type(m.fun)(m.fun.fun, t1, Label.ONE), t2,
                            Label.ONE)
                try:
                    check(ctx, sig, m, A)
                    ok = True
                except TypingError:
                    ok = False
                assert ok == check_declarative(ctx, sig, m, A), (zone, m)


WELL_TYPED = []
for _ctx in oracle_contexts():
    for _m in raw_terms(4):
        _t, _ok = det_outcome(_ctx, ORACLE_SIG, _m)
        if _ok:
            WELL_TYPED.append((_ctx, _m, _t))


@given(st.sampled_from(WELL_TYPED))
def test_weakening(entry):
    ctx, m, t = entry
    wider = ZonedContext(ctx.gamma + (("w", A),), ctx.omega, ctx.delta)
    assert check(wider, ORACLE_SIG, m, t)


@given(st.sampled_from(WELL_TYPED))
def test_loosening(entry):
    ctx, m, t = entry
    for x, c in ctx.delta:
        moved = ZonedContext(ctx.gamma + ((x, c),), ctx.omega,
                             tuple(e for e in ctx.delta if e[0] != x))
        assert check(moved, ORACLE_SIG, m, t)
    for x, c in ctx.omega:
        moved = ZonedContext(ctx.gamma + ((x, c),),
                             tuple(e for e in ctx.omega if e[0] != x),
                             ctx.delta)
        assert check(moved, ORACLE_SIG, m, t)


@given(st.sampled_from(WELL_TYPED))
def test_uniqueness_of_typing(entry):
    ctx, m, t = entry
    all_gamma = ZonedContext(gamma=tuple(ctx.flat().items()))
    t2, ok = det_outcome(all_gamma, ORACLE_SIG, m)
    assert ok and t2 == t


def test_oracle_equivalence_small():
    assert oracle_disagreements(5) == []


def test_exclusivity_small():
    base = ZonedContext(gamma=(("y", Arrow(A, Label.ONE, A)),))
    for c in (A, Arrow(A, Label.ONE, A)):
        with_delta = ZonedContext(base.gamma, (), (("x", c),))
        with_omega = ZonedContext(base.gamma, (("x", c),), ())
        for m in raw_terms(5):
            _, ok_d = det_outcome(with_delta, ORACLE_SIG, m)
            if ok_d:
                _, ok_o = det_outcome(with_omega, ORACLE_SIG, m)
                assert not ok_o, m
