"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them).  Every criterion asserts, so a plain pytest run fails loudly too."""

import random
import time

from strictpat import (ErrorKind, PreconditionViolated, TypingError,
                       ZonedContext, check, complement, embed_context,
                       embed_term, embed_type, evar_names, intersect,
                       is_canonical, make_pattern_set, member_set,
                       parse_context, parse_signature, parse_term, parse_type,
                       print_term, print_type, rename_apart, set_complement,
                       set_intersect, set_union, strict_splits, whr_step)
from strictpat.algebra import extensional_eq, universal_pattern
from strictpat.canonicalize import Neither, canonicalize, classify
from strictpat.selftest import GOLDENS, golden_failure

from conftest import (A, AB_SIG, EXP, LAM_SIG, PLAIN_LAM_SIG,
                      complement_corpus, generate_redexes, ground, ground_for,
                      oracle_disagreements, pat, raw_terms, strip_labels)


def _report(n, label, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {n}: {label}{timing}")
    assert ok, (failures[:5] if failures
                else f"over time budget: {elapsed:.2f}s >= {budget}s")


def _accepts(ctx, sig, m, a):
    try:
        check(ctx, sig, m, a)
        return True
    except TypingError:
        return False


def test_criterion_1_golden_examples():
    t0 = time.perf_counter()
    failures = [(g.name, why) for g in GOLDENS
                if (why := golden_failure(g)) is not None]
    elapsed = time.perf_counter() - t0
    assert {g.op for g in GOLDENS} == {"not", "meet", "negate", "exclusive"}
    # the check is not vacuous: each non-empty row fails without a member
    for g in GOLDENS:
        short = g._replace(expected=g.expected[1:])
        if g.expected and golden_failure(short) is None:
            failures.append((g.name, "still holds with a member dropped"))
    _report(1, "golden complement/intersection/negation examples", failures,
            elapsed, 1.0)


def test_criterion_2_complement_exactness():
    t0 = time.perf_counter()
    failures = []
    entries = complement_corpus()
    assert len(entries) >= 20
    for entry in entries:
        p = entry.pattern
        s = make_pattern_set(p.psi, p.type, [p.term])
        c = complement(entry.sig, p)
        for m in ground_for(entry, 8):
            if member_set(entry.sig, m, s) == member_set(entry.sig, m, c):
                failures.append((entry.name, print_term(m)))
    _report(2, f"complement splits every ground term exactly "
               f"({len(entries)} patterns)", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_3_intersection_pointwise():
    t0 = time.perf_counter()
    failures = []
    entries = complement_corpus()
    groups = {}
    for e in entries:
        groups.setdefault((id(e.sig), e.ctx, e.type), []).append(e)
    pairs = [(e1, e2) for g in groups.values() for e1 in g for e2 in g]
    rng = random.Random(20260814)
    sample = rng.sample(pairs, 50)
    for e1, e2 in sample:
        p1 = e1.pattern
        p2 = rename_apart(e2.pattern, evar_names(p1.term))
        both = intersect(e1.sig, p1, p2)
        s1 = make_pattern_set(p1.psi, p1.type, [p1.term])
        s2 = make_pattern_set(p1.psi, p1.type, [p2.term])
        for m in ground_for(e1, 6):
            want = member_set(e1.sig, m, s1) and member_set(e1.sig, m, s2)
            if member_set(e1.sig, m, both) != want:
                failures.append((e1.name, e2.name, print_term(m)))
    _report(3, f"intersection agrees with pointwise conjunction "
               f"({len(sample)} pairs)", failures,
            time.perf_counter() - t0, 60.0)


def test_criterion_4_boolean_laws():
    t0 = time.perf_counter()
    failures = []
    entries = complement_corpus()
    groups = {}
    for e in entries:
        groups.setdefault((id(e.sig), e.ctx, e.type), []).append(e)
    checked_sets = 0
    for group in groups.values():
        sig = group[0].sig
        depth = 5 if sig is LAM_SIG else 4
        sets = [make_pattern_set(e.psi, e.a, [e.pattern.term]) for e in group]
        if len(sets) > 1:
            sets.append(set_union(sets[0], sets[1]))
        checked_sets += len(sets)

        def law(name, s1, s2):
            if not extensional_eq(sig, s1, s2, depth):
                failures.append((group[0].name, name))

        psi, a = group[0].psi, group[0].a
        top = make_pattern_set(psi, a, [universal_pattern(psi, sig, a)])
        bottom = make_pattern_set(psi, a, [])
        law("Not(1) = 0", set_complement(sig, top), bottom)
        law("Not(0) = 1", set_complement(sig, bottom), top)
        for i, m in enumerate(sets):
            n = sets[(i + 1) % len(sets)]
            p = sets[(i + 2) % len(sets)]
            law("idempotence", set_intersect(sig, m, m), m)
            law("commutativity", set_intersect(sig, m, n),
                set_intersect(sig, n, m))
            law("distributivity",
                set_intersect(sig, m, set_union(n, p)),
                set_union(set_intersect(sig, m, n), set_intersect(sig, m, p)))
            law("associativity",
                set_intersect(sig, set_intersect(sig, m, n), p),
                set_intersect(sig, m, set_intersect(sig, n, p)))
            law("involution", set_complement(sig, set_complement(sig, m)), m)
    assert checked_sets >= 10
    _report(4, f"boolean-algebra laws over {checked_sets} pattern sets",
            failures, time.perf_counter() - t0)


def test_criterion_5_typing_oracle():
    t0 = time.perf_counter()
    failures = list(oracle_disagreements(7))
    sig2 = parse_signature("a : type. b : type.")
    ctx = ZonedContext(delta=(("x", parse_type("a ->1 a ->1 b", sig2)),
                              ("y", parse_type("a", sig2))))
    m = parse_term("x @1 y @1 y", sig2)
    outcomes = [ok for _, _, ok in
                strict_splits(ctx, sig2, m, parse_type("b", sig2))]
    if outcomes != [True, True, False, False]:
        failures.append(("contraction splits", outcomes))
    _report(5, "occurrence-analysis check matches the backtracking checker "
               "on every term of size <= 7", failures,
            time.perf_counter() - t0)


def test_criterion_6_metatheory():
    t0 = time.perf_counter()
    failures = []
    oracle_sig = parse_signature("a : type. c : a.")
    probes = (A, parse_type("a ->1 a", oracle_sig))

    # Exclusivity: no term checks with the same hypothesis both strict
    # and irrelevant
    for m in raw_terms(5):
        for c_ty in probes:
            for goal in probes:
                in_delta = _accepts(ZonedContext(delta=(("x", c_ty),)),
                                    oracle_sig, m, goal)
                in_omega = _accepts(ZonedContext(omega=(("x", c_ty),)),
                                    oracle_sig, m, goal)
                if in_delta and in_omega:
                    failures.append(("exclusivity", print_term(m)))

    # Tightening: an unrestricted hypothesis over a canonical term moves
    # into exactly one of the two committed zones
    psi = (("x", EXP),)
    for m in ground(LAM_SIG, psi, EXP, 7):
        if not _accepts(ZonedContext(gamma=psi), LAM_SIG, m, EXP):
            failures.append(("tightening-precondition", print_term(m)))
            continue
        moves = [_accepts(ZonedContext(delta=psi), LAM_SIG, m, EXP),
                 _accepts(ZonedContext(omega=psi), LAM_SIG, m, EXP)]
        if moves.count(True) != 1:
            failures.append(("tightening", print_term(m), moves))

    # Irrelevance: dropping an unused irrelevant hypothesis preserves
    # checkability of canonical terms...
    psi2 = (("y", EXP),)
    for m in ground(LAM_SIG, psi2, EXP, 6):
        with_x = _accepts(ZonedContext(gamma=psi2, omega=(("x", EXP),)),
                          LAM_SIG, m, EXP)
        without = _accepts(ZonedContext(gamma=psi2), LAM_SIG, m, EXP)
        if with_x != without:
            failures.append(("irrelevance", print_term(m)))
    # ...but not of terms with vacuous redices, which consume it
    sig_ir = parse_signature("a : type. b : type. c : b.")
    redex = parse_term(r"(\y^0:a. c) @0 x", sig_ir)
    b_ty = parse_type("b", sig_ir)
    if not _accepts(ZonedContext(omega=(("x", parse_type("a", sig_ir)),)),
                    sig_ir, redex, b_ty):
        failures.append(("irrelevant redex accepted", "rejected"))
    try:
        check(ZonedContext(), sig_ir, redex, b_ty)
        failures.append(("irrelevant redex without x", "accepted"))
    except TypingError as e:
        if e.kind is not ErrorKind.UNKNOWN_IDENT:
            failures.append(("irrelevant redex without x", str(e)))

    # Subject reduction over generated redices
    rng = random.Random(99)
    redices = generate_redexes(rng, 1000)
    for ctx, m, ty in redices:
        reduct = whr_step(m)
        if reduct is None or not _accepts(ctx, LAM_SIG, reduct, ty):
            failures.append(("subject reduction", print_term(m)))

    # Canonicalization: idempotent, and its output is canonical
    flat = (("x", EXP),)
    zoned = ZonedContext(gamma=flat)
    for ctx, m, ty in redices[:200]:
        c1 = canonicalize(flat, LAM_SIG, m, ty)
        if canonicalize(flat, LAM_SIG, c1, ty) != c1:
            failures.append(("canonicalize idempotence", print_term(m)))
        if not is_canonical(zoned, LAM_SIG, c1, ty) or \
                isinstance(classify(zoned, LAM_SIG, c1), Neither):
            failures.append(("canonical postcondition", print_term(c1)))

    _report(6, f"exclusivity, tightening, irrelevance, subject reduction "
               f"({len(redices)} redices), canonicalization", failures,
            time.perf_counter() - t0)


def test_criterion_7_embedding():
    t0 = time.perf_counter()
    failures = []
    got = print_type(embed_type(
        parse_type("(exp -> exp) -> exp", labeled=False), "+"))
    if got != "(exp ->u exp) ->1 exp":
        failures.append(("embedded type", got))

    corpus = [
        ("", "exp -> exp", r"\x:exp. x"),
        ("", "exp -> exp -> exp", r"\x:exp. \y:exp. x"),
        ("", "exp", r"lam (\x:exp. lam (\y:exp. app x y))"),
        ("f : exp -> exp", "exp", r"f (lam (\y:exp. f y))"),
        ("x : exp", "exp", r"app x (lam (\y:exp. y))"),
        ("x : exp", "(exp -> exp) -> exp", r"\f:exp -> exp. f (f x)"),
    ]
    for ctx_text, ty_text, term_text in corpus:
        psi = parse_context(ctx_text, PLAIN_LAM_SIG, labeled=False)
        a = parse_type(ty_text, PLAIN_LAM_SIG, labeled=False)
        m = parse_term(term_text, PLAIN_LAM_SIG, labeled=False)
        embedded = embed_term(m, psi, PLAIN_LAM_SIG, a)
        if not _accepts(ZonedContext(gamma=embed_context(psi)), LAM_SIG,
                        embedded, embed_type(a, "-")):
            failures.append(("embedded term ill-typed", term_text))

    psi1 = (("x", EXP),)
    for m in ground(LAM_SIG, psi1, EXP, 6):
        if embed_term(strip_labels(m), psi1, PLAIN_LAM_SIG) != m:
            failures.append(("strip/embed identity", print_term(m)))

    _report(7, "simply-typed embedding typechecks at the embedded type",
            failures, time.perf_counter() - t0)


def test_criterion_8_negative_goldens():
    t0 = time.perf_counter()
    failures = []
    try:
        complement(AB_SIG, pat(AB_SIG, "x:a", "a", "E[x^0]"))
        failures.append(("non-embedded complement", "accepted"))
    except PreconditionViolated as e:
        if "c : a ->u a" not in str(e):
            failures.append(("non-embedded complement", str(e)))

    sig2 = parse_signature("a : type. b : type.")
    fun = parse_type("a ->u b", sig2)
    a_ty = parse_type("a", sig2)
    b_ty = parse_type("b", sig2)
    m = parse_term("y @u x", sig2)
    try:
        check(ZonedContext(gamma=(("y", fun),), delta=(("x", a_ty),)),
              sig2, m, b_ty)
        failures.append(("y @u x with strict x", "accepted"))
    except TypingError as e:
        if e.kind is not ErrorKind.STRICT_VAR_UNUSED or e.name != "x":
            failures.append(("y @u x with strict x", str(e)))
    try:
        check(ZonedContext(gamma=(("y", fun),), omega=(("x", a_ty),)),
              sig2, m, b_ty)
        failures.append(("y @u x with irrelevant x", "accepted"))
    except TypingError as e:
        if e.kind is not ErrorKind.IRRELEVANT_VAR_USED or e.name != "x":
            failures.append(("y @u x with irrelevant x", str(e)))

    _report(8, "non-embedded signatures and undetermined applications "
               "are rejected", failures, time.perf_counter() - t0)
