"""Pattern complement: label flips, rule coverage, ground-term exactness."""

import pytest

from strictpat import (ComplementRule, Label, PreconditionViolated,
                       complement, complement_tagged, make_exclusive,
                       make_pattern_set, match_ground, member_set, not_label,
                       not_phi_i, parse_context, parse_signature,
                       pattern_sets_equal, print_term)

from conftest import (A_SIG, AB_SIG, BETA_REDEX, ETA_REDEX, LAM_SIG,
                      STRICT_SIG, CorpusEntry, complement_corpus, ground,
                      ground_for, pat)


def pset(sig, ctx, ty, texts):
    entries = [pat(sig, ctx, ty, t) for t in texts]
    return make_pattern_set(entries[0].psi, entries[0].type,
                            [p.term for p in entries])


def test_not_label():
    assert not_label(Label.ONE) is Label.ZERO
    assert not_label(Label.ZERO) is Label.ONE
    assert not_label(Label.U) is None


def test_not_phi_i():
    phi = (("x", Label.U), ("y", Label.ONE))
    assert not_phi_i(phi, 2) == (("x", Label.U), ("y", Label.ZERO))
    assert not_phi_i(phi, 1) is None
    phi2 = (("x", Label.ZERO), ("y", Label.ONE))
    assert not_phi_i(phi2, 1) == (("x", Label.ONE), ("y", Label.U))
    with pytest.raises(ValueError):
        not_phi_i(phi, 3)


def test_flex_complement_golden():
    got = complement(A_SIG, pat(A_SIG, "x:a, y:a", "a", "E[x^0, y^1]"))
    want = pset(A_SIG, "x:a, y:a", "a", ["F[x^1, y^u]", "G[x^u, y^0]"])
    assert pattern_sets_equal(got, want)
    # a fully undetermined flex pattern matches everything: empty complement
    assert complement(A_SIG, pat(A_SIG, "x:a, y:a", "a", "E[x^u, y^u]")) \
        .members == ()


def test_beta_redex_complement_golden():
    got = complement(LAM_SIG, pat(LAM_SIG, "", "exp", BETA_REDEX))
    want = pset(LAM_SIG, "", "exp",
                [r"lam @1 (\y^u:exp. Z[y^u])",
                 "app @1 (app @1 Z1[] @1 Z2[]) @1 Z3[]"])
    assert pattern_sets_equal(got, want)


def test_eta_redex_complement_golden():
    got = complement(LAM_SIG, pat(LAM_SIG, "", "exp", ETA_REDEX))
    want = pset(LAM_SIG, "", "exp", [
        r"lam @1 (\x^u:exp. app @1 Z[x^1] @1 Z'[x^u])",
        r"lam @1 (\x^u:exp. app @1 Z[x^u] @1 (app @1 Z'[x^u] @1 Z''[x^u]))",
        r"lam @1 (\x^u:exp. app @1 Z[x^u] @1 (lam @1 (\y^u:exp. Z'[x^u, y^u])))",
        r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. Z[x^u, y^u]))",
        r"lam @1 (\x^u:exp. x)",
        "app @1 Z[] @1 Z'[]"])
    assert pattern_sets_equal(got, want)


def test_complement_rule_tags():
    tags = [tag for _, tag in
            complement_tagged(A_SIG, pat(A_SIG, "x:a, y:a", "a",
                                         "E[x^0, y^1]"))]
    assert [(t.rule, t.index) for t in tags] == \
        [(ComplementRule.FLEX, 1), (ComplementRule.FLEX, 2)]
    tagged = complement_tagged(LAM_SIG, pat(LAM_SIG, "", "exp",
                                            r"lam @1 (\x^u:exp. E[x^1])"))
    rules = {(t.rule, t.head, t.index) for _, t in tagged}
    assert (ComplementRule.DIFFERENT_HEAD, "app", None) in rules
    assert (ComplementRule.ARGUMENT, None, 1) in rules
    # a pattern that is itself an abstraction complements under the binder
    under = complement_tagged(LAM_SIG, pat(LAM_SIG, "", "exp ->u exp",
                                           r"\x^u:exp. E[x^1]"))
    assert [t.rule for _, t in under] == [ComplementRule.UNDER_BINDER]
    tagged2 = complement_tagged(STRICT_SIG, pat(STRICT_SIG, "", "a",
                                                "c @1 b @1 E[]"))
    assert (ComplementRule.ARGUMENT, None, 1) in \
        {(t.rule, t.head, t.index) for _, t in tagged2}


def test_complement_requires_embedded_signature():
    with pytest.raises(PreconditionViolated) as e:
        complement(AB_SIG, pat(AB_SIG, "x:a", "a", "E[x^0]"))
    assert "c : a ->u a" in str(e.value)
    psi_bad = parse_context("f:exp ->0 exp", LAM_SIG)
    with pytest.raises(PreconditionViolated):
        complement(LAM_SIG, pat(LAM_SIG, "f:exp ->0 exp", "exp", "E[f^0]"))


def test_complement_skips_a_binder_with_no_universal_argument():
    # x takes an argument of type b ->1 b, which has no universal pattern;
    # x's base type is b, so no spine at type a tries x as a head
    sig = parse_signature("a : type. b : type. c : a. d : a ->1 a.")
    ty = "((b ->1 b) ->u b) ->u a"
    binder = r"\x^u:((b ->1 b) ->u b). "
    got = complement(sig, pat(sig, "", ty, binder + "d @1 c"))
    assert got == pset(sig, "", ty, [binder + "c",
                                     binder + "d @1 (d @1 H[x^u])"])
    got = complement(sig, pat(sig, "", ty, binder + "c"))
    assert got == pset(sig, "", ty, [binder + "d @1 H[x^u]"])
    with pytest.raises(PreconditionViolated):
        complement(sig, pat(sig, "", "((b ->1 b) ->u a) ->u a",
                            r"\x^u:((b ->1 b) ->u a). c"))


def test_complement_is_exact_on_ground_terms():
    for entry_sig, ctx, ty, text in [
        (A_SIG, "x:a, y:a", "a", "E[x^0, y^1]"),
        (LAM_SIG, "", "exp", BETA_REDEX),
        (LAM_SIG, "x:exp", "exp", "app @1 E[x^u] @1 x"),
        (STRICT_SIG, "x:a", "a", "c @1 E[x^1] @1 F[x^u]"),
    ]:
        p = pat(entry_sig, ctx, ty, text)
        s = make_pattern_set(p.psi, p.type, [p.term])
        c = complement(entry_sig, p)
        for m in ground(entry_sig, p.psi, p.type, 6):
            inp = member_set(entry_sig, m, s)
            inc = member_set(entry_sig, m, c)
            assert inp != inc, (text, print_term(m))


def test_make_exclusive_golden():
    p = pat(A_SIG, "x:a, y:a", "a", "E[x^0, y^1]")
    want = pset(A_SIG, "x:a, y:a", "a", ["F[x^1, y^u]", "G[x^0, y^0]"])
    assert pattern_sets_equal(make_exclusive(A_SIG, p), want)


def test_make_exclusive_members_are_pairwise_disjoint():
    """Over the whole corpus, and two patterns whose own holes are named
    like the fresh ones: each ground term outside p matches exactly one
    member of the exclusive cover, each term in p none."""
    named = [CorpusEntry("named-H", STRICT_SIG, "x:a", "a", text)
             for text in ("c @1 H1[x^1] @1 H2[x^u]", "c @1 H3[x^1] @1 H1[x^1]")]
    for entry in complement_corpus() + named:
        p = entry.pattern
        exclusive = make_exclusive(entry.sig, p)
        assert len(exclusive.members) == \
            len(complement(entry.sig, p).members), entry.name
        members = exclusive.patterns()
        depth = 8 if entry.type == "exp" else 7
        for m in ground_for(entry, depth):
            hits = sum(match_ground(p.psi, entry.sig, m, q) for q in members)
            inside = match_ground(p.psi, entry.sig, m, p)
            assert hits == (0 if inside else 1), \
                (entry.name, print_term(m), hits)
