"""Pattern intersection: label meets, strictness splitting, unification."""

import pytest

from strictpat import (Label, PreconditionViolated, SimpleLinearPattern,
                       enumerate_splittings, evar_names, intersect,
                       label_meet, make_pattern_set, match_ground, meet_phi,
                       member_set, parse_term, pattern_sets_equal,
                       print_term, rename_apart)

from conftest import A_SIG, LAM_SIG, STRICT_SIG, ground, pat

U, ONE, ZERO = Label.U, Label.ONE, Label.ZERO


def meet(sig, ctx, ty, t1, t2):
    p1 = pat(sig, ctx, ty, t1)
    p2 = rename_apart(pat(sig, ctx, ty, t2), evar_names(p1.term))
    return p1, intersect(sig, p1, p2)


def pset_of(p, texts):
    sig_terms = [pat_term.term for pat_term in texts]
    return make_pattern_set(p.psi, p.type, sig_terms)


def test_label_meet_table():
    table = {
        (ONE, ONE): ONE, (ZERO, ZERO): ZERO, (U, U): U,
        (ONE, U): ONE, (U, ONE): ONE,
        (ZERO, U): ZERO, (U, ZERO): ZERO,
        (ONE, ZERO): None, (ZERO, ONE): None,
    }
    for (k1, k2), want in table.items():
        assert label_meet(k1, k2) is want
    # commutative and idempotent by inspection of the same table
    for k1 in (ONE, ZERO, U):
        for k2 in (ONE, ZERO, U):
            assert label_meet(k1, k2) is label_meet(k2, k1)
        assert label_meet(k1, k1) is k1


def test_meet_phi():
    phi1 = (("x", ONE), ("y", U))
    phi2 = (("x", U), ("y", ZERO))
    assert meet_phi(phi1, phi2) == (("x", ONE), ("y", ZERO))
    assert meet_phi((("x", ONE),), (("x", ZERO),)) is None
    with pytest.raises(ValueError):
        meet_phi(phi1, (("y", U), ("x", ONE)))


def test_enumerate_splittings_counts():
    phi = (("x", ONE), ("y", ONE), ("z", U))
    assert len(enumerate_splittings(phi, 2)) == 4  # n^s = 2^2
    assert len(enumerate_splittings(phi, 3)) == 9
    # without determined variables there is exactly one all-u splitting
    allu = (("x", U), ("y", U))
    assert enumerate_splittings(allu, 3) == [(allu, allu, allu)]
    # no premises can absorb a leftover strict variable
    assert enumerate_splittings(phi, 0) == []
    assert enumerate_splittings(allu, 0) == [()]


def test_enumerate_splittings_order_and_head():
    phi = (("x", ONE), ("y", ZERO))
    got = enumerate_splittings(phi, 2)
    assert got == [
        ((("x", ONE), ("y", ZERO)), (("x", U), ("y", ZERO))),
        ((("x", U), ("y", ZERO)), (("x", ONE), ("y", ZERO))),
    ]
    # a strict head parameter is paid by the head occurrence: one splitting
    head_strict = enumerate_splittings((("y", ONE),), 2, head="y")
    assert head_strict == [((("y", U),), (("y", U),))]
    # a 0-labeled head variable just distributes its 0s
    head_zero = enumerate_splittings((("y", ZERO),), 2, head="y")
    assert head_zero == [((("y", ZERO),), (("y", ZERO),))]


def test_rename_apart():
    p = pat(A_SIG, "x:a, y:a", "a", "E[x^0, y^1]")
    q = rename_apart(p, {"F"})
    assert q.term.name == "E"
    r = rename_apart(p, {"E"})
    assert r.term.name != "E" and r.term.args == p.term.args


def test_flex_flex_meet():
    p1, got = meet(A_SIG, "x:a, y:a", "a", "E[x^1, y^u]", "F[x^u, y^0]")
    want = pset_of(p1, [pat(A_SIG, "x:a, y:a", "a", "H[x^1, y^0]")])
    assert pattern_sets_equal(got, want)
    _, empty = meet(A_SIG, "x:a", "a", "E[x^1]", "F[x^0]")
    assert empty.members == ()


def test_flex_rigid_distributes_strictness():
    p1, got = meet(STRICT_SIG, "x:a", "a", "E[x^1]",
                   "c @1 F[x^u] @1 F'[x^u]")
    want = pset_of(p1, [pat(STRICT_SIG, "x:a", "a", "c @1 H[x^1] @1 H'[x^u]"),
                        pat(STRICT_SIG, "x:a", "a", "c @1 H[x^u] @1 H'[x^1]")])
    assert pattern_sets_equal(got, want)


def test_parameter_head_cases():
    sig = A_SIG
    ctx = "y : a ->1 a ->1 a"
    # the hole forbids y, the rigid side's head is y: no common instance
    _, empty = meet(sig, ctx, "a", "E[y^0]", "y @1 F[y^1] @1 F'[y^u]")
    assert empty.members == ()
    p1, one = meet(sig, ctx, "a", "E[y^1]", "y @1 F[y^1] @1 F'[y^0]")
    want = pset_of(p1, [pat(sig, ctx, "a", "y @1 H[y^1] @1 H'[y^0]")])
    assert pattern_sets_equal(one, want)


def test_rigid_rigid():
    _, got = meet(LAM_SIG, "", "exp",
                  "app @1 E[] @1 (lam @1 (\\x^u:exp. F[x^u]))",
                  "app @1 (app @1 G[] @1 G'[]) @1 H[]")
    assert len(got.members) == 1
    assert match_ground((), LAM_SIG, parse_term(
        r"app @1 (app @1 (lam @1 (\x^u:exp. x)) @1 (lam @1 (\x^u:exp. x))) "
        r"@1 (lam @1 (\x^u:exp. x))", LAM_SIG),
        got.pattern(0))
    # different heads never meet
    _, empty = meet(LAM_SIG, "", "exp", r"lam @1 (\x^u:exp. E[x^u])",
                    "app @1 F[] @1 G[]")
    assert empty.members == ()


def test_abstractions_meet_under_a_common_binder():
    p1, got = meet(LAM_SIG, "", "exp ->u exp",
                   r"\x^u:exp. E[x^1]", r"\y^u:exp. F[y^u]")
    want = pset_of(p1, [pat(LAM_SIG, "", "exp ->u exp", r"\x^u:exp. H[x^1]")])
    assert pattern_sets_equal(got, want)


def test_intersect_preconditions():
    p1 = pat(A_SIG, "x:a", "a", "E[x^1]")
    with pytest.raises(PreconditionViolated):
        intersect(A_SIG, p1, pat(A_SIG, "y:a", "a", "F[y^0]"))  # other psi
    # an unvalidated operand may name a binder apart from the other's
    q1 = pat(LAM_SIG, "", "exp ->u exp", r"\y^u:exp. E[y^1]")
    q2 = SimpleLinearPattern(parse_term(r"\y^u:exp. y", LAM_SIG), q1.psi,
                             q1.type)
    assert print_term(q1.term) == r"\x^u:exp. E[x^1]"
    with pytest.raises(PreconditionViolated):
        intersect(LAM_SIG, q1, q2)


def test_intersection_is_sound_and_complete_on_ground_terms():
    cases = [
        (STRICT_SIG, "x:a", "a", "E[x^1]", "c @1 F[x^u] @1 F'[x^u]"),
        (STRICT_SIG, "x:a", "a", "E[x^0]", "c @1 F[] @1 F'[x^u]"),
        (LAM_SIG, "x:exp", "exp", "app @1 E[x^u] @1 x", "F[x^1]"),
        (A_SIG, "x:a, y:a", "a", "E[x^1, y^u]", "F[x^u, y^1]"),
    ]
    # holes are local to each pattern: the second operand may reuse the
    # first one's hole names, renamed apart or not
    shared = [(sig, ctx, ty, t1, t2.replace("F'", "E'").replace("F", "E"))
              for sig, ctx, ty, t1, t2 in cases]
    for sig, ctx, ty, t1, t2 in cases + shared:
        p1 = pat(sig, ctx, ty, t1)
        p2 = pat(sig, ctx, ty, t2)
        both = intersect(sig, p1, p2)
        s1 = make_pattern_set(p1.psi, p1.type, [p1.term])
        s2 = make_pattern_set(p1.psi, p1.type, [p2.term])
        for m in ground(sig, p1.psi, p1.type, 6):
            want = member_set(sig, m, s1) and member_set(sig, m, s2)
            assert member_set(sig, m, both) == want, (t1, t2, m)
