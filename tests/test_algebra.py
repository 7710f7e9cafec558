"""Pattern-set algebra: union, intersection, complement, ground oracle."""

import gc
import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from strictpat import (Clause, EVar, Label, NotLinear, NotSimple, PatternSet,
                       PreconditionViolated, SimpleLinearPattern,
                       clause_complement, complement, complement_tagged,
                       enumerate_ground, extensional_eq,
                       first_difference, free_vars, fully_apply, instance_of,
                       intersect, make_exclusive, make_pattern_set,
                       match_ground, member_set, occurrences,
                       parse_context, parse_pattern_set, parse_program,
                       parse_signature, parse_term, parse_type,
                       pattern_sets_equal, print_term, relative_complement,
                       set_complement, set_intersect, set_union, term_key,
                       term_size, universal_pattern, validate_pattern)
from strictpat import algebra
from strictpat.algebra import _Enumeration, _MatchStates
from strictpat.cli import _parse_set_file
from strictpat.intersect import _Meet
from strictpat.selftest import GOLDENS
from strictpat.syntax import (App, Const, Lam, Var, arrow_chain, iter_evars,
                              make_spine, map_evars)

from conftest import (A, A_SIG, AB_SIG, EXP, LAM_SIG, STRICT_SIG,
                      BETA_REDEX, ETA_REDEX, CorpusEntry, complement_corpus,
                      ground, pat)

X_A = (("x", A),)
XY_A = (("x", A), ("y", A))
X_EXP = (("x", EXP),)

# the strict pair signature without the constant b
STRICT_A_SIG = parse_signature("a : type. c : a ->1 a ->1 a.")


def pset(sig, psi, a, texts):
    return parse_pattern_set(psi, sig, a, texts)


def test_make_pattern_set_dedups_and_renames():
    s = pset(A_SIG, X_A, A, ["E[x^1]", "F[x^1]", "E[x^0]"])
    assert len(s.members) == 2  # F[x^1] is E[x^1] up to renaming
    # holes are numbered across the set in member order
    assert [t.name for t in s.members] == ["H1", "H2"]
    assert s.pattern(1).term.args == (("x", Label.ZERO),)


def two_walk_pattern_set(psi, a, terms):
    """The reference definition of ``make_pattern_set``: drop the members
    whose ``term_key`` is already kept, then rename the holes of the kept
    members through ``map_evars``, one new name per old name, numbered
    across the set in member order."""
    kept, seen = [], set()
    for t in terms:
        key = term_key(t)
        if key not in seen:
            seen.add(key)
            kept.append(t)
    fresh = map("H{}".format, itertools.count(1)).__next__

    def renamed(t):
        new = {}

        def rename(e, _):
            if e.name not in new:
                new[e.name] = fresh()
            return EVar(new[e.name], e.type, e.args)

        return map_evars(t, rename)

    return PatternSet(tuple(psi), a, tuple(renamed(t) for t in kept))


_names = st.sampled_from(("x", "y", "z"))
_labels = st.sampled_from(tuple(Label))
# unvalidated members: hole names drawn from a small pool (some already
# H-names), so holes repeat within a member and across members
_members = st.recursive(
    st.one_of(st.builds(Var, _names), st.just(Const("c")),
              st.builds(EVar, st.sampled_from(("E", "F", "H1", "H2")),
                        st.sampled_from((None, A)),
                        st.lists(st.tuples(_names, _labels), max_size=2,
                                 unique_by=lambda e: e[0]).map(tuple))),
    lambda t: st.one_of(st.builds(Lam, _names, _labels, st.just(A), t),
                        st.builds(App, t, t, _labels)),
    max_leaves=8)


# one member that repeats a hole name
E_REPEATED = App(App(Const("c"), EVar("E", A, (("x", Label.ONE),)), Label.ONE),
                 EVar("E", A, (("x", Label.ZERO),)), Label.ONE)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(_members, min_size=1, max_size=4), st.randoms())
def test_make_pattern_set_is_the_two_walk_definition(members, rnd):
    # each member comes with an alpha-variant (every binder renamed to a
    # name used nowhere else), a copy with its holes renamed one-to-one,
    # and itself applied to itself (every hole name repeated); all in a
    # shuffled order, with E_REPEATED
    fresh = map("v{}".format, itertools.count()).__next__
    terms = [E_REPEATED]
    for t in members:
        terms += [t, _rename_binders(t, fresh, {}), App(t, t, Label.ONE),
                  map_evars(t, lambda e, _: EVar("R" + e.name, e.type, e.args))]
    rnd.shuffle(terms)
    got = make_pattern_set(X_A, A, terms)
    assert got == two_walk_pattern_set(X_A, A, terms)
    # both copies of each member are dropped
    assert len(got.members) <= len(terms) - 2 * len(members)


def test_parse_pattern_set_completes_and_validates():
    s = parse_pattern_set(XY_A, STRICT_SIG, A, ["E[x^1]", "c @1 E[y^1] @1 b"])
    assert [print_term(t) for t in s.members] == \
        ["H1[x^1, y^0]", "c @1 H2[x^0, y^1] @1 b"]
    with pytest.raises(NotLinear):
        parse_pattern_set(XY_A, STRICT_SIG, A, ["c @1 E[x^1] @1 E[y^1]"])
    with pytest.raises(NotSimple, match="EVar argument z not in scope"):
        parse_pattern_set(XY_A, STRICT_SIG, A, ["E[z^1]"])


def test_parse_pattern_set_reads_the_lines_of_an_eq_set_file(tmp_path):
    lines = ["E[x^1]", "c @1 F[y^u] @1 G[]", "F[x^1]"]
    path = tmp_path / "s.set"
    path.write_text("ctx: x:a, y:a\ntype: a\n"
                    + "\n".join(f"{line}  % a comment" for line in lines))
    from_file = _parse_set_file(str(path), STRICT_SIG,
                                SimpleNamespace(ctx=None, type=None))
    assert from_file == parse_pattern_set(XY_A, STRICT_SIG, A, lines)
    assert len(from_file.members) == 2  # F[x^1] is E[x^1] up to renaming


def test_make_pattern_set_keeps_a_repeated_hole_name():
    # one new name per distinct hole name of a member, so a member that
    # uses H1 twice stays non-linear and validation still rejects it
    terms = [parse_term(text, STRICT_SIG) for text in
             ("E[x^1]", "c @1 H1[x^u] @1 H1[x^u]", "c @1 H1[x^u] @1 H2[x^0]")]
    s = make_pattern_set(X_A, A, terms)
    assert [print_term(t) for t in s.members] == \
        ["H1[x^1]", "c @1 H2[x^u] @1 H2[x^u]", "c @1 H3[x^u] @1 H4[x^0]"]
    with pytest.raises(NotLinear, match="EVar H2 occurs more than once"):
        validate_pattern(X_A, STRICT_SIG, s.members[1], A)


def test_universal_pattern():
    u = universal_pattern((), LAM_SIG, parse_type("exp ->u exp", LAM_SIG))
    assert print_term(u) == r"\x^u:exp. H1[x^u]"
    v = universal_pattern(X_A, A_SIG, A)
    assert print_term(v) == "H1[x^u]"
    # binders are named by binder_name: away from the context and signature
    w = universal_pattern(X_A, parse_signature("a : type. x1 : a."),
                          parse_type("a ->u a ->u a", A_SIG))
    assert print_term(w) == r"\x2^u:a. \x3^u:a. H1[x^u, x2^u, x3^u]"
    with pytest.raises(PreconditionViolated):
        universal_pattern((), LAM_SIG, parse_type("exp ->1 exp", LAM_SIG))
    with pytest.raises(PreconditionViolated):
        universal_pattern((), LAM_SIG,
                          parse_type("(exp ->u exp) ->0 exp", LAM_SIG))


def test_set_union():
    s1 = pset(A_SIG, X_A, A, ["E[x^1]"])
    s2 = pset(A_SIG, X_A, A, ["E[x^1]", "E[x^0]"])
    got = set_union(s1, s2)
    assert pattern_sets_equal(got, s2)
    with pytest.raises(PreconditionViolated):
        set_union(s1, pset(A_SIG, (("y", A),), A, ["E[y^1]"]))


def test_set_intersect_golden():
    s1 = pset(A_SIG, X_A, A, ["E[x^1]", "E[x^0]"])
    s2 = pset(A_SIG, X_A, A, ["F[x^u]"])
    got = set_intersect(A_SIG, s1, s2)
    assert pattern_sets_equal(got, s1)
    # the answer is the pairwise union with every member inside another
    # dropped, hole names and order included
    for entry in complement_corpus():
        c = complement(entry.sig, entry.pattern)
        both = set_union(c, make_pattern_set(entry.psi, entry.a,
                                             [entry.pattern.term]))
        pairwise = [t for p1 in c.patterns() for p2 in both.patterns()
                    for t in intersect(entry.sig, p1, p2).members]
        assert set_intersect(entry.sig, c, both).members == make_pattern_set(
            entry.psi, entry.a,
            pruned(entry.sig, entry.psi, entry.a, pairwise)).members


def pruned(sig, psi, a, terms):
    """terms, in order, without each one that instance_of puts inside
    another, compared all pairs: a term is dropped when a kept one contains
    it, and otherwise drops the kept ones it contains."""
    kept = []
    for t in terms:
        p = SimpleLinearPattern(t, psi, a)
        if not any(instance_of(sig, p, q) for q in kept):
            kept = [q for q in kept if not instance_of(sig, q, p)] + [p]
    return [q.term for q in kept]


def unpruned_intersect(sig, s1, s2):
    """The pairwise union of member intersections, normalised once."""
    return make_pattern_set(s1.psi, s1.type, [
        t for p1 in s1.patterns() for p2 in s2.patterns()
        for t in intersect(sig, p1, p2).members])


def unpruned_complement(sig, s):
    """``set_complement``'s fold over ``unpruned_intersect``."""
    result = None
    for p in s.patterns():
        c = complement(sig, p)
        result = c if result is None else unpruned_intersect(sig, result, c)
    return result


def no_member_inside_another(sig, s):
    return not any(instance_of(sig, p, q)
                   for i, p in enumerate(s.patterns())
                   for j, q in enumerate(s.patterns()) if i != j)


# pattern sets over lam.sig at arrow types, where every member is an
# abstraction, so every rigid node lies below a binder prefix
ARROW_SETS = {
    "exp ->u exp": [
        [r"\x^u:exp. E[x^u]"],
        [r"\x^u:exp. E[x^1]"],
        [r"\x^u:exp. E[x^0]"],
        [r"\x^u:exp. x", r"\x^u:exp. lam @1 (\x1^u:exp. E[x^u, x1^u])"],
        [r"\x^u:exp. E[x^1]", r"\x^u:exp. app @1 E[x^1] @1 F[x^u]"],
        [r"\x^u:exp. app @1 E[x^u] @1 F[x^0]"]],
    "exp ->u exp ->u exp": [
        [r"\x^u:exp. \x1^u:exp. E[x^u, x1^u]"],
        [r"\x^u:exp. \x1^u:exp. E[x^1, x1^0]"],
        [r"\x^u:exp. \x1^u:exp. x", r"\x^u:exp. \x1^u:exp. E[x^0, x1^1]"],
        [r"\x^u:exp. \x1^u:exp. app @1 E[x^u, x1^u] @1 x1"]]}


@pytest.mark.parametrize("type_text", sorted(ARROW_SETS))
def test_set_operations_at_an_arrow_type(type_text):
    # intersection, relative complement and complement agree with
    # membership by enumeration, and the prune keeps what the all-pairs
    # reference keeps
    a = parse_type(type_text, LAM_SIG)
    sets = [pset(LAM_SIG, (), a, texts) for texts in ARROW_SETS[type_text]]
    terms = ground(LAM_SIG, (), a, 7)
    assert terms

    def hits(s):
        return {m for m in terms if member_set(LAM_SIG, m, s)}

    dropped = 0
    for s1 in sets:
        assert hits(set_complement(LAM_SIG, s1)) == set(terms) - hits(s1)
        for s2 in sets:
            got = set_intersect(LAM_SIG, s1, s2)
            assert hits(got) == hits(s1) & hits(s2)
            assert hits(relative_complement(LAM_SIG, s1, s2)) == \
                hits(s1) - hits(s2)
            pairwise = [t for p1 in s1.patterns() for p2 in s2.patterns()
                        for t in intersect(LAM_SIG, p1, p2).members]
            assert got.members == make_pattern_set((), a, pruned(
                LAM_SIG, (), a, pairwise)).members
            dropped += len(make_pattern_set((), a, pairwise).members) - \
                len(got.members)
    assert dropped > 0


def lam_app_head(rng):
    """A random pattern over lam/app in context x:exp, rigid at the top, of
    depth at most 3, its leaves holes or variables."""
    holes = iter(range(1, 100))

    def go(depth, scope):
        if depth == 0 or depth < 3 and rng.random() < 0.4:
            if rng.random() < 0.2:
                return rng.choice(scope)
            labels = ", ".join(f"{v}^{rng.choice('10uu')}" for v in scope)
            return f"E{next(holes)}[{labels}]"
        if rng.random() < 0.5:
            y = f"y{len(scope)}"
            return rf"lam @1 (\{y}^u:exp. {go(depth - 1, scope + [y])})"
        return f"app @1 ({go(depth - 1, scope)}) @1 ({go(depth - 1, scope)})"

    return pat(LAM_SIG, "x:exp", "exp", go(3, ["x"]))


def two_clause_programs(count):
    rng = random.Random(12)
    return [[Clause(f"c{j}", "p", lam_app_head(rng)) for j in (1, 2)]
            for _ in range(count)]


def test_clause_complement_is_the_pruned_fold_on_two_clause_programs():
    # each answer is exact, no member of it lies inside another, and where
    # instance_of puts one member of the unpruned answer inside another,
    # enumeration agrees
    psi = (("x", EXP),)
    terms = ground(LAM_SIG, psi, EXP, 9)
    contained = 0
    for clauses in two_clause_programs(20):
        s = make_pattern_set(psi, EXP, [c.pattern.term for c in clauses])
        got = make_pattern_set(psi, EXP, [
            c.pattern.term for c in clause_complement(LAM_SIG, clauses)])
        full = unpruned_complement(LAM_SIG, s)
        assert no_member_inside_another(LAM_SIG, got)
        assert len(got.members) <= len(full.members)
        hits = [{i for i, m in enumerate(terms)
                 if match_ground(psi, LAM_SIG, m, p)} for p in full.patterns()]
        for i, p in enumerate(full.patterns()):
            for j, q in enumerate(full.patterns()):
                if i != j and instance_of(LAM_SIG, p, q):
                    contained += 1
                    assert hits[i] <= hits[j], (print_term(p.term),
                                                print_term(q.term))
        assert first_difference(LAM_SIG, got, full, 9) is None
        for m in terms:
            assert member_set(LAM_SIG, m, got) is not \
                member_set(LAM_SIG, m, s), print_term(m)
    assert contained >= 100


def all_pairs_intersect(sig, s1, s2):
    """The all-pairs reference of ``set_intersect``: every pair of members
    met, the union ``pruned``, the holes named by ``make_pattern_set``."""
    pairwise = [t for p1 in s1.patterns() for p2 in s2.patterns()
                for t in intersect(sig, p1, p2).members]
    return make_pattern_set(s1.psi, s1.type,
                            pruned(sig, s1.psi, s1.type, pairwise))


def covered(sig, s1, s2):
    """The indices of the members of s1 that instance_of puts inside a
    single member of s2: those ``set_intersect`` gives without a meet."""
    return [i for i, p in enumerate(s1.patterns())
            if any(instance_of(sig, p, q) for q in s2.patterns())]


# (s1, s2, covered(s1, s2), covered(s2, s1)) over x:exp
COVERED_MEMBERS = [
    # a member inside a hole that is strict in x: the meet splits x's
    # strictness over app's arguments, and only one piece is the member
    (["app @1 E[x^1] @1 F[x^u]"], ["G[x^1]"], [0], []),
    # b inside a inside b': the first row containing b is a, which is
    # itself covered, so b is given nowhere, not in the later row a2
    # that also contains it; a2 meets b' and splits it
    (["app @1 E[x^1] @1 F[x^u]", "app @1 E[x^u] @1 F[x^u]"],
     ["G[x^1]", "app @1 x @1 H[x^u]"], [0], [1]),
    # every row is covered, so app @1 x @1 x is given nowhere; swapped,
    # every column is covered, so the middle row meets nothing
    (["lam @1 (\\y^u:exp. E[x^u, y^u])", "app @1 E[x^u] @1 F[x^1]"],
     ["app @1 x @1 x", "app @1 E[x^0] @1 F[x^u]", "G[x^u]"], [0, 1], [0]),
    # the first row containing a covered member gives it, not a later one
    (["G[x^u]", "app @1 E[x^u] @1 F[x^u]"],
     ["app @1 x @1 x", "lam @1 (\\y^u:exp. E[x^u, y^u])"], [], [0, 1]),
    # a covered member is given at its own column, after the meets of the
    # columns before it
    (["app @1 E[x^u] @1 F[x^u]"], ["G[x^1]", "app @1 E[x^0] @1 F[x^0]"],
     [], [1])]


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("case", COVERED_MEMBERS)
def test_set_intersect_gives_covered_members_as_they_are(case, swap):
    # the answer is the all-pairs one, hole names and order included, in
    # both operand orders
    texts1, texts2, cover1, cover2 = case
    s1, s2 = (pset(LAM_SIG, X_EXP, EXP, texts) for texts in (texts1, texts2))
    assert covered(LAM_SIG, s1, s2) == cover1
    assert covered(LAM_SIG, s2, s1) == cover2
    if swap:
        s1, s2 = s2, s1
    got = set_intersect(LAM_SIG, s1, s2)
    assert got.members == all_pairs_intersect(LAM_SIG, s1, s2).members
    terms = ground(LAM_SIG, X_EXP, EXP, 7)
    assert {m for m in terms if member_set(LAM_SIG, m, got)} == \
        {m for m in terms if member_set(LAM_SIG, m, s1)
         and member_set(LAM_SIG, m, s2)}


def test_covered_member_meets_split_strictness():
    # the first piece is p; the second, strict in x twice, lies inside it
    p = pat(LAM_SIG, "x:exp", "exp", "app @1 E[x^1] @1 F[x^u]")
    q = pat(LAM_SIG, "x:exp", "exp", "G[x^1]")
    assert instance_of(LAM_SIG, p, q)
    assert [print_term(t) for t in intersect(LAM_SIG, p, q).members] == \
        ["app @1 H1[x^1] @1 H2[x^u]", "app @1 H3[x^1] @1 H4[x^1]"]


def test_set_intersect_is_the_all_pairs_answer_on_two_clause_programs():
    # the fold's inputs: the complements of two generated clause heads
    rows = 0
    for c1, c2 in two_clause_programs(20):
        s1, s2 = complement(LAM_SIG, c1.pattern), complement(LAM_SIG, c2.pattern)
        for left, right in ((s1, s2), (s2, s1)):
            assert set_intersect(LAM_SIG, left, right).members == \
                all_pairs_intersect(LAM_SIG, left, right).members
        rows += len(covered(LAM_SIG, s1, s2)) + len(covered(LAM_SIG, s2, s1))
    assert rows >= 100


def test_set_intersect_agrees_with_membership_on_generated_sets():
    # each set holds one to three generated heads, and half of them the
    # complement of another head too, so members cover each other
    terms = ground(LAM_SIG, X_EXP, EXP, 7)

    def hits(s):
        return {m for m in terms if member_set(LAM_SIG, m, s)}

    def generated(rng):
        s = make_pattern_set(X_EXP, EXP, [
            lam_app_head(rng).term for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.5:
            s = set_union(s, complement(LAM_SIG, lam_app_head(rng)))
        return s

    rows = 0
    for seed in range(20):
        rng = random.Random(seed)
        s1, s2 = generated(rng), generated(rng)
        got = set_intersect(LAM_SIG, s1, s2)
        assert hits(got) == hits(s1) & hits(s2), seed
        assert got.members == all_pairs_intersect(LAM_SIG, s1, s2).members
        rows += len(covered(LAM_SIG, s1, s2)) + len(covered(LAM_SIG, s2, s1))
    assert rows >= 20


def containment_groups():
    """(psi, a, terms) groups over lam.sig whose members cover each other:
    seeded ``lam_app_head`` heads with the members of their complements,
    the operands of each ``COVERED_MEMBERS`` case and the sets of each
    ``ARROW_SETS`` type."""
    rng = random.Random(5)
    for _ in range(10):
        heads = [lam_app_head(rng) for _ in range(3)]
        yield X_EXP, EXP, [t for p in heads
                           for t in (p.term, *complement(LAM_SIG, p).members)]
    for texts1, texts2, *_ in COVERED_MEMBERS:
        yield X_EXP, EXP, list(
            pset(LAM_SIG, X_EXP, EXP, texts1 + texts2).members)
    for type_text, sets in ARROW_SETS.items():
        a = parse_type(type_text, LAM_SIG)
        yield (), a, [t for texts in sets
                      for t in pset(LAM_SIG, (), a, texts).members]


def test_a_container_has_only_rigid_nodes_of_its_instances():
    # the prune's prefilter: where instance_of puts p inside q, q's rigid
    # nodes are p's, so _inside, which tests them first, answers as
    # instance_of does
    contained = 0
    for psi, a, terms in containment_groups():
        entries = [algebra._entry(t) for t in terms]
        for i, j in itertools.permutations(range(len(terms)), 2):
            p, q = (SimpleLinearPattern(terms[k], psi, a) for k in (i, j))
            inside = instance_of(LAM_SIG, p, q)
            if inside:
                contained += 1
                assert entries[j][1] <= entries[i][1], \
                    (print_term(p.term), print_term(q.term))
            assert algebra._inside(entries[i], entries[j]) == inside
    assert contained >= 400


def test_drop_instances_is_the_pruned_reference():
    # seeded shuffles of generated heads, the members of their complements,
    # hole-rooted members and copies with renamed holes, so the entries
    # have several root heads, hole-rooted ones come after rigid-rooted
    # ones, and pairs contain each other in either order
    holes = [pat(LAM_SIG, "x:exp", "exp", text).term
             for text in ("E[x^u]", "E[x^1]", "E[x^0]")]
    rng = random.Random(7)
    late_holes = 0
    for _ in range(30):
        terms = rng.sample(holes, rng.randint(0, 2))
        for _ in range(rng.randint(1, 3)):
            p = lam_app_head(rng)
            terms += [p.term, *complement(LAM_SIG, p).members]
        terms += [map_evars(t, lambda e, _: EVar("R" + e.name, e.type, e.args))
                  for t in rng.sample(terms, 3)]
        rng.shuffle(terms)
        first_rigid = next(i for i, t in enumerate(terms)
                           if not isinstance(t, EVar))
        late_holes += any(isinstance(t, EVar) for t in terms[first_rigid:])
        got = algebra._drop_instances([algebra._entry(t) for t in terms])
        assert got == pruned(LAM_SIG, X_EXP, EXP, terms)
    assert late_holes >= 10


# a parameter that heads spines, at the root and below
YX_A = (("y", parse_type("a ->1 a ->1 a", STRICT_SIG)), ("x", A))


def strict_head(rng):
    """A random pattern over STRICT_SIG in context y : a ->1 a ->1 a,
    x : a, rigid at the top, of depth at most 3: its spines headed by c or
    y, its leaves holes, b or x."""
    holes = iter(range(1, 100))

    def go(depth):
        if depth == 0 or depth < 3 and rng.random() < 0.4:
            if rng.random() < 0.3:
                return rng.choice("bx")
            return f"E{next(holes)}[y^{rng.choice('10uu')}, " \
                f"x^{rng.choice('10uu')}]"
        return f"{rng.choice('cy')} @1 ({go(depth - 1)}) @1 ({go(depth - 1)})"

    return fully_apply(YX_A, STRICT_SIG, parse_term(go(3), STRICT_SIG), A)


def test_set_operations_with_parameter_heads():
    # each set holds one to three generated heads, and most the complement
    # of another head too, so members cover each other
    terms = ground(STRICT_SIG, YX_A, A, 6)

    def hits(s):
        return {m for m in terms if member_set(STRICT_SIG, m, s)}

    def generated(rng):
        s = make_pattern_set(YX_A, A, [
            strict_head(rng).term for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.7:
            s = set_union(s, complement(STRICT_SIG, strict_head(rng)))
        return s

    rows = 0
    for seed in range(20):
        rng = random.Random(seed)
        s1, s2 = generated(rng), generated(rng)
        for left, right in ((s1, s2), (s2, s1)):
            assert set_intersect(STRICT_SIG, left, right).members == \
                all_pairs_intersect(STRICT_SIG, left, right).members
        assert hits(set_intersect(STRICT_SIG, s1, s2)) == \
            hits(s1) & hits(s2), seed
        assert hits(relative_complement(STRICT_SIG, s1, s2)) == \
            hits(s1) - hits(s2), seed
        assert hits(set_complement(STRICT_SIG, s1)) == \
            set(terms) - hits(s1), seed
        rows += len(covered(STRICT_SIG, s1, s2)) + \
            len(covered(STRICT_SIG, s2, s1))
    assert rows >= 300


def assert_valid(sig, psi, a, terms):
    for t in terms:
        assert validate_pattern(psi, sig, t, a).term == t, print_term(t)


def test_operations_build_validated_members():
    # patterns are validated where they enter; every member an operation
    # builds from validated operands is already in validated form
    for e in complement_corpus():
        p, psi, a = e.pattern, e.psi, e.a
        comp = complement(e.sig, p)
        for s in (comp, make_exclusive(e.sig, p)):
            assert_valid(e.sig, psi, a, s.members)
        assert_valid(e.sig, psi, a, [t for t, _ in
                                     complement_tagged(e.sig, p)])
        with_p = make_pattern_set(psi, a, comp.members + (p.term,))
        for q1 in comp.patterns():
            for q2 in with_p.patterns():
                assert_valid(e.sig, psi, a, _Meet().meet(q1.term, q2.term))
        assert_valid(e.sig, psi, a,
                     set_intersect(e.sig, comp, with_p).members)
    psi = (("x", EXP),)
    for clauses in two_clause_programs(20):
        assert_valid(LAM_SIG, psi, EXP, [
            c.pattern.term for c in clause_complement(LAM_SIG, clauses)])
    ops = {"meet": intersect, "not": complement, "exclusive": make_exclusive}
    for g in GOLDENS:
        sig = parse_signature(g.sig)
        psi, a = parse_context(g.ctx, sig), parse_type(g.type, sig)
        if g.op == "negate":
            clauses = [Clause(n, q, fully_apply(psi, sig, t, a))
                       for n, q, t in parse_program("\n".join(g.inputs), sig)]
            terms = [c.pattern.term for c in clause_complement(sig, clauses)]
        else:
            ps = [fully_apply(psi, sig, parse_term(t, sig), a)
                  for t in g.inputs]
            terms = ops[g.op](sig, *ps).members
        assert_valid(sig, psi, a, terms)
    # positions of two base types: each new hole takes the type of the
    # operand hole it meets, not the set's; the first pair is met inside
    # set_intersect too, while f @1 E[x^1] lies inside F[x^u]
    psi = (("x", parse_type("b", TWO_BASE_SIG)),)
    a = parse_type("a", TWO_BASE_SIG)
    terms = ground(TWO_BASE_SIG, psi, a, 9)
    assert len(terms) == 22

    def hits(s):
        return {m for m in terms if member_set(TWO_BASE_SIG, m, s)}
    for t1, t2 in [("g @1 E[x^1] @1 F[x^u]", "g @1 G[x^u] @1 (f @1 H[x^1])"),
                   ("f @1 E[x^1]", "F[x^u]")]:
        s1, s2 = (pset(TWO_BASE_SIG, psi, a, [t]) for t in (t1, t2))
        for left, right in ((s1, s2), (s2, s1)):
            meet = intersect(TWO_BASE_SIG, left.pattern(0), right.pattern(0))
            both = set_intersect(TWO_BASE_SIG, left, right)
            minus = relative_complement(TWO_BASE_SIG, left, right)
            for s in (meet, both, minus):
                assert_valid(TWO_BASE_SIG, psi, a, s.members)
            assert hits(meet) == hits(both) == hits(left) & hits(right)
            assert hits(minus) == hits(left) - hits(right)


def test_set_complement_of_empty_and_universal():
    empty = make_pattern_set(X_A, A, [])
    top = set_complement(STRICT_SIG, empty)
    assert [print_term(t) for t in top.members] == ["H1[x^u]"]
    assert pattern_sets_equal(set_complement(STRICT_SIG, top), empty)


def test_set_complement_xor_on_ground():
    s = pset(STRICT_SIG, X_A, A, ["c @1 E[x^u] @1 F[x^u]", "E[x^0]"])
    comp = set_complement(STRICT_SIG, s)
    for m in ground(STRICT_SIG, X_A, A, 6):
        assert member_set(STRICT_SIG, m, s) != member_set(STRICT_SIG, m, comp), \
            print_term(m)


def step_normalised_complement(sig, s):
    """``set_complement``'s fold with each member's complement normalised
    before it is met: ``complement``, then ``set_intersect``, at each
    step."""
    result = None
    for p in s.patterns():
        c = complement(sig, p)
        result = c if result is None else set_intersect(sig, result, c)
    return result


def test_set_complement_is_the_step_normalised_fold():
    # sets of 2, 3 and 4 seeded lam_app_head clauses over lam.sig and
    # strict_head patterns over STRICT_SIG: the fold that meets each
    # complement's raw walk gives the same members, names and order
    # included
    spaces = ((LAM_SIG, lam_app_head), (STRICT_SIG, strict_head))
    sizes = Counter()
    for seed in range(10):
        rng = random.Random(seed)
        for sig, head in spaces:
            for n in (2, 3, 4):
                first = head(rng)
                s = make_pattern_set(first.psi, first.type, [first.term] + [
                    head(rng).term for _ in range(n - 1)])
                sizes[len(s.members)] += 1
                assert set_complement(sig, s) == \
                    step_normalised_complement(sig, s), (seed, n)
    assert min(sizes[n] for n in (2, 3, 4)) >= 15


def test_relative_complement():
    s1 = pset(A_SIG, X_A, A, ["E[x^u]"])
    s2 = pset(A_SIG, X_A, A, ["E[x^1]"])
    diff = relative_complement(A_SIG, s1, s2)
    # over a signature with no u-arrows, "not strict" means "unused"
    assert extensional_eq(A_SIG, diff, pset(A_SIG, X_A, A, ["E[x^0]"]), 6)
    nothing = relative_complement(A_SIG, s1, s1)
    assert not any(member_set(A_SIG, m, nothing)
                   for m in ground(A_SIG, X_A, A, 6))


def test_member_set():
    s = pset(STRICT_SIG, X_A, A, ["c @1 E[x^1] @1 F[x^0]"])
    member = {"c @1 x @1 b": True, "c @1 b @1 b": False,
              "c @1 b @1 x": False, "x": False}
    for text, want in member.items():
        assert member_set(STRICT_SIG, parse_term(text, STRICT_SIG), s) is want


# (signature, context, type, depth, term count, sha256 of the printed terms)
PINNED_SPACES = [
    (LAM_SIG, (("x", EXP),), EXP, 8, 93,
     "f05b77059c20cb828717dc54c62a164c91b8c3d3087b01377798dde57ca0ef97"),
    (STRICT_A_SIG, (("x", A), ("y", A)), A, 9, 550,
     "622074b3e10761d416f7eddec0fb47f08705ed8de5608510e24b08fd7faf3b6b"),
    # heads of three arguments, where the argument lists of one size could
    # be produced in another order
    (parse_signature("a : type. b : a. d : a ->1 a ->u a ->1 a."),
     X_A, A, 8, 106,
     "25a9fdcd64702eaf90b369aef8fd2f36718426693e9ab247dbb5f23186d30b33"),
    (parse_signature("a : type. b : a. d : a ->1 (a ->u a) ->0 a ->1 a."),
     XY_A, A, 7, 39,
     "0fdc81801aef8b77a313fcc811f94b2bc0820827966fb856612cb69afda48d4d")]


def test_enumerate_ground_golden():
    e = enumerate_ground(X_A, AB_SIG, A, 2)
    assert [print_term(t) for t in e] == ["b", "x", "c @u b", "c @u x"]
    assert len(e) == 4
    assert [len(enumerate_ground(X_A, AB_SIG, A, d)) for d in (3, 4, 5)] == \
        [6, 8, 10]
    assert [len(enumerate_ground((), LAM_SIG, EXP, d))
            for d in (3, 4, 5, 6)] == [1, 1, 4, 4]
    with pytest.raises(ValueError):
        enumerate_ground(X_A, AB_SIG, A, 0)
    # the order and binder names of larger spaces, pinned by a digest
    for sig, psi, a, depth, count, digest in PINNED_SPACES:
        e = enumerate_ground(psi, sig, a, depth)
        text = "\n".join(print_term(t) for t in e)
        assert (len(e), hashlib.sha256(text.encode()).hexdigest()) == \
            (count, digest)


def test_enumerate_ground_sizes_ascend_within_the_depth():
    for sig, psi, a, depth, _, _ in PINNED_SPACES:
        sizes = [term_size(t) for t in enumerate_ground(psi, sig, a, depth)]
        assert sizes == sorted(sizes) and sizes[-1] <= depth, (psi, a)


def test_enumerate_ground_respects_binder_labels():
    strict_fun = parse_type("a ->1 a", A_SIG)
    got = [print_term(t) for t in enumerate_ground((), A_SIG, strict_fun, 3)]
    assert got == [r"\x^1:a. x"]  # a constant body never uses x strictly
    vac_fun = parse_type("a ->0 a", AB_SIG)
    got = [print_term(t) for t in enumerate_ground((), AB_SIG, vac_fun, 3)]
    assert got == [r"\x^0:a. b", r"\x^0:a. c @u b"]


def test_enumerate_ground_summaries_agree_with_typechecking():
    # every variable of these spaces has the one base type of its signature,
    # so each built term can be typechecked outside the scope it was built in
    spaces = [(LAM_SIG, (("x", EXP),), EXP, EXP, 8),
              (STRICT_A_SIG, (("x", A), ("y", A)), A, A, 8)]
    for sig in (A_SIG, AB_SIG, STRICT_SIG):
        spaces += [(sig, (), parse_type(text, sig), A, 7)
                   for text in ("a ->1 a", "a ->0 a")]
    for sig, psi, a, base, depth in spaces:
        enumeration = _Enumeration(sig)
        records = tuple(enumeration.up_to(psi, a, depth))
        assert tuple(r[0] for r in records) == \
            enumerate_ground(psi, sig, a, depth)
        assert records == tuple(r for size in range(1, depth + 1)
                                for r in enumeration.table[psi, a, size])
        # every record of every table, inner scopes included
        for m, strict, used, free, state in itertools.chain.from_iterable(
                enumeration.table.values()):
            env = dict.fromkeys(free_vars(m), base)
            assert (strict, used, free) == \
                (*occurrences(env, sig, m)[1:], free_vars(m)), print_term(m)
            assert state == 0  # no pattern nodes to match


# two base types and a constant from one to the other: a head whose target
# is the other base type builds nothing at this one
TWO_BASE_SIG = parse_signature(
    "a : type. b : type. c : b. f : b ->1 a. g : a ->1 a ->1 a.")


def test_enumerate_ground_over_two_base_types():
    a, b = parse_type("a", TWO_BASE_SIG), parse_type("b", TWO_BASE_SIG)

    def printed(psi, ty, depth):
        return [print_term(t)
                for t in enumerate_ground(psi, TWO_BASE_SIG, ty, depth)]
    assert printed((), b, 7) == ["c"]
    assert printed((), a, 7) == ["f @1 c", "g @1 (f @1 c) @1 (f @1 c)"]
    assert printed((("x", b),), b, 7) == ["c", "x"]
    assert printed((("x", b),), a, 5) == [
        "f @1 c", "f @1 x", "g @1 (f @1 c) @1 (f @1 c)",
        "g @1 (f @1 c) @1 (f @1 x)", "g @1 (f @1 x) @1 (f @1 c)",
        "g @1 (f @1 x) @1 (f @1 x)"]


def test_eq_and_complement_over_two_base_types():
    psi = (("x", parse_type("b", TWO_BASE_SIG)),)
    a = parse_type("a", TWO_BASE_SIG)
    whole = pset(TWO_BASE_SIG, psi, a, ["E[x^u]"])
    parts = ["f @1 E[x^u]", "g @1 E[x^1] @1 F[x^u]"]
    split = pset(TWO_BASE_SIG, psi, a, parts + ["g @1 E[x^0] @1 F[x^u]"])
    assert first_difference(TWO_BASE_SIG, whole, split, 11) is None
    m, in_first = first_difference(TWO_BASE_SIG, whole,
                                   pset(TWO_BASE_SIG, psi, a, parts), 11)
    assert (print_term(m), in_first) == ("g @1 (f @1 c) @1 (f @1 c)", True)
    p = pat(TWO_BASE_SIG, "x:b", "a", "g @1 (f @1 E[x^1]) @1 F[x^u]")
    c = complement(TWO_BASE_SIG, p)
    for m in ground(TWO_BASE_SIG, psi, a, 11):
        assert match_ground(psi, TWO_BASE_SIG, m, p) is not \
            member_set(TWO_BASE_SIG, m, c), print_term(m)


def test_extensional_eq_distinguishes_structure():
    whole = pset(STRICT_SIG, X_A, A, ["E[x^u]"])
    split = pset(STRICT_SIG, X_A, A, ["E[x^1]", "E[x^0]"])
    assert extensional_eq(STRICT_SIG, whole, split, 7)
    assert not pattern_sets_equal(whole, split)
    # with an undetermined arrow in the signature the split has a gap:
    # terms that use x without a strict occurrence, such as c @u x
    whole_ab = pset(AB_SIG, X_A, A, ["E[x^u]"])
    split_ab = pset(AB_SIG, X_A, A, ["E[x^1]", "E[x^0]"])
    assert not extensional_eq(AB_SIG, whole_ab, split_ab, 4)
    assert first_difference(STRICT_SIG, whole, split, 7) is None
    m, in_first = first_difference(AB_SIG, split_ab, whole_ab, 4)
    assert (print_term(m), in_first) == ("c @u x", False)


def test_first_difference_keeps_the_sets_hole_tables_apart():
    # both sets name their one hole H1; every ground term uses x strictly,
    # so only the first set has instances, the first of them being x
    strict = pset(STRICT_A_SIG, X_A, A, ["E[x^1]"])
    vacuous = pset(STRICT_A_SIG, X_A, A, ["E[x^0]"])
    assert strict.members[0].name == vacuous.members[0].name == "H1"
    for depth in (1, 5):
        m, in_first = first_difference(STRICT_A_SIG, strict, vacuous, depth)
        assert (print_term(m), in_first) == ("x", True)
        m, in_first = first_difference(STRICT_A_SIG, vacuous, strict, depth)
        assert (print_term(m), in_first) == ("x", False)


def plain_first_difference(sig, s1, s2, depth):
    """first_difference with no tables: every member matched afresh."""
    for m in enumerate_ground(s1.psi, sig, s1.type, depth):
        in_first = any(match_ground(s1.psi, sig, m, p) for p in s1.patterns())
        if in_first != any(match_ground(s2.psi, sig, m, p)
                           for p in s2.patterns()):
            return m, in_first
    return None


def test_first_difference_agrees_with_plain_matching():
    # the outer pattern binder y meets the ground binder x, which the body
    # names, so the body is renamed to a fresh name; the inner binder x
    # meets x1, which the body does not name, so it is simply renamed
    both_branches = CorpusEntry(
        "both-branches", LAM_SIG, "", "exp",
        r"lam @1 (\y^u:exp. lam @1 (\x^u:exp. E[y^0, x^1]))")
    for entry in complement_corpus() + [both_branches]:
        s = make_pattern_set(entry.psi, entry.a, [entry.pattern.term])
        c = complement(entry.sig, entry.pattern)
        pairs = ((s, c), (c, set_union(c, s)), (set_union(s, c), set_union(c, s)))
        for s1, s2 in pairs:
            want = plain_first_difference(entry.sig, s1, s2, 7)
            got = first_difference(entry.sig, s1, s2, 7)
            assert got == want, (entry.name, got, want)
            assert extensional_eq(entry.sig, s1, s2, 7) is (want is None)


# partitions of the universal pattern by 1/0/u hole labels
PARTITION_SPACES = [
    (LAM_SIG, X_EXP, EXP, ["x", "app @1 E[x^1] @1 F[x^u]",
                           "app @1 E[x^0] @1 F[x^u]",
                           r"lam @1 (\y^u:exp. E[x^u, y^1])",
                           r"lam @1 (\y^u:exp. E[x^u, y^0])"]),
    (STRICT_A_SIG, XY_A, A, ["x", "y", "c @1 E[x^1, y^u] @1 F[x^u, y^u]",
                             "c @1 E[x^0, y^1] @1 F[x^u, y^0]",
                             "c @1 E[x^0, y^1] @1 F[x^u, y^1]",
                             "c @1 E[x^0, y^0] @1 F[x^u, y^u]"])]


def test_first_difference_agrees_with_plain_matching_on_partitions():
    # many distinct subterms share one occurrence summary, and so one hole
    # mask; each space is compared with its whole once, and once with a
    # member dropped
    for sig, psi, a, texts in PARTITION_SPACES:
        whole = make_pattern_set(psi, a, [universal_pattern(psi, sig, a)])
        for parts, equal in ((texts, True), (texts[:2] + texts[3:], False)):
            s = pset(sig, psi, a, parts)
            want = plain_first_difference(sig, s, whole, 9)
            assert (want is None) is equal
            assert first_difference(sig, s, whole, 9) == want
            assert first_difference(sig, whole, s, 9) == \
                plain_first_difference(sig, whole, s, 9)


def hand_built(sig, psi, a, texts):
    """A set whose members skip validation, so their binders may shadow psi;
    every variable has type a."""
    def typed(e, _):
        return EVar(e.name, a, e.args)

    return PatternSet(psi, a, tuple(map_evars(parse_term(text, sig), typed)
                                    for text in texts))


def test_first_difference_agrees_with_plain_matching_on_shadowing_sets():
    # each member's binders shadow the context variable x, or take the
    # names x1 and x2 the enumerator gives its binders, crossed over; each
    # twin is the same pattern with validated names
    psi = (("x", EXP),)
    shadowing = hand_built(LAM_SIG, psi, EXP, [
        r"lam @1 (\x^u:exp. H1[x^1])",
        r"lam @1 (\x^u:exp. app @1 x @1 H2[x^0])",
        r"lam @1 (\x2^u:exp. lam @1 (\x1^u:exp. "
        r"app @1 x2 @1 H3[x^0, x2^1, x1^u]))",
        r"app @1 H4[x^1] @1 (lam @1 (\x^u:exp. lam @1 (\x1^u:exp. "
        r"H5[x^u, x1^1])))"])
    twins = pset(LAM_SIG, psi, EXP, [
        r"lam @1 (\y^u:exp. E[x^0, y^1])",
        r"lam @1 (\y^u:exp. app @1 y @1 E[x^0, y^0])",
        r"lam @1 (\y^u:exp. lam @1 (\z^u:exp. app @1 y @1 E[x^0, y^1, z^u]))",
        r"app @1 E[x^1] @1 (lam @1 (\y^u:exp. lam @1 (\z^u:exp. "
        r"F[x^0, y^u, z^1])))"])
    comp = set_complement(LAM_SIG, twins)
    top = make_pattern_set(psi, EXP, [universal_pattern(psi, LAM_SIG, EXP)])
    cases = [(shadowing, twins, True), (twins, shadowing, True),
             (set_union(shadowing, comp), top, True)]
    for i in range(len(twins.members)):
        one = PatternSet(psi, EXP, shadowing.members[i:i + 1])
        cases += [(one, PatternSet(psi, EXP, twins.members[i:i + 1]), True),
                  (one, PatternSet(psi, EXP, (twins.members[i - 1],)), False),
                  (shadowing, PatternSet(psi, EXP, twins.members[:i]), False)]
    for s1, s2, equal in cases:
        want = plain_first_difference(LAM_SIG, s1, s2, 7)
        assert (want is None) is equal
        assert first_difference(LAM_SIG, s1, s2, 7) == want


def test_match_states_agree_with_match_ground():
    # each member root's bit in an enumerated term's state is what the
    # top-down walk says, for a pattern and the members of its complement,
    # on every term: the enumeration keeps every term of each class
    checks = 0
    for entry in complement_corpus():
        p = entry.pattern
        members = (p.term,) + complement(entry.sig, p).members
        match = _MatchStates(entry.sig, p.psi, members)
        enumeration = _Enumeration(entry.sig, match)
        for m, *_, state in enumeration.up_to(p.psi, p.type, 6):
            want = [match_ground(p.psi, entry.sig, m,
                                 SimpleLinearPattern(t, p.psi, p.type))
                    for t in members]
            assert [state & root != 0 for root in match.roots] == want, \
                (entry.name, print_term(m))
            checks += len(want)
    assert checks == 525


def first_of_each_class(records):
    """The first record of each class (record without the term), in order."""
    seen, out = set(), []
    for r in records:
        if r[1:] not in seen:
            seen.add(r[1:])
            out.append(r)
    return out


def test_one_per_class_tables_hold_the_first_term_of_each_class():
    # on the spaces of the corpus and the partition tests, and on one whose
    # heads mix u and 0 arguments, so that two terms with the same strict
    # and free sets differ in their used sets, which no member here tests:
    # d @u x @0 b and d @u b @0 x
    mixed = parse_signature("a : type. b : a. d : a ->u a ->0 a.")
    cases = [(mixed, X_A, A,
              pset(mixed, X_A, A, ["E[x^u]", "E[x^1]"]).members)]
    for entry in complement_corpus():
        p = entry.pattern
        cases.append((entry.sig, p.psi, p.type,
                      (p.term,) + complement(entry.sig, p).members))
    for sig, psi, a, texts in PARTITION_SPACES:
        cases.append((sig, psi, a, pset(sig, psi, a, texts).members +
                      (universal_pattern(psi, sig, a),)))
    for sig, psi, a, members in cases:
        match = _MatchStates(sig, psi, members)
        every = _Enumeration(sig, match)
        kept = _Enumeration(sig, match, one_per_class=True)
        for enumeration in (every, kept):
            for _ in enumeration.up_to(psi, a, 6):
                pass
        assert kept.table.keys() == every.table.keys()
        for key, records in kept.table.items():
            assert records == first_of_each_class(every.table[key]), key


def class_table_cases():
    """The spaces and members of
    ``test_one_per_class_tables_hold_the_first_term_of_each_class``."""
    mixed = parse_signature("a : type. b : a. d : a ->u a ->0 a.")
    cases = [(mixed, X_A, A,
              pset(mixed, X_A, A, ["E[x^u]", "E[x^1]"]).members)]
    for entry in complement_corpus():
        p = entry.pattern
        cases.append((entry.sig, p.psi, p.type,
                      (p.term,) + complement(entry.sig, p).members))
    for sig, psi, a, texts in PARTITION_SPACES:
        cases.append((sig, psi, a, pset(sig, psi, a, texts).members +
                      (universal_pattern(psi, sig, a),)))
    return cases


def test_spine_masks_are_the_and_of_their_position_masks():
    # every spine mask that a depth-6 enumeration reaches, and every one at
    # arity 0, holds exactly the rules whose every argument bit the
    # argument states meet
    checks = 0
    for sig, psi, a, members in class_table_cases():
        match = _MatchStates(sig, psi, members)
        for _ in _Enumeration(sig, match).up_to(psi, a, 6):
            pass
        for key, masks in match.spine_masks.items():
            for states in list(masks) if key[1] else [()]:
                want = 0
                for bit, arg_bits in match.spines[key]:
                    if all(s & b for s, b in zip(states, arg_bits)):
                        want |= bit
                assert masks[states] == want, (key, states)
                checks += 1
    assert checks == 126


def _expansions(sig, hole, fresh):
    """One term per head for an all-u hole: together they have exactly the
    hole's instances.  The signatures here have one base type, so every
    variable in scope has the hole's type."""
    scope = [(x, hole.type) for x, _ in hole.args]
    heads = [(Const(n), t) for n, t in sig.constants()] + \
        [(Var(x), t) for x, t in scope]
    out = []
    for head, hty in heads:
        doms, base = arrow_chain(hty)
        if base == hole.type:
            out.append(make_spine(head, [
                (universal_pattern(scope, sig, dom, fresh()), k)
                for dom, k in doms]))
    return out


@st.composite
def _partitions(draw, sig, psi, a):
    """A partition of the universal pattern by heads and labels, built in a
    few steps: a step expands an all-u hole into one member per head (the
    first step always does), or splits a u label into 1 and 0 twins (in
    these signatures every name a term uses it uses strictly)."""
    fresh = map("E{}".format, itertools.count()).__next__
    members = [universal_pattern(psi, sig, a, fresh())]
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(members) - 1))
        holes = list(iter_evars(members[i]))
        if not holes:
            continue
        e = draw(st.sampled_from(holes))
        us = [j for j, (_, k) in enumerate(e.args) if k is Label.U]
        if len(us) == len(e.args) and (len(members) == 1 or
                                       draw(st.booleans())):
            fills = _expansions(sig, e, fresh)
        elif us:
            j = draw(st.sampled_from(us))
            fills = [EVar(e.name, e.type, e.args[:j] + ((e.args[j][0], k),)
                          + e.args[j + 1:]) for k in (Label.ONE, Label.ZERO)]
        else:
            continue
        members[i:i + 1] = [
            map_evars(members[i], lambda h, _, f=f: f if h == e else h)
            for f in fills]
    return [validate_pattern(psi, sig, t, a).term for t in members]


def _rename_binders(t, pick, names):
    """t with each binder renamed to pick(), possibly shadowing a name in
    scope (as in ``hand_built``): references follow, and a hole's argument
    that a shadowing binder hides is dropped.  names maps old names to new."""
    if isinstance(t, Lam):
        y = pick()
        return Lam(y, t.label, t.domty,
                   _rename_binders(t.body, pick, {**names, t.var: y}))
    if isinstance(t, App):
        return App(_rename_binders(t.fun, pick, names),
                   _rename_binders(t.arg, pick, names), t.label)
    if isinstance(t, Var):
        return Var(names.get(t.name, t.name))
    if isinstance(t, EVar):
        args = [(names.get(x, x), k) for x, k in t.args]
        return EVar(t.name, t.type, tuple(
            (x, k) for i, (x, k) in enumerate(args)
            if x not in {y for y, _ in args[i + 1:]}))
    return t


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_first_difference_agrees_with_plain_matching_on_generated_sets(data):
    # generated partitions of the universal pattern; sometimes one member
    # is dropped, and sometimes the binders are renamed away from the
    # enumerator's names, crossed over or shadowing the context
    sig, psi, a = data.draw(st.sampled_from(
        [(LAM_SIG, X_EXP, EXP), (STRICT_A_SIG, XY_A, A)]))
    sides = []
    for _ in range(2):
        members = data.draw(_partitions(sig, psi, a))
        if len(members) > 1 and data.draw(st.booleans()):
            del members[data.draw(st.integers(0, len(members) - 1))]
        if data.draw(st.booleans()):
            names = st.sampled_from(["x", "x1", "x2", "y"])
            members = [_rename_binders(t, lambda: data.draw(names), {})
                       for t in members]
        sides.append(PatternSet(psi, a, tuple(members)))
    depth = data.draw(st.integers(1, 7))
    s1, s2 = sides
    assert first_difference(sig, s1, s2, depth) == \
        plain_first_difference(sig, s1, s2, depth)
    assert first_difference(sig, s2, s1, depth) == \
        plain_first_difference(sig, s2, s1, depth)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.data())
def test_complement_and_exclusive_cover_are_exact_on_generated_members(data):
    # each member p of a generated partition: every ground term up to the
    # depth lies in exactly one of p and complement(p), and in exactly one
    # of p and the members of make_exclusive(p), which has as many members
    sig, psi, a = data.draw(st.sampled_from(
        [(LAM_SIG, X_EXP, EXP), (STRICT_A_SIG, XY_A, A)]))
    depth = data.draw(st.integers(1, 6))
    terms = ground(sig, psi, a, depth)
    for t in data.draw(_partitions(sig, psi, a)):
        p = SimpleLinearPattern(t, psi, a)
        comp, exclusive = complement(sig, p), make_exclusive(sig, p)
        assert len(exclusive.members) == len(comp.members), print_term(t)
        for m in terms:
            inside = match_ground(psi, sig, m, p)
            assert member_set(sig, m, comp) != inside, \
                (print_term(t), print_term(m))
            hits = sum(match_ground(psi, sig, m, q)
                       for q in exclusive.patterns())
            assert hits == (not inside), (print_term(t), print_term(m), hits)


def test_first_difference_stops_at_the_first_differing_size():
    # over x:a, y:a there are 129,958 terms of size 15 or less, 109,824 of
    # them of size 15; the second set misses exactly the terms
    # c @1 (c ...) @1 (c ...), the smallest of which have size 7
    psi = (("x", A), ("y", A))
    every = pset(STRICT_A_SIG, psi, A, ["E[x^u, y^u]"])
    no_pair_of_pairs = pset(STRICT_A_SIG, psi, A, [
        "x", "y", "c @1 E[x^u, y^u] @1 x", "c @1 E[x^u, y^u] @1 y",
        "c @1 x @1 E[x^u, y^u]", "c @1 y @1 E[x^u, y^u]"])
    tracemalloc.start()
    try:
        m, in_first = first_difference(STRICT_A_SIG, every, no_pair_of_pairs,
                                       15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (print_term(m), in_first) == \
        ("c @1 (c @1 x @1 x) @1 (c @1 x @1 x)", True)
    # the 102 terms up to size 7 need a few tens of kB; building every
    # size would need tens of MB
    assert peak < 1_000_000, peak


def test_first_difference_tables_grow_by_class_not_by_term():
    # an equal pair over x:exp: E[x^u] split by head, and under lam by how
    # the binder is used.  Up to size 13 the full enumeration has 47,259
    # terms at the top and 139,113 in all its tables; one term per class
    # and table leaves 366, and each is the only term built for its class
    parts = pset(LAM_SIG, X_EXP, EXP, [
        "x", "app @1 E[x^u] @1 F[x^u]", r"lam @1 (\y^u:exp. E[x^u, y^1])",
        r"lam @1 (\y^u:exp. E[x^u, y^0])"])
    whole = pset(LAM_SIG, X_EXP, EXP, ["E[x^u]"])

    class Recorded(_Enumeration):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    def counted(cls):
        init = cls.__init__

        def __init__(self, *args):
            built[cls] += 1
            init(self, *args)
        return __init__

    for depth in (13, 20):
        made, built = [], dict.fromkeys((App, Lam), 0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra, "_Enumeration", Recorded)
            for cls in built:
                patch.setattr(cls, "__init__", counted(cls))
            assert first_difference(LAM_SIG, whole, parts, depth) is None
        (enumeration,) = made
        records = list(itertools.chain.from_iterable(
            enumeration.table.values()))
        if depth == 13:
            assert len(records) <= 400
        # a term is built only for a new class: each App and Lam made is a
        # node of the spine or abstraction of a kept record
        kept = dict.fromkeys((App, Lam), 0)
        for m, *_ in records:
            if isinstance(m, Lam):
                kept[Lam] += 1
            while isinstance(m, App):
                m, kept[App] = m.fun, kept[App] + 1
        assert built == kept, (depth, len(records))


def test_ground_oracle_leaves_no_cyclic_garbage():
    # each call's record and match-state tables, and the walkers of the
    # complement, intersection, validation and set building, are freed by
    # reference counting when it returns, not left for the cyclic collector
    psi = (("x", A), ("y", A))
    s = pset(STRICT_A_SIG, psi, A, ["E[x^1, y^u]"])
    m = parse_term("c @1 x @1 (c @1 y @1 x)", STRICT_A_SIG)
    p = s.pattern(0)
    lam = pat(LAM_SIG, "", "exp", BETA_REDEX)
    lams = complement(LAM_SIG, lam)
    eta = pat(LAM_SIG, "", "exp", ETA_REDEX)
    calls = {
        "enumerate_ground": lambda: enumerate_ground(psi, STRICT_A_SIG, A, 7),
        "first_difference": lambda: first_difference(STRICT_A_SIG, s, s, 7),
        "member_set": lambda: member_set(STRICT_A_SIG, m, s),
        "match_ground": lambda: match_ground(psi, STRICT_A_SIG, m, p),
        "complement": lambda: complement(LAM_SIG, lam),
        "set_intersect": lambda: set_intersect(LAM_SIG, lams, lams),
        "validate_pattern": lambda: validate_pattern(
            (), LAM_SIG, lam.term, EXP),
        "clause_complement": lambda: clause_complement(
            LAM_SIG, [Clause("r1", "r", lam), Clause("r2", "r", eta)]),
        "make_pattern_set": lambda: make_pattern_set(
            psi, A, [E_REPEATED, s.members[0], E_REPEATED]),
        "term_key": lambda: term_key(lam.term),
        "map_evars": lambda: map_evars(lam.term, lambda e, _: e)}
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_clause_complement_golden():
    redex = pat(LAM_SIG, "", "exp", BETA_REDEX)
    got = clause_complement(LAM_SIG, [Clause("r1", "betardx", redex)])
    assert [c.name for c in got] == [f"n{i}" for i in range(1, len(got) + 1)]
    assert {c.pred for c in got} == {"non_betardx"}
    comp = complement(LAM_SIG, redex)
    heads = make_pattern_set((), EXP, [c.pattern.term for c in got])
    assert pattern_sets_equal(heads, comp)


def test_clause_complement_errors():
    redex = pat(LAM_SIG, "", "exp", BETA_REDEX)
    with pytest.raises(ValueError):
        clause_complement(LAM_SIG, [])
    with pytest.raises(ValueError):
        clause_complement(LAM_SIG, [Clause("r1", "p", redex),
                                    Clause("r2", "q", redex)])
    other = pat(LAM_SIG, "x:exp", "exp", "F[x^u]")
    with pytest.raises(PreconditionViolated):
        clause_complement(LAM_SIG, [Clause("r1", "p", redex),
                                    Clause("r2", "p", other)])


def test_pattern_sets_equal_modulo_order_and_renaming():
    s1 = pset(A_SIG, X_A, A, ["E[x^1]", "F[x^0]"])
    s2 = pset(A_SIG, X_A, A, ["G[x^0]", "H[x^1]"])
    assert pattern_sets_equal(s1, s2)
    assert not pattern_sets_equal(s1, pset(A_SIG, X_A, A, ["E[x^1]"]))
    assert not pattern_sets_equal(s1, pset(A_SIG, X_A, A,
                                           ["E[x^1]", "F[x^u]"]))
