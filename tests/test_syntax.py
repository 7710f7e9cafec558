"""Terms, types, printing, parsing, alpha-equivalence (``term_key``),
substitution."""

import pickle

import pytest
from hypothesis import given, strategies as st

from strictpat import (App, Arrow, Atom, Const, EVar, EVarArgHit, Label, Lam,
                       ParseError, Var, evar_names, free_vars, fresh_name,
                       make_spine, parse_context, parse_program,
                       parse_signature, parse_term, parse_type, print_term,
                       print_type, subst, term_key, term_size)
from strictpat import syntax
from strictpat.syntax import _occurrence_sets, rename_free_var

RT_SIG = parse_signature("a : type. b : type. c : a. d : a ->1 a.")
A, B = Atom("a"), Atom("b")

labels = st.sampled_from((Label.ONE, Label.ZERO, Label.U))
var_names = st.sampled_from(("x", "y", "z", "w"))
types = st.recursive(st.sampled_from((A, B)),
                     lambda t: st.builds(Arrow, t, labels, t), max_leaves=6)

phis = st.lists(st.tuples(var_names, labels), max_size=3,
                unique_by=lambda e: e[0]).map(tuple)
terms = st.recursive(
    st.one_of(st.builds(Var, var_names),
              st.sampled_from((Const("c"), Const("d"))),
              st.builds(EVar, st.sampled_from(("E", "F")), st.none(), phis)),
    lambda t: st.one_of(st.builds(Lam, var_names, labels, types, t),
                        st.builds(App, t, t, labels)),
    max_leaves=8)


def test_labels_hash_by_identity():
    # members are singletons, so object's C-level hash serves
    assert Label.__hash__ is object.__hash__
    assert Label("1") is Label.ONE and Label("0") is Label.ZERO
    assert Label("u") is Label.U
    table = {k: str(k) for k in Label}
    assert [table[Label(v)] for v in "10u"] == ["1", "0", "u"]
    assert {Label.ONE, Label("1"), Label.U} == {Label.ONE, Label.U}
    for k in Label:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(k, protocol)) is k


@given(types)
def test_type_print_parse_roundtrip(a):
    assert parse_type(print_type(a), RT_SIG) == a


@given(terms)
def test_term_print_parse_roundtrip(m):
    assert parse_term(print_term(m), RT_SIG) == m


@given(terms)
def test_alpha_eq_reflexive(m):
    assert term_key(m) == term_key(m)


@given(var_names, var_names, labels, types, terms)
def test_alpha_eq_ignores_binder_names(x, v, k, a, body):
    # v may name binders of body: rename_free_var renames them apart
    z = fresh_name(v, free_vars(body) | {x})
    renamed = Lam(z, k, a, rename_free_var(body, x, z))
    assert term_key(Lam(x, k, a, body)) == term_key(renamed)


def test_alpha_eq_distinguishes_labels_and_structure():
    def key(text):
        return term_key(parse_term(text, RT_SIG))

    s = key(r"\x^1:a. x")
    assert s != key(r"\x^u:a. x")
    assert s != key(r"\x^1:b. x")
    assert key("c @1 x") != key("c @u x")
    assert key("E[x^1]") != key("E[x^u]")
    # EVars are renamed one-to-one: a different name agrees, a merged or
    # split pair of names does not
    assert key("E[x^1]") == key("F[x^1]")
    assert key("x @1 E[] @1 F[]") == key("x @1 F[] @1 E[]")
    assert key("x @1 E[] @1 E[]") != key("x @1 E[] @1 F[]")


def test_arrows_are_right_associative():
    a = parse_type("a ->1 a ->0 b", RT_SIG)
    assert a == Arrow(A, Label.ONE, Arrow(A, Label.ZERO, B))
    assert parse_type("(a ->u a) ->1 b", RT_SIG) == \
        Arrow(Arrow(A, Label.U, A), Label.ONE, B)
    assert print_type(a) == "a ->1 a ->0 b"
    assert print_type(Arrow(Arrow(A, Label.U, A), Label.ONE, B)) == \
        "(a ->u a) ->1 b"


def test_application_is_left_associative():
    m = parse_term("d @1 x @1 y", RT_SIG)
    assert m == App(App(Const("d"), Var("x"), Label.ONE), Var("y"), Label.ONE)
    assert parse_term("d @1 (d @1 x)", RT_SIG) == \
        App(Const("d"), App(Const("d"), Var("x"), Label.ONE), Label.ONE)


def test_lambda_body_extends_right():
    m = parse_term(r"\x^u:a. d @1 x @0 y", RT_SIG)
    assert isinstance(m, Lam) and isinstance(m.body, App)


def test_comments_and_apostrophes():
    m = parse_term("E'[x^1] % trailing comment", RT_SIG)
    assert m == EVar("E'", None, (("x", Label.ONE),))


def test_labeled_mode_rejects_plain_syntax():
    with pytest.raises(ParseError):
        parse_type("a -> a", RT_SIG)
    with pytest.raises(ParseError):
        parse_term(r"\x:a. x", RT_SIG)
    # an arrow label must not swallow a following identifier
    assert parse_type("a ->u a", RT_SIG) == Arrow(A, Label.U, A)
    with pytest.raises(ParseError):
        parse_type("a ->unit", RT_SIG)


def test_label_free_mode():
    sig = parse_signature("exp : type. lam : (exp -> exp) -> exp.",
                          labeled=False)
    m = parse_term(r"lam (\x:exp. x)", sig, labeled=False)
    assert m == App(Const("lam"),
                    Lam("x", Label.U, Atom("exp"), Var("x")), Label.U)
    assert parse_term("E[x, y]", sig, labeled=False) == \
        EVar("E", None, (("x", Label.U), ("y", Label.U)))
    with pytest.raises(ParseError):
        parse_type("exp ->1 exp", sig, labeled=False)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_term("c @1", RT_SIG)
    with pytest.raises(ParseError):
        parse_term("c )", RT_SIG)
    with pytest.raises(ParseError):
        parse_term("a", RT_SIG)  # base type as a term
    with pytest.raises(ParseError):
        parse_term("c[x^1]", RT_SIG)  # constant as an EVar
    with pytest.raises(ParseError):
        parse_term("?", RT_SIG)


# deeper than the recursion limit allows the recursive parser to go
DEEP_TERM = "(" * 5000 + "c" + ")" * 5000
DEEP_BINDERS = r"\x^u:a. " * 3000 + "x"
DEEP_TYPE = "a ->1 " * 3000 + "a"


def test_deep_term_is_a_parse_error():
    for text in (DEEP_TERM, DEEP_BINDERS):
        with pytest.raises(ParseError, match="^input nested too deeply$"):
            parse_term(text, RT_SIG)


def test_deep_type_is_a_parse_error():
    for text in (DEEP_TYPE, "(" * 5000 + "a" + ")" * 5000):
        with pytest.raises(ParseError, match="^input nested too deeply$"):
            parse_type(text, RT_SIG)


def test_deep_signature_is_a_parse_error():
    with pytest.raises(ParseError, match="^input nested too deeply$"):
        parse_signature(f"a : type. c : {DEEP_TYPE}.")


def test_deep_context_is_a_parse_error():
    with pytest.raises(ParseError, match="^input nested too deeply$"):
        parse_context(f"x : {DEEP_TYPE}", RT_SIG)


def test_deep_program_is_a_parse_error():
    with pytest.raises(ParseError, match="^input nested too deeply$"):
        parse_program(f"r1 : p {DEEP_TERM}.", RT_SIG)


def test_signature_parsing():
    sig = parse_signature("a : type. c : a ->1 a.")
    assert sig.is_type("a") and not sig.is_type("c")
    assert sig.const_type("c") == Arrow(A, Label.ONE, A)
    assert tuple(sig.constants()) == (("c", Arrow(A, Label.ONE, A)),)
    with pytest.raises(ParseError):
        parse_signature("c : a ->1 a.")  # 'a' never declared
    with pytest.raises(ValueError):
        parse_signature("a : type. a : type.")


def test_signature_types_name_earlier_base_types_only():
    with pytest.raises(ParseError,
                       match="^undeclared base type 'a' at offset 4$"):
        parse_signature("c : a. a : type.")
    with pytest.raises(ParseError,
                       match="^undeclared base type 'c' at offset 21$"):
        parse_signature("a : type. c : a. d : c.")  # a constant, not a type


def test_parse_signature_builds_one_signature(monkeypatch):
    # atoms are checked against the base types declared so far, not
    # against a Signature of the earlier declarations, so parsing is linear
    built = []
    init = syntax.Signature.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(syntax.Signature, "__init__", counting_init)
    text = "a : type.\n" + "".join(f"c{i} : a ->1 a.\n" for i in range(2000))
    sig = parse_signature(text)
    assert len(built) == 1
    assert len(sig.decls) == 2001 and sig.const_type("c1999") is \
        Arrow(A, Label.ONE, A)


def test_context_parsing():
    psi = parse_context("x:a, y:a ->1 b", RT_SIG)
    assert psi == (("x", A), ("y", Arrow(A, Label.ONE, B)))
    assert parse_context("", RT_SIG) == ()
    with pytest.raises(ParseError):
        parse_context("x:a, x:b", RT_SIG)
    with pytest.raises(ParseError):
        parse_context("c:a", RT_SIG)  # shadows a signature constant


def test_parse_program():
    text = ("r1 : p c @1 x.\n"
            "% a comment between clauses\n"
            "r2 : p E[].")
    clauses = parse_program(text, RT_SIG)
    assert [(n, p) for n, p, _ in clauses] == [("r1", "p"), ("r2", "p")]
    assert clauses[0][2] == App(Const("c"), Var("x"), Label.ONE)


def test_free_vars_and_evar_names():
    m = parse_term(r"\x^u:a. d @1 x @1 E[x^1, y^0]", RT_SIG)
    assert free_vars(m) == {"y"}
    assert evar_names(m) == {"E"}


def test_term_size():
    assert term_size(parse_term("c", RT_SIG)) == 1
    assert term_size(parse_term("d @1 c", RT_SIG)) == 2
    assert term_size(parse_term(r"\x^u:a. x", RT_SIG)) == 2
    # applications are free: a spine counts its head and arguments
    assert term_size(parse_term("x @1 y @1 y", RT_SIG)) == 3


def test_term_size_has_no_depth_limit():
    spine = make_spine(Const("d"), [(Const("c"), Label.ONE)] * 10_000)
    assert term_size(spine) == 10_001
    binders = Var("x")
    for _ in range(10_000):
        binders = Lam("x", Label.U, A, binders)
    assert term_size(binders) == 10_001


def test_fresh_name():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1"}) == "x2"


def test_subst_basics():
    m = parse_term("d @1 x", RT_SIG)
    assert subst(Const("c"), "x", m) == parse_term("d @1 c", RT_SIG)
    # binders shadow: no substitution under a binder of the same name
    lam = parse_term(r"\x^u:a. x", RT_SIG)
    assert subst(Const("c"), "x", lam) == lam


def test_subst_avoids_capture():
    m = parse_term(r"\y^u:a. x", RT_SIG)
    got = subst(Var("y"), "x", m)
    assert term_key(got) == term_key(parse_term(r"\z^u:a. y", RT_SIG))
    assert got.var != "y"


def test_subst_refuses_evar_arguments():
    with pytest.raises(EVarArgHit):
        subst(Const("c"), "x", parse_term("E[x^1]", RT_SIG))
    # even a variable-for-variable move is refused
    with pytest.raises(EVarArgHit):
        subst(Var("y"), "x", parse_term("d @1 E[x^0]", RT_SIG))


def test_rename_free_var():
    m = parse_term("d @1 x @1 E[x^1]", RT_SIG)
    assert rename_free_var(m, "x", "w") == \
        parse_term("d @1 w @1 E[w^1]", RT_SIG)
    # a binder named new with old free under it is renamed apart
    got = rename_free_var(parse_term(r"\y^u:a. x", RT_SIG), "x", "y")
    assert term_key(got) == term_key(parse_term(r"\y1^u:a. y", RT_SIG))
    # ... to a name free in its body, where the first pick would capture
    got = rename_free_var(parse_term(r"\y^u:a. d @1 x @1 y1", RT_SIG),
                          "x", "y")
    assert term_key(got) == \
        term_key(parse_term(r"\y2^u:a. d @1 y @1 y1", RT_SIG))
    # a binder named old hides it; one named new with old not free stays
    for text in (r"\x^u:a. x", r"\y^u:a. y"):
        assert rename_free_var(parse_term(text, RT_SIG), "x", "y") == \
            parse_term(text, RT_SIG)


def test_subst_renames_apart_the_binders_a_rename_meets():
    # the first binder is renamed y -> y1, which meets the binder y1 below
    m = parse_term(r"\y^u:a. \y1^u:a. d @1 y @1 z", RT_SIG)
    got = subst(Var("y"), "z", m)
    assert term_key(got) == \
        term_key(parse_term(r"\v^u:a. \w^u:a. d @1 v @1 y", RT_SIG))


def test_free_vars_has_no_depth_limit():
    # a 10,000-deep spine of binders of one name, each used under itself
    m = Var("w")
    for _ in range(10_000):
        m = Lam("x", Label.U, A,
                App(App(Const("d"), Var("x"), Label.ONE), m, Label.ONE))
    assert free_vars(m) == {"w"}
    assert free_vars(m.body) == {"w", "x"}
    # x is unbound again once the binders are left
    assert free_vars(App(m, Var("x"), Label.U)) == {"w", "x"}



def spine_of_binders(names, bottom):
    """\n1^u:a. d @1 (\n2^u:a. d @1 (... bottom)) over names n1, n2, ..."""
    m = bottom
    for x in reversed(names):
        m = Lam(x, Label.U, A, App(Const("d"), m, Label.ONE))
    return m


def test_subst_reads_names_once_but_for_the_binders_it_renames(monkeypatch):
    # a 400-node spine with z at the bottom; every 50th binder is named y,
    # free in the substituted term, so it is renamed apart
    names = ["y" if i % 50 == 0 else "x" for i in range(200)]
    m = spine_of_binders(names, Var("z"))
    walks = []
    monkeypatch.setattr(syntax, "_occurrence_sets",
                        lambda t: walks.append(t) or _occurrence_sets(t))
    got = subst(Var("y"), "z", m)
    assert len(walks) <= 1 + names.count("y")
    monkeypatch.undo()
    assert term_key(got) == term_key(spine_of_binders(["x"] * 200, Var("y")))
    # a term without the name free comes back as it is
    assert subst(Var("y"), "w", m) is m


def test_occurrence_sets_on_10000_nested_distinct_binders():
    # \v0. d @1 v0 @1 (\v1. d @1 v1 @1 ... (E[v0^k0, ..., v9999^k9999]
    # @1 s @u u @0 z)), the labels k cycling through 1, u, 0
    n, d = 10_000, Const("d")
    ks = [(Label.ONE, Label.U, Label.ZERO)[i % 3] for i in range(n)]
    hole = EVar("E", None, tuple((f"v{i}", ks[i]) for i in range(n)))
    m = App(App(App(hole, Var("s"), Label.ONE), Var("u"), Label.U),
            Var("z"), Label.ZERO)
    for i in reversed(range(n)):
        m = Lam(f"v{i}", Label.U, A,
                App(App(d, Var(f"v{i}"), Label.ONE), m, Label.ONE))
    assert _occurrence_sets(m) == ({"s"}, {"s", "u"}, {"s", "u", "z"})
    inner = m
    for _ in range(n // 2):
        inner = inner.body.arg
    # under the outer half of the binders their names occur free in the
    # hole, strict where labelled 1 and used where labelled 1 or u
    outer = range(n // 2)
    strict = {f"v{i}" for i in outer if ks[i] is Label.ONE}
    used = {f"v{i}" for i in outer if ks[i] is not Label.ZERO}
    free = {f"v{i}" for i in outer}
    assert _occurrence_sets(inner) == (strict | {"s"}, used | {"s", "u"},
                                       free | {"s", "u", "z"})
    assert free_vars(inner) == free | {"s", "u", "z"}


@pytest.mark.parametrize("t", [
    "x", 3, App(Var("x"), "y", Label.ONE),
    # a name where a binder's body belongs: not taken for the binder's end
    Lam("x", Label.U, A, App(Var("x"), "x", Label.U))])
def test_free_vars_raises_type_error_on_a_non_term(t):
    with pytest.raises(TypeError, match="not a term"):
        free_vars(t)
