"""Generated valid inputs: well-typed lam.sig terms with beta-redexes whose
binders shadow the context's names and bind the names that ``fresh_name``
and ``binder_name`` pick (x1, y1), run through the library and the CLI, and
over a signature that declares those names too."""

import contextlib
import io
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from strictpat import (App, Arrow, Const, Label, Lam, Signature, Var,
                       ZonedContext, arrow_chain, canonicalize, check,
                       is_canonical, occurrences, parse_term, print_term,
                       print_type, term_key)
from strictpat.cli import main
from strictpat.syntax import _occurrence_sets

from conftest import EXP, LABELS, LAM_SIG
from test_cli import LAM
NAMES = ("x", "x1", "y", "y1", "z")
FUN = Arrow(EXP, Label.U, EXP)
BINDER_TYPES = (EXP, FUN)
TOP_TYPES = (EXP, FUN, Arrow(EXP, Label.U, FUN))
DEPTH = 4

names = st.sampled_from(NAMES)


def _term(draw, env, a, depth):
    """A term of type a over env (name -> type), nested at most depth deep."""
    heads = sorted(x for x, b in env.items() if b == a)
    if depth == 0:
        if heads:
            return Var(draw(st.sampled_from(heads)))
        v = draw(names)
        if isinstance(a, Arrow):
            return Lam(v, a.label, a.dom,
                       _term(draw, {**env, v: a.dom}, a.cod, 0))
        return App(Const("lam"), Lam(v, Label.U, EXP, Var(v)), Label.ONE)
    funs = sorted(f for f, b in env.items() if b == FUN) if a == EXP else []
    kinds = ["redex"] + ["var"] * bool(heads) + ["call"] * bool(funs)
    kinds += ["lam", "app"] if a == EXP else ["abs"]
    kind = draw(st.sampled_from(kinds))
    d = depth - 1
    if kind == "var":
        return Var(draw(st.sampled_from(heads)))
    if kind == "call":
        return App(Var(draw(st.sampled_from(funs))), _term(draw, env, EXP, d),
                   Label.U)
    if kind == "app":
        return App(App(Const("app"), _term(draw, env, EXP, d), Label.ONE),
                   _term(draw, env, EXP, d), Label.ONE)
    v = draw(names)
    if kind == "lam":
        body = _term(draw, {**env, v: EXP}, EXP, d)
        return App(Const("lam"), Lam(v, Label.U, EXP, body), Label.ONE)
    if kind == "abs":
        body = _term(draw, {**env, v: a.dom}, a.cod, d)
        return Lam(v, a.label, a.dom, body)
    b = draw(st.sampled_from(BINDER_TYPES))  # a beta-redex
    return App(Lam(v, Label.U, b, _term(draw, {**env, v: b}, a, d)),
               _term(draw, env, b, d), Label.U)


@st.composite
def typed_terms(draw, ctx_names=NAMES):
    """(psi, a, m): a context over some of ctx_names, a type, and a term
    of that type over the context, its binders named from NAMES."""
    ctx = draw(st.lists(st.sampled_from(ctx_names), unique=True,
                        max_size=len(ctx_names)))
    psi = tuple((x, draw(st.sampled_from(BINDER_TYPES))) for x in ctx)
    a = draw(st.sampled_from(TOP_TYPES))
    return psi, a, _term(draw, dict(psi), a, DEPTH)


def rename_binders_apart(m):
    """An alpha-variant of the ground term m whose binders are named v0,
    v1, ..., each name new."""
    fresh = (f"v{i}" for i in itertools.count())

    def go(m, env):
        if isinstance(m, Var):
            return Var(env.get(m.name, m.name))
        if isinstance(m, Lam):
            v = next(fresh)
            return Lam(v, m.label, m.domty, go(m.body, {**env, m.var: v}))
        if isinstance(m, App):
            return App(go(m.fun, env), go(m.arg, env), m.label)
        return m
    return go(m, {})


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(typed_terms())
def test_canonical_forms_ignore_binder_names(case):
    psi, a, m = case
    got = canonicalize(psi, LAM_SIG, m, a)
    assert term_key(canonicalize(psi, LAM_SIG, rename_binders_apart(m), a)) \
        == term_key(got), print_term(m)
    ctx = ZonedContext(gamma=psi)
    assert check(ctx, LAM_SIG, got, a).inferred_type == a
    assert is_canonical(ctx, LAM_SIG, got, a)


def free_names(m):
    """The free names of the hole-free term m, by the textbook recursion."""
    if isinstance(m, Var):
        return {m.name}
    if isinstance(m, Lam):
        return free_names(m.body) - {m.var}
    if isinstance(m, App):
        return free_names(m.fun) | free_names(m.arg)
    return set()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(typed_terms())
def test_occurrence_sets_agree_with_the_type_checker(case):
    # the label-only walk behind free_vars and match_ground
    psi, a, m = case
    strict, used, free = _occurrence_sets(m)
    assert occurrences(dict(psi), LAM_SIG, m) == (a, strict, used)
    assert free == free_names(m)


# binders named like these constants would read back as the constants
DECLARED_SIG = Signature(LAM_SIG.decls + tuple(
    (c, EXP) for c in ("x1", "x2", "y1")))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(typed_terms(ctx_names=("x", "y", "z")))
def test_canonical_forms_read_back_over_a_signature_declaring_binder_names(
        case):
    psi, a, m = case
    c = canonicalize(psi, DECLARED_SIG, m, a)
    assert term_key(parse_term(print_term(c), DECLARED_SIG)) == term_key(c), \
        print_term(m)


def run(argv):
    """main(argv) as (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def sig(tmp_path_factory):
    path = tmp_path_factory.mktemp("generated") / "lam.sig"
    path.write_text(LAM)
    return path


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(typed_terms(), st.data())
def test_cli_on_generated_terms(sig, case, data):
    # canon and check succeed; member decides, or rejects a term that is
    # not canonical
    psi, a, m = case
    ctx = ", ".join(f"{x}:{print_type(b)}" for x, b in psi)
    space = ["--sig", str(sig), "--ctx", ctx, "--type", print_type(a)]
    term = print_term(m)
    # an eta-long hole pattern over the context, its binders named p1, ...
    doms = arrow_chain(a)[0]
    binders = [f"p{i}" for i in range(1, len(doms) + 1)]
    pattern = "".join(f"\\{p}^{k}:{print_type(b)}. "
                      for p, (b, k) in zip(binders, doms))
    pattern += "E[" + ", ".join(f"{x}^{data.draw(st.sampled_from(LABELS))}"
                                for x in [*(x for x, _ in psi), *binders]) + "]"
    code, out, err = run(["canon", *space, term])
    assert (code, err) == (0, ""), term
    canonical = out.strip()
    assert term_key(parse_term(canonical, LAM_SIG)) == \
        term_key(canonicalize(psi, LAM_SIG, m, a))
    code, out, err = run(["check", "--sig", str(sig), "--gamma", ctx,
                          "--type", print_type(a), term])
    assert (code, err) == (0, ""), term
    # the input need not be canonical (exit 2); its canonical form is
    assert run(["member", *space, term, pattern])[0] in (0, 1, 2)
    code, out, err = run(["member", *space, canonical, pattern])
    assert code in (0, 1) and err == "", (canonical, pattern)
    assert out == ("true\n" if code == 0 else "false\n")
