"""Command-line interface: exit codes, output shape, error paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strictpat
from strictpat import cli
from strictpat.cli import main

LAM = """exp : type.
lam : (exp ->u exp) ->1 exp.
app : exp ->1 exp ->1 exp.
"""
PLAIN = """exp : type.
lam : (exp -> exp) -> exp.
app : exp -> exp -> exp.
"""
AB = "a : type. b : a. c : a ->u a.\n"
STRICT = "a : type. b : a. c : a ->1 a ->1 a.\n"


@pytest.fixture
def sig(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return {"lam": write("lam.sig", LAM), "plain": write("plain.sig", PLAIN),
            "ab": write("ab.sig", AB), "strict": write("strict.sig", STRICT),
            "dir": tmp_path}


def lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_check_well_typed(sig, capsys):
    code = main(["check", "--sig", sig["lam"], "--delta", "x:exp",
                 "--type", "exp", "app @1 x @1 x"])
    assert code == 0
    got = lines(capsys)
    assert got == ["type: exp", "strict: x", "used: x"]


def test_check_ill_typed(sig, capsys):
    code = main(["check", "--sig", sig["lam"], "--omega", "x:exp",
                 "--type", "exp", "app @1 x @1 x"])
    assert code == 1
    assert lines(capsys)[0].startswith("ill-typed: irrelevant variable used")


@pytest.mark.parametrize("argv, err", [
    (["E[]"], "error: hole where a ground term is required: EVar E\n"),
    (["--gamma", "x:exp", "--delta", "x:exp", "x"],
     "error: zone violation: variable x declared in more than one zone\n")])
def test_check_rejects_input_that_is_no_judgment(sig, capsys, argv, err):
    # exit 1 means the judgment is false; a term with a hole or a name in
    # two zones makes no judgment at all
    code = main(["check", "--sig", sig["lam"], "--type", "exp", *argv])
    assert code == 2
    got = capsys.readouterr()
    assert (got.out, got.err) == ("", err)


def test_check_parse_error(sig, capsys):
    code = main(["check", "--sig", sig["lam"], "--type", "exp", "app @1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_canon(sig, capsys):
    code = main(["canon", "--sig", sig["lam"], "--ctx", "x : exp ->u exp",
                 "--type", "exp ->u exp", "x"])
    assert code == 0
    assert lines(capsys) == [r"\x1^u:exp. x @u x1"]


def test_canon_binder_avoids_the_signature(sig, capsys):
    # the eta-expansion binder must not capture the constant x
    (sig["dir"] / "x.sig").write_text("a : type. x : a ->u a.\n")
    base = ["--sig", str(sig["dir"] / "x.sig"), "--type", "a ->u a"]
    assert main(["canon", *base, "x"]) == 0
    assert lines(capsys) == [r"\x1^u:a. x @u x1"]
    assert main(["check", *base, r"\x1^u:a. x @u x1"]) == 0
    assert lines(capsys)[0] == "type: a ->u a"


@pytest.mark.parametrize("ctx, ty, term, want", [
    # the binder x shadows the context's x and is renamed to x1, which
    # meets the inner binder x1
    ("x:exp", "exp ->u exp", r"\x^u:exp. lam @1 (\x1^u:exp. x)",
     r"\v^u:exp. lam @1 (\w^u:exp. v)"),
    # the beta step renames the binder y, free in the argument, to y1,
    # which meets the inner binder y1
    ("y:exp", "exp ->u exp ->u exp",
     r"(\z^u:exp. \y^u:exp. \y1^u:exp. app @1 y @1 z) @u y",
     r"\v^u:exp. \w^u:exp. app @1 v @1 y")],
    ids=["shadowing-binder", "beta-step"])
def test_canon_renames_apart_the_binders_a_rename_meets(sig, capsys, ctx, ty,
                                                         term, want):
    assert main(["canon", "--sig", sig["lam"], "--ctx", ctx, "--type", ty,
                 term]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lam = strictpat.parse_signature(LAM)
    assert strictpat.term_key(strictpat.parse_term(out, lam)) == \
        strictpat.term_key(strictpat.parse_term(want, lam))


X1 = LAM + "x1 : exp.\n"


@pytest.mark.parametrize("sig_text, ty, term, want", [
    # the beta step renames the binder x, free in the argument, to x1,
    # which the signature declares
    (X1, "exp", r"(\z^u:exp. lam @1 (\x^u:exp. app @1 x @1 z)) @u x",
     r"lam @1 (\v^u:exp. app @1 v @1 x)"),
    # the binder x shadows the context's x, and x1 is declared
    ("exp : type. x1 : exp.\n", "exp ->u exp", r"\x^u:exp. x",
     r"\v^u:exp. v")],
    ids=["beta-step", "shadowing-binder"])
def test_canon_renames_binders_apart_from_the_signature(sig, capsys, sig_text,
                                                        ty, term, want):
    # a binder named like a constant would read back as that constant
    path = sig["dir"] / "x1.sig"
    path.write_text(sig_text)
    assert main(["canon", "--sig", str(path), "--ctx", "x:exp", "--type", ty,
                 term]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    declared = strictpat.parse_signature(sig_text)
    assert strictpat.term_key(strictpat.parse_term(out, declared)) == \
        strictpat.term_key(strictpat.parse_term(want, declared))


def test_canon_output_reads_back_as_the_member_it_is(sig, capsys):
    path = sig["dir"] / "x1.sig"
    path.write_text(X1)
    space = ["--sig", str(path), "--ctx", "x:exp", "--type", "exp"]
    assert main(["canon", *space,
                 r"(\z^u:exp. lam @1 (\x^u:exp. app @1 x @1 z)) @u x"]) == 0
    printed = capsys.readouterr().out.strip()
    assert main(["member", *space, printed,
                 r"lam @1 (\y^u:exp. app @1 E[x^u, y^1] @1 F[x^u, y^u])"]) == 0
    assert lines(capsys) == ["true"]


def test_canon_types_each_hole_where_it_sits(sig, capsys):
    base = ["canon", "--sig", sig["lam"], "--ctx", "x:exp"]
    assert main([*base, "--type", "exp", "app @1 E[x^u] @1 x"]) == 0
    assert lines(capsys) == ["app @1 E[x^u] @1 x"]
    # a hole at an arrow type absorbs the eta-expansion binder
    assert main([*base, "--type", "exp ->u exp", "E[x^u]"]) == 0
    assert lines(capsys) == [r"\x1^u:exp. E[x^u, x1^u]"]
    assert main([*base, "--type", "exp", "E[y^u]"]) == 2
    assert capsys.readouterr().err == \
        "error: unknown identifier: EVar argument y not in scope\n"


def test_canon_names_the_type_fault_of_a_term_with_a_hole(sig, capsys):
    base = ["canon", "--sig", sig["lam"], "--ctx", "x:exp"]
    # the same message as check gives for the term without the hole
    for term in (r"lam @1 (\y^u:exp. E[y^u, x^1])", r"lam @1 (\y^u:exp. y)"):
        assert main([*base, "--type", "exp ->u exp", term]) == 2
        assert capsys.readouterr() == \
            ("", "error: type mismatch: term has type exp, "
                 "expected exp ->u exp\n")
    for ty in ("exp", "exp ->u exp"):
        assert main([*base, "--type", ty, "E[x^u] @1 x"]) == 2
        assert capsys.readouterr() == \
            ("", "error: type mismatch: EVar E applied outside its "
                 "bracket list\n")


def test_not_rejects_a_hole_named_twice(sig, capsys):
    # completing the argument lists keeps each hole's name
    for ctx, hole in (("x:exp", "E[]"), ("x:exp", "E[x^0]"), ("", "E[]")):
        code = main(["not", "--sig", sig["lam"], "--ctx", ctx, "--type", "exp",
                     f"app @1 {hole} @1 {hole}"])
        assert code == 2
        assert capsys.readouterr() == \
            ("", "error: EVar E occurs more than once\n")


def test_not_names_an_abstraction_at_base_type(sig, capsys):
    base = ["not", "--sig", sig["lam"], "--type", "exp"]
    assert main([*base, r"\x^u:exp. x"]) == 2
    assert capsys.readouterr().err == \
        "error: abstraction \\x at base type exp in pattern\n"
    assert main([*base, r"(\x^u:exp. x) @1 E[]"]) == 2
    assert capsys.readouterr().err == "error: beta redex in pattern\n"


def test_not_and_exclusive(sig, capsys):
    (sig["dir"] / "a.sig").write_text("a : type.\n")
    base = ["not", "--sig", str(sig["dir"] / "a.sig"),
            "--ctx", "x:a, y:a", "--type", "a"]
    code = main(base + ["E[x^u, y^1]"])
    assert code == 0
    assert lines(capsys) == ["H1[x^u, y^0]"]
    code = main(base + ["--exclusive", "E[x^0, y^1]"])
    assert code == 0
    assert lines(capsys) == ["H1[x^1, y^u]", "H2[x^0, y^0]"]
    # the members that negate c's first argument leave the second universal;
    # the one that negates the second keeps the first, x
    code = main(["not", "--exclusive", "--sig", sig["strict"], "--ctx", "x:a",
                 "--type", "a", "c @1 x @1 E[x^0]"])
    assert code == 0
    assert lines(capsys) == [
        "b",
        "c @1 (c @1 H2[x^u] @1 H3[x^u]) @1 H4[x^u]",
        "c @1 b @1 H1[x^u]",
        "c @1 x @1 H5[x^1]",
        "x"]
    # two holes in one member: the names follow the order in which holes
    # are visited, function before argument
    code = main(["not", "--exclusive", "--sig", sig["lam"], "--type", "exp",
                 r"lam @1 (\x^u:exp. x)"])
    assert code == 0
    assert lines(capsys) == [
        "app @1 H1[] @1 H2[]",
        r"lam @1 (\x^u:exp. app @1 H4[x^u] @1 H5[x^u])",
        r"lam @1 (\x^u:exp. lam @1 (\x1^u:exp. H3[x^u, x1^u]))"]


def test_not_sorted_output(sig, capsys):
    (sig["dir"] / "a.sig").write_text("a : type.\n")
    base = ["not", "--sig", str(sig["dir"] / "a.sig"),
            "--ctx", "x:a, y:a", "--type", "a"]
    # output holes are numbered H1, H2, ... whatever the input's hole is
    # called
    for hole in ("E", "H1"):
        assert main(base + [f"{hole}[x^0, y^1]"]) == 0
        assert lines(capsys) == ["H1[x^1, y^u]", "H2[x^u, y^0]"]
    code = main(["not", "--sig", sig["lam"], "--type", "exp",
                 r"app @1 (lam @1 (\x^u:exp. E[x^u])) @1 F[]"])
    assert code == 0
    assert lines(capsys) == ["app @1 (app @1 H2[] @1 H3[]) @1 H4[]",
                             r"lam @1 (\x^u:exp. H1[x^u])"]


def test_not_rejects_non_embedded(sig, capsys):
    code = main(["not", "--sig", sig["ab"], "--ctx", "x:a", "--type", "a",
                 "E[x^0]"])
    assert code == 2
    assert "c : a ->u a" in capsys.readouterr().err


def test_meet(sig, capsys):
    code = main(["meet", "--sig", sig["strict"], "--ctx", "x:a",
                 "--type", "a", "E[x^1]", "c @1 F[x^u] @1 F'[x^u]"])
    assert code == 0
    got = lines(capsys)
    assert len(got) == 2 and all(t.startswith("c @1 ") for t in got)
    code = main(["meet", "--sig", sig["ab"], "--ctx", "x:a", "--type", "a",
                 "E[x^1]", "F[x^u]"])
    assert code == 0
    assert lines(capsys) == ["H1[x^1]"]


def test_meet_empty_is_success(sig, capsys):
    (sig["dir"] / "a.sig").write_text("a : type.\n")
    code = main(["meet", "--sig", str(sig["dir"] / "a.sig"), "--ctx", "x:a",
                 "--type", "a", "E[x^1]", "F[x^0]"])
    assert code == 0
    assert lines(capsys) == []


def test_diff(sig, capsys):
    (sig["dir"] / "a.sig").write_text("a : type.\n")
    code = main(["diff", "--sig", str(sig["dir"] / "a.sig"), "--ctx", "x:a",
                 "--type", "a", "E[x^u]", "F[x^1]"])
    assert code == 0
    assert lines(capsys) == ["H1[x^0]"]


def test_diff_at_an_arrow_type(sig, capsys):
    code = main(["diff", "--sig", sig["lam"], "--type", "exp ->u exp",
                 r"\x^u:exp. E[x^u]", r"\x^u:exp. x"])
    assert code == 0
    assert lines(capsys) == [
        r"\x^u:exp. app @1 H2[x^u] @1 H3[x^u]",
        r"\x^u:exp. lam @1 (\x1^u:exp. H1[x^u, x1^u])"]


def test_diff_drops_a_member_inside_another(sig, capsys):
    # the meet with the complement H[x^1] also gives app @1 H[x^1] @1 x,
    # which lies inside the member printed
    code = main(["diff", "--sig", sig["lam"], "--ctx", "x:exp", "--type",
                 "exp", "app @1 E[x^u] @1 x", "F[x^0]"])
    assert code == 0
    assert lines(capsys) == ["app @1 H1[x^u] @1 x"]


def test_member(sig, capsys):
    argv = ["member", "--sig", sig["strict"], "--ctx", "x:a", "--type", "a"]
    assert main(argv + ["c @1 x @1 b", "c @1 E[x^1] @1 F[x^0]"]) == 0
    assert lines(capsys) == ["true"]
    assert main(argv + ["c @1 b @1 x", "c @1 E[x^1] @1 F[x^0]"]) == 1
    assert lines(capsys) == ["false"]


def test_member_at_an_arrow_type(sig, capsys):
    argv = ["member", "--sig", sig["lam"], "--type", "exp ->u exp"]
    assert main(argv + [r"\x^u:exp. x", r"\x^u:exp. E[x^1]"]) == 0
    assert lines(capsys) == ["true"]
    assert main(argv + [r"\x^u:exp. lam @1 (\y^u:exp. y)",
                        r"\x^u:exp. E[x^1]"]) == 1
    assert lines(capsys) == ["false"]
    # an eta-short head is no canonical term at an arrow type
    short = ["--ctx", "f : exp ->u exp", "f", r"\x^u:exp. E[x^u]"]
    assert main(argv + short) == 2
    assert capsys.readouterr() == \
        ("", "error: f is not canonical at type exp ->u exp\n")


def test_member_rejects_a_term_that_is_not_ground_and_canonical(sig, capsys):
    argv = ["member", "--sig", sig["lam"], "--type", "exp"]
    assert main(argv + ["E[]", "F[]"]) == 2
    assert capsys.readouterr().err == \
        "error: hole where a ground term is required: EVar E\n"
    assert main(argv + [r"app @1 (lam @1 (\x^u:exp. x))", "F[]"]) == 2
    assert capsys.readouterr().err == \
        "error: type mismatch: term has type exp ->1 exp, expected exp\n"
    redex = r"(\x^1:exp. x) @1 (lam @1 (\y^u:exp. y))"
    assert main(argv + [redex, "F[]"]) == 2
    assert capsys.readouterr().err == \
        f"error: {redex} is not canonical at type exp\n"
    assert lines(capsys) == []


def test_enum(sig, capsys):
    code = main(["enum", "--sig", sig["ab"], "--ctx", "x:a", "--type", "a",
                 "--depth", "2"])
    assert code == 0
    assert lines(capsys) == ["b", "x", "c @u b", "c @u x"]


def test_embed(sig, capsys):
    code = main(["embed", "--sig", sig["plain"], "--type", "exp",
                 r"lam (\x:exp. lam (\y:exp. x))"])
    assert code == 0
    assert lines(capsys) == [r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. x))"]
    # without --type the type is inferred
    code = main(["embed", "--sig", sig["plain"], r"lam (\x:exp. x)"])
    assert code == 0
    assert lines(capsys) == [r"lam @1 (\x^u:exp. x)"]


def test_embed_cannot_infer_an_ill_typed_term(sig, capsys):
    # the abstraction is app's first argument, where exp is expected
    argv = ["embed", "--sig", sig["plain"], "--ctx", "x:exp",
            r"app (\y:exp. y) x"]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: cannot infer the term's type; pass it explicitly\n"
    assert main(argv + ["--type", "exp"]) == 2
    assert capsys.readouterr().err == \
        "error: abstraction \\y at base type exp\n"
    # a real redex is named as one
    assert main(["embed", "--sig", sig["plain"], "--ctx", "x:exp",
                 "--type", "exp", r"(\y:exp. y) x"]) == 2
    assert capsys.readouterr().err == "error: beta redex\n"


def test_negate(sig, capsys):
    prog = sig["dir"] / "redx.prog"
    prog.write_text(
        "betardx : isredx app @1 (lam @1 (\\x^u:exp. E[x^u])) @1 F[].\n"
        "etardx : isredx lam @1 (\\x^u:exp. app @1 E'[x^0] @1 x).\n")
    code = main(["negate", "--sig", sig["lam"], "--type", "exp",
                 "--program", str(prog)])
    assert code == 0
    assert lines(capsys) == [
        r"n1 : non_isredx app @1 (app @1 H9[] @1 H10[]) @1 H11[].",
        r"n2 : non_isredx lam @1 (\x^u:exp. app @1 H2[x^1] @1 H3[x^u]).",
        r"n3 : non_isredx lam @1 (\x^u:exp. app @1 H4[x^u] @1 "
        r"(lam @1 (\x1^u:exp. H5[x^u, x1^u]))).",
        r"n4 : non_isredx lam @1 (\x^u:exp. app @1 H6[x^u] @1 "
        r"(app @1 H7[x^u] @1 H8[x^u])).",
        r"n5 : non_isredx lam @1 (\x^u:exp. lam @1 (\x1^u:exp. H1[x^u, x1^u])).",
        r"n6 : non_isredx lam @1 (\x^u:exp. x)."]


@pytest.mark.parametrize("sig_text, program, err", [
    ("a : type. a : type.\n", "c1 : p E[].\n",
     "duplicate signature declaration: a"),
    ("a : type.\n", "% no clause\n", "no clauses given"),
    ("a : type.\n", "c1 : p E[].\nc2 : q F[].\n",
     "clauses mix predicates: p, q")])
def test_negate_usage_errors_that_are_plain_value_errors(sig, capsys,
                                                        sig_text, program,
                                                        err):
    # the README lists these three; each is an InputError, which is also a
    # ValueError, so library callers that catch ValueError still catch it
    d = sig["dir"]
    (d / "v.sig").write_text(sig_text)
    (d / "v.prog").write_text(program)
    argv = ["negate", "--sig", str(d / "v.sig"), "--type", "a",
            "--program", str(d / "v.prog")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    args = cli._build_parser("negate").parse_args(argv)
    with pytest.raises(ValueError, match=err) as raised:
        args.handler(args, [])
    assert type(raised.value) is strictpat.InputError


def test_a_depth_below_1_is_an_input_error(sig, capsys):
    argv = ["enum", "--sig", sig["strict"], "--type", "a", "--depth", "0"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: depth must be at least 1\n")
    args = cli._build_parser("enum").parse_args(argv)
    with pytest.raises(strictpat.InputError):
        args.handler(args, [])


def test_a_value_error_in_a_handler_is_not_a_usage_error():
    # exit 2 means bad input, and every error the library raises on bad
    # input is typed; an untyped ValueError is a fault of the program, so
    # it is not read as bad input
    args = cli._build_parser("selftest").parse_args(["selftest"])

    def fault(args, out):
        raise ValueError("a fault of the program")

    args.handler = fault
    with pytest.raises(ValueError, match="a fault of the program"):
        cli.run(args)


def test_a_file_that_is_not_utf8_is_a_parse_error(sig, capsys):
    d = sig["dir"]
    (d / "bad.sig").write_bytes(b"\xffa : type.\n")
    assert main(["enum", "--sig", str(d / "bad.sig"), "--type", "a",
                 "--depth", "1"]) == 2
    assert capsys.readouterr() == ("", "error: 'utf-8' codec can't decode "
                                   "byte 0xff in position 0: invalid start "
                                   "byte\n")


def test_eq(sig, capsys):
    d = sig["dir"]
    (d / "s1.set").write_text("ctx: x:a\ntype: a\nE[x^u] % everything\n")
    (d / "s2.set").write_text("ctx: x:a\ntype: a\nE[x^1]\nE[x^0]\n")
    argv = ["eq", "--sig", sig["strict"], "--depth", "5",
            str(d / "s1.set"), str(d / "s2.set")]
    assert main(argv) == 0
    assert lines(capsys) == ["equal at depth 5"]
    # under a u-arrow signature the split misses c @u x
    argv_ab = ["eq", "--sig", sig["ab"], "--depth", "3",
               str(d / "s1.set"), str(d / "s2.set")]
    assert main(argv_ab) == 1
    assert lines(capsys) == \
        ["different at depth 3: c @u x only in the first set"]


def write_sets(d, head, sets):
    for name, members in sets.items():
        (d / f"{name}.set").write_text(head + "".join(
            m + "\n" for m in members))


def in_a_subprocess(*argv, recursion_limit=None):
    """(exit code, stdout, stderr) of ``python -m strictpat.cli argv``, or,
    with recursion_limit, of ``main`` run under that recursion limit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(strictpat.__file__).resolve().parents[1])] +
        [p for p in [os.environ.get("PYTHONPATH")] if p]))
    command = ["-m", "strictpat.cli"] if recursion_limit is None else [
        "-c", f"import sys; sys.setrecursionlimit({recursion_limit}); "
        "from strictpat.cli import main; sys.exit(main())"]
    done = subprocess.run([sys.executable, *command, *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def eq_in_a_subprocess(sig_path, depth, first, second):
    """(exit code, stdout) of ``python -m strictpat.cli eq``."""
    return in_a_subprocess("eq", "--sig", sig_path, "--depth", depth, first,
                           second)[:2]


def test_eq_in_a_subprocess_on_a_lam_partition(sig):
    # E[x^u] split by head, and under lam by how the binder is used; noy0
    # lacks the member whose binder is unused, so it misses every lam term
    # that ignores its binder, the first of them at size 3
    d = sig["dir"]
    parts = ["x", "app @1 E[x^u] @1 F[x^u]",
             r"lam @1 (\y^u:exp. E[x^u, y^1])",
             r"lam @1 (\y^u:exp. E[x^u, y^0])"]
    write_sets(d, "ctx: x:exp\ntype: exp\n",
               {"whole": ["E[x^u]"], "parts": parts, "noy0": parts[:-1]})

    def eq(a, b, depth=7):
        return eq_in_a_subprocess(sig["lam"], depth, d / f"{a}.set",
                                  d / f"{b}.set")

    lone = r"lam @1 (\x1^u:exp. x)"
    assert eq("whole", "parts") == (0, "equal at depth 7\n")
    assert eq("parts", "noy0") == \
        (1, f"different at depth 7: {lone} only in the first set\n")
    assert eq("noy0", "whole") == \
        (1, f"different at depth 7: {lone} only in the second set\n")
    # the oracle keeps one term per class, so depth 13 is cheap
    assert eq("whole", "parts", 13) == (0, "equal at depth 13\n")


def test_eq_in_a_subprocess_on_pair_sets(sig):
    # with only 1-arrows in the signature every term uses x strictly or not
    # at all, so E[x^u] splits into E[x^1] and E[x^0]; other misses c @1 b @1 x
    d = sig["dir"]
    (d / "pair.sig").write_text("a : type.\nb : a.\nc : a ->1 a ->1 a.\n")
    write_sets(d, "ctx: x:a\ntype: a\n",
               {"whole": ["E[x^u]"], "split": ["E[x^1]", "E[x^0]"],
                "strict": ["E[x^1]"], "other": ["x", "c @1 E[x^1] @1 F[x^u]"]})

    def eq(a, b):
        return eq_in_a_subprocess(d / "pair.sig", 5, d / f"{a}.set",
                                  d / f"{b}.set")

    assert eq("whole", "split") == (0, "equal at depth 5\n")
    assert eq("strict", "other") == \
        (1, "different at depth 5: c @1 b @1 x only in the first set\n")


SHADOWING = r"lam @1 (\x^u:exp. x)"


@pytest.mark.parametrize("sig_file, argv, code, out, err", [
    ("a.sig", ["not", "E[]"], 2, "",
     ["strictpat not: error: the following arguments are required: --type"]),
    ("a.sig", ["member", "--type", "a", "E[]", "F[]"], 2, "",
     ["error: hole where a ground term is required: EVar E"]),
    ("lam.sig", ["diff", "--ctx", "x:exp", "--type", "exp",
                 "app @1 E[x^u] @1 x", "F[x^0]"],
     0, "app @1 H1[x^u] @1 x\n", []),
    ("lam.sig", ["canon", "--ctx", "x:exp", "--type", "exp", "E[x^u] @1 x"],
     2, "", ["error: type mismatch: EVar E applied outside its bracket list"]),
    # the term's binder x shadows the context's x, so the body uses the
    # binder strictly and the context's x not at all
    ("lam.sig", ["member", "--ctx", "x:exp", "--type", "exp", SHADOWING,
                 r"lam @1 (\y^u:exp. E[x^0, y^1])"], 0, "true\n", []),
    ("lam.sig", ["member", "--ctx", "x:exp", "--type", "exp", SHADOWING,
                 r"lam @1 (\y^u:exp. F[x^1, y^0])"], 1, "false\n", []),
], ids=["not-without-type", "member-on-a-hole", "diff", "canon",
        "member-shadowing-true", "member-shadowing-false"])
def test_cli_in_a_subprocess(sig, sig_file, argv, code, out, err):
    # exit code, stdout and the last line of stderr
    (sig["dir"] / "a.sig").write_text("a : type.\n")
    got_code, got_out, got_err = in_a_subprocess(
        argv[0], "--sig", sig["dir"] / sig_file, *argv[1:])
    assert (got_code, got_out, got_err.splitlines()[-1:]) == (code, out, err)


def test_a_depth_past_the_recursion_limit_is_a_usage_error(sig):
    # the enumeration builds each new scope's tables recursively, a few
    # frames per scope.  At the default limit depth 400 runs out after
    # 7-10 s; a low limit reaches the same failure at once.  The message
    # must name the depth, not blame the input's nesting
    d = sig["dir"]
    (d / "f.sig").write_text("a : type. b : a. f : (a ->1 a) ->1 a.\n")
    (d / "g.sig").write_text("a : type. b : a. f : (a ->u a) ->1 a.\n")
    write_sets(d, "type: a\n",
               {"u": ["E[]"], "v": ["b", r"f @1 (\x^u:a. E[x^u])"]})
    enum = ["enum", "--sig", d / "f.sig", "--type", "a", "--depth"]
    eq = ["eq", "--sig", d / "g.sig", d / "u.set", d / "v.set", "--depth"]
    limit = 200
    assert in_a_subprocess(*enum, 20, recursion_limit=limit) == \
        (0, "b\nf @1 (\\x^1:a. x)\n", "")
    assert in_a_subprocess(*eq, 20, recursion_limit=limit) == \
        (0, "equal at depth 20\n", "")
    for argv in (enum, eq):
        assert in_a_subprocess(*argv, 150, recursion_limit=limit) == \
            (2, "", "error: depth 150 is too large to enumerate: it exceeds "
             "the recursion limit\n")


def test_eq_keeps_a_strict_binder_under_an_unrestricted_argument(sig,
                                                                  capsys):
    # f @u (\x^1:a. x) is an instance of H[] only: the binder check of
    # its ->1 binder reads x, so an enumeration key that forgets names
    # bound at ->1 before their binder closes calls the sets equal
    d = sig["dir"]
    (d / "f1.sig").write_text(
        "a : type. b : a. c : a ->1 a ->1 a. f : (a ->1 a) ->u a.\n")
    write_sets(d, "type: a\n",
               {"whole": ["H[]"], "parts": ["b", "c @1 H1[] @1 H2[]"]})
    code = main(["eq", "--sig", str(d / "f1.sig"), "--depth", "9",
                 str(d / "whole.set"), str(d / "parts.set")])
    assert (code, *capsys.readouterr()) == \
        (1, "different at depth 9: f @u (\\x^1:a. x) only in the first set\n",
         "")


def test_eq_keeps_a_vacuous_binder_under_an_unrestricted_argument(sig,
                                                                 capsys):
    # the ->0 twin: the only term of type b over x:b is x, which the
    # binder check of f's ->0 binder rejects, so c is the only term of
    # type a; a key that forgets x before its binder closes admits
    # f @u (\x^0:b. x) and calls the sets different
    d = sig["dir"]
    (d / "f0.sig").write_text(
        "a : type. b : type. c : a. f : (b ->0 b) ->u a.\n")
    write_sets(d, "type: a\n", {"whole": ["H[]"], "parts": ["c"]})
    code = main(["eq", "--sig", str(d / "f0.sig"), "--depth", "8",
                 str(d / "whole.set"), str(d / "parts.set")])
    assert (code, *capsys.readouterr()) == (0, "equal at depth 8\n", "")


SUBCOMMANDS = ("check", "canon", "not", "meet", "diff", "member", "enum",
               "embed", "negate", "eq", "selftest")


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in SUBCOMMANDS),
    *([name] for name in SUBCOMMANDS),
    [], ["-h"], ["--help"], ["bogus"],
    ["--", "not", "-h"], ["-x", "not"], ["-h", "not"],
    ["not", "--format", "xml"], ["eq", "--depth", "x"],
    ["selftest", "extra"],
], ids=" ".join)
def test_parser_declares_only_the_named_subcommand(argv, capsys,
                                                   monkeypatch):
    # main declares the arguments of its subcommand only; what argparse
    # prints, the exit code and the parsed namespace must be the full
    # parser's
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "run", vars)

    def outcome(parse):
        try:
            got = parse(argv)
        except SystemExit as e:
            got = e.code
        return (got, *capsys.readouterr())

    full = outcome(lambda a: vars(cli._build_parser(None).parse_args(a)))
    assert outcome(main) == full


def test_main_reads_the_subcommand_from_sys_argv(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli._build_parser(None).parse_args(["negate", "-h"])
    full = capsys.readouterr().out
    assert "--program FILE" in full
    assert in_a_subprocess("negate", "-h") == (0, full, "")


def test_eq_context_mismatch(sig, capsys):
    d = sig["dir"]
    (d / "t1.set").write_text("ctx: x:a\ntype: a\nE[x^u]\n")
    (d / "t2.set").write_text("ctx: y:a\ntype: a\nE[y^u]\n")
    code = main(["eq", "--sig", sig["strict"], "--depth", "3",
                 str(d / "t1.set"), str(d / "t2.set")])
    assert code == 2
    assert "different contexts or types" in capsys.readouterr().err


def test_eq_missing_type_header(sig, capsys):
    d = sig["dir"]
    (d / "u1.set").write_text("E[x^u]\n")
    code = main(["eq", "--sig", sig["strict"], "--depth", "3",
                 str(d / "u1.set"), str(d / "u1.set")])
    assert code == 2
    assert "no type" in capsys.readouterr().err


def test_deep_nesting_is_a_usage_error(sig, capsys):
    # the recursive parser runs out of stack; that must not read as "false"
    deep = "(" * 400 + "E[]" + ")" * 400
    code = main(["not", "--sig", sig["lam"], "--type", "exp", deep])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: input nested too deeply\n"


def test_evar_arg_hit_is_a_usage_error(sig, capsys):
    # the beta step substitutes for x, which the hole's argument list names
    code = main(["canon", "--sig", sig["lam"], "--type", "exp",
                 r"(\x^u:exp. E[x^u]) @u (lam @1 (\y^u:exp. y))"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot substitute for x")


@pytest.mark.parametrize("argv", [
    ["check", "--delta", "x:exp", "app @1 x @1 x"],
    ["canon", "--ctx", "x:exp", "x"],
    ["not", "E[]"],
    ["meet", "E[]", "F[]"],
    ["diff", "E[]", "F[]"],
    ["member", r"lam @1 (\x^u:exp. x)", "E[]"],
    ["enum", "--depth", "2"],
    # argparse rejects the call before the program file is read
    ["negate", "--program", "redx.prog"],
], ids=lambda argv: argv[0])
def test_missing_type_is_a_usage_error(sig, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--sig", sig["lam"], *argv[1:]])
    assert exc.value.code == 2
    assert "required: --type" in capsys.readouterr().err


def test_json_format(sig, capsys):
    code = main(["enum", "--sig", sig["ab"], "--ctx", "x:a", "--type", "a",
                 "--depth", "2", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == \
        ["b", "x", "c @u b", "c @u x"]


def test_missing_file(sig, capsys):
    code = main(["enum", "--sig", str(sig["dir"] / "nope.sig"),
                 "--type", "a", "--depth", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_selftest(capsys):
    assert main(["selftest"]) == 0
    got = lines(capsys)
    assert got[-1] == "15 passed, 0 failed"
    assert all(t.startswith("ok   ") for t in got[:-1])
