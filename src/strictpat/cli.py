"""Command-line interface.

Subcommands mirror the library: check (zoned typing), canon, not, meet,
diff, member, enum, embed, negate, eq, and selftest.  Output is
deterministic; pattern-set results print one member per line in
lexicographic order of the printed form.  Exit codes: 0 success (or a true
answer), 1 for a false/ill-typed answer (check, member, eq), 2 for usage
errors, for every library error (``StrictpatError``), for a ``check`` input
that is no judgment (a hole in the term, a name in two zones) and for input
nested too deeply.  An empty result set is not an error.

A call declares the arguments of the one subcommand it names; the others
are bare choices with their help lines, which is all argparse reads of a
subcommand that does not run.  So the output is the full parser's, and a
small command does not spend most of its time declaring arguments.  The
self-test's cases live in the module ``selftest``, which only the
``selftest`` subcommand imports, so no other command compiles them.
"""

from __future__ import annotations

import argparse
import sys

from .syntax import (ParseError, Signature, StrictpatError, ZonedContext,
                     evar_names, parse_context, parse_program,
                     parse_signature, parse_term, parse_type, print_term,
                     print_type)
from .typecheck import ErrorKind, TypingError, check
from .canonicalize import canonicalize, is_canonical
from .patterns import (NotCanonical, PatternError, SimpleLinearPattern,
                       embed_term, fully_apply)
from .complement import complement, make_exclusive
from .intersect import intersect
from .algebra import (Clause, clause_complement, enumerate_ground,
                      first_difference, member_set, parse_pattern_set,
                      relative_complement)


def _read(path: str) -> str:
    """The text of a file; bytes that are not UTF-8 are a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(str(e)) from None


def _load_sig(args, *, labeled) -> Signature:
    return parse_signature(_read(args.sig), labeled=labeled)


def _load_ctx(args, sig, *, labeled):
    return parse_context(args.ctx or "", sig, labeled=labeled)


def _load_space(args):
    """The signature, flat context and type that most subcommands share."""
    sig = _load_sig(args, labeled=True)
    return sig, _load_ctx(args, sig, labeled=True), parse_type(args.type, sig)


def _sorted_members(s):
    return sorted(print_term(t) for t in s.members)


def _pattern(psi, sig, text, a) -> SimpleLinearPattern:
    return fully_apply(psi, sig, parse_term(text, sig), a)


def _parse_set_file(path, sig, args):
    """A set file: optional ``ctx:`` / ``type:`` header lines, then one
    pattern per line; ``%`` starts a comment."""
    ctx_text, type_text, pattern_lines = args.ctx, args.type, []
    for raw in _read(path).splitlines():
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("ctx:"):
            ctx_text = line[len("ctx:"):].strip()
        elif line.startswith("type:"):
            type_text = line[len("type:"):].strip()
        else:
            pattern_lines.append(line)
    if type_text is None:
        raise ParseError(f"{path}: no type (add a 'type:' header or pass --type)")
    psi = parse_context(ctx_text or "", sig)
    return parse_pattern_set(psi, sig, parse_type(type_text, sig),
                             pattern_lines)


# ---------------------------------------------------------------------------
# Subcommands

# Typing errors that say the input is no judgment, not that it is false
_NOT_A_JUDGMENT = (ErrorKind.HOLE_IN_GROUND_TERM, ErrorKind.ZONE_VIOLATION)


def _cmd_check(args, out):
    sig = _load_sig(args, labeled=True)
    a = parse_type(args.type, sig)
    ctx = ZonedContext(parse_context(args.gamma or "", sig),
                       parse_context(args.omega or "", sig),
                       parse_context(args.delta or "", sig))
    m = parse_term(args.term, sig)
    try:
        report = check(ctx, sig, m, a)
    except TypingError as e:
        if e.kind in _NOT_A_JUDGMENT:
            raise
        out.append(f"ill-typed: {e}")
        return 1
    out.append(f"type: {print_type(report.inferred_type)}")
    out.append("strict: " + " ".join(sorted(report.strict_set)))
    out.append("used: " + " ".join(sorted(report.used_set)))
    return 0


def _cmd_canon(args, out):
    sig, psi, a = _load_space(args)
    m = parse_term(args.term, sig)
    if not evar_names(m):
        check(ZonedContext(gamma=tuple(psi)), sig, m, a)
    out.append(print_term(canonicalize(psi, sig, m, a)))
    return 0


def _cmd_not(args, out):
    sig, psi, a = _load_space(args)
    negate = make_exclusive if args.exclusive else complement
    out.extend(_sorted_members(negate(sig, _pattern(psi, sig, args.pattern, a))))
    return 0


def _cmd_meet(args, out):
    sig, psi, a = _load_space(args)
    p1 = _pattern(psi, sig, args.pattern1, a)
    p2 = _pattern(psi, sig, args.pattern2, a)
    out.extend(_sorted_members(intersect(sig, p1, p2)))
    return 0


def _cmd_diff(args, out):
    sig, psi, a = _load_space(args)
    s1 = parse_pattern_set(psi, sig, a, [args.pattern1])
    s2 = parse_pattern_set(psi, sig, a, [args.pattern2])
    out.extend(_sorted_members(relative_complement(sig, s1, s2)))
    return 0


def _cmd_member(args, out):
    sig, psi, a = _load_space(args)
    m = parse_term(args.term, sig)
    ctx = ZonedContext(gamma=tuple(psi))
    check(ctx, sig, m, a)  # rejects holes and ill-typed terms
    if not is_canonical(ctx, sig, m, a):
        raise NotCanonical(f"{print_term(m)} is not canonical at type "
                           f"{print_type(a)}")
    ok = member_set(sig, m, parse_pattern_set(psi, sig, a, args.patterns))
    out.append("true" if ok else "false")
    return 0 if ok else 1


def _cmd_enum(args, out):
    sig, psi, a = _load_space(args)
    for t in enumerate_ground(psi, sig, a, args.depth):
        out.append(print_term(t))
    return 0


def _cmd_embed(args, out):
    sig = _load_sig(args, labeled=False)
    psi = _load_ctx(args, sig, labeled=False)
    m = parse_term(args.term, sig, labeled=False)
    a = parse_type(args.type, sig, labeled=False) if args.type else None
    out.append(print_term(embed_term(m, psi, sig, a)))
    return 0


def _cmd_negate(args, out):
    sig, psi, a = _load_space(args)
    clauses = [Clause(name, pred, fully_apply(psi, sig, t, a))
               for name, pred, t in parse_program(_read(args.program), sig)]
    neg = clause_complement(sig, clauses)
    printed = sorted(print_term(c.pattern.term) for c in neg)
    pred = neg[0].pred if neg else None
    for i, text in enumerate(printed):
        out.append(f"n{i + 1} : {pred} {text}.")
    return 0


def _cmd_eq(args, out):
    sig = _load_sig(args, labeled=True)
    s1 = _parse_set_file(args.set1, sig, args)
    s2 = _parse_set_file(args.set2, sig, args)
    if s1.psi != s2.psi or s1.type != s2.type:
        raise PatternError("the two sets have different contexts or types")
    diff = first_difference(sig, s1, s2, args.depth)
    if diff is not None:
        m, in_first = diff
        side = "first" if in_first else "second"
        out.append(f"different at depth {args.depth}: "
                   f"{print_term(m)} only in the {side} set")
        return 1
    out.append(f"equal at depth {args.depth}")
    return 0


def _cmd_selftest(args, out):
    from .selftest import run_selftest  # no other command compiles it
    return run_selftest(out)


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser(cmd=None):
    """The parser of one call.  Every subcommand is a choice with its help
    line, so the top help, the top usage and the "invalid choice" error do
    not change.  Only the subcommand named cmd, or every one when cmd is
    None, gets its -h and its arguments; argparse reads no other
    subparser, so what it prints is what the full parser prints."""
    top = argparse.ArgumentParser(
        prog="strictpat",
        description="Pattern complement and intersection for a strict "
                    "lambda-calculus")
    sub = top.add_subparsers(dest="cmd", required=True)

    def add(name, handler, help_, *, sig=True, ctx=True, type_="required",
            depth=False):
        """Declare subcommand ``name``, run by ``handler``; ``type_`` is
        "required", "optional" or None (no --type).  None when ``name``
        is not the subcommand that runs: it gets no arguments."""
        if cmd is not None and name != cmd:
            sub.add_parser(name, help=help_, add_help=False)
            return None
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if sig:
            p.add_argument("--sig", required=True, metavar="FILE",
                           help="signature file")
        if ctx:
            p.add_argument("--ctx", metavar="CTX", default=None,
                           help="parameter context, e.g. 'x:a, y:a'")
        if type_:
            p.add_argument("--type", metavar="TYPE",
                           required=type_ == "required")
        if depth:
            p.add_argument("--depth", type=int, required=True, metavar="N")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    if p := add("check", _cmd_check, "zoned typing of a term", ctx=False):
        p.add_argument("--gamma", metavar="CTX", default=None)
        p.add_argument("--omega", metavar="CTX", default=None)
        p.add_argument("--delta", metavar="CTX", default=None)
        p.add_argument("term")

    if p := add("canon", _cmd_canon, "canonical (beta-normal eta-long) form"):
        p.add_argument("term")

    if p := add("not", _cmd_not, "complement of a pattern"):
        p.add_argument("--exclusive", action="store_true",
                       help="print an exact cover whose members are "
                            "pairwise disjoint")
        p.add_argument("pattern")

    if p := add("meet", _cmd_meet, "intersection of two patterns"):
        p.add_argument("pattern1")
        p.add_argument("pattern2")

    if p := add("diff", _cmd_diff,
                "instances of the first pattern not matching the second"):
        p.add_argument("pattern1")
        p.add_argument("pattern2")

    if p := add("member", _cmd_member,
                "does the ground term match any of the patterns"):
        p.add_argument("term")
        p.add_argument("patterns", nargs="+", metavar="pattern")

    add("enum", _cmd_enum, "enumerate ground canonical terms", depth=True)

    if p := add("embed", _cmd_embed,
                "embed a simply-typed term (label-free input)",
                type_="optional"):
        p.add_argument("term")

    if p := add("negate", _cmd_negate, "negate the clause heads of a program"):
        p.add_argument("--program", required=True, metavar="FILE")

    if p := add("eq", _cmd_eq, "compare two pattern-set files on ground terms",
                type_="optional", depth=True):
        p.add_argument("set1", metavar="SETFILE")
        p.add_argument("set2", metavar="SETFILE")

    add("selftest", _cmd_selftest, "run the bundled example suite",
        sig=False, ctx=False, type_=None)
    return top


def run(args) -> int:
    """Execute a parsed invocation; returns the exit code."""
    out: list[str] = []
    try:
        code = args.handler(args, out)
    except (StrictpatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    if args.format == "json":
        import json  # only this flag needs it; the import costs start-up time
        text = json.dumps(out)
    else:
        text = "\n".join(out)
    if text:
        print(text)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top parser has no option that takes a value, so its first
    # argument that is no option names the subcommand that runs.
    cmd = next((a for a in argv if not a.startswith("-")), None)
    return run(_build_parser(cmd).parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
