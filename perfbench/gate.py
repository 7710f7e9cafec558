"""The correctness gate: judge one op's exit code and printed output.

Set answers are checked against brute-force ground enumeration at a bounded
depth (``oracle``), verdicts against the answer known from construction, and
literal answers against goldens.  Every judged output also gets a
name-normalised key, so a change of answer shows even when a later version
renames holes or binders.
"""

from __future__ import annotations

import re

import oracle

_DIFFERENT = re.compile(r"different at depth (\d+): (.*) only in the (first|second) set$")


def output_key(lines):
    """Members (or clause heads) renamed by first occurrence and sorted;
    other output is kept line by line."""
    try:
        return "\n".join(oracle.set_key(oracle.parse_term(s) for s in lines))
    except oracle.SyntaxFault:
        pass
    try:
        clauses = [oracle.parse_clause(s) for s in lines]
    except oracle.SyntaxFault:
        return "\n".join(s.rstrip() for s in lines)
    preds = sorted({pred for _, pred, _ in clauses})
    return "\n".join(preds + list(oracle.set_key(t for _, _, t in clauses)))


def judge(gate: dict, rc: int, lines: list) -> str | None:
    """None if the output is right, else the reason it is wrong."""
    if rc != gate["rc"]:
        return f"exit code {rc}, expected {gate['rc']}"
    kind = gate["kind"]
    if kind == "literal":
        if output_key(lines) != output_key(gate["lines"]):
            return f"printed {lines!r}, expected {gate['lines']!r}"
    elif kind == "check":
        if gate["lines"] is None:
            if len(lines) != 1 or not lines[0].startswith("ill-typed:"):
                return f"printed {lines!r}, expected an ill-typed verdict"
        elif [s.rstrip() for s in lines] != gate["lines"]:
            return f"printed {lines!r}, expected {gate['lines']!r}"
    elif kind in ("set", "enum"):
        if len(lines) != len(gate["expected"]):
            return f"{len(lines)} lines, expected {len(gate['expected'])}"
        if output_key(lines) != output_key(gate["expected"]):
            return "members differ from the expected set"
    elif kind == "eq":
        return _judge_eq(gate, lines)
    else:
        return _judge_cover(gate, lines)
    return None


def _ground(gate):
    """(scope, every ground term up to the gate's depth) of the op's space."""
    psi = oracle.parse_context(gate["ctx"])
    terms = oracle.enumerate_ground(oracle.parse_signature(gate["sig"]), psi,
                                    oracle.parse_type(gate["type"]), gate["depth"])
    return [x for x, _ in psi], terms


def _judge_cover(gate, lines):
    """not / not --exclusive / meet / diff / negate, against ground
    enumeration: the output members must cover exactly the wanted terms."""
    kind = gate["kind"]
    if kind == "negate":
        outs = []
        for i, line in enumerate(lines):
            name, pred, t = oracle.parse_clause(line)
            if name != f"n{i + 1}" or pred != gate["pred"]:
                return f"clause {line!r} is not n{i + 1} of {gate['pred']}"
            outs.append(t)
        inputs = [oracle.parse_term(s) for s in gate["clauses"]]
    else:
        outs = [oracle.parse_term(s) for s in lines]
        inputs = [oracle.parse_term(s) for s in gate["inputs"]]
    scope, terms = _ground(gate)
    for m in terms:
        hits = [oracle.matches(p, m, scope) for p in inputs]
        if kind == "negate":
            want = not any(hits)
        elif kind == "not":
            want = not hits[0]
        elif kind == "meet":
            want = hits[0] and hits[1]
        else:  # diff
            want = hits[0] and not hits[1]
        if oracle.in_any(outs, m, scope) != want:
            return (f"{oracle.print_term(m)} is {'missed' if want else 'wrongly covered'}"
                    f" at depth {gate['depth']}")
    return None


def overlap(gate: dict, lines: list) -> str | None:
    """For ``not --exclusive``: a ground term matching two members of the
    cover, which the README promises is pairwise disjoint.  Reported beside
    error_rate, not in it: the seed's make_exclusive only splits u labels,
    so members that overlap by structure stay overlapping."""
    if not gate.get("exclusive"):
        return None
    outs = [oracle.parse_term(s) for s in lines]
    scope, terms = _ground(gate)
    for m in terms:
        got = sum(1 for p in outs if oracle.matches(p, m, scope))
        if got > 1:
            return f"{oracle.print_term(m)} matches {got} members"
    return None


def _judge_eq(gate, lines):
    depth = gate["depth"]
    if gate["equal"]:
        if lines != [f"equal at depth {depth}"]:
            return f"printed {lines!r} for an equal pair"
        return None
    m = _DIFFERENT.match(lines[0]) if len(lines) == 1 else None
    if m is None or int(m.group(1)) != depth:
        return f"printed {lines!r} for a differing pair"
    term = oracle.parse_term(m.group(2))
    if oracle.size(term) > depth:
        return f"counterexample {m.group(2)} is larger than depth {depth}"
    sets = [[oracle.parse_term(s) for s in side] for side in gate["sets"]]
    inside = [oracle.in_any(s, term, gate["scope"]) for s in sets]
    claimed = 0 if m.group(3) == "first" else 1
    if not inside[claimed] or inside[1 - claimed]:
        return f"{m.group(2)} is not only in the {m.group(3)} set"
    return None
