"""Seeded input generators, one per workload.

A generator returns a Workload: the text files the ops read and the ops of
one pass.  An op is one argv for ``strictpat.cli.main`` plus the facts the
correctness gate needs to judge its output.  File paths inside argv are
written as ``{work}/name`` and filled in when the files are written out.

Nothing here calls strictpat: every input is built from text, and every
known answer (a verdict, a closed-form member set, a literal golden) is
derived from the construction itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import oracle

LAM_SIG = """exp : type.
lam : (exp ->u exp) ->1 exp.
app : exp ->1 exp ->1 exp.
"""
PLAIN_LAM_SIG = """exp : type.
lam : (exp -> exp) -> exp.
app : exp -> exp -> exp.
"""
A_SIG = "a : type.\n"
AB_SIG = "a : type.\nb : a.\nc : a ->u a.\n"
STRICT_SIG = "a : type.\nb : a.\nc : a ->1 a ->1 a.\n"
PAIR_SIG = "a : type.\nc : a ->1 a ->1 a.\n"

SIGS = {"lam.sig": LAM_SIG, "plain.sig": PLAIN_LAM_SIG, "a.sig": A_SIG,
        "ab.sig": AB_SIG, "strict.sig": STRICT_SIG, "pair.sig": PAIR_SIG}


@dataclass
class Op:
    id: str
    argv: list
    gate: dict  # what the correctness gate checks; see gate.py


@dataclass
class Workload:
    name: str
    files: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)  # one pass, in run order


def _word(rng, prefix, taken):
    while True:
        name = f"{prefix}{rng.randrange(10, 100)}"
        if name not in taken:
            taken.add(name)
            return name


# ---------------------------------------------------------------------------
# meet-fanout

# (arity m, strict variables n, copies per head kind).  The (3, 4) shape
# appears twice so that the median op falls inside one shape, not between
# two.
MEET_SHAPES = ((2, 4, 1), (2, 5, 1), (2, 6, 1), (2, 7, 1), (2, 8, 1),
               (3, 3, 1), (3, 4, 2), (3, 5, 1))


def meet_fanout(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    w = Workload("meet-fanout")
    shapes = MEET_SHAPES if not tiny else ((2, 3, 1), (3, 2, 1))
    for m, n, copies in shapes:
        for head_kind in ("const", "param"):
            for c in range(copies):
                w.ops.append(_meet_op(rng, w, m, n, head_kind, c))
    rng.shuffle(w.ops)
    return w


def _meet_op(rng, w, m, n, head_kind, copy):
    taken = set()
    base = _word(rng, "t", taken)
    const = _word(rng, "f", taken)
    sig_name = f"fan-{base}-{const}-{m}.sig"
    arrow = " ->1 ".join([base] * (m + 1))
    w.files[sig_name] = f"{base} : type.\n{const} : {arrow}.\n"
    xs = [_word(rng, "x", taken) for _ in range(n)]
    ctx = [f"{x}:{base}" for x in xs]
    head = const
    strict = list(xs)
    if head_kind == "param":
        head = _word(rng, "p", taken)
        ctx.append(f"{head} : {arrow}")
        strict.append(head)
    scope = [c.split(":")[0].strip() for c in ctx]
    hole = _word(rng, "E", taken)
    holes = [_word(rng, "F", taken) for _ in range(m)]
    p1 = f"{hole}[" + ", ".join(f"{x}^1" for x in strict) + "]"
    loose = ", ".join(f"{x}^u" for x in scope)
    p2 = head + "".join(f" @1 {h}[{loose}]" for h in holes)
    # closed form: each strict variable goes strict into exactly one argument
    # (a strict parameter head pays for itself and relaxes to u)
    expected = []
    for owners in itertools.product(range(m), repeat=n):
        args = []
        for j in range(m):
            labels = [f"{x}^{'1' if x in xs and owners[xs.index(x)] == j else 'u'}"
                      for x in scope]
            args.append(f"G{j}[{', '.join(labels)}]")
        expected.append(head + "".join(f" @1 {a}" for a in args))
    return Op(
        id=f"meet-{m}x{n}-{head_kind}-{copy}",
        argv=["meet", "--sig", "{work}/" + sig_name, "--ctx", ", ".join(ctx),
              "--type", base, p1, p2],
        gate={"kind": "set", "rc": 0, "expected": expected})


# ---------------------------------------------------------------------------
# negate-programs

# Programs of two clause heads, stratified by a work index: the product of
# the two heads' complement sizes, counted from syntax.  Each pass holds the
# same number of programs from every stratum, so the mix of cheap and costly
# programs, and with it the op-time distribution, does not move with the
# seed.  Upper bounds of the strata; programs above the last are not drawn.
NEGATE_STRATA = (18, 28, 40, 49, 58, 67, 76, 88, 100)
NEGATE_PER_STRATUM = 44


def negate_programs(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    w = Workload("negate-programs", files={"lam.sig": LAM_SIG})
    per = NEGATE_PER_STRATUM if not tiny else 1
    need = {bound: per for bound in NEGATE_STRATA}
    while any(need.values()):
        heads = [_clause_head(rng) for _ in range(2)]
        work = 1
        for h in heads:
            work *= _complement_size(oracle.parse_term(h), ["x"])
        bound = next((b for b in NEGATE_STRATA if work <= b), None)
        if bound is None or not need[bound]:
            continue
        need[bound] -= 1
        i = len(w.ops)
        pred = _word(rng, "p", set())
        name = f"prog{i}.prog"
        w.files[name] = "".join(f"c{j + 1} : {pred} {h}.\n"
                                for j, h in enumerate(heads))
        w.ops.append(Op(
            id=f"negate-{i}-w{work}",
            argv=["negate", "--sig", "{work}/lam.sig", "--ctx", "x:exp",
                  "--type", "exp", "--program", "{work}/" + name],
            gate={"kind": "negate", "rc": 0, "sig": LAM_SIG, "ctx": "x:exp",
                  "type": "exp", "depth": 7, "clauses": heads,
                  "pred": "non_" + pred}))
    rng.shuffle(w.ops)
    return w


def _complement_size(t, scope):
    """Members the complement rules make for a lam/app pattern before
    dedup: one per determined hole label, and at each rigid node one per
    other head (lam, app and every variable in scope) plus those of the
    arguments."""
    if t[0] == "hole":
        return sum(1 for _, k in t[2] if k != "u")
    if t[0] == "lam":
        return _complement_size(t[4], scope + [t[1]])
    _, args = oracle.spine(t)
    return 1 + len(scope) + sum(_complement_size(a, scope) for a, _ in args)


def _clause_head(rng):
    """A rigid-biased pattern of depth <= 3 over lam/app in context x:exp:
    the top is always rigid, the middle mostly rigid, leaves are holes or
    variables."""
    holes = itertools.count(1)

    def go(depth, scope):
        rigid = depth == 3 or (depth == 2 and rng.random() < 0.6)
        if not rigid:
            if rng.random() < 0.2:
                return rng.choice(scope)
            labels = ", ".join(f"{v}^{rng.choice('10uu')}" for v in scope)
            return f"E{next(holes)}[{labels}]"
        if rng.random() < 0.5:
            y = f"y{len(scope)}"
            return f"lam @1 (\\{y}^u:exp. {go(depth - 1, scope + [y])})"
        return f"app @1 ({go(depth - 1, scope)}) @1 ({go(depth - 1, scope)})"

    return go(3, ["x"])


# ---------------------------------------------------------------------------
# eq-oracle

# (signature file, context, type, depth), cycled over the pairs
EQ_SPACES = (("lam.sig", "x:exp", "exp", 9), ("pair.sig", "x:a, y:a", "a", 10),
             ("lam.sig", "x:exp", "exp", 10), ("pair.sig", "x:a, y:a", "a", 9))
EQ_PAIRS = 36
# differing pairs: one per space in each block of twelve, so that two thirds
# of the ops are equal pairs (which enumerate to the full depth) and the
# median op is an equal pair
EQ_DIFFER = (1, 6, 8, 11)
EQ_MEMBERS = (4, 7)  # members of the left and right refinement


def eq_oracle(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    w = Workload("eq-oracle", files={"lam.sig": LAM_SIG, "pair.sig": PAIR_SIG})
    count = EQ_PAIRS if not tiny else 4
    for i in range(count):
        sig_file, ctx, ty, depth = EQ_SPACES[i % len(EQ_SPACES)]
        if tiny:
            depth = 5
        consts = oracle.parse_signature(SIGS[sig_file])
        scope = [x for x, _ in oracle.parse_context(ctx)]
        equal = i % 12 not in EQ_DIFFER
        left = _refine(rng, consts, scope, ty, size=EQ_MEMBERS[0])
        right = _refine(rng, consts, scope, ty, size=EQ_MEMBERS[1])
        if not equal:
            # a refinement is a partition, so dropping a member with an
            # instance within the depth removes exactly that member's
            # instances; the member with the largest smallest instance is
            # dropped, so the first counterexample comes late
            side = rng.choice((left, right))
            sizes = [_min_size(t, consts) for t in side]
            side.pop(max((s, j) for j, s in enumerate(sizes) if s <= depth)[1])
        names = []
        for side_name, side in (("l", left), ("r", right)):
            name = f"pair{i}{side_name}.set"
            rng.shuffle(side)
            w.files[name] = f"ctx: {ctx}\ntype: {ty}\n" + "".join(
                oracle.print_term(t) + "\n" for t in side)
            names.append("{work}/" + name)
        w.ops.append(Op(
            id=f"eq-{i}-{'equal' if equal else 'differ'}-d{depth}",
            argv=["eq", "--sig", "{work}/" + sig_file, "--depth", str(depth),
                  *names],
            gate={"kind": "eq", "rc": 0 if equal else 1, "equal": equal,
                  "depth": depth, "scope": scope,
                  "sets": [[oracle.print_term(t) for t in left],
                           [oracle.print_term(t) for t in right]]}))
    rng.shuffle(w.ops)
    return w


def _refine(rng, consts, scope, ty, size):
    """Partition the universal pattern by syntax alone into exactly ``size``
    members: the first step expands the root hole into one member per head;
    each later step either expands an all-u hole the same way, or splits a
    u label into strict and vacuous twins.  Every step keeps the union and
    keeps members disjoint.  A refinement that runs out of u labels early
    starts again."""
    counter = itertools.count(1)
    fresh = lambda: f"H{next(counter)}"  # noqa: E731
    base = ("atom", ty)
    while True:
        # the first step always expands the root, so no member is a bare hole
        members = _expand(consts, list(scope), base, fresh)
        while len(members) < size:
            holes = [(i, h) for i, t in enumerate(members) for h in _holes(t)
                     if any(k == "u" for _, k in h[1][2])]
            if not holes:
                break
            i, (path, hole, hscope) = rng.choice(holes)
            pieces = _expand(consts, hscope, base, fresh)
            if not all(k == "u" for _, k in hole[2]) or rng.random() < 0.4 or \
                    len(members) - 1 + len(pieces) > size:
                j = rng.choice([j for j, (_, k) in enumerate(hole[2]) if k == "u"])
                pieces = []
                for k in "10":
                    phi = list(hole[2])
                    phi[j] = (phi[j][0], k)
                    pieces.append(("hole", fresh(), tuple(phi)))
            members[i:i + 1] = [_replace(members[i], path, p) for p in pieces]
        if len(members) == size:
            return members


def _holes(t, path=()):
    """(path, hole, scope) for every hole; a refinement's holes always list
    every variable in scope."""
    if t[0] == "hole":
        yield path, t, [x for x, _ in t[2]]
    elif t[0] == "lam":
        yield from _holes(t[4], path + (4,))
    elif t[0] == "app":
        yield from _holes(t[1], path + (1,))
        yield from _holes(t[2], path + (2,))


def _replace(t, path, new):
    if not path:
        return new
    t = list(t)
    t[path[0]] = _replace(t[path[0]], path[1:], new)
    return tuple(t)


def _expand(consts, scope, base, fresh):
    """One member per head of base type: every constant and every variable
    in scope (all variables here have base type), arguments all-u holes."""
    out = []
    for name, ty in consts:
        doms, cod = oracle.arrows(ty)
        if cod != base:
            continue
        t = ("id", name)
        for dom, k in doms:
            if dom[0] == "arr":  # lam's argument: \y^u. hole over scope + y
                y = f"y{len(scope)}"
                arg = ("lam", y, "u", dom[1],
                       ("hole", fresh(), tuple((v, "u") for v in scope + [y])))
            else:
                arg = ("hole", fresh(), tuple((v, "u") for v in scope))
            t = ("app", t, arg, k)
        out.append(t)
    out.extend(("id", x) for x in scope)
    return out


def _min_size(t, consts):
    """Size of the smallest ground instance of a refinement member."""
    if t[0] == "hole":
        strict = sum(1 for _, k in t[2] if k == "1")
        free = [x for x, k in t[2] if k != "0"]
        if strict:
            return 2 * strict - 1 if any(len(oracle.arrows(ty)[0]) == 2
                                        for _, ty in consts) else strict
        if free:
            return 1
        # no variable may occur: a closed term (lam-only signatures have
        # \y. y; a pair signature without nullary constants has none)
        return 3 if any(n == "lam" for n, _ in consts) else 10 ** 6
    if t[0] == "lam":
        return 1 + _min_size(t[4], consts)
    head, args = oracle.spine(t)
    return 1 + sum(_min_size(a, consts) for a, _ in args)


# ---------------------------------------------------------------------------
# corpus-small

# the 22-pattern complement corpus of the test suite: (sig file, ctx, type,
# pattern)
CORPUS = (
    ("a.sig", "x:a, y:a", "a", "E[x^0, y^1]"),
    ("a.sig", "x:a, y:a", "a", "E[x^u, y^1]"),
    ("a.sig", "x:a, y:a", "a", "E[x^1, y^1]"),
    ("a.sig", "x:a, y:a", "a", "E[x^0, y^0]"),
    ("a.sig", "x:a, y:a", "a", "E[x^u, y^u]"),
    ("a.sig", "x:a", "a", "E[x^1]"),
    ("a.sig", "x:a", "a", "E[x^0]"),
    ("a.sig", "x:a, y:a", "a", "x"),
    ("lam.sig", "", "exp", r"app @1 (lam @1 (\x^u:exp. E[x^u])) @1 F[]"),
    ("lam.sig", "", "exp", r"lam @1 (\x^u:exp. app @1 E'[x^0] @1 x)"),
    ("lam.sig", "", "exp", r"lam @1 (\x^u:exp. E[x^u])"),
    ("lam.sig", "", "exp", r"lam @1 (\x^u:exp. E[x^0])"),
    ("lam.sig", "", "exp", r"lam @1 (\x^u:exp. E[x^1])"),
    ("lam.sig", "", "exp", r"lam @1 (\x^u:exp. x)"),
    ("lam.sig", "", "exp", "app @1 E[] @1 F[]"),
    ("lam.sig", "x:exp", "exp", "E[x^1]"),
    ("lam.sig", "x:exp", "exp", "E[x^0]"),
    ("lam.sig", "x:exp", "exp", "app @1 E[x^u] @1 x"),
    ("strict.sig", "", "a", "c @1 b @1 b"),
    ("strict.sig", "", "a", "c @1 E[] @1 F[]"),
    ("strict.sig", "x:a", "a", "c @1 E[x^1] @1 F[x^u]"),
    ("strict.sig", "x:a", "a", "c @1 x @1 E[x^0]"),
)

# brute-force depth per signature file
GATE_DEPTH = {"a.sig": 3, "lam.sig": 7, "strict.sig": 7}

# README examples with their printed answers
README_GOLDENS = (
    (["check", "--sig", "{work}/lam.sig", "--delta", "x:exp", "--type", "exp",
      "app @1 x @1 x"], 0, ["type: exp", "strict: x", "used: x"]),
    (["not", "--sig", "{work}/a.sig", "--ctx", "x:a, y:a", "--type", "a",
      "E[x^0, y^1]"], 0, ["H1[x^1, y^u]", "H2[x^u, y^0]"]),
    (["not", "--sig", "{work}/lam.sig", "--type", "exp",
      r"app @1 (lam @1 (\x^u:exp. E[x^u])) @1 F[]"], 0,
     ["app @1 (app @1 H2[] @1 H3[]) @1 H4[]", r"lam @1 (\y^u:exp. H1[y^u])"]),
    (["meet", "--sig", "{work}/ab.sig", "--ctx", "x:a", "--type", "a",
      "E[x^1]", "F[x^u]"], 0, ["H1[x^1]"]),
    (["canon", "--sig", "{work}/lam.sig", "--ctx", "x : exp ->u exp",
      "--type", "exp ->u exp", "x"], 0, [r"\x1^u:exp. x @u x1"]),
    (["member", "--sig", "{work}/ab.sig", "--ctx", "x:a", "--type", "a",
      "c @u x", "E[x^1]"], 1, ["false"]),
    (["enum", "--sig", "{work}/ab.sig", "--ctx", "x:a", "--type", "a",
      "--depth", "2"], 0, ["b", "x", "c @u b", "c @u x"]),
    (["embed", "--sig", "{work}/plain.sig", "--type", "exp",
      r"lam (\x:exp. lam (\y:exp. x))"], 0,
     [r"lam @1 (\x^u:exp. lam @1 (\y^u:exp. x))"]),
)

# more literal answers for canon and embed, worked by hand
EXTRA_GOLDENS = (
    (["canon", "--sig", "{work}/lam.sig", "--ctx", "x:exp", "--type", "exp",
      r"(\z^u:exp. app @1 z @1 z) @u x"], 0, ["app @1 x @1 x"]),
    (["canon", "--sig", "{work}/lam.sig", "--type", "exp",
      r"lam @1 (\z^u:exp. z)"], 0, [r"lam @1 (\z^u:exp. z)"]),
    (["canon", "--sig", "{work}/lam.sig", "--type", "exp", "lam"], 2, []),
    (["embed", "--sig", "{work}/plain.sig", "--type", "exp",
      r"app (lam (\x:exp. x)) (lam (\y:exp. y))"], 0,
     [r"app @1 (lam @1 (\x^u:exp. x)) @1 (lam @1 (\y^u:exp. y))"]),
)

CORPUS_COUNTS = {"check": 12, "member": 24, "enum": 4}


def corpus_small(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    w = Workload("corpus-small", files={k: SIGS[k] for k in
                                        ("lam.sig", "plain.sig", "a.sig",
                                         "ab.sig", "strict.sig", "pair.sig")})
    counts = CORPUS_COUNTS if not tiny else {k: 1 for k in CORPUS_COUNTS}
    corpus = [(s, c, t, _alpha_variant(rng, p, c)) for s, c, t, p in
              (CORPUS if not tiny else CORPUS[:3] + CORPUS[8:10])]
    for i, (argv, rc, lines) in enumerate(README_GOLDENS + EXTRA_GOLDENS):
        w.ops.append(Op(f"golden-{argv[0]}-{i}", list(argv),
                        {"kind": "literal", "rc": rc, "lines": lines}))
    for i, (sig, ctx, ty, p) in enumerate(corpus):
        for flag in ((), ("--exclusive",)):
            w.ops.append(Op(
                f"not{''.join(flag)}-{i}",
                ["not", *flag, "--sig", "{work}/" + sig, "--ctx", ctx,
                 "--type", ty, p],
                {"kind": "not", "rc": 0, "sig": SIGS[sig], "ctx": ctx,
                 "type": ty, "depth": GATE_DEPTH[sig], "inputs": [p],
                 "exclusive": bool(flag)}))
    # meet and diff: every ordered pair of corpus patterns sharing a space
    groups = {}
    for sig, ctx, ty, p in corpus:
        groups.setdefault((sig, ctx, ty), []).append(p)
    for (sig, ctx, ty), ps in groups.items():
        for i, (p, q) in enumerate(itertools.permutations(ps, 2)):
            for cmd in ("meet", "diff"):
                w.ops.append(Op(
                    f"{cmd}-{sig}-{ctx}-{i}",
                    [cmd, "--sig", "{work}/" + sig, "--ctx", ctx, "--type", ty,
                     p, _rename_holes(q, "R")],
                    {"kind": cmd, "rc": 0, "sig": SIGS[sig], "ctx": ctx,
                     "type": ty, "depth": GATE_DEPTH[sig],
                     "inputs": [p, _rename_holes(q, "R")]}))
    w.ops.extend(_check_ops(rng, counts["check"]))
    w.ops.extend(_member_ops(rng, corpus, counts["member"]))
    w.ops.extend(_enum_ops(counts["enum"]))
    rng.shuffle(w.ops)
    return w


def _alpha_variant(rng, text, ctx):
    """Rename the pattern's holes and binders to seeded names."""
    taken = {x.split(":")[0].strip() for x in ctx.split(",") if x.strip()}
    taken |= {"a", "b", "c", "exp", "lam", "app"}
    t = oracle.parse_term(text)
    holes, binders = {}, {}

    def go(t, env):
        if t[0] == "id":
            return ("id", env.get(t[1], t[1]))
        if t[0] == "hole":
            name = holes.setdefault(t[1], _word(rng, "Q", taken))
            return ("hole", name, tuple((env.get(x, x), k) for x, k in t[2]))
        if t[0] == "lam":
            z = binders.setdefault(t[1], _word(rng, "v", taken))
            return ("lam", z, t[2], t[3], go(t[4], {**env, t[1]: z}))
        return ("app", go(t[1], env), go(t[2], env), t[3])

    return oracle.print_term(go(t, {}))


def _rename_holes(text, prefix):
    t = oracle.parse_term(text)

    def go(t):
        if t[0] == "hole":
            return ("hole", prefix + t[1], t[2])
        if t[0] == "lam":
            return t[:4] + (go(t[4]),)
        if t[0] == "app":
            return ("app", go(t[1]), go(t[2]), t[3])
        return t

    return oracle.print_term(go(t))


def _check_ops(rng, count):
    """Zoned checks of ground lam/app terms over x, y; the expected report
    comes from the oracle's occurrence analysis.  Every other check is
    well-typed, so each pass prints the same number of lines."""
    consts = oracle.parse_signature(LAM_SIG)
    psi = oracle.parse_context("x:exp, y:exp")
    terms = oracle.enumerate_ground(consts, psi, ("atom", "exp"), 5)
    ops = []
    for i in range(count):
        ok = None
        while ok is not (i % 2 == 0):
            m = rng.choice(terms)
            zones = {"gamma": [], "omega": [], "delta": []}
            for x in ("x", "y"):
                zones[rng.choice(("gamma", "omega", "delta"))].append(x)
            ok = all(oracle.strict_in(x, m) for x in zones["delta"]) and \
                not any(oracle.used_in(x, m) for x in zones["omega"])
        strict = " ".join(x for x in ("x", "y") if oracle.strict_in(x, m))
        used = " ".join(x for x in ("x", "y") if oracle.used_in(x, m))
        argv = ["check", "--sig", "{work}/lam.sig", "--type", "exp"]
        for zone, xs in zones.items():
            if xs:
                argv += [f"--{zone}", ", ".join(f"{x}:exp" for x in xs)]
        argv.append(oracle.print_term(m))
        lines = ["type: exp", f"strict: {strict}".rstrip(),
                 f"used: {used}".rstrip()] if ok else None
        ops.append(Op(f"check-{i}", argv,
                      {"kind": "check", "rc": 0 if ok else 1, "lines": lines}))
    return ops


def _member_ops(rng, corpus, count):
    """Ground terms against one to three corpus patterns of one space; the
    verdict comes from the oracle's matcher."""
    spaces = {}
    for sig, ctx, ty, p in corpus:
        spaces.setdefault((sig, ctx, ty), []).append(p)
    keys = sorted(spaces)
    ops = []
    for i in range(count):
        sig, ctx, ty = keys[i % len(keys)]
        consts = oracle.parse_signature(SIGS[sig])
        psi = oracle.parse_context(ctx)
        m = rng.choice(oracle.enumerate_ground(consts, psi, ("atom", ty), 5))
        ps = rng.sample(spaces[(sig, ctx, ty)],
                        min(len(spaces[(sig, ctx, ty)]), rng.randrange(1, 4)))
        hit = oracle.in_any([oracle.parse_term(p) for p in ps], m,
                            [x for x, _ in psi])
        ops.append(Op(f"member-{i}",
                      ["member", "--sig", "{work}/" + sig, "--ctx", ctx,
                       "--type", ty, oracle.print_term(m), *ps],
                      {"kind": "literal", "rc": 0 if hit else 1,
                       "lines": ["true" if hit else "false"]}))
    return ops


def _enum_ops(count):
    spaces = (("lam.sig", "x:exp", "exp"), ("strict.sig", "x:a", "a"),
              ("ab.sig", "x:a", "a"), ("pair.sig", "x:a, y:a", "a"))
    ops = []
    for i in range(count):
        sig, ctx, ty = spaces[i % len(spaces)]
        depth = 3 + i % 3
        consts = oracle.parse_signature(SIGS[sig])
        terms = oracle.enumerate_ground(consts, oracle.parse_context(ctx),
                                        ("atom", ty), depth)
        ops.append(Op(f"enum-{i}",
                      ["enum", "--sig", "{work}/" + sig, "--ctx", ctx,
                       "--type", ty, "--depth", str(depth)],
                      {"kind": "enum", "rc": 0,
                       "expected": [oracle.print_term(t) for t in terms]}))
    return ops


GENERATORS = {
    "meet-fanout": meet_fanout,
    "negate-programs": negate_programs,
    "eq-oracle": eq_oracle,
    "corpus-small": corpus_small,
}
