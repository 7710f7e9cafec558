"""An independent reading of strictpat's concrete syntax, for checking answers.

Nothing here imports strictpat.  The benchmark uses this module to parse what
the CLI prints, to enumerate ground canonical terms by brute force, to decide
whether a ground term is an instance of a pattern, and to build the
name-normalised key of an output (holes and binders renamed by first
occurrence, members sorted).

Terms are tuples:
    ("id", name)                   a constant or a variable
    ("lam", x, label, type, body)  \\x^label:type. body
    ("app", fun, arg, label)       fun @label arg
    ("hole", name, ((x, label), ...))
Types are ("atom", name) or ("arr", dom, label, cod).
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"""
    (?P<skip>\s+|%[^\n]*)
  | (?P<arrow>->[10u])
  | (?P<at>@[10u])
  | (?P<hat>\^[10u])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct>[()\[\],:.\\])
""", re.VERBOSE)


class SyntaxFault(ValueError):
    pass


def _tokens(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SyntaxFault(f"bad character {text[pos]!r} in {text!r}")
        if m.lastgroup != "skip":
            out.append((m.lastgroup, m.group()))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, text):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "")

    def take(self, kind=None, text=None):
        tok = self.peek()
        if (kind and tok[0] != kind) or (text and tok[1] != text):
            raise SyntaxFault(f"expected {text or kind}, got {tok[1]!r}")
        self.i += 1
        return tok[1]

    def end(self):
        if self.i != len(self.toks):
            raise SyntaxFault(f"trailing input {self.peek()[1]!r}")

    def type_(self):
        if self.peek() == ("punct", "("):
            self.take()
            left = self.type_()
            self.take("punct", ")")
        else:
            left = ("atom", self.take("ident"))
        if self.peek()[0] == "arrow":
            k = self.take()[-1]
            return ("arr", left, k, self.type_())
        return left

    def term(self):
        if self.peek() == ("punct", "\\"):
            self.take()
            x = self.take("ident")
            k = self.take("hat")[-1]
            self.take("punct", ":")
            ty = self.type_()
            self.take("punct", ".")
            return ("lam", x, k, ty, self.term())
        t = self.atom()
        while self.peek()[0] == "at":
            k = self.take()[-1]
            t = ("app", t, self.atom(), k)
        return t

    def atom(self):
        if self.peek() == ("punct", "("):
            self.take()
            t = self.term()
            self.take("punct", ")")
            return t
        name = self.take("ident")
        if self.peek() != ("punct", "["):
            return ("id", name)
        self.take()
        phi = []
        while self.peek() != ("punct", "]"):
            if phi:
                self.take("punct", ",")
            x = self.take("ident")
            phi.append((x, self.take("hat")[-1]))
        self.take()
        return ("hole", name, tuple(phi))


def parse_term(text):
    r = _Reader(text)
    t = r.term()
    r.end()
    return t


def parse_type(text):
    r = _Reader(text)
    a = r.type_()
    r.end()
    return a


def parse_clause(line):
    """``name : pred TERM.`` -> (name, pred, term)."""
    r = _Reader(line)
    name = r.take("ident")
    r.take("punct", ":")
    pred = r.take("ident")
    t = r.term()
    r.take("punct", ".")
    r.end()
    return name, pred, t


def parse_signature(text):
    """Constants of a labeled signature, in declaration order."""
    r = _Reader(text)
    consts = []
    while r.peek()[0] != "eof":
        name = r.take("ident")
        r.take("punct", ":")
        if r.peek() == ("ident", "type"):
            r.take()
        else:
            consts.append((name, r.type_()))
        r.take("punct", ".")
    return tuple(consts)


def parse_context(text):
    if not text.strip():
        return ()
    out = []
    for part in text.split(","):
        name, ty = part.split(":", 1)
        out.append((name.strip(), parse_type(ty)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Printing and name-normalised keys

def print_type(a):
    if a[0] == "atom":
        return a[1]
    dom = print_type(a[1])
    if a[1][0] == "arr":
        dom = f"({dom})"
    return f"{dom} ->{a[2]} {print_type(a[3])}"


def print_term(t):
    tag = t[0]
    if tag == "id":
        return t[1]
    if tag == "hole":
        return t[1] + "[" + ", ".join(f"{x}^{k}" for x, k in t[2]) + "]"
    if tag == "lam":
        return f"\\{t[1]}^{t[2]}:{print_type(t[3])}. {print_term(t[4])}"
    fun, arg = print_term(t[1]), print_term(t[2])
    if t[1][0] == "lam":
        fun = f"({fun})"
    if t[2][0] in ("lam", "app"):
        arg = f"({arg})"
    return f"{fun} @{t[3]} {arg}"


def normalise(t):
    """Rename holes to ?1, ?2, ... and binders to %1, %2, ... by first
    occurrence; free names are kept."""
    holes, binders = {}, [0]

    def go(t, env):
        tag = t[0]
        if tag == "id":
            return ("id", env.get(t[1], t[1]))
        if tag == "hole":
            name = holes.setdefault(t[1], f"?{len(holes) + 1}")
            return ("hole", name, tuple((env.get(x, x), k) for x, k in t[2]))
        if tag == "lam":
            binders[0] += 1
            z = f"%{binders[0]}"
            return ("lam", z, t[2], t[3], go(t[4], {**env, t[1]: z}))
        return ("app", go(t[1], env), go(t[2], env), t[3])

    return go(t, {})


def set_key(terms):
    """Order-free, name-free key of a pattern set: sorted normalised prints."""
    return tuple(sorted(print_term(normalise(t)) for t in terms))


# ---------------------------------------------------------------------------
# Ground terms: enumeration, occurrence analysis, matching

def spine(t):
    args = []
    while t[0] == "app":
        args.append((t[2], t[3]))
        t = t[1]
    return t, args[::-1]


def arrows(a):
    doms = []
    while a[0] == "arr":
        doms.append((a[1], a[2]))
        a = a[3]
    return doms, a


def size(t):
    """Heads and binders count one each (strictpat's enumeration depth)."""
    if t[0] == "lam":
        return 1 + size(t[4])
    head, args = spine(t)
    return 1 + sum(size(a) for a, _ in args)


_OCCURS: dict = {}


def occurs(t):
    """(strict, used) free variables of t.  A variable occurs strictly as a
    head, under a binder, or inside an @1 argument; it is used anywhere
    outside an irrelevant (@0) argument.  Memoised: ground terms are
    judged against many patterns."""
    hit = _OCCURS.get(t)
    if hit is not None:
        return hit
    if t[0] == "lam":
        strict, used = occurs(t[4])
        out = (strict - {t[1]}, used - {t[1]})
    else:
        head, args = spine(t)
        strict, used = {head[1]}, {head[1]}
        for a, k in args:
            s, u = occurs(a)
            if k == "1":
                strict |= s
            if k != "0":
                used |= u
        out = (frozenset(strict), frozenset(used))
    _OCCURS[t] = out
    return out


def strict_in(x, t):
    return x in occurs(t)[0]


def used_in(x, t):
    return x in occurs(t)[1]


def enumerate_ground(consts, psi, a, depth):
    """Every canonical ground term of type a over the parameters psi with
    size <= depth.  Binders are named z1, z2, ... by nesting level."""
    out = []
    for n in range(1, depth + 1):
        out.extend(_exact(consts, list(psi), a, n))
    return out


def _exact(consts, scope, a, n):
    if n < 1:
        return
    if a[0] == "arr":
        z = f"z{len(scope) + 1}"
        for body in _exact(consts, scope + [(z, a[1])], a[3], n - 1):
            if a[2] == "1" and not strict_in(z, body):
                continue
            if a[2] == "0" and used_in(z, body):
                continue
            yield ("lam", z, a[2], a[1], body)
        return
    for name, ty in list(consts) + scope:
        doms, base = arrows(ty)
        if base != a:
            continue
        for args in _exact_args(consts, scope, doms, n - 1):
            t = ("id", name)
            for arg, (_, k) in zip(args, doms):
                t = ("app", t, arg, k)
            yield t


def _exact_args(consts, scope, doms, budget):
    if not doms:
        if budget == 0:
            yield ()
        return
    for first in range(1, budget - len(doms) + 2):
        for t in _exact(consts, scope, doms[0][0], first):
            for rest in _exact_args(consts, scope, doms[1:], budget - first):
                yield (t,) + rest


def matches(p, m, scope):
    """Is the ground term m an instance of the pattern p?  scope lists the
    in-scope variables in order; a hole gives label 0 to every in-scope
    variable it does not list."""
    return _match(p, m, list(scope), {})


def _match(p, m, scope, ren):
    tag = p[0]
    if tag == "hole":
        strict, used = occurs(m)
        labels = dict(p[2])
        for x in scope:
            k = labels.get(x, "0")
            y = ren.get(x, x)
            if k == "1" and y not in strict:
                return False
            if k == "0" and y in used:
                return False
        return True
    if tag == "lam":
        if m[0] != "lam" or m[2] != p[2] or m[3] != p[3]:
            return False
        return _match(p[4], m[4], scope + [p[1]], {**ren, p[1]: m[1]})
    ph, pargs = spine(p)
    mh, margs = spine(m)
    if mh[0] != "id" or ren.get(ph[1], ph[1]) != mh[1] or len(pargs) != len(margs):
        return False
    return all(pk == mk and _match(pa, ma, scope, ren)
               for (pa, pk), (ma, mk) in zip(pargs, margs))


def in_any(patterns, m, scope):
    return any(matches(p, m, scope) for p in patterns)
