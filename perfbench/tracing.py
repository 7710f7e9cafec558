"""Traced runs: spans around the calls into each strictpat layer.

The tracer wraps public functions where the package's modules bind them
(``strictpat.intersect.validate_pattern``, ``strictpat.algebra.
make_pattern_set`` ...), so ``src/`` stays untouched.  A call made while the
innermost open span already has the same name (a recursive self-call, or
``parse_signature`` reaching ``parse_type``) joins that span, so each entry
into a layer is one span.  Self time is a span's duration minus the time of
its child spans.  Aggregates are kept for every span; full span records
(name, start, end, parent, op, id) are kept in memory for the first traced
pass only, up to a cap, and written out when the run ends.  ``recorded``
counts every span closed in that pass, kept or not.
"""

from __future__ import annotations

import sys
from time import perf_counter

SPAN_CAP = 400_000

# (span name, defining module, function, only in this module or None for
# every strictpat module that binds it, hook)
SPANS = (
    ("cli.main", "cli", "main", None, None),
    ("syntax.parse", "syntax", "parse_term", None, None),
    ("syntax.parse", "syntax", "parse_type", None, None),
    ("syntax.parse", "syntax", "parse_signature", None, None),
    ("syntax.parse", "syntax", "parse_context", None, None),
    ("syntax.parse", "syntax", "parse_program", None, None),
    ("syntax.print_term", "syntax", "print_term", None, None),
    ("patterns.fully_apply", "patterns", "fully_apply", None, None),
    ("patterns.validate_pattern", "patterns", "validate_pattern", None, None),
    ("patterns.match_ground", "patterns", "match_ground", None, "hits"),
    ("typecheck.check", "typecheck", "check", None, "rejects"),
    ("typecheck.occurrences", "typecheck", "occurrences", "algebra", None),
    ("canonicalize.canonicalize", "canonicalize", "canonicalize", None, None),
    ("complement.complement", "complement", "complement", None, "members"),
    ("complement.make_exclusive", "complement", "make_exclusive", None, "members"),
    ("intersect.intersect", "intersect", "intersect", None, "members"),
    ("intersect.rename_apart", "intersect", "rename_apart", None, None),
    ("algebra.make_pattern_set", "algebra", "make_pattern_set", None, "dedup"),
    ("algebra.set_intersect", "algebra", "set_intersect", None, None),
    ("algebra.set_complement", "algebra", "set_complement", None, None),
    ("algebra.enumerate_ground", "algebra", "enumerate_ground", None, "terms"),
    ("algebra.member_set", "algebra", "member_set", None, None),
)

# counted, not timed: (counter, defining module, function, only in module)
COUNTS = (
    ("algebra.dedup.compares", "patterns", "equal_mod_evar_renaming", "algebra"),
    ("intersect.enumerate_splittings.splittings", "intersect",
     "enumerate_splittings", "intersect"),
)

MODULES = ("cli", "syntax", "patterns", "typecheck", "canonicalize",
           "complement", "intersect", "algebra")


class Tracer:
    def __init__(self):
        self.stack = []          # open spans: [name, start, child time, id]
        self.agg = {}            # name -> [calls, inclusive s, self s]
        self.counts = {}         # counter name -> int
        self.spans = []          # (name, start, end, parent id, op id, id)
        self.recorded = 0        # spans closed while recording
        self.recording = False
        self.op = -1
        self.next_id = 0
        self._undo = []

    # -- installation

    def install(self):
        for name, mod, fn, only, hook in SPANS:
            self._patch(mod, fn, only, lambda f, n=name, h=hook: self._span(n, f, h))
        for name, mod, fn, only in COUNTS:
            self._patch(mod, fn, only, lambda f, n=name: self._count(n, f))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _patch(self, mod, fn, only, make):
        original = getattr(sys.modules["strictpat." + mod], fn)
        wrapper = make(original)
        for mname, module in list(sys.modules.items()):
            if mname != "strictpat" and not mname.startswith("strictpat."):
                continue
            if only is not None and mname != "strictpat." + only:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- wrappers

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _count(self, name, f):
        if name.endswith(".splittings"):
            def counted(*a, **k):
                r = f(*a, **k)
                self._bump(name, len(r))
                return r
        else:
            def counted(*a, **k):
                self._bump(name)
                return f(*a, **k)
        return counted

    def _span(self, name, f, hook):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def spanned(*a, **k):
            if stack and stack[-1][0] == name:
                return f(*a, **k)
            if hook == "dedup":  # make_pattern_set(psi, a, terms)
                a = a[:2] + (list(a[2]),) + a[3:]
                self._bump(name + ".terms_in", len(a[2]))
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][3] if stack else None
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            failed = False
            try:
                r = f(*a, **k)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if self.recording:
                    self.recorded += 1
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((name, frame[1], end, parent,
                                           self.op, span_id))
                if hook == "rejects" and failed:
                    self._bump(name + ".rejects")
            if hook == "hits" and r:
                self._bump(name + ".hits")
            elif hook in ("members", "dedup"):
                self._bump(name + ".members_out", len(r.members))
                if hook == "members" and not r.members:
                    self._bump(name + ".empty")
            elif hook == "terms":
                self._bump(name + ".terms", len(r))
            return r

        return spanned

    # -- reporting

    def metrics(self, passes: int, op_seconds: float) -> dict:
        """Per-pass counts and self times, time shares of the op time, and
        the ratios named in BENCHMARK.json."""
        out = {}
        per = 1.0 / passes
        share = lambda s: s / op_seconds if op_seconds else 0.0  # noqa: E731
        for name, mod, fn, only, hook in SPANS:
            calls, incl, self_s = self.agg[name]
            out[f"{name}.calls"] = (calls * per, "count")
            out[f"{name}.self_ms"] = (self_s * per * 1000, "ms")
            out[f"{name}.share"] = (share(incl), "ratio")
        c = lambda key: self.counts.get(key, 0)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        mps = "algebra.make_pattern_set"
        out[f"{mps}.terms_in"] = (c(mps + ".terms_in") * per, "count")
        out[f"{mps}.members_out"] = (c(mps + ".members_out") * per, "count")
        out["algebra.dedup.compares"] = (c("algebra.dedup.compares") * per, "count")
        out["algebra.dedup.drop_ratio"] = (
            ratio(c(mps + ".terms_in") - c(mps + ".members_out"),
                  c(mps + ".terms_in")), "ratio")
        for name in ("intersect.intersect", "complement.complement",
                     "complement.make_exclusive"):
            out[f"{name}.members_out"] = (c(name + ".members_out") * per, "count")
        out["intersect.intersect.empty_ratio"] = (
            ratio(c("intersect.intersect.empty"), self.agg["intersect.intersect"][0]),
            "ratio")
        out["intersect.enumerate_splittings.splittings"] = (
            c("intersect.enumerate_splittings.splittings") * per, "count")
        out["algebra.enumerate_ground.terms"] = (
            c("algebra.enumerate_ground.terms") * per, "count")
        out["patterns.match_ground.hit_ratio"] = (
            ratio(c("patterns.match_ground.hits"),
                  self.agg["patterns.match_ground"][0]), "ratio")
        out["typecheck.check.reject_ratio"] = (
            ratio(c("typecheck.check.rejects"), self.agg["typecheck.check"][0]),
            "ratio")
        for mod in MODULES:
            self_s = sum(v[2] for k, v in self.agg.items()
                         if k.startswith(mod + "."))
            out[f"layer.{mod}.self_share"] = (share(self_s), "ratio")
        return out


def self_times(spans) -> dict:
    """Self time per span name, recomputed from span records (duration
    minus the durations of direct children)."""
    child = {}
    for name, start, end, parent, op, sid in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = {}
    for name, start, end, parent, op, sid in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
    return out
