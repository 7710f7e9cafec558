"""A strict lambda-calculus with pattern complement and intersection.

Terms carry occurrence labels (strict, irrelevant, undetermined) on
abstractions and applications.  The library provides zoned typechecking,
canonical forms, an embedding of the simply-typed calculus, and — for
simple linear patterns — a complement operation, pairwise intersection,
and the resulting boolean algebra of finite pattern sets, all checkable
against brute-force ground enumeration.
"""

from .syntax import (Label, Atom, Arrow, Type, Const, Var, Lam, App, EVar,
                     Term, Phi, Signature, ZonedContext, StrictpatError,
                     ParseError, InputError, EVarArgHit, term_key, free_vars,
                     evar_names, subst, term_size, fresh_name, binder_name,
                     arrow_chain, spine, make_spine, parse_term, parse_type,
                     parse_signature, parse_context, parse_program,
                     print_term, print_type)
from .typecheck import (ErrorKind, TypingError, OccurrenceReport, occurrences,
                        check, check_declarative, strict_splits)
from .canonicalize import (NonTerminating, whr_step, canonicalize, Canonical,
                           Atomic, Neither, classify, is_canonical)
from .patterns import (PatternError, NotSimple, NotLinear, NotCanonical,
                       PreconditionViolated, SimpleLinearPattern, embed_type,
                       embed_signature, embed_context, embed_term,
                       embedding_violations, validate_pattern, fully_apply,
                       match_ground, instance_of, equal_mod_evar_renaming)
from .complement import (not_label, not_phi_i, ComplementRule,
                         ComplementRuleTag, complement, complement_tagged,
                         make_exclusive)
from .intersect import (label_meet, meet_phi, enumerate_splittings,
                        rename_apart, intersect)
from .algebra import (PatternSet, make_pattern_set, parse_pattern_set,
                      universal_pattern, set_union, set_intersect,
                      set_complement, relative_complement, member_set,
                      enumerate_ground, first_difference,
                      extensional_eq, Clause, clause_complement,
                      pattern_sets_equal)

__all__ = [
    "Label", "Atom", "Arrow", "Type", "Const", "Var", "Lam", "App", "EVar",
    "Term", "Phi", "Signature", "ZonedContext", "StrictpatError", "ParseError",
    "InputError", "EVarArgHit", "term_key", "free_vars", "evar_names",
    "subst", "term_size", "fresh_name", "binder_name", "arrow_chain",
    "spine", "make_spine",
    "parse_term", "parse_type", "parse_signature", "parse_context",
    "parse_program", "print_term", "print_type",
    "ErrorKind", "TypingError", "OccurrenceReport", "occurrences", "check",
    "check_declarative", "strict_splits",
    "NonTerminating", "whr_step", "canonicalize", "Canonical", "Atomic",
    "Neither", "classify", "is_canonical",
    "PatternError", "NotSimple", "NotLinear", "NotCanonical",
    "PreconditionViolated", "SimpleLinearPattern", "embed_type",
    "embed_signature", "embed_context", "embed_term", "embedding_violations",
    "validate_pattern", "fully_apply", "match_ground", "instance_of",
    "equal_mod_evar_renaming",
    "not_label", "not_phi_i", "ComplementRule", "ComplementRuleTag",
    "complement", "complement_tagged", "make_exclusive",
    "label_meet", "meet_phi", "enumerate_splittings",
    "rename_apart", "intersect",
    "PatternSet", "make_pattern_set", "parse_pattern_set",
    "universal_pattern", "set_union", "set_intersect", "set_complement",
    "relative_complement", "member_set", "enumerate_ground",
    "first_difference", "extensional_eq", "Clause", "clause_complement",
    "pattern_sets_equal",
]

__version__ = "0.1.0"
