"""Extensional Boolean relations, constraint languages, and their algebra.

A relation of arity k is a nonempty proper subset of {0,1}^k; tuples are
encoded as integer bitmasks with the first coordinate in the most
significant bit, so the text form "01" means first coordinate 0, second 1.
Property flags (Horn, dual Horn, bijunctive, affine, validity, monotonicity,
implication closure) are computed by exhaustive closure tests and drive both
complexity classification and solver dispatch. Every closure test runs on the
array kernels (`kernels.pair_closure`, `kernels.triple_closure`), whatever the
relation's size; a pair test builds |R|^2 int64 entries. `cnf_of` gives a
relation's clauses to the fragment engines and the model kernel alike.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .errors import ParseError
from . import kernels

__all__ = [
    "MAX_ARITY",
    "Relation",
    "ConstraintLanguage",
    "PropertyReport",
    "FLAG_NAMES",
    "EQUALITY",
    "relation_properties",
    "language_properties",
    "truth_table",
    "parse_relations",
    "serialize_relations",
]

MAX_ARITY = 16

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Every cache keyed on a Relation keeps at most this many entries, so a
# stream of fresh relations holds memory flat.
RELATION_CACHE_SIZE = 256


def _tuple_str(mask: int, arity: int) -> str:
    return format(mask, f"0{arity}b")


@dataclass(frozen=True)
class Relation:
    """A named k-ary Boolean relation given by its satisfying tuples.

    Args:
        name: identifier; the single non-identifier name "=" is reserved
            for the built-in equality relation, which cannot be declared
            in files or placed in a constraint language.
        arity: number of coordinates, 1 <= arity <= MAX_ARITY.
        tuples: satisfying tuples as bitmasks (first coordinate = MSB).

    The hash, that of (name, arity, tuples), is computed once at
    construction: relations key every per-relation cache and fragment
    set. String hashes differ between interpreters, so a pickled
    relation is rebuilt through its constructor, which hashes afresh.
    """

    name: str
    arity: int
    tuples: frozenset[int]

    def __post_init__(self):
        if self.name != "=" and not _IDENT_RE.match(self.name):
            raise ValueError(f"invalid relation name {self.name!r}")
        if not 1 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {self.arity}")
        tuples = frozenset(self.tuples)
        object.__setattr__(self, "tuples", tuples)
        size = 1 << self.arity
        if any(not 0 <= t < size for t in tuples):
            raise ValueError(f"tuple out of range for arity {self.arity}")
        if not tuples:
            raise ValueError(f"relation {self.name} is empty")
        if len(tuples) == size:
            raise ValueError(f"relation {self.name} is the full relation")
        object.__setattr__(self, "_hash", hash((self.name, self.arity, tuples)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), (self.name, self.arity, self.tuples)

    @classmethod
    def from_strings(cls, name: str, tuple_strings: list[str] | tuple[str, ...]) -> "Relation":
        """Build a relation from tuple strings like "01", all of one width."""
        widths = {len(s) for s in tuple_strings}
        if len(widths) != 1:
            raise ValueError("tuple strings must all have the same width")
        arity = widths.pop()
        masks = set()
        for s in tuple_strings:
            if set(s) - {"0", "1"}:
                raise ValueError(f"bad tuple string {s!r}")
            masks.add(int(s, 2))
        return cls(name, arity, frozenset(masks))

    @property
    def tuple_strings(self) -> tuple[str, ...]:
        """Tuples as sorted text strings, first coordinate leftmost."""
        return tuple(_tuple_str(t, self.arity) for t in sorted(self.tuples))

    def __contains__(self, mask: int) -> bool:
        return mask in self.tuples

    def __repr__(self):
        return f"Relation({self.name}, {self.arity}, {{{' '.join(self.tuple_strings)}}})"


# The equality relation is built in but deliberately unnameable in files;
# it may appear only inside quantified-formula bodies.
EQUALITY = Relation("=", 2, frozenset({0b00, 0b11}))


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def truth_table(relation: Relation) -> np.ndarray:
    """Boolean membership table of length 2**arity, indexed by tuple mask."""
    table = np.zeros(1 << relation.arity, dtype=np.bool_)
    table[sorted(relation.tuples)] = True
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Clause:
    """A disjunction over relation coordinates, 1-based.

    pos lists coordinates appearing as positive literals, neg as negated
    ones; both are ascending and disjoint.
    """

    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def __str__(self):
        lits = [f"x{i}" for i in self.pos] + [f"~x{i}" for i in self.neg]
        return "(" + " | ".join(lits) + ")"


def _coord_mask(coords: Iterable[int], arity: int) -> int:
    mask = 0
    for i in coords:
        mask |= 1 << (arity - i)
    return mask


def _clause_holds(t: int, pos_mask: int, neg_mask: int, full: int) -> bool:
    return bool((t & pos_mask) | (~t & full & neg_mask))


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def cnf_of(relation: Relation) -> tuple[Clause, ...]:
    """Prime-implicate CNF of a relation over its coordinates.

    Clauses are enumerated by increasing size with subsumption pruning,
    so the result is exactly the set of prime implicates; their
    conjunction has the relation's tuples as its models. Clause order is
    (size, negative-literal mask, positive-literal mask) ascending. If
    the relation is Horn every clause has at most one positive literal,
    dually for dual Horn, and bijunctive relations yield clauses of at
    most two literals.
    """
    k = relation.arity
    full = (1 << k) - 1
    tuples = sorted(relation.tuples)
    kept: list[Clause] = []
    kept_sets: list[tuple[frozenset[int], frozenset[int]]] = []
    for size in range(1, k + 1):
        sized: list[tuple[int, int, tuple[int, ...], tuple[int, ...]]] = []
        for support in itertools.combinations(range(1, k + 1), size):
            for signs in itertools.product((True, False), repeat=size):
                pos = tuple(i for i, s in zip(support, signs) if s)
                neg = tuple(i for i, s in zip(support, signs) if not s)
                sized.append((_coord_mask(neg, k), _coord_mask(pos, k), pos, neg))
        sized.sort()
        for neg_mask, pos_mask, pos, neg in sized:
            if not all(_clause_holds(t, pos_mask, neg_mask, full) for t in tuples):
                continue
            ps, ns = frozenset(pos), frozenset(neg)
            if any(kp <= ps and kn <= ns for kp, kn in kept_sets):
                continue
            kept.append(Clause(pos, neg))
            kept_sets.append((ps, ns))
    return tuple(kept)


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def _literal_template(relation: Relation) -> tuple[tuple[tuple[int, int], ...], ...]:
    """cnf_of as literal templates: each clause's literals, in order, as
    (0-based coordinate, sign) pairs, sign 0 for a positive literal and 1
    for a negated one. On a constraint whose j-th argument has id v_j the
    clause is the literals 2 * v_j + sign (see the fragment engines)."""
    return tuple(
        tuple([(i - 1, 0) for i in clause.pos] + [(i - 1, 1) for i in clause.neg])
        for clause in cnf_of(relation)
    )


FLAG_NAMES = (
    "horn",
    "dual_horn",
    "bijunctive",
    "affine",
    "zero_valid",
    "one_valid",
    "eps_valid",
    "complementive",
    "positive",
    "negative",
    "in_is0",
    "in_is1",
    "schaefer",
)


@dataclass(frozen=True)
class PropertyReport:
    """Algebraic property flags of a relation or constraint language."""

    horn: bool
    dual_horn: bool
    bijunctive: bool
    affine: bool
    zero_valid: bool
    one_valid: bool
    eps_valid: bool
    complementive: bool
    positive: bool
    negative: bool
    in_is0: bool
    in_is1: bool
    schaefer: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def relation_properties(relation: Relation) -> PropertyReport:
    """Compute every property flag of a single relation.

    All tests are exhaustive closure checks over the tuple set: Horn is
    closure under coordinate-wise AND, dual Horn under OR, bijunctive
    under ternary majority, affine under ternary XOR, and the IS0/IS1
    flags are closure under coordinate-wise implication / its negation.
    Positive and negative are upward- and downward-closure.

    The six closure tests all run on the array kernels over one sorted
    members array and the truth table: each pair test builds |R|^2 int64
    entries, and each triple test |R|^2 per third tuple.
    """
    tuples = relation.tuples
    k = relation.arity
    full = (1 << k) - 1
    members = np.array(sorted(tuples), dtype=np.int64)
    table = truth_table(relation)

    horn = kernels.pair_closure(members, table, kernels.OP_AND, full)
    dual_horn = kernels.pair_closure(members, table, kernels.OP_OR, full)
    bijunctive = kernels.triple_closure(members, table, kernels.OP_MAJ)
    affine = kernels.triple_closure(members, table, kernels.OP_XOR3)
    zero_valid = 0 in tuples
    one_valid = full in tuples
    complementive = all((~t & full) in tuples for t in tuples)
    positive = all((t | (1 << i)) in tuples for t in tuples for i in range(k))
    negative = all((t & ~(1 << i)) in tuples for t in tuples for i in range(k))
    in_is0 = kernels.pair_closure(members, table, kernels.OP_IMP, full)
    in_is1 = kernels.pair_closure(members, table, kernels.OP_NIMP, full)
    return PropertyReport(
        horn=horn,
        dual_horn=dual_horn,
        bijunctive=bijunctive,
        affine=affine,
        zero_valid=zero_valid,
        one_valid=one_valid,
        eps_valid=zero_valid or one_valid,
        complementive=complementive,
        positive=positive,
        negative=negative,
        in_is0=in_is0,
        in_is1=in_is1,
        schaefer=horn or dual_horn or bijunctive or affine,
    )


@dataclass(frozen=True)
class ConstraintLanguage:
    """A finite set of nontrivial relations with unique names."""

    relations: tuple[Relation, ...]

    def __post_init__(self):
        rels = tuple(sorted(self.relations, key=lambda r: r.name))
        object.__setattr__(self, "relations", rels)
        if not rels:
            raise ValueError("constraint language must be nonempty")
        names = [r.name for r in rels]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation names in language")
        if "=" in names:
            raise ValueError("the built-in equality relation cannot be declared")

    @classmethod
    def of(cls, *relations: Relation) -> "ConstraintLanguage":
        return cls(tuple(relations))

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)

    def __contains__(self, relation: Relation) -> bool:
        return relation in self.relations

    def get(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)


def language_properties(language: Iterable[Relation]) -> PropertyReport:
    """Combine per-relation flags into language flags.

    Every base flag is the conjunction over the language's relations.
    Two flags are derived instead: eps_valid is zero_valid or one_valid
    of the language (a single constant assignment must satisfy every
    relation at once), and schaefer is the disjunction of the four
    language-level closure flags.

    The language is any collection of relations, such as a
    ConstraintLanguage or the frozenset of a query's relations; the
    report is computed once per frozenset of them. This is the one place
    where per-relation flags are combined, for the solver's dispatch as
    well as for classification.
    """
    return _language_report(frozenset(language))


_BASE_FLAGS = tuple(f for f in FLAG_NAMES if f not in ("eps_valid", "schaefer"))
_base_flags = operator.attrgetter(*_BASE_FLAGS)


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def _language_report(relations: frozenset[Relation]) -> PropertyReport:
    # One row of base flags per relation, and an all-true row so that the
    # empty language gets every flag.
    rows = [_base_flags(relation_properties(r)) for r in relations]
    conj = dict(zip(_BASE_FLAGS, map(all, zip((True,) * len(_BASE_FLAGS), *rows))))
    conj["eps_valid"] = conj["zero_valid"] or conj["one_valid"]
    conj["schaefer"] = (
        conj["horn"] or conj["dual_horn"] or conj["bijunctive"] or conj["affine"]
    )
    return PropertyReport(**conj)


# ---------------------------------------------------------------------------
# Relation file format: one declaration per line,
#   relation <NAME> <arity> { <tuple> <tuple> ... }
# with '#' comments and blank lines allowed.
# ---------------------------------------------------------------------------

_RELATION_LINE_RE = re.compile(
    r"relation\s+(?P<name>\S+)\s+(?P<arity>\S+)\s*\{(?P<tuples>[^}]*)\}\s*\Z"
)


def parse_relation_line(line: str, lineno: int | None = None) -> Relation:
    """Parse one `relation NAME ARITY { tuples }` declaration."""
    m = _RELATION_LINE_RE.match(line.strip())
    if not m:
        raise ParseError("malformed relation declaration", lineno)
    name = m.group("name")
    if not _IDENT_RE.match(name):
        raise ParseError(f"invalid relation name {name!r}", lineno)
    try:
        arity = int(m.group("arity"))
    except ValueError:
        raise ParseError(f"arity is not an integer: {m.group('arity')!r}", lineno) from None
    masks = set()
    for token in m.group("tuples").split():
        if len(token) != arity or set(token) - {"0", "1"}:
            raise ParseError(f"bad tuple {token!r} for arity {arity}", lineno)
        masks.add(int(token, 2))
    try:
        return Relation(name, arity, frozenset(masks))
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def parse_relations(text: str) -> ConstraintLanguage:
    """Parse a relation file into a constraint language.

    Raises:
        ParseError: on malformed lines, duplicate names, or relations
            violating the nontriviality invariants.
    """
    relations: list[Relation] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        relation = parse_relation_line(line, lineno)
        if relation.name in seen:
            raise ParseError(f"duplicate relation {relation.name}", lineno)
        seen.add(relation.name)
        relations.append(relation)
    if not relations:
        raise ParseError("no relation declarations found")
    return ConstraintLanguage(tuple(relations))


def serialize_relations(language: ConstraintLanguage) -> str:
    """Render a language in the relation file format, one line per relation."""
    lines = [
        f"relation {r.name} {r.arity} {{ {' '.join(r.tuple_strings)} }}"
        for r in language
    ]
    return "\n".join(lines) + "\n"
