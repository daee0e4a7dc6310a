"""Conjunctive formulas over a constraint language and the instance file model.

A formula is a conjunction of constraints R(v1,...,vk); no other connective
exists in this framework. Assignments are encoded as bitmasks over the
sorted variable list, with the lexically first variable in the most
significant bit, so ascending mask order is lexicographic model order.

Instance files and the abduction files of `reductions` read their shared
directives (relations, named formulas, the kb) through one `_Reader`; each
parser reads only its own directives and makes its own final checks.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import kernels
from .errors import BudgetExceededError, ParseError
from .relations import (
    RELATION_CACHE_SIZE,
    ConstraintLanguage,
    Relation,
    _is_identifier,
    _literal_template,
    parse_relation_line,
    parse_relations,
    serialize_relations,
    truth_table,
)

__all__ = [
    "Variable",
    "Constraint",
    "GammaFormula",
    "QuantifiedFormula",
    "ArgInstance",
    "DEFAULT_MAX_MODELS",
    "substitute",
    "conjoin",
    "variables_of",
    "models_mask",
    "enumerate_models",
    "satisfies",
    "parse_instance",
    "serialize_instance",
]

Variable = str

DEFAULT_MAX_MODELS = 2**22

# Constraint and GammaFormula are frozen, so their constructors store each
# field once through object.__setattr__. That keeps the fields in the
# instance's inline values; writing to self.__dict__ instead would build
# the dict and make every later attribute read slower.
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Constraint:
    """One applied constraint: a relation on a variable tuple.

    `args` may be any iterable and is stored as a tuple. Variables may
    repeat. The constructor checks, in this order, that the arg count
    equals the relation's arity and that every arg is an identifier
    (`relations._is_identifier`), and raises ValueError otherwise.
    """

    relation: Relation
    args: tuple[Variable, ...]

    def __init__(self, relation: Relation, args: Iterable[Variable]):
        args = tuple(args)
        if len(args) != relation.arity:
            raise ValueError(
                f"{relation.name} expects {relation.arity} args, got {len(args)}"
            )
        for v in args:
            if not _is_identifier(v):
                raise ValueError(f"invalid variable name {v!r}")
        _set(self, "relation", relation)
        _set(self, "args", args)

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(self.args)

    def __str__(self):
        return f"{self.relation.name}({','.join(self.args)})"


def substitute(constraint: Constraint, variables: Iterable[Variable], replacement: Variable) -> Constraint:
    """Replace every occurrence of the given variables by one variable.

    Args:
        constraint: the constraint to rewrite.
        variables: occurrences of these variables are replaced.
        replacement: the variable substituted in.

    Returns:
        A constraint on the same relation with args rewritten; arity is
        unchanged since substitution only merges argument positions.
    """
    targets = set(variables)
    args = tuple(replacement if a in targets else a for a in constraint.args)
    return Constraint(constraint.relation, args)


@dataclass(frozen=True, init=False)
class GammaFormula:
    """A nonempty conjunction of constraints.

    `constraints` may be any iterable, a generator included, and is stored
    as a tuple; an empty one raises ValueError.
    """

    constraints: tuple[Constraint, ...]

    def __init__(self, constraints: Iterable[Constraint]):
        constraints = tuple(constraints)
        if not constraints:
            raise ValueError("formula must contain at least one constraint")
        _set(self, "constraints", constraints)

    @property
    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for c in self.constraints:
            out.update(c.args)
        return frozenset(out)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __str__(self):
        return " & ".join(str(c) for c in self.constraints)


def conjoin(*formulas: GammaFormula) -> GammaFormula:
    """Concatenate the constraint lists of several formulas."""
    constraints: list[Constraint] = []
    for f in formulas:
        constraints.extend(f.constraints)
    return GammaFormula(tuple(constraints))


def variables_of(formulas: Iterable[GammaFormula]) -> frozenset[Variable]:
    """Union of the variable sets of a formula collection."""
    return frozenset(v for f in formulas for c in f.constraints for v in c.args)


@dataclass(frozen=True)
class QuantifiedFormula:
    """A conjunction with some variables existentially bound.

    The body may additionally use the built-in equality relation; plain
    formulas may not. The projection semantics is onto the free variables
    in sorted order.
    """

    existential_vars: frozenset[Variable]
    body: GammaFormula

    def __post_init__(self):
        object.__setattr__(self, "existential_vars", frozenset(self.existential_vars))
        if not self.existential_vars <= self.body.variables:
            extra = sorted(self.existential_vars - self.body.variables)
            raise ValueError(f"bound variables not in body: {extra}")

    @property
    def free_variables(self) -> frozenset[Variable]:
        return self.body.variables - self.existential_vars

    def __str__(self):
        if not self.existential_vars:
            return str(self.body)
        bound = " ".join(sorted(self.existential_vars))
        return f"exists {bound} . {self.body}"


@dataclass(frozen=True)
class ArgInstance:
    """An argumentation problem input: knowledge base, claim, focus formula.

    Args:
        language: the constraint language every constraint must come from.
        delta: the knowledge base, an ordered tuple of formulas.
        alpha: the claim.
        relevant: optional index into delta naming the formula whose
            relevance is queried.
    """

    language: ConstraintLanguage
    delta: tuple[GammaFormula, ...]
    alpha: GammaFormula
    relevant: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "delta", tuple(self.delta))
        if self.relevant is not None and not 0 <= self.relevant < len(self.delta):
            raise ValueError(f"relevant index {self.relevant} out of range")
        for formula in (*self.delta, self.alpha):
            for c in formula.constraints:
                if c.relation not in self.language.relations:
                    raise ValueError(
                        f"constraint uses relation {c.relation.name} "
                        "outside the instance language"
                    )


# ---------------------------------------------------------------------------
# Model enumeration. Internally a conjunction's models over the 2^n
# assignments to ordered variables are one packed bitset (`_ModelBits`).
# ---------------------------------------------------------------------------


def _lacking(n: int) -> list[int]:
    """Bit s of the i-th int is set iff s lacks bit i. Pattern i repeats
    every 2**(i+1) bits, so it is doubled up to 2**n bits from its first
    period, 2**i set bits and then 2**i clear ones; each int is made
    once, with no bytes kept beside it."""
    patterns = []
    for i in range(n):
        p, width = (1 << (1 << i)) - 1, 2 << i
        while width < 1 << n:
            p |= p << width
            width <<= 1
        patterns.append(p)
    return patterns


# The patterns repeat every 2**(i+1) bits, so those for 16 bits, ANDed with
# a bitset over fewer, serve every n <= 16: subsets of up to 16 formulas,
# and the negative literals of up to 16 variables (`_ModelBits`).
_LACKING_16 = _lacking(16)

# Relations of at most this arity take their model bitsets from their CNF
# (`_literal_template`), wider ones from their collapsed truth table
# (`kernels.filter_models`). In `_ModelBits.rows`, over six random relations
# per arity (each tuple kept with probability 0.7), one constraint took
# 5 / 8 / 81 us from its CNF at arity 5 over 10 / 14 / 18 variables, against
# 15 / 18 / 89 us from its table, and 6 / 18 / 199 us at arity 6 against
# 10 / 19 / 119 us (2-core Xeon VM). Finding the CNF also tries 3**arity
# candidate clauses once per relation: 2 ms at arity 5 and 32 ms at arity 7.
_CNF_ARITY = 5


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def _constraint_template(relation: Relation, pattern: tuple[int, ...]) -> np.ndarray:
    """The relation's truth table collapsed onto its distinct variables in
    ascending order (`kernels.collapse`), for arguments whose variables
    rank as `pattern` among them: R(y, x, y) with x before y has pattern
    (1, 0, 1). Read-only, as every caller shares it."""
    table = kernels.collapse(truth_table(relation), pattern)[0]
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=32)
def _block_literals(n: int) -> tuple[int, int, tuple[tuple[tuple[int, int], ...], ...]]:
    """_ModelBits' tables for n variables, which depend on n alone: (the
    all-ones block, a block's width in bytes, per block the (x, not x)
    bitsets of each order position). Every order of length n shares them
    read-only; the cache holds every n up to 31, past the 22 variables
    of the default model budget."""
    block = min(n, len(_LACKING_16))
    lead = n - block
    full = (1 << (1 << block)) - 1
    constants = ((0, full), (full, 0))
    patterns = tuple((q ^ full, q) for q in [p & full for p in reversed(_LACKING_16[:block])])
    blocks = tuple(
        tuple(constants[b >> (lead - 1 - p) & 1] for p in range(lead)) + patterns
        for b in range(1 << lead)
    )
    return full, ((1 << block) + 7) >> 3, blocks


class _ModelBits:
    """Model bitsets of constraint conjunctions over one variable order,
    whose position p holds bit n-1-p of an assignment.

    The assignments go in blocks of 2**16 (or all 2**n, if fewer), one
    per value of the leading variables. On a block the literals of a
    leading variable are the constants 0 and all-ones, and those of the
    others are the patterns `_LACKING_16`, cut to the block: not x holds
    where x's bit is clear, and x is the complement. A clause of a
    relation's CNF (`_literal_template`) is the OR of its literals and a
    conjunction the AND of its clauses, so a repeated argument needs no
    case of its own: x or not x comes out full. Relations wider than
    _CNF_ARITY take one `kernels.filter_models` mask per conjunction,
    packed and ANDed in.

    `rows` is the one kernel loop: one call builds every conjunction's
    row of a compile, and `packed` and `bits` are its one-conjunction
    case.
    """

    def __init__(self, order: tuple[Variable, ...]):
        self.n = len(order)
        self.index = {v: i for i, v in enumerate(order)}
        self.full, self.width, self.blocks = _block_literals(self.n)

    def rows(self, formulas: Iterable[Sequence[Constraint]]) -> list[bytes]:
        """Each conjunction's models, packed little-endian, one row per
        conjunction in one pass: bit a % 8 of byte a // 8 says whether
        assignment a satisfies every constraint.

        Each relation's template is fetched from _literal_template once
        per call and kept in a local dict keyed by the relation's id, as
        in `logic._instantiate_clauses`, so an equal relation that is not
        the cached key costs one Relation.__eq__ per call, not one per
        constraint; the relations are held beside it, so no id is reused
        while the dict lives. Unary, binary and ternary constraints, most
        of any base, take straight-line code.
        """
        index, full, width, blocks = self.index, self.full, self.width, self.blocks
        templates: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}
        held: list[Relation] = []
        out: list[bytes] = []
        for constraints in formulas:
            parts = []
            wide = False
            for lits in blocks:
                bits = full
                for c in constraints:
                    args = c.args
                    arity = len(args)
                    if arity > _CNF_ARITY:
                        wide = True
                        continue
                    relation = c.relation
                    template = templates.get(id(relation))
                    if template is None:
                        template = templates[id(relation)] = _literal_template(relation)
                        held.append(relation)
                    if arity == 2:
                        a, b = args
                        x, y = lits[index[a]], lits[index[b]]
                        for clause in template:
                            if len(clause) == 2:
                                (j, s), (_, t) = clause
                                bits &= y[s] | x[t] if j else x[s] | y[t]
                            else:
                                ((j, s),) = clause
                                bits &= y[s] if j else x[s]
                    elif arity == 1:
                        x = lits[index[args[0]]]
                        for ((_, s),) in template:
                            bits &= x[s]
                    elif arity == 3:
                        a, b, d = args
                        p = (lits[index[a]], lits[index[b]], lits[index[d]])
                        for clause in template:
                            if len(clause) == 3:
                                (j, s), (k, t), (m, u) = clause
                                bits &= p[j][s] | p[k][t] | p[m][u]
                            elif len(clause) == 2:
                                (j, s), (k, t) = clause
                                bits &= p[j][s] | p[k][t]
                            else:
                                ((j, s),) = clause
                                bits &= p[j][s]
                    else:
                        p = [lits[index[a]] for a in args]
                        for clause in template:
                            either = 0
                            for j, s in clause:
                                either |= p[j][s]
                            bits &= either
                    if not bits:
                        # An empty block stays empty whatever the constraints
                        # left say, wide ones included.
                        break
                parts.append(bits.to_bytes(width, "little"))
            packed = parts[0] if len(parts) == 1 else b"".join(parts)
            if wide:
                tables, positions = [], []
                for c in constraints:
                    if len(c.args) > _CNF_ARITY:
                        pos = [index[a] for a in c.args]
                        axes = sorted(set(pos))
                        pattern = tuple(map(axes.index, pos))
                        tables.append(_constraint_template(c.relation, pattern))
                        positions.append(tuple(axes))
                mask = kernels.filter_models(self.n, tables, positions)
                mask = np.packbits(mask, bitorder="little")
                packed = (np.frombuffer(packed, np.uint8) & mask).tobytes()
            out.append(packed)
        return out

    def packed(self, constraints: Sequence[Constraint]) -> bytes:
        """One conjunction's row of `rows`."""
        return self.rows((constraints,))[0]

    def bits(self, constraints: Sequence[Constraint]) -> int:
        """The conjunction's models as an int: bit a for assignment a."""
        return int.from_bytes(self.rows((constraints,))[0], "little")


def models_mask(constraints: Iterable[Constraint], order: tuple[Variable, ...]) -> np.ndarray:
    """Satisfaction mask of a constraint conjunction over ordered variables:
    entry m says whether assignment mask m (variable at order position i
    holds bit n-1-i) satisfies every constraint. It is the packed model
    bitset (`_ModelBits`) unpacked, 1 byte per assignment.

    Raises:
        ValueError: when `order` repeats a variable or misses one of the
            constraints' variables.
    """
    constraints = list(constraints)
    if len(set(order)) < len(order):
        repeated = sorted({v for v in order if order.count(v) > 1})
        raise ValueError(f"assignment scope repeats variables: {repeated}")
    missing = {a for c in constraints for a in c.args}.difference(order)
    if missing:
        raise ValueError(f"assignment scope misses variables: {sorted(missing)}")
    packed = np.frombuffer(_ModelBits(order).packed(constraints), np.uint8)
    return np.unpackbits(packed, count=1 << len(order), bitorder="little").view(np.bool_)


def _model_order(variables: Iterable[Variable], max_models: int) -> tuple[Variable, ...]:
    """The distinct variables in sorted order, once their 2^n assignments
    are known to fit the model budget.

    Raises:
        BudgetExceededError: when 2^n exceeds max_models.
    """
    order = tuple(sorted(variables))
    if 1 << len(order) > max_models:
        raise BudgetExceededError(
            f"2^{len(order)} assignments exceed the model budget {max_models}"
        )
    return order


def _as_constraints(phi: GammaFormula | Iterable[GammaFormula]) -> list[Constraint]:
    if isinstance(phi, GammaFormula):
        return list(phi.constraints)
    out: list[Constraint] = []
    for f in phi:
        out.extend(f.constraints)
    return out


def enumerate_models(
    phi: GammaFormula | Iterable[GammaFormula],
    over: Iterable[Variable] | None = None,
    *,
    max_models: int = DEFAULT_MAX_MODELS,
) -> list[dict[Variable, bool]]:
    """List every satisfying assignment in lexicographic order.

    Args:
        phi: a formula or a collection of formulas, taken conjunctively.
        over: variables to assign; must cover the formula variables.
            Defaults to exactly the formula variables.
        max_models: cap on 2^|over| enumerated assignments.

    Returns:
        Assignments as dicts over `over`, ordered lexicographically with
        False < True on the sorted variable list.

    Raises:
        BudgetExceededError: when the assignment space exceeds max_models.
        ValueError: when `over` misses a formula variable.
    """
    constraints = _as_constraints(phi)
    scope = {a for c in constraints for a in c.args} if over is None else set(over)
    order = _model_order(scope, max_models)
    n = len(order)
    # models_mask names any formula variable that `over` misses.
    mask = models_mask(constraints, order)
    models = []
    for m in np.flatnonzero(mask):
        m = int(m)
        models.append({v: bool((m >> (n - 1 - i)) & 1) for i, v in enumerate(order)})
    return models


def satisfies(assignment: Mapping[Variable, bool], constraint: Constraint) -> bool:
    """Evaluate one constraint under a variable assignment."""
    k = constraint.relation.arity
    mask = 0
    for j, v in enumerate(constraint.args):
        if assignment[v]:
            mask |= 1 << (k - 1 - j)
    return mask in constraint.relation.tuples


# ---------------------------------------------------------------------------
# Instance file format; the first four directives are shared with abduction
# files, and formula names are identifiers:
#   use <relation-file-path>
#   relation <NAME> <arity> { <tuples> }     # inline alternative to `use`
#   formula <name> = <REL>(<v>,...) & ...
#   kb <name> <name> ...
#   claim <REL>(...) & ...
#   relevant <name>
# ---------------------------------------------------------------------------

_CONSTRAINT_RE = re.compile(
    r"(?P<rel>[A-Za-z_][A-Za-z0-9_]*)\s*\(\s*(?P<args>[^()]*)\)\s*\Z"
)


def _parse_constraints(
    text: str, relations: dict[str, Relation], lineno: int
) -> GammaFormula:
    parts = [p.strip() for p in text.split("&")]
    constraints = []
    for part in parts:
        m = _CONSTRAINT_RE.match(part)
        if not m:
            raise ParseError(f"malformed constraint {part!r}", lineno)
        name = m.group("rel")
        if name not in relations:
            raise ParseError(f"unknown relation {name}", lineno)
        relation = relations[name]
        args = tuple(a.strip() for a in m.group("args").split(","))
        if len(args) != relation.arity:
            raise ParseError(
                f"{name} expects {relation.arity} args, got {len(args)}", lineno
            )
        for a in args:
            if not _is_identifier(a):
                raise ParseError(f"invalid variable name {a!r}", lineno)
        constraints.append(Constraint(relation, args))
    return GammaFormula(tuple(constraints))


class _Reader:
    """The directives instance and abduction files share.

    `use` and `relation` lines declare relations, `formula` lines name a
    conjunction over the relations declared so far, and `kb` lines append
    named formulas to the knowledge base. Each file kind reads its own
    directives from `read` at their place in the file.
    """

    def __init__(self, base_dir: str | None, language: ConstraintLanguage | None):
        self.base_dir = base_dir
        self.relations = {r.name: r for r in language or ()}
        self.formulas: dict[str, GammaFormula] = {}
        self.kb_names: list[str] = []

    def read(self, text: str, own: tuple[str, ...]) -> Iterator[tuple[str, str, int]]:
        """Read the shared directives in line order and yield (keyword, rest
        of line, line number) for those in `own`; any other is a ParseError."""
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword, _, rest = line.partition(" ")
            rest = rest.strip()
            if keyword == "use":
                if not rest:
                    raise ParseError("use needs a file path", lineno)
                path = os.path.join(self.base_dir or ".", rest)
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        used = parse_relations(fh.read())
                except (OSError, UnicodeDecodeError) as exc:
                    raise ParseError(f"cannot read {rest}: {exc}", lineno) from None
                for r in used:
                    self._declare(r, lineno)
            elif keyword == "relation":
                self._declare(parse_relation_line(line, lineno), lineno)
            elif keyword == "formula":
                name, eq, body = rest.partition("=")
                name = name.strip()
                if not eq or not _is_identifier(name):
                    raise ParseError("expected `formula <name> = <constraints>`", lineno)
                if name in self.formulas:
                    raise ParseError(f"duplicate formula {name}", lineno)
                formula = _parse_constraints(body.strip(), self.relations, lineno)
                self.formulas[name] = formula
            elif keyword == "kb":
                for name in rest.split():
                    if name not in self.formulas:
                        raise ParseError(f"unknown formula {name}", lineno)
                    if name in self.kb_names:
                        raise ParseError(f"formula {name} repeated in kb", lineno)
                    self.kb_names.append(name)
            elif keyword in own:
                yield keyword, rest, lineno
            else:
                raise ParseError(f"unknown directive {keyword!r}", lineno)

    def _declare(self, relation: Relation, lineno: int):
        if relation.name in self.relations:
            raise ParseError(f"duplicate relation {relation.name}", lineno)
        self.relations[relation.name] = relation

    def language(self) -> ConstraintLanguage:
        if not self.relations:
            raise ParseError("no relations available; add `use` or `relation` lines")
        return ConstraintLanguage(tuple(self.relations.values()))

    def kb(self) -> list[GammaFormula]:
        return [self.formulas[name] for name in self.kb_names]


def parse_instance(
    text: str,
    *,
    base_dir: str | None = None,
    language: ConstraintLanguage | None = None,
) -> ArgInstance:
    """Parse an instance file into an ArgInstance.

    Args:
        text: instance file contents.
        base_dir: directory against which `use` paths are resolved.
        language: relations made available in addition to any `use` files
            and inline declarations.

    Returns:
        The parsed instance; the knowledge base order is the kb line order.

    Raises:
        ParseError: on syntax errors, unknown relations or formulas,
            arity mismatches, duplicate names, a missing claim, or a
            `relevant` target outside the kb.
    """
    reader = _Reader(base_dir, language)
    claim: GammaFormula | None = None
    relevant_name: str | None = None
    for keyword, rest, lineno in reader.read(text, ("claim", "relevant")):
        if keyword == "claim":
            if claim is not None:
                raise ParseError("multiple claim lines", lineno)
            claim = _parse_constraints(rest, reader.relations, lineno)
        else:
            if relevant_name is not None:
                raise ParseError("multiple relevant lines", lineno)
            if not rest or len(rest.split()) != 1:
                raise ParseError("relevant needs exactly one formula name", lineno)
            relevant_name = rest

    if claim is None:
        raise ParseError("missing claim")
    declared = reader.language()
    relevant = None
    if relevant_name is not None:
        if relevant_name not in reader.kb_names:
            raise ParseError(f"relevant formula {relevant_name} is not in the kb")
        relevant = reader.kb_names.index(relevant_name)
    return ArgInstance(
        language=declared, delta=tuple(reader.kb()), alpha=claim, relevant=relevant
    )


def serialize_instance(instance: ArgInstance, *, use: str | None = None) -> str:
    """Render an instance in the instance file format.

    Formula names are regenerated as f0, f1, ...; with `use` given, a
    `use` line replaces inline relation declarations so the language can
    live in a separate relation file.
    """
    if use is not None:
        lines = [f"use {use}"]
    else:
        lines = serialize_relations(instance.language).splitlines()
    names = []
    for i, formula in enumerate(instance.delta):
        name = f"f{i}"
        names.append(name)
        lines.append(f"formula {name} = {formula}")
    if names:
        lines.append(f"kb {' '.join(names)}")
    lines.append(f"claim {instance.alpha}")
    if instance.relevant is not None:
        lines.append(f"relevant {names[instance.relevant]}")
    return "\n".join(lines) + "\n"
