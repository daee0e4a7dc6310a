"""Source problems, brute-force oracles, and reductions into argumentation.

Each reduction kind maps a source instance (a CNF formula, an abduction
instance, or another argumentation instance) to a constraint language plus
an argumentation instance with the same answer, so soundness can be checked
end to end against the oracles. Generalized clauses needed by a
construction are materialized as freshly named extensional relations.

Source problems and reduction kinds each name their input type in one
table (`_SOURCE_TYPES`, `_BUILDERS`). CNF sources are DIMACS; abduction
files go through the instance-file reader (`formulas._Reader`).

The oracles (`solve_source`) enumerate on one Python int per set of
assignments, bit a for assignment a, as the model kernel does: each
variable's false set is a fixed bit pattern (`formulas._lacking`), a
clause's models are the OR of its literals' sets, and an abduction
theory's models come from `formulas._ModelBits` and are narrowed one
hypothesis literal at a time, depth first. Their budgets bound the ints:
at most 20 CNF variables (2^20-bit ints), 12 hypotheses, and 2^20
assignments over an abduction instance's variables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceededError, ParseError, PreconditionError
from .formulas import (
    ArgInstance,
    Constraint,
    GammaFormula,
    Variable,
    _LACKING_16,
    _ModelBits,
    _Reader,
    _lacking,
    conjoin,
    variables_of,
)
from .relations import (
    MAX_ARITY,
    ConstraintLanguage,
    Relation,
    _IDENT_RE,
    language_properties,
)

__all__ = [
    "CnfInput",
    "AbdInstance",
    "SOURCE_PROBLEMS",
    "REDUCTION_KINDS",
    "parse_dimacs",
    "parse_abduction",
    "solve_source",
    "reduce",
    "source_type_of",
    "small_cnf_family",
    "small_pos1in3_family",
    "small_abduction_family",
    "small_instance_family",
    "NEQ",
    "AN",
    "IMPL",
    "T",
    "EQ2",
    "EQT",
    "EQF",
    "OR2",
    "ORPN",
    "OR3PNP",
    "AND2",
    "BRIDGE4",
    "BRIDGE7",
]

# Oracle budgets: CNF sources enumerate 2^n assignments, abduction sources
# additionally enumerate literal sets over the hypotheses.
_MAX_CNF_VARS = 20
_MAX_HYPOTHESES = 12
_MAX_ORACLE_SPACE = 1 << 20


@dataclass(frozen=True)
class CnfInput:
    """A CNF formula over variables 1..n, clauses as sets of literals.

    A literal is a nonzero integer; negative means negated. Clauses are
    nonempty and never contain a literal together with its negation.
    """

    n: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(frozenset(c) for c in self.clauses))
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range for {self.n} variables")
            if any(-lit in clause for lit in clause):
                raise ValueError("clause contains a literal and its negation")


@dataclass(frozen=True)
class AbdInstance:
    """An abduction input: theory, hypothesis variables, observed variable.

    The question is whether some set of literals over the hypotheses is
    consistent with the theory and makes it entail the observation;
    the positive variant restricts the literals to unnegated ones.
    Hypotheses may mention variables absent from the theory.
    """

    language: ConstraintLanguage
    phi: GammaFormula
    hypotheses: tuple[Variable, ...]
    q: Variable

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if len(set(self.hypotheses)) != len(self.hypotheses):
            raise ValueError("duplicate hypothesis variable")
        if self.q in self.hypotheses:
            raise ValueError("the observation may not be a hypothesis")
        for c in self.phi.constraints:
            if c.relation not in self.language.relations:
                raise ValueError(
                    f"theory uses relation {c.relation.name} outside the language"
                )


# The input type each source problem's oracle reads.
_SOURCE_TYPES = {
    "threesat": CnfInput,
    "pos1in3": CnfInput,
    "criticalsat": CnfInput,
    "abd": AbdInstance,
    "abd_p": AbdInstance,
}

SOURCE_PROBLEMS = tuple(_SOURCE_TYPES)


# ---------------------------------------------------------------------------
# Parsers. CNF sources arrive in DIMACS format; abduction sources reuse the
# instance-file grammar, with `hypotheses`/`observation` lines instead of a
# claim. The theory is the conjunction of the kb formulas.
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> CnfInput:
    """Parse DIMACS CNF: a `p cnf <vars> <clauses>` header, then clauses
    as whitespace-separated literals, each clause terminated by 0.
    """
    n = None
    promised = None
    clauses: list[frozenset[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("expected `p cnf <vars> <clauses>`", lineno)
            try:
                n, promised = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("non-numeric header fields", lineno) from None
            continue
        if n is None:
            raise ParseError("clause before the `p cnf` header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"bad literal {token!r}", lineno) from None
            if lit == 0:
                if not current:
                    raise ParseError("empty clause", lineno)
                clauses.append(frozenset(current))
                current = []
            else:
                current.append(lit)
    if n is None:
        raise ParseError("missing `p cnf` header")
    if current:
        raise ParseError("unterminated clause (missing trailing 0)")
    if promised is not None and len(clauses) != promised:
        raise ParseError(f"header promises {promised} clauses, found {len(clauses)}")
    try:
        return CnfInput(n, tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_abduction(
    text: str,
    *,
    base_dir: str | None = None,
    language: ConstraintLanguage | None = None,
) -> AbdInstance:
    """Parse an abduction file.

    The `use`, `relation`, `formula` and `kb` lines are read as in
    instance files (`formulas._Reader`), formula names included; `claim`
    is forbidden, and `hypotheses <v> ...` plus `observation <v>` lines
    appear instead. The theory is the conjunction of the kb formulas in kb
    order.

    Raises:
        ParseError: on syntax errors, an empty kb, a missing observation,
            or an observation that is also a hypothesis.
    """
    reader = _Reader(base_dir, language)
    hypotheses: list[str] = []
    observation: str | None = None
    own = ("hypotheses", "observation", "claim")
    for keyword, rest, lineno in reader.read(text, own):
        if keyword == "hypotheses":
            for v in rest.split():
                if not _IDENT_RE.match(v):
                    raise ParseError(f"invalid variable name {v!r}", lineno)
                if v in hypotheses:
                    raise ParseError(f"duplicate hypothesis {v}", lineno)
                hypotheses.append(v)
        elif keyword == "observation":
            if observation is not None:
                raise ParseError("multiple observation lines", lineno)
            if len(rest.split()) != 1:
                raise ParseError("observation needs exactly one variable", lineno)
            if not _IDENT_RE.match(rest):
                raise ParseError(f"invalid variable name {rest!r}", lineno)
            observation = rest
        else:
            raise ParseError("abduction files take an observation, not a claim", lineno)

    if not reader.kb_names:
        raise ParseError("abduction file needs a nonempty kb as its theory")
    if observation is None:
        raise ParseError("missing observation")
    if observation in hypotheses:
        raise ParseError(f"observation {observation} is listed as a hypothesis")
    return AbdInstance(
        language=reader.language(),
        phi=conjoin(*reader.kb()),
        hypotheses=tuple(hypotheses),
        q=observation,
    )


# ---------------------------------------------------------------------------
# Brute-force oracles.
# ---------------------------------------------------------------------------


def _false_sets(n: int) -> tuple[int, list[int]]:
    """(all 2^n assignments as int bits, bit a for assignment a; per bit
    i, the assignments whose bit i is clear, that is, those that make the
    variable at bit i false)."""
    full = (1 << (1 << n)) - 1
    if n <= len(_LACKING_16):
        return full, [p & full for p in _LACKING_16[:n]]
    return full, _lacking(n)


def _cnf_false_sets(n: int) -> tuple[int, list[int]]:
    """_false_sets with CNF variable v at index v - 1 and at assignment
    bit n - v. Raises before anything of size 2^n is made once n exceeds
    the oracle budget."""
    if n > _MAX_CNF_VARS:
        raise BudgetExceededError(
            f"{n} variables exceed the oracle budget {_MAX_CNF_VARS}"
        )
    full, lacking = _false_sets(n)
    return full, lacking[::-1]


def _clause_models(clause: frozenset[int], false: list[int], full: int) -> int:
    """The assignments satisfying a clause: the OR of its literals' sets."""
    models = 0
    for lit in clause:
        models |= (full ^ false[lit - 1]) if lit > 0 else false[-lit - 1]
    return models


def _require_three_cnf(cnf: CnfInput):
    if any(len(c) > 3 for c in cnf.clauses):
        raise PreconditionError("3-CNF sources require clause width at most 3")


def _require_pos1in3(cnf: CnfInput):
    for clause in cnf.clauses:
        if len(clause) != 3 or any(lit < 0 for lit in clause):
            raise PreconditionError(
                "sources must consist of clauses of three distinct positive literals"
            )


def _abd_answer(instance: AbdInstance, positive_only: bool) -> bool:
    if len(instance.hypotheses) > _MAX_HYPOTHESES:
        raise BudgetExceededError(
            f"{len(instance.hypotheses)} hypotheses exceed the budget {_MAX_HYPOTHESES}"
        )
    order = tuple(
        sorted(variables_of([instance.phi]) | set(instance.hypotheses) | {instance.q})
    )
    if (1 << len(order)) > _MAX_ORACLE_SPACE:
        raise BudgetExceededError(f"{len(order)} variables exceed the oracle budget")
    # Position p of the order holds assignment bit n - 1 - p (`_ModelBits`).
    n = len(order)
    full, lacking = _false_sets(n)
    false = {v: lacking[n - 1 - p] for p, v in enumerate(order)}
    phi = _ModelBits(order).bits(instance.phi.constraints)
    q_false = false[instance.q]
    literals = [(full ^ false[h], false[h]) for h in instance.hypotheses]
    # Depth first: a node ANDs a literal set of a later hypothesis than its
    # parent's into the parent's selection; an empty selection is dropped.
    stack = [(phi, 0)] if phi else []
    while stack:
        selected, start = stack.pop()
        if not selected & q_false:
            return True
        for k in range(start, len(literals)):
            for literal in literals[k][: 1 if positive_only else 2]:
                if selected & literal:
                    stack.append((selected & literal, k + 1))
    return False


def solve_source(problem: str, instance: CnfInput | AbdInstance) -> bool:
    """Answer a source problem exactly by enumeration.

    Problems: threesat, pos1in3 (exactly one positive literal per clause
    true), criticalsat (unsatisfiable, yet satisfiable once any single
    clause is removed), abd, abd_p.

    Every set of assignments is one int bitset over all 2^n of them. A
    CNF oracle folds its clauses' sets one at a time, so its memory stays
    flat in the clause count: criticalsat keeps the assignments that
    violate exactly one clause and those that violate more. The abduction
    oracles walk the picks of at most one literal per hypothesis depth
    first: each pick ANDs its literal's set into the theory's models as
    its prefix left them, an empty selection ends its branch, and a
    selection that misses the observation's false set answers True.

    Raises:
        BudgetExceededError: more than 20 CNF variables, 12 hypotheses,
            or 2^20 assignments over an abduction instance's variables.
        PreconditionError: clause shape does not fit the problem.
    """
    source_type = _SOURCE_TYPES.get(problem)
    if source_type is None:
        raise ValueError(f"unknown source problem {problem!r}")
    if not isinstance(instance, source_type):
        raise TypeError(f"{problem} expects a {source_type.__name__}")
    if problem == "threesat":
        _require_three_cnf(instance)
        full, false = _cnf_false_sets(instance.n)
        models = full
        for clause in instance.clauses:
            models &= _clause_models(clause, false, full)
        return bool(models)
    if problem == "pos1in3":
        _require_pos1in3(instance)
        full, false = _cnf_false_sets(instance.n)
        models = full
        for clause in instance.clauses:
            # The assignments that make exactly one of the literals seen
            # so far true (`one`), and those that make more true.
            one = more = 0
            for v in clause:
                true = full ^ false[v - 1]
                more |= one & true
                one = (one ^ true) & ~more
            models &= one
        return bool(models)
    if problem == "criticalsat":
        # Unsatisfiable, and each clause is the only one some assignment
        # violates, so that dropping it leaves a model. One pass splits
        # the assignments that violate exactly one clause (`once`) from
        # those that violate more; a second rebuilds each clause's
        # violations and looks for one among `once`.
        full, false = _cnf_false_sets(instance.n)
        once = more = 0
        for clause in instance.clauses:
            violated = full ^ _clause_models(clause, false, full)
            more |= once & violated
            once = (once ^ violated) & ~more
        if (once | more) != full:
            return False
        return all(
            once & (full ^ _clause_models(clause, false, full))
            for clause in instance.clauses
        )
    return _abd_answer(instance, positive_only=problem == "abd_p")


# ---------------------------------------------------------------------------
# Relations used by the constructions.
# ---------------------------------------------------------------------------

NEQ = Relation("NEQ", 2, frozenset({0b01, 0b10}))
AN = Relation("AN", 2, frozenset({0b10}))
IMPL = Relation("IMPL", 2, frozenset({0b00, 0b01, 0b11}))
T = Relation("T", 1, frozenset({0b1}))
EQ2 = Relation("EQ2", 2, frozenset({0b00, 0b11}))
# (x1 = x2) and x3, respectively (x1 = x2) and not x3
EQT = Relation("EQT", 3, frozenset({0b001, 0b111}))
EQF = Relation("EQF", 3, frozenset({0b000, 0b110}))
OR2 = Relation("OR2", 2, frozenset({0b01, 0b10, 0b11}))
ORPN = Relation("ORPN", 2, frozenset({0b00, 0b10, 0b11}))  # x1 or not x2
OR3PNP = Relation("OR3PNP", 3, frozenset(range(8)) - frozenset({0b010}))
AND2 = Relation("AND2", 2, frozenset({0b11}))
# ((x1 or x2) <-> x3) and x4
BRIDGE4 = Relation("BRIDGE4", 4, frozenset({0b0001, 0b0111, 0b1011, 0b1111}))


def _bridge7() -> Relation:
    # ((x1 or not x2 or x3) <-> (x4 = x5)) and (x6 = x7)
    members = set()
    for m in range(1 << 7):
        x = [(m >> (6 - i)) & 1 for i in range(7)]
        if (bool(x[0] or not x[1] or x[2]) == (x[3] == x[4])) and x[5] == x[6]:
            members.add(m)
    return Relation("BRIDGE7", 7, frozenset(members))


BRIDGE7 = _bridge7()


@functools.lru_cache(maxsize=None)
def _clause_relation(signs: str, variant: str) -> Relation:
    """Extensional relation for a clause with the given sign pattern,
    extended by an auxiliary tail: `impl` appends (f, t) and allows
    not-f-or-t, `u` appends (u,) and allows u, `u_notv` appends (u, v)
    and allows u while forcing v false.
    """
    w = len(signs)
    arity = w + (1 if variant == "u" else 2)
    if arity > MAX_ARITY:
        raise BudgetExceededError(f"clause of width {w} needs relation arity {arity}")
    members = set()
    for m in range(1 << arity):
        bits = [(m >> (arity - 1 - i)) & 1 for i in range(arity)]
        clause_sat = any(
            bits[i] == (1 if s == "P" else 0) for i, s in enumerate(signs)
        )
        if variant == "impl":
            ok = clause_sat or not bits[w] or bool(bits[w + 1])
        elif variant == "u":
            ok = clause_sat or bool(bits[w])
        elif variant == "u_notv":
            ok = (clause_sat or bool(bits[w])) and not bits[w + 1]
        else:
            raise ValueError(f"unknown clause variant {variant!r}")
        if ok:
            members.add(m)
    suffix = {"impl": "_IMPL", "u": "_U", "u_notv": "_U_NOTV"}[variant]
    return Relation(f"OR{signs}{suffix}", arity, frozenset(members))


def _fresh(name: str, used: set[str]) -> str:
    while name in used:
        name = "_" + name
    used.add(name)
    return name


def _merge_relations(
    base: Iterable[Relation], extra: Iterable[Relation]
) -> ConstraintLanguage:
    by_name: dict[str, Relation] = {}
    for r in (*base, *extra):
        prev = by_name.get(r.name)
        if prev is None:
            by_name[r.name] = r
        elif prev != r:
            raise PreconditionError(
                f"relation name {r.name} already denotes a different relation"
            )
    return ConstraintLanguage(tuple(by_name.values()))


def _sorted_literals(clause: frozenset[int]) -> list[int]:
    return sorted(clause, key=abs)


# ---------------------------------------------------------------------------
# Constructions. Each builder returns (language, instance); `reduce`
# dispatches on the kind string.
# ---------------------------------------------------------------------------


def _threesat_arg_neq(cnf: CnfInput) -> tuple[ConstraintLanguage, ArgInstance]:
    """Satisfiability of a 3-CNF as argument existence over disequality.

    For each variable the base offers both truth values (x_j != f and
    its primed copy x_j' != f), one formula makes every pair
    complementary, and each literal of each clause links the matching
    copy to the clause variable c_i. The claim asks that every clause
    variable differ from f and every pair stay complementary, which is
    achievable exactly when some assignment satisfies every clause.
    """
    _require_three_cnf(cnf)
    if cnf.n == 0:
        raise PreconditionError("the construction needs at least one variable")
    lang = ConstraintLanguage((NEQ,))

    def neq(a: str, b: str) -> GammaFormula:
        return GammaFormula((Constraint(NEQ, (a, b)),))

    delta: list[GammaFormula] = []
    for j in range(1, cnf.n + 1):
        delta.append(neq(f"x{j}", "f"))
        delta.append(neq(f"x{j}p", "f"))
    pairs = tuple(
        Constraint(NEQ, (f"x{j}", f"x{j}p")) for j in range(1, cnf.n + 1)
    )
    delta.append(GammaFormula(pairs))
    for i, clause in enumerate(cnf.clauses, start=1):
        for lit in _sorted_literals(clause):
            copy = f"x{abs(lit)}" if lit < 0 else f"x{abs(lit)}p"
            delta.append(neq(copy, f"c{i}"))
    alpha = GammaFormula(
        tuple(Constraint(NEQ, (f"c{i}", "f")) for i in range(1, len(cnf.clauses) + 1))
        + pairs
    )
    return lang, ArgInstance(lang, tuple(delta), alpha)


def _pos1in3_arg_andnot(cnf: CnfInput) -> tuple[ConstraintLanguage, ArgInstance]:
    """Exact-one-in-three satisfiability as argument existence over x&!y.

    Per clause, one formula per member variable states that the clause
    variable is on, the chosen member is on, the other two members and f
    are off. Supports must pick exactly one member per clause, mirroring
    the intended assignment.
    """
    _require_pos1in3(cnf)
    if not cnf.clauses:
        raise PreconditionError("the construction needs at least one clause")
    lang = ConstraintLanguage((AN,))
    delta: list[GammaFormula] = []
    for i, clause in enumerate(cnf.clauses, start=1):
        members = sorted(clause)
        for v in members:
            rest = [w for w in members if w != v]
            negatives = [f"x{rest[0]}", f"x{rest[1]}", "f"]
            constraints = [Constraint(AN, (f"c{i}", neg)) for neg in negatives]
            constraints.append(Constraint(AN, (f"x{v}", negatives[0])))
            delta.append(GammaFormula(tuple(constraints)))
    alpha = GammaFormula(
        tuple(Constraint(AN, (f"c{i}", "f")) for i in range(1, len(cnf.clauses) + 1))
    )
    return lang, ArgInstance(lang, tuple(delta), alpha)


def _abdp_arg_neq_ext(abd: AbdInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Positive abduction as argument existence, via added disequalities.

    Sound only over complementive theories: flipping a model then swaps
    the roles of the two truth values, so h != f faithfully encodes
    "hypothesis h is assumed".
    """
    if not language_properties(abd.language).complementive:
        raise PreconditionError("the source language must be complementive")
    used = set(variables_of([abd.phi]) | set(abd.hypotheses) | {abd.q})
    f = _fresh("f", used)
    lang = _merge_relations(abd.language, [NEQ])
    delta = [abd.phi]
    for h in sorted(abd.hypotheses):
        delta.append(GammaFormula((Constraint(NEQ, (h, f)),)))
    alpha = GammaFormula((Constraint(NEQ, (abd.q, f)),))
    return lang, ArgInstance(lang, tuple(delta), alpha)


def _abdp_arg_andnot_ext(abd: AbdInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Positive abduction as argument existence, via h & !f formulas.

    The extra t & !f member pins f to false in every support for the
    claim, so the selected h & !f members assert exactly E, and the
    claim holds iff the theory with E entails the observation.
    """
    used = set(variables_of([abd.phi]) | set(abd.hypotheses) | {abd.q})
    f = _fresh("f", used)
    t = _fresh("t", used)
    lang = _merge_relations(abd.language, [AN])
    delta = [abd.phi]
    for h in sorted(abd.hypotheses):
        delta.append(GammaFormula((Constraint(AN, (h, f)),)))
    delta.append(GammaFormula((Constraint(AN, (t, f)),)))
    alpha = GammaFormula((Constraint(AN, (abd.q, f)), Constraint(AN, (t, f))))
    return lang, ArgInstance(lang, tuple(delta), alpha)


def _critsat_core(
    cnf: CnfInput, variant: str
) -> tuple[ConstraintLanguage, ArgInstance]:
    """Critical satisfiability as argument verification.

    Every clause is widened by the variant's tail: "clause or (f implies
    t)" for `impl`, with claim f -> t; "clause or u" for `u`, with claim
    u; "(clause or u) and not v" for `u_notv`, with claim u & !v. The set
    is always consistent, it entails the claim exactly when the CNF is
    unsatisfiable, and no member is redundant exactly when every clause's
    removal restores satisfiability.
    """
    if not cnf.clauses:
        raise PreconditionError("the construction needs at least one clause")
    tail, claim_rel = {
        "impl": (("f", "t"), IMPL),
        "u": (("u",), T),
        "u_notv": (("u", "v"), AN),
    }[variant]
    generated: dict[str, Relation] = {}
    delta: list[GammaFormula] = []
    for clause in cnf.clauses:
        lits = _sorted_literals(clause)
        signs = "".join("P" if lit > 0 else "N" for lit in lits)
        rel = _clause_relation(signs, variant)
        generated[rel.name] = rel
        args = tuple(f"x{abs(lit)}" for lit in lits) + tail
        delta.append(GammaFormula((Constraint(rel, args),)))
    lang = _merge_relations(generated.values(), [claim_rel])
    alpha = GammaFormula((Constraint(claim_rel, tail),))
    return lang, ArgInstance(lang, tuple(delta), alpha)


def _threesat_argrel(
    cnf: CnfInput, flavor: str
) -> tuple[ConstraintLanguage, ArgInstance]:
    """3-CNF satisfiability as relevance over equality: x = y for `eq`,
    (x = y) & t for `eqt` and (x = y) & !t for `eqf`.

    A chain c_0 ... c_k can only close into c_0 = s through links
    contributed by per-variable formulas; the final link c_k = s is the
    queried member and sits in a minimal support exactly when some
    assignment satisfies every clause.
    """
    _require_three_cnf(cnf)
    k = len(cnf.clauses)
    rel, tail = {"eq": (EQ2, ()), "eqt": (EQT, ("t",)), "eqf": (EQF, ("t",))}[flavor]

    def eq(a: str, b: str) -> Constraint:
        return Constraint(rel, (a, b) + tail)

    delta: list[GammaFormula] = []
    for j in range(1, cnf.n + 1):
        constraints = [eq("c0", f"x{j}")]
        for i, clause in enumerate(cnf.clauses, start=1):
            if j in clause:
                constraints.append(eq(f"c{i - 1}", f"c{i}"))
        delta.append(GammaFormula(tuple(constraints)))
    for j in range(1, cnf.n + 1):
        constraints = [eq(f"x{j}", "s")]
        for i, clause in enumerate(cnf.clauses, start=1):
            if -j in clause:
                constraints.append(eq(f"c{i - 1}", f"c{i}"))
        delta.append(GammaFormula(tuple(constraints)))
    delta.append(GammaFormula((eq(f"c{k}", "s"),)))
    alpha = GammaFormula((eq("c0", "s"),))
    lang = ConstraintLanguage((rel,))
    return lang, ArgInstance(lang, tuple(delta), alpha, relevant=2 * cnf.n)


def _arg_argrel(source: ArgInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Argument existence as relevance of a fresh padding formula.

    The padding formula applies the language's first relation to fresh
    variables; it is satisfiable but not valid, so it joins a minimal
    support for claim-and-padding exactly when the original claim has
    an argument.
    """
    used = set(variables_of(source.delta) | source.alpha.variables)
    rel = source.language.relations[0]
    args = tuple(_fresh(f"p{i}", used) for i in range(1, rel.arity + 1))
    padding = GammaFormula((Constraint(rel, args),))
    delta = tuple(source.delta) + (padding,)
    alpha = conjoin(source.alpha, padding)
    return source.language, ArgInstance(
        source.language, delta, alpha, relevant=len(source.delta)
    )


def _abd_argrel_bothvalid_step1(
    abd: AbdInstance,
) -> tuple[list[GammaFormula], dict[str, str], set[str]]:
    """Shared front of the abduction-to-relevance constructions: per
    hypothesis the pair (h or !t), (f or !h), then the theory, then the
    queried member s = q. Returns the base, the fresh-name map, and the
    used-name set."""
    used = set(variables_of([abd.phi]) | set(abd.hypotheses) | {abd.q})
    names = {v: _fresh(v, used) for v in ("t", "f", "s")}
    delta: list[GammaFormula] = []
    for h in sorted(abd.hypotheses):
        delta.append(GammaFormula((Constraint(ORPN, (h, names["t"])),)))
        delta.append(GammaFormula((Constraint(ORPN, (names["f"], h)),)))
    delta.append(abd.phi)
    delta.append(GammaFormula((Constraint(EQ2, (names["s"], abd.q)),)))
    return delta, names, used


def _abd_argrel_bothvalid(abd: AbdInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Abduction over a 0- and 1-valid theory as relevance.

    The intermediate claim s or !t or f holds through s = q exactly when
    some explanation exists; a final bridging member rephrases that
    claim as two variable equalities so the emitted claim stays inside
    the language.
    """
    props = language_properties(abd.language)
    if not (props.zero_valid and props.one_valid):
        raise PreconditionError("the source language must be 0-valid and 1-valid")
    delta, names, used = _abd_argrel_bothvalid_step1(abd)
    psi_index = len(delta) - 1
    aux = [_fresh(v, used) for v in ("u1", "u2", "v1", "v2")]
    bridge_args = (names["s"], names["t"], names["f"], *aux)
    delta.append(GammaFormula((Constraint(BRIDGE7, bridge_args),)))
    alpha = GammaFormula(
        (Constraint(EQ2, (aux[0], aux[1])), Constraint(EQ2, (aux[2], aux[3])))
    )
    lang = _merge_relations(abd.language, [ORPN, EQ2, BRIDGE7])
    return lang, ArgInstance(lang, tuple(delta), alpha, relevant=psi_index)


def _abd_argrel_onevalid(abd: AbdInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Abduction over a 1-valid theory as relevance.

    Hypothesis pairs become T(h), (f or !h); the intermediate claim
    s or f is bridged into the single constraint u & v.
    """
    if not language_properties(abd.language).one_valid:
        raise PreconditionError("the source language must be 1-valid")
    used = set(variables_of([abd.phi]) | set(abd.hypotheses) | {abd.q})
    names = {v: _fresh(v, used) for v in ("f", "s")}
    delta: list[GammaFormula] = []
    for h in sorted(abd.hypotheses):
        delta.append(GammaFormula((Constraint(T, (h,)),)))
        delta.append(GammaFormula((Constraint(ORPN, (names["f"], h)),)))
    delta.append(abd.phi)
    delta.append(GammaFormula((Constraint(EQ2, (names["s"], abd.q)),)))
    psi_index = len(delta) - 1
    u = _fresh("u", used)
    v = _fresh("v", used)
    delta.append(
        GammaFormula((Constraint(BRIDGE4, (names["s"], names["f"], u, v)),))
    )
    alpha = GammaFormula((Constraint(AND2, (u, v)),))
    lang = _merge_relations(abd.language, [T, ORPN, EQ2, BRIDGE4, AND2])
    return lang, ArgInstance(lang, tuple(delta), alpha, relevant=psi_index)


def _split_t_relations(
    language: ConstraintLanguage,
) -> tuple[list[Relation], list[Relation]]:
    t_like = [r for r in language if r.arity == 1 and r.tuples == frozenset({1})]
    rest = [r for r in language if r not in t_like]
    if not t_like:
        raise PreconditionError(
            "the source language has no arity-1 always-true relation to eliminate"
        )
    return t_like, rest


def _transform_formula(
    formula: GammaFormula, t_like: list[Relation], rewrite
) -> GammaFormula:
    out: list[Constraint] = []
    for c in formula.constraints:
        if c.relation in t_like:
            out.extend(rewrite(c.args[0]))
        else:
            out.append(c)
    return GammaFormula(tuple(out))


def _telim_eq(source: ArgInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Replace truth constraints by equalities with a shared fresh variable.

    Answer-preserving for verification when the remaining relations are
    complementive and both 0- and 1-valid: complementation maps models
    with t false onto models with t true, so pinning every constrained
    variable to t loses nothing.
    """
    t_like, rest = _split_t_relations(source.language)
    if rest:
        props = language_properties(ConstraintLanguage(tuple(rest)))
        if not (props.complementive and props.zero_valid and props.one_valid):
            raise PreconditionError(
                "the remaining relations must be complementive, 0-valid, and 1-valid"
            )
    used = set(variables_of(source.delta) | source.alpha.variables)
    t = _fresh("t", used)

    def rewrite(x: str) -> list[Constraint]:
        return [Constraint(EQ2, (x, t))]

    delta = tuple(_transform_formula(f, t_like, rewrite) for f in source.delta)
    alpha = _transform_formula(source.alpha, t_like, rewrite)
    lang = _merge_relations(rest, [EQ2])
    return lang, ArgInstance(lang, delta, alpha, relevant=source.relevant)


def _telim_neq(source: ArgInstance) -> tuple[ConstraintLanguage, ArgInstance]:
    """Replace truth constraints by disequality chains x != f_x != t.

    Works when the remaining relations are complementive but neither
    0- nor 1-valid; each constrained variable gets its own midpoint
    f_x while t is shared.
    """
    t_like, rest = _split_t_relations(source.language)
    if not rest:
        raise PreconditionError("the source language needs relations besides truth")
    props = language_properties(ConstraintLanguage(tuple(rest)))
    if not props.complementive or props.zero_valid or props.one_valid:
        raise PreconditionError(
            "the remaining relations must be complementive and neither "
            "0-valid nor 1-valid"
        )
    used = set(variables_of(source.delta) | source.alpha.variables)
    t = _fresh("t", used)
    constrained: list[str] = []
    for formula in (*source.delta, source.alpha):
        for c in formula.constraints:
            if c.relation in t_like and c.args[0] not in constrained:
                constrained.append(c.args[0])
    midpoint = {x: _fresh(f"f_{x}", used) for x in sorted(constrained)}

    def rewrite(x: str) -> list[Constraint]:
        return [
            Constraint(NEQ, (x, midpoint[x])),
            Constraint(NEQ, (midpoint[x], t)),
        ]

    delta = tuple(_transform_formula(f, t_like, rewrite) for f in source.delta)
    alpha = _transform_formula(source.alpha, t_like, rewrite)
    lang = _merge_relations(rest, [NEQ])
    return lang, ArgInstance(lang, delta, alpha, relevant=source.relevant)


_BUILDERS = {
    "threesat_arg_neq": (_threesat_arg_neq, CnfInput),
    "pos1in3_arg_andnot": (_pos1in3_arg_andnot, CnfInput),
    "abdp_arg_neq_ext": (_abdp_arg_neq_ext, AbdInstance),
    "abdp_arg_andnot_ext": (_abdp_arg_andnot_ext, AbdInstance),
    "critsat_argcheck_impl": (functools.partial(_critsat_core, variant="impl"), CnfInput),
    "critsat_argcheck_t": (functools.partial(_critsat_core, variant="u"), CnfInput),
    "critsat_argcheck_andnot": (functools.partial(_critsat_core, variant="u_notv"), CnfInput),
    "threesat_argrel_eq": (functools.partial(_threesat_argrel, flavor="eq"), CnfInput),
    "threesat_argrel_eqt": (functools.partial(_threesat_argrel, flavor="eqt"), CnfInput),
    "threesat_argrel_eqf": (functools.partial(_threesat_argrel, flavor="eqf"), CnfInput),
    "arg_argrel": (_arg_argrel, ArgInstance),
    "abd_argrel_bothvalid": (_abd_argrel_bothvalid, AbdInstance),
    "abd_argrel_onevalid": (_abd_argrel_onevalid, AbdInstance),
    "telim_eq": (_telim_eq, ArgInstance),
    "telim_neq": (_telim_neq, ArgInstance),
}

REDUCTION_KINDS = tuple(_BUILDERS)


def source_type_of(kind: str) -> type:
    """The input type a reduction kind consumes: CnfInput, AbdInstance,
    or ArgInstance."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown reduction kind {kind!r}")
    return _BUILDERS[kind][1]


def reduce(
    kind: str, source: CnfInput | AbdInstance | ArgInstance
) -> tuple[ConstraintLanguage, ArgInstance]:
    """Build the argumentation instance a reduction kind assigns a source.

    Returns the emitted language together with the instance; the target
    problem is arg_exists for the *_arg_* kinds, argcheck for the
    *_argcheck_* and telim kinds, and argrel for the *_argrel_* kinds.

    Raises:
        ValueError: unknown kind.
        TypeError: source type does not fit the kind.
        PreconditionError: the kind's language or shape requirements fail.
        BudgetExceededError: a materialized relation would be too wide.
    """
    if kind not in _BUILDERS:
        raise ValueError(f"unknown reduction kind {kind!r}")
    builder, source_type = _BUILDERS[kind]
    if not isinstance(source, source_type):
        raise TypeError(f"{kind} expects a {source_type.__name__} source")
    return builder(source)


# ---------------------------------------------------------------------------
# Enumerated families for soundness sweeps.
# ---------------------------------------------------------------------------


def small_cnf_family(n: int = 3, max_clauses: int = 3) -> list[CnfInput]:
    """Every nonempty set of at most max_clauses clauses of width <= 3
    over variables 1..n, each clause on distinct variables."""
    pool: list[frozenset[int]] = []
    for width in (1, 2, 3):
        for combo in itertools.combinations(range(1, n + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                pool.append(frozenset(v * s for v, s in zip(combo, signs)))
    out = []
    for k in range(1, max_clauses + 1):
        for clauses in itertools.combinations(pool, k):
            out.append(CnfInput(n, tuple(clauses)))
    return out


def small_pos1in3_family(n: int = 5, max_clauses: int = 2) -> list[CnfInput]:
    """Every nonempty set of at most max_clauses positive width-3 clauses
    over variables 1..n."""
    pool = [frozenset(c) for c in itertools.combinations(range(1, n + 1), 3)]
    out = []
    for k in range(1, max_clauses + 1):
        for clauses in itertools.combinations(pool, k):
            out.append(CnfInput(n, tuple(clauses)))
    return out


def _renaming_key(
    combo: Sequence[Constraint], variables: Sequence[str]
) -> tuple[str, ...]:
    best = None
    for perm in itertools.permutations(variables):
        mapping = dict(zip(variables, perm))
        renamed = sorted(
            f"{c.relation.name}({','.join(mapping[a] for a in c.args)})" for c in combo
        )
        key = tuple(renamed)
        if best is None or key < best:
            best = key
    return best


def small_abduction_family(
    language: ConstraintLanguage, variables: Sequence[str] = ("a", "b", "c", "d")
) -> list[AbdInstance]:
    """Abduction instances whose theory is a conjunction of at most two
    constraints over the given variables, deduplicated up to variable
    renaming (answers are invariant under it), with every hypothesis set
    of size <= 2 and every admissible observation."""
    pool = [
        Constraint(r, args)
        for r in language
        for args in itertools.product(variables, repeat=r.arity)
    ]
    out: list[AbdInstance] = []
    seen: set[tuple[str, ...]] = set()
    for count in (1, 2):
        for combo in itertools.combinations_with_replacement(pool, count):
            key = _renaming_key(combo, variables)
            if key in seen:
                continue
            seen.add(key)
            phi = GammaFormula(tuple(combo))
            scope = sorted(phi.variables)
            for h_size in (0, 1, 2):
                for hypotheses in itertools.combinations(scope, h_size):
                    for q in scope:
                        if q in hypotheses:
                            continue
                        out.append(AbdInstance(language, phi, hypotheses, q))
    return out


def small_instance_family(
    language: ConstraintLanguage, variables: Sequence[str] = ("a", "b", "c")
) -> list[ArgInstance]:
    """Argumentation instances with one or two single-constraint kb
    formulas and a single-constraint claim over the given variables."""
    pool = [
        Constraint(r, args)
        for r in language
        for args in itertools.product(variables, repeat=r.arity)
    ]
    formulas = [GammaFormula((c,)) for c in pool]
    out: list[ArgInstance] = []
    for count in (1, 2):
        for kb in itertools.combinations(formulas, count):
            for claim in pool:
                out.append(ArgInstance(language, kb, GammaFormula((claim,))))
    return out
