"""The four benchmark workloads: seeded op streams with their answer checks.

Each workload has a warm-up list that does not depend on the seed (so the
set-up it measures is the same for every seed) and a seeded, endless op
stream. Expected answers come from a source independent of the timed call
and are computed while the stream is built, outside any timing:

- reduction-sweep: the source problem's oracle;
- kb-search: a subset search over model bitsets that shares no code with
  argcl's;
- schaefer-scale: answers fixed by a planted construction;
- property-sweep: flags fixed by construction, a model check of the CNF,
  and `verify_expresses` on every gadget.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

# Ops call argcl's functions as attributes of the package, as a user would,
# so the tracer's wrappers (installed on argcl's module bindings) see them.
import argcl
from argcl import (
    REDUCTION_KINDS,
    TARGET_RELATIONS,
    Constraint,
    ConstraintLanguage,
    GadgetTarget,
    GammaFormula,
    Relation,
)

from harness import Op


def _rel(name: str, arity: int, tuples) -> Relation:
    return Relation(name, arity, frozenset(tuples))


T = _rel("T", 1, {1})
F = _rel("F", 1, {0})
IMPL = _rel("IMPL", 2, {0b00, 0b01, 0b11})
NEQ = _rel("NEQ", 2, {0b01, 0b10})
EQ = _rel("EQ", 2, {0b00, 0b11})
OR2 = _rel("OR2", 2, {0b01, 0b10, 0b11})
NAND2 = _rel("NAND2", 2, {0b00, 0b01, 0b10})
OR3 = _rel("OR3", 3, range(1, 8))
NAND3 = _rel("NAND3", 3, range(7))
HORN3 = _rel("HORN3", 3, set(range(8)) - {0b110})  # x & y -> z
DHORN3 = _rel("DHORN3", 3, set(range(8)) - {0b100})  # x -> y | z
XOR3 = _rel("XOR3", 3, {t for t in range(8) if bin(t).count("1") % 2})
NAE3 = _rel("NAE3", 3, set(range(8)) - {0b000, 0b111})
ONE3 = _rel("ONE3", 3, {0b001, 0b010, 0b100})


def _formula(*constraints: Constraint) -> GammaFormula:
    return GammaFormula(tuple(constraints))


def _holds(c: Constraint, assignment: dict[str, int]) -> bool:
    t = 0
    for v in c.args:
        t = (t << 1) | assignment[v]
    return t in c.relation.tuples


def _random_constraint(rng: random.Random, relations, variables) -> Constraint:
    r = rng.choice(relations)
    return Constraint(r, tuple(rng.sample(variables, r.arity)))


def _planted_constraint(rng, relations, variables, *plants) -> Constraint:
    while True:
        c = _random_constraint(rng, relations, variables)
        if all(_holds(c, p) for p in plants):
            return c


def _instance_key(delta: Sequence[GammaFormula], alpha: GammaFormula, extra="") -> str:
    return " ; ".join(str(f) for f in delta) + f" |= {alpha}{extra}"


# ---------------------------------------------------------------------------
# reduction-sweep: all fifteen reductions over their small source families,
# the shape of acceptance criterion 5. Thousands of sub-millisecond queries,
# so per-call overhead in models_mask / filter_models dominates.
# ---------------------------------------------------------------------------

# Source problem of the CNF and abduction kinds, by name prefix. The other
# kinds (arg_argrel, telim_*) take an ArgInstance: their source question is
# the argumentation problem itself, and its oracle is the generic engine.
_SOURCE_PROBLEM = {
    "threesat": "threesat",
    "pos1in3": "pos1in3",
    "critsat": "criticalsat",
    "abdp": "abd_p",
    "abd": "abd",
}

REDUCTION_PER_KIND = 400


def _source_problem(kind: str) -> str | None:
    for prefix, problem in _SOURCE_PROBLEM.items():
        if kind.startswith(prefix + "_"):
            return problem
    return None


def _source_answer(kind: str, source, engine: str = "auto") -> bool:
    problem = _source_problem(kind)
    if problem is not None:
        return argcl.solve_source(problem, source)
    if kind == "arg_argrel":
        return argcl.arg_exists(list(source.delta), source.alpha, engine=engine)
    return argcl.argcheck(list(source.delta), source.alpha, engine=engine)


def _target_answer(kind: str, instance) -> bool:
    delta = list(instance.delta)
    if "argrel" in kind:
        return argcl.argrel(delta, instance.alpha, instance.relevant)
    if "_arg_" in kind:
        return argcl.arg_exists(delta, instance.alpha)
    return argcl.argcheck(delta, instance.alpha)


def _reduction_op(kind: str, source) -> tuple[bool, bool]:
    want = _source_answer(kind, source)
    _, instance = argcl.reduce(kind, source)
    return want, _target_answer(kind, instance)


def _reduction_families(small: bool) -> dict[str, list]:
    if small:
        cnfs = argcl.small_cnf_family(n=3, max_clauses=1)
        pos = argcl.small_pos1in3_family(n=4, max_clauses=1)
        abd_vars = ("a", "b")
    else:
        cnfs = argcl.small_cnf_family()
        pos = argcl.small_pos1in3_family()
        abd_vars = ("a", "b", "c", "d")

    def abd(*relations):
        return argcl.small_abduction_family(ConstraintLanguage(relations), abd_vars)

    def inst(*relations):
        family = argcl.small_instance_family(ConstraintLanguage(relations))
        return family[:8] if small else family

    families = {
        "threesat_arg_neq": cnfs,
        "pos1in3_arg_andnot": pos,
        "abdp_arg_neq_ext": abd(NEQ, NAE3),
        "abdp_arg_andnot_ext": abd(IMPL, OR2),
        "critsat_argcheck_impl": cnfs,
        "critsat_argcheck_t": cnfs,
        "critsat_argcheck_andnot": cnfs,
        "threesat_argrel_eq": cnfs,
        "threesat_argrel_eqt": cnfs,
        "threesat_argrel_eqf": cnfs,
        "arg_argrel": inst(OR2, T),
        "abd_argrel_bothvalid": abd(IMPL, EQ),
        "abd_argrel_onevalid": abd(OR2, IMPL),
        "telim_eq": inst(EQ, T),
        "telim_neq": inst(NEQ, T),
    }
    if sorted(families) != sorted(REDUCTION_KINDS):
        raise RuntimeError("reduction-sweep does not cover every reduction kind")
    return families


def _reduction_ops(families: dict[str, list], picks: dict[str, list[int]]) -> list[Op]:
    ops = []
    rounds = max(len(p) for p in picks.values())
    for i in range(rounds):
        for kind in REDUCTION_KINDS:
            if i >= len(picks[kind]):
                continue
            source = families[kind][picks[kind][i]]
            want = _source_answer(kind, source, engine="generic")
            ops.append(
                Op(
                    kind=kind,
                    key=f"{kind}:{picks[kind][i]}",
                    run=lambda k=kind, s=source: _reduction_op(k, s),
                    check=lambda got, w=want: got == (w, w),
                )
            )
    return ops


def reduction_warmup() -> list[Op]:
    families = _reduction_families(small=True)
    return _reduction_ops(families, {k: [0, len(f) - 1] for k, f in families.items()})


def reduction_stream(seed: int) -> Iterator[Op]:
    """Each kind sampled evenly, from a seeded offset, over its family."""
    rng = random.Random(f"reduction-sweep:{seed}")
    families = _reduction_families(small=False)
    picks = {}
    for kind in REDUCTION_KINDS:
        size = len(families[kind])
        offset = rng.randrange(size)
        step = size / REDUCTION_PER_KIND
        picks[kind] = [int(offset + j * step) % size for j in range(REDUCTION_PER_KIND)]
    return itertools.cycle(_reduction_ops(families, picks))


# ---------------------------------------------------------------------------
# kb-search: inconsistent bases where subset search does the work. Each base
# is a planted-consistent rest plus the contradicting pair T(v00), F(v00), so
# the whole-base shortcut fails and the only maximal consistent subsets are
# rest+T and rest+F. Bases with <= 12 variables take the matrix route,
# larger ones the subset-mask route.
# ---------------------------------------------------------------------------

KB_FAMILIES = {
    "horn": (IMPL, NAND2, HORN3),
    "bijunctive": (IMPL, OR2, NAND2, EQ),
    "affine": (EQ, NEQ, XOR3),
    "nonschaefer": (NAE3, ONE3, OR3, IMPL),
}
KB_VAR_COUNTS = (10, 11, 13, 14)
KB_FORMULAS = 12
KB_BASES = 96
KB_QUERIES = ("arg_exists", "find_minimal_support", "enumerate_minimal_supports", "argrel")


def _kb_base(rng: random.Random, relations, n_vars: int, size: int):
    variables = [f"v{i:02d}" for i in range(n_vars)]
    plant_t = {v: rng.randint(0, 1) for v in variables}
    plant_t["v00"] = 1
    plant_f = dict(plant_t, v00=0)
    rest = []
    while len(rest) < size - 2:
        count = rng.randint(1, 2)
        rest.append(
            _formula(
                *(
                    _planted_constraint(rng, relations, variables, plant_t, plant_f)
                    for _ in range(count)
                )
            )
        )
    t_unit = _formula(Constraint(T, ("v00",)))
    f_unit = _formula(Constraint(F, ("v00",)))
    delta = list(rest)
    delta.insert(rng.randrange(len(delta) + 1), t_unit)
    delta.insert(rng.randrange(len(delta) + 1), f_unit)
    return delta, variables, rest + [t_unit], rest + [f_unit]


def _kb_claim(rng, relations, variables, delta, mcses, want_yes: bool):
    """A claim some MCS entails (YES) or none does (NO), with the base
    reordered for it; None if no such claim was found.

    A YES claim takes one constraint from each of five formulas, which move
    to the end of the base. The canonical subset order then reaches a
    support only after all smaller subsets and most of the five-element
    ones, so the early exit comes at about the same depth on every base.
    """
    for _ in range(200):
        if want_yes:
            sources = rng.sample([f for f in delta if f.constraints[0].relation is not F], 5)
            alpha = _formula(*(rng.choice(f.constraints) for f in sources))
            base = [f for f in delta if f not in sources] + sources
        else:
            alpha = _formula(_random_constraint(rng, relations, variables))
            base = delta
        yes = any(argcl.entails(m, alpha, engine="generic") for m in mcses)
        if yes == want_yes:
            return base, alpha
    return None


def _model_bits(formula: GammaFormula, variables: Sequence[str]) -> int:
    """The formula's models over `variables` as an int bitset: bit m is set
    when assignment m (variables[0] is its most significant bit) satisfies
    every constraint."""
    n = len(variables)
    t = np.arange(1 << n, dtype=np.int64)
    shift = {v: n - 1 - i for i, v in enumerate(variables)}
    sat = np.ones(1 << n, dtype=np.bool_)
    for c in formula.constraints:
        row = np.zeros(1 << n, dtype=np.int64)
        for v in c.args:
            row = (row << 1) | ((t >> shift[v]) & 1)
        sat &= np.isin(row, sorted(c.relation.tuples))
    return int.from_bytes(np.packbits(sat, bitorder="little").tobytes(), "little")


def kb_minimal_supports(
    delta: Sequence[GammaFormula], alpha: GammaFormula, variables: Sequence[str]
) -> list[tuple[int, ...]]:
    """Every minimal support of alpha in delta, sorted, by a route of the
    benchmark's own that shares no code with argcl's subset search.

    The models of each subset S are the AND of its formulas' model bitsets,
    built up from S minus its lowest member. S qualifies when it has a model
    and no model outside alpha's. Entailment only grows with S and a subset
    of a consistent set is consistent, so a qualifying S is minimal exactly
    when no S minus one member qualifies.
    """
    if not alpha.variables <= set(variables):
        raise ValueError("alpha uses variables outside the base's")
    full = (1 << (1 << len(variables))) - 1
    outside_alpha = full & ~_model_bits(alpha, variables)
    rows = [_model_bits(f, variables) for f in delta]
    models = [full] * (1 << len(delta))
    for s in range(1, len(models)):
        low = s & -s
        models[s] = models[s ^ low] & rows[low.bit_length() - 1]
    hit = [m != 0 and m & outside_alpha == 0 for m in models]
    members = [[i for i in range(len(delta)) if s >> i & 1] for s in range(len(models))]
    return sorted(
        tuple(members[s])
        for s in range(len(models))
        if hit[s] and not any(hit[s ^ (1 << i)] for i in members[s])
    )


def _kb_ops(rng: random.Random, family: str, n_vars: int, size: int, want_yes: bool) -> list[Op]:
    relations = KB_FAMILIES[family]
    while True:
        delta, variables, *mcses = _kb_base(rng, relations, n_vars, size)
        found = _kb_claim(rng, relations, variables, delta, mcses, want_yes)
        if found is not None:
            delta, alpha = found
            break
    supports = kb_minimal_supports(delta, alpha, variables)
    if bool(supports) != want_yes:
        raise RuntimeError("kb-search construction disagrees with the subset oracle")
    relevant = sorted({i for s in supports for i in s})
    psi = rng.choice(relevant) if relevant else rng.randrange(len(delta))
    expected = {
        "arg_exists": lambda got: got is want_yes,
        "find_minimal_support": lambda got: (
            tuple(got) in supports if want_yes else got is None
        ),
        "enumerate_minimal_supports": lambda got: sorted(tuple(s) for s in got) == supports,
        "argrel": lambda got: got is (psi in relevant),
    }
    calls = {
        "arg_exists": lambda: argcl.arg_exists(delta, alpha),
        "find_minimal_support": lambda: argcl.find_minimal_support(delta, alpha),
        "enumerate_minimal_supports": lambda: argcl.enumerate_minimal_supports(delta, alpha),
        "argrel": lambda: argcl.argrel(delta, alpha, psi),
    }
    key = _instance_key(delta, alpha, f" psi={psi}")
    return [
        Op(kind=f"{q}:{family}:{n_vars}", key=f"{q}:{key}", run=calls[q], check=expected[q])
        for q in KB_QUERIES
    ]


def kb_warmup() -> list[Op]:
    rng = random.Random("kb-search:warmup")
    ops = []
    for family in KB_FAMILIES:
        for n_vars in (8, 13):
            ops += _kb_ops(rng, family, n_vars, 8, want_yes=n_vars == 8)
    return ops


def kb_stream(seed: int) -> Iterator[Op]:
    """Bases round-robin over variable count x family x YES/NO, YES/NO fastest."""
    rng = random.Random(f"kb-search:{seed}")
    combos = list(itertools.product(KB_VAR_COUNTS, KB_FAMILIES, (True, False)))
    ops = []
    for b in range(KB_BASES):
        n_vars, family, want_yes = combos[b % len(combos)]
        ops += _kb_ops(rng, family, n_vars, KB_FORMULAS, want_yes)
    return itertools.cycle(ops)


# ---------------------------------------------------------------------------
# schaefer-scale: large consistent bases over tractable languages, far past
# the reach of enumeration, so the fragment engines (unit propagation, 2-SAT,
# GF(2)) and the clause-decomposition argrel must carry every query.
# ---------------------------------------------------------------------------

SCHAEFER_LANGUAGES = {
    "horn": (IMPL, NAND2, HORN3),
    "dual_horn": (IMPL, OR2, DHORN3),
    "bijunctive": (IMPL, OR2, NAND2, EQ),
    "affine": (EQ, NEQ, XOR3),
    "positive": (OR2, OR3),
    "negative": (NAND2, NAND3),
}
# Unit relations added to each language; T and F together defeat the
# constant-assignment shortcut, so consistency is decided by the engine.
SCHAEFER_UNITS = {
    "horn": (T, F),
    "dual_horn": (T, F),
    "bijunctive": (T, F),
    "affine": (T, F),
    "positive": (T,),
    "negative": (F,),
}
SCHAEFER_SIZES = (80, 100, 120, 140, 160)
# A round has one base per size x language: five ops per base (two
# arg_exists, three argcheck), two more (argrel) on each monotone language's.
SCHAEFER_ROUND_OPS = len(SCHAEFER_SIZES) * (len(SCHAEFER_LANGUAGES) * 5 + 2 * 2)
# Three rounds of distinct bases, so a run seldom repeats an op.
SCHAEFER_BASES = 3 * len(SCHAEFER_SIZES) * len(SCHAEFER_LANGUAGES)


def _schaefer_base(rng: random.Random, language: str, size: int):
    relations = SCHAEFER_LANGUAGES[language]
    units = SCHAEFER_UNITS[language]
    variables = [f"x{i:03d}" for i in range(size)]
    plant = {v: rng.randint(0, 1) for v in variables}
    delta = []
    for _ in range(size):
        constraints = []
        for _ in range(rng.randint(1, 2)):
            pool = units if rng.random() < 0.1 else relations
            constraints.append(_planted_constraint(rng, pool, variables, plant))
        delta.append(_formula(*constraints))
    return delta, variables, plant


def _disjoint_formulas(rng: random.Random, delta, limit: int) -> list[int]:
    order = list(range(len(delta)))
    rng.shuffle(order)
    used: set[str] = set()
    chosen = []
    for i in order:
        if delta[i].variables & used:
            continue
        chosen.append(i)
        used |= delta[i].variables
        if len(chosen) == limit:
            break
    return sorted(chosen)


def _violated_constraint(rng, relations, variables, plant) -> Constraint:
    while True:
        c = _random_constraint(rng, relations, variables)
        if not _holds(c, plant):
            return c


def _schaefer_ops(rng: random.Random, language: str, size: int) -> list[Op]:
    delta, variables, plant = _schaefer_base(rng, language, size)
    relations = SCHAEFER_LANGUAGES[language] + SCHAEFER_UNITS[language]
    cases: list[tuple[str, Callable[[], object], bool, str]] = []

    # arg_exists: the base is consistent, so the answer is delta |= alpha.
    copied = rng.sample(delta, 3)[: rng.randint(1, 3)]
    alpha_yes = _formula(*(rng.choice(f.constraints) for f in copied))
    alpha_no = _formula(
        rng.choice(copied).constraints[0], _violated_constraint(rng, relations, variables, plant)
    )
    for alpha, want in ((alpha_yes, True), (alpha_no, False)):
        cases.append(
            (
                "arg_exists",
                lambda a=alpha: argcl.arg_exists(delta, a),
                want,
                _instance_key(delta, alpha),
            )
        )

    # argcheck: pairwise variable-disjoint formulas, one claim constraint
    # from each, form an argument; adding any other base formula breaks
    # minimality, and a claim falsified by the plant breaks entailment.
    chosen = _disjoint_formulas(rng, delta, 24)
    phi = [delta[i] for i in chosen]
    claim = _formula(*(rng.choice(f.constraints) for f in phi))
    extra = rng.choice([f for f in delta if f not in phi])
    unentailed = _formula(
        *claim.constraints, _violated_constraint(rng, relations, variables, plant)
    )
    for premises, alpha, want in (
        (phi, claim, True),
        (phi + [extra], claim, False),
        (phi, unentailed, False),
    ):
        cases.append(
            (
                "argcheck",
                lambda p=premises, a=alpha: argcl.argcheck(p, a),
                want,
                _instance_key(premises, alpha),
            )
        )

    # argrel over a monotone language with a one-clause claim: the minimal
    # supports are the single formulas entailing the clause, i.e. those with
    # a constraint whose variables all lie in the clause.
    if language in ("positive", "negative"):
        clause_rel = OR3 if language == "positive" else NAND3
        psi = rng.randrange(len(delta))
        inner = rng.choice(delta[psi].constraints).args
        others = [v for v in variables if v not in inner]
        yes_args = tuple(rng.sample(inner, len(inner)) + rng.sample(others, 3 - len(inner)))
        outside = [v for v in variables if v not in delta[psi].variables]
        no_args = tuple(rng.sample(outside, 3))
        for args, want in ((yes_args, True), (no_args, False)):
            alpha = _formula(Constraint(clause_rel, args))
            cases.append(
                (
                    "argrel",
                    lambda a=alpha: argcl.argrel(delta, a, psi),
                    want,
                    _instance_key(delta, alpha, f" psi={psi}"),
                )
            )

    return [
        Op(
            kind=f"{query}:{language}",
            key=f"{query}:{key}",
            run=call,
            check=lambda got, w=want: got is w,
        )
        for query, call, want, key in cases
    ]


def schaefer_warmup() -> list[Op]:
    rng = random.Random("schaefer-scale:warmup")
    return [op for language in SCHAEFER_LANGUAGES for op in _schaefer_ops(rng, language, 40)]


def schaefer_stream(seed: int) -> Iterator[Op]:
    """Bases round-robin over language x size."""
    rng = random.Random(f"schaefer-scale:{seed}")
    combos = list(itertools.product(SCHAEFER_SIZES, SCHAEFER_LANGUAGES))
    ops = []
    for b in range(SCHAEFER_BASES):
        size, language = combos[b % len(combos)]
        ops += _schaefer_ops(rng, language, size)
    return itertools.cycle(ops)


# ---------------------------------------------------------------------------
# property-sweep: cold property analysis. Every op builds a relation the
# process has never seen (a fresh name defeats the lru_caches) and runs the
# whole analysis on it: flags, prime-implicate CNF, classification, and
# every gadget whose precondition holds.
# ---------------------------------------------------------------------------

PROPERTY_ARITIES = (4, 5, 6, 7, 8)
PROPERTY_CLASSES = ("and", "or", "maj", "xor", "random")
# The flag each construction guarantees, and the clause shape it implies:
# at most this many positive / negative / total literals per prime implicate.
_CLOSED_FLAG = {"and": "horn", "or": "dual_horn", "maj": "bijunctive", "xor": "affine"}
_CLAUSE_LIMIT = {"and": (1, None, None), "or": (None, 1, None), "maj": (None, None, 2)}


def _cnf_models(arity: int, clauses: list[list[tuple[int, int]]]) -> frozenset[int]:
    """Assignments (bitmask, coordinate 0 = MSB) satisfying every clause."""
    out = set()
    for t in range(1 << arity):
        if all(any((t >> (arity - 1 - v)) & 1 == s for v, s in cl) for cl in clauses):
            out.add(t)
    return frozenset(out)


def _closed_tuples(rng: random.Random, cls: str, k: int) -> frozenset[int]:
    """A tuple set closed under the class's operation, by construction.

    Horn, dual Horn and 2-CNF formulas have model sets closed under AND, OR
    and majority; a coset of a GF(2) subspace is closed under x^y^z.
    """
    if cls == "xor":
        basis = [rng.randrange(1, 1 << k) for _ in range(rng.randint(1, k - 1))]
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        offset = rng.randrange(1 << k)
        return frozenset(s ^ offset for s in span)
    clauses = []
    for _ in range(rng.randint(1, 2 * k)):
        width = rng.randint(1, 2 if cls == "maj" else 3)
        coords = rng.sample(range(k), width)
        if cls == "and":
            signs = [0] * (width - 1) + [rng.randint(0, 1)]
        elif cls == "or":
            signs = [1] * (width - 1) + [rng.randint(0, 1)]
        else:
            signs = [rng.randint(0, 1) for _ in range(width)]
        clauses.append(list(zip(coords, signs)))
    return _cnf_models(k, clauses)


def _property_relation(rng: random.Random, name: str, cls: str, k: int) -> Relation:
    """A relation with between 2^(k-3) and 2^(k-1) tuples.

    The analysis cost grows with the tuple count, so the band keeps ops of
    one class and arity alike and the latency percentiles steady.
    """
    while True:
        if cls == "random":
            tuples = frozenset(t for t in range(1 << k) if rng.random() < 0.5)
        else:
            tuples = _closed_tuples(rng, cls, k)
        if 1 << (k - 3) <= len(tuples) <= 1 << (k - 1):
            return Relation(name, k, tuples)


def _property_op(relation: Relation):
    props = argcl.relation_properties(relation)
    clauses = argcl.cnf_of(relation)
    language = ConstraintLanguage((relation,))
    report = argcl.classify_complexity(language)
    gadgets = {
        target: argcl.express(target, language)
        for target in GadgetTarget
        if argcl.precondition_met(target, language)
    }
    return props, clauses, report, gadgets


def _property_check(relation: Relation, cls: str, got) -> bool:
    props, clauses, report, gadgets = got
    k = relation.arity
    t = np.arange(1 << k, dtype=np.int64)
    models = np.ones(1 << k, dtype=np.bool_)
    for clause in clauses:
        sat = np.zeros(1 << k, dtype=np.bool_)
        for i in clause.pos:
            sat |= ((t >> (k - i)) & 1) == 1
        for i in clause.neg:
            sat |= ((t >> (k - i)) & 1) == 0
        models &= sat
    if set(np.flatnonzero(models).tolist()) != relation.tuples:
        return False
    if cls in _CLOSED_FLAG:
        if not getattr(props, _CLOSED_FLAG[cls]) or not props.schaefer:
            return False
        if report.argcheck != "P":
            return False
    if cls in _CLAUSE_LIMIT:
        max_pos, max_neg, max_len = _CLAUSE_LIMIT[cls]
        for clause in clauses:
            if max_pos is not None and len(clause.pos) > max_pos:
                return False
            if max_neg is not None and len(clause.neg) > max_neg:
                return False
            if max_len is not None and len(clause.pos) + len(clause.neg) > max_len:
                return False
    return all(
        argcl.verify_expresses(formula, TARGET_RELATIONS[target])
        for target, formula in gadgets.items()
    )


def _property_ops(rng: random.Random, prefix: str) -> Iterator[Op]:
    combos = [
        (cls, k)
        for shift in range(len(PROPERTY_ARITIES))
        for cls, k in zip(
            PROPERTY_CLASSES, PROPERTY_ARITIES[shift:] + PROPERTY_ARITIES[:shift]
        )
    ]
    for i in itertools.count():
        cls, k = combos[i % len(combos)]
        relation = _property_relation(rng, f"{prefix}{i}", cls, k)
        yield Op(
            kind=f"{cls}:{k}",
            key=f"{cls}:{k}:{sorted(relation.tuples)}",
            run=lambda r=relation: _property_op(r),
            check=lambda got, r=relation, c=cls: _property_check(r, c, got),
        )


def property_warmup() -> list[Op]:
    ops = _property_ops(random.Random("property-sweep:warmup"), "W")
    return [op for op in itertools.islice(ops, 25) if int(op.kind.split(":")[1]) <= 6]


# Each call of property_stream names its relations afresh, so a second
# stream of one seed has the first one's tuples but none of its cache entries.
_PROPERTY_STREAMS = itertools.count()


def property_stream(seed: int) -> Iterator[Op]:
    """Fresh relations round-robin over construction class x arity."""
    prefix = f"P{next(_PROPERTY_STREAMS)}x"
    return _property_ops(random.Random(f"property-sweep:{seed}"), prefix)


class Workload(NamedTuple):
    """A workload's ops and sizes.

    A round is the stream's stratification period: every run stops on a
    round boundary, so each run holds the same mix of op classes. A traced
    run times `trace_ops` ops untraced and as many again traced.
    """

    warmup: Callable[[], list[Op]]
    stream: Callable[[int], Iterator[Op]]
    round_ops: int
    trace_ops: int
    ref_mix: str = "python"


WORKLOADS = {
    "reduction-sweep": Workload(
        reduction_warmup,
        reduction_stream,
        round_ops=len(REDUCTION_KINDS),
        trace_ops=len(REDUCTION_KINDS) * REDUCTION_PER_KIND,
    ),
    "kb-search": Workload(
        kb_warmup,
        kb_stream,
        round_ops=len(KB_VAR_COUNTS) * len(KB_FAMILIES) * 2 * len(KB_QUERIES),
        trace_ops=256,
        # Boolean-mask reductions and the matrix product do most of the work.
        ref_mix="python+numpy",
    ),
    "schaefer-scale": Workload(
        schaefer_warmup,
        schaefer_stream,
        round_ops=SCHAEFER_ROUND_OPS,
        trace_ops=SCHAEFER_ROUND_OPS,
    ),
    "property-sweep": Workload(
        property_warmup,
        property_stream,
        round_ops=len(PROPERTY_CLASSES) * len(PROPERTY_ARITIES),
        trace_ops=6 * len(PROPERTY_CLASSES) * len(PROPERTY_ARITIES),
    ),
}
