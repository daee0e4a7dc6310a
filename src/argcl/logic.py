"""Satisfiability and entailment over constraint formulas.

Two entry points, is_consistent and entails, sit on top of several
answer-identical engines. The generic engine enumerates assignments and
is the correctness anchor; when every relation in the input lies in a
tractable fragment (Horn, dual Horn, bijunctive, affine) the premises are
compiled once per call into that fragment's polynomial engine: counter
unit propagation, an implication graph, or a GF(2) echelon form.
Entailment then reduces to unsatisfiability of the premises plus the
unit literals refuting one prime-implicate clause of the claim, one
assumption check per clause against that single compile.

The compile, _Premises, keeps one clause block per caller-given block, and
its solvers answer consistency (solver().ok) and entailment (_entailed)
alike. So the argumentation queries compile a base once, one block per
formula, and read existence, verification and one minimal support off that
compile, leaving blocks out where a query needs a subset.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Collection, Iterable

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .formulas import (
    Constraint,
    DEFAULT_MAX_MODELS,
    GammaFormula,
    _as_constraints,
    models_mask,
)
from .relations import RELATION_CACHE_SIZE, Relation, relation_properties

__all__ = [
    "Clause",
    "cnf_of",
    "positive_cnf_of",
    "negative_cnf_of",
    "is_consistent",
    "entails",
]

logger = logging.getLogger(__name__)


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
def positive_cnf_of(relation: Relation) -> tuple[Clause, ...]:
    """All-positive CNF of an upward-closed relation.

    Each maximal non-member m contributes the clause over the
    coordinates where m is 0; clauses are ordered by descending m.

    Raises:
        PreconditionError: if the relation is not upward-closed.
    """
    if not relation_properties(relation).positive:
        raise PreconditionError(f"{relation.name} is not upward-closed")
    k = relation.arity
    non_members = set(range(1 << k)) - relation.tuples
    maximal = [
        m
        for m in non_members
        if not any(n != m and n & m == m for n in non_members)
    ]
    clauses = []
    for m in sorted(maximal, reverse=True):
        pos = tuple(i for i in range(1, k + 1) if not (m >> (k - i)) & 1)
        clauses.append(Clause(pos, ()))
    return tuple(clauses)


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def negative_cnf_of(relation: Relation) -> tuple[Clause, ...]:
    """All-negative CNF of a downward-closed relation.

    Dual of positive_cnf_of: each minimal non-member m contributes the
    clause of negated coordinates where m is 1, ordered by ascending m.

    Raises:
        PreconditionError: if the relation is not downward-closed.
    """
    if not relation_properties(relation).negative:
        raise PreconditionError(f"{relation.name} is not downward-closed")
    k = relation.arity
    non_members = set(range(1 << k)) - relation.tuples
    minimal = [
        m
        for m in non_members
        if not any(n != m and n & m == n for n in non_members)
    ]
    clauses = []
    for m in sorted(minimal):
        neg = tuple(i for i in range(1, k + 1) if (m >> (k - i)) & 1)
        clauses.append(Clause((), neg))
    return tuple(clauses)


# ---------------------------------------------------------------------------
# Fragment engines. Variables are interned to ints; literal 2v stands for
# variable v true and 2v + 1 for v false, so l ^ 1 is the complement of l.
# Each engine is built once from premises in its fragment and then decides
# satisfiability of the premises plus any number of literal sets.
# ---------------------------------------------------------------------------

# The count of a satisfied clause: no run of decrements brings it to 1.
_SATISFIED = 1 << 40


class _UnitPropagation:
    """Counter-based unit propagation; complete for Horn and dual Horn.

    Each clause keeps the count of its literals not yet false. The
    premises' fixpoint is computed once, and each literal set propagates
    on from copies of the values and counts. With no conflict, setting
    every open variable false (Horn) or true (dual Horn) is a model.
    """

    def __init__(self, n_lits: int, clauses: list[tuple[int, ...]], check: bool):
        self.clauses = clauses
        self.occurs: list[list[int]] = [[] for _ in range(n_lits)]
        for c, lits in enumerate(clauses):
            for lit in lits:
                self.occurs[lit].append(c)
        self.true = [False] * n_lits
        self.left = [len(lits) for lits in clauses]
        units = [lits[0] for lits in clauses if len(lits) == 1]
        self.ok = self._propagate(self.true, self.left, units)

    def _propagate(self, true: list[bool], left: list[int], queue: list[int]) -> bool:
        occurs, clauses = self.occurs, self.clauses
        while queue:
            lit = queue.pop()
            if true[lit]:
                continue
            if true[lit ^ 1]:
                return False
            true[lit] = True
            for c in occurs[lit]:
                left[c] = _SATISFIED
            for c in occurs[lit ^ 1]:
                left[c] -= 1
                if left[c] == 1:
                    queue.extend(other for other in clauses[c] if not true[other ^ 1])
                elif not left[c]:
                    return False
        return True

    def sat(self, lits: list[int]) -> bool:
        if not self.ok:
            return False
        queue = [lit for lit in lits if not self.true[lit]]
        return not queue or self._propagate(self.true.copy(), self.left.copy(), queue)


class _ImplicationGraph:
    """Implication-graph 2-SAT (Aspvall, Plass and Tarjan).

    The premises are satisfiable iff no strongly connected component
    holds a literal and its complement. They are then satisfiable with a
    literal set L iff the literals reachable from L hold no complementary
    pair: those literals can all be true, and the clauses they leave open
    are premises on the other variables, satisfied by any model.
    """

    def __init__(self, n_lits: int, clauses: list[tuple[int, ...]], check: bool):
        self.succ: list[list[int]] = [[] for _ in range(n_lits)]
        for lits in clauses:
            if len(lits) == 1:
                self.succ[lits[0] ^ 1].append(lits[0])
            else:
                a, b = lits
                self.succ[a ^ 1].append(b)
                self.succ[b ^ 1].append(a)
        self.ok = not check or _no_complementary_component(self.succ)

    def sat(self, lits: list[int]) -> bool:
        if not self.ok:
            return False
        succ = self.succ
        seen = set(lits)
        stack = list(seen)
        while stack:
            lit = stack.pop()
            if lit ^ 1 in seen:
                return False
            for nxt in succ[lit]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return True


def _no_complementary_component(succ: list[list[int]]) -> bool:
    """Iterative Tarjan SCC: False iff a component holds l and l ^ 1."""
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = n_comp = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if order[nxt] < 0:
                    order[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    break
                if comp[nxt] < 0:
                    low[node] = min(low[node], order[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == order[node]:
                    while True:
                        top = stack.pop()
                        comp[top] = n_comp
                        if top == node:
                            break
                    n_comp += 1
    return all(comp[lit] != comp[lit + 1] for lit in range(0, n, 2))


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def _affine_rows(relation: Relation) -> tuple[tuple[int, int], ...]:
    """Linear system (coefficient mask, rhs) whose GF(2) solutions are R.

    The tuple set of an affine relation is a coset t0 + V; the returned
    rows are a basis of V's orthogonal complement with right-hand sides
    evaluated at t0. Coefficient bit k-j belongs to coordinate j.
    """
    k = relation.arity
    tuples = sorted(relation.tuples)
    t0 = tuples[0]
    # Row-reduce the difference space V.
    basis: list[int] = []
    for t in tuples:
        v = t ^ t0
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # Full reduction so each basis vector owns its leading bit.
    for i, b in enumerate(basis):
        lead = 1 << (b.bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & lead:
                basis[j] ^= b
    pivot_cols = {b.bit_length() - 1 for b in basis}
    rows = []
    for col in reversed(range(k)):
        if col in pivot_cols:
            continue
        a = 1 << col
        for b in basis:
            if (b >> col) & 1:
                a |= 1 << (b.bit_length() - 1)
        rhs = bin(a & t0).count("1") & 1
        rows.append((a, rhs))
    return tuple(rows)


def _eliminate(pivots: dict[int, tuple[int, int]], rows: Iterable[tuple[int, int]]) -> bool:
    """Add GF(2) rows (variable mask, rhs) to an echelon form keyed by
    leading bit; False when a row reduces to 0 = 1."""
    for mask, rhs in rows:
        while mask:
            lead = mask.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (mask, rhs)
                break
            mask ^= pivot[0]
            rhs ^= pivot[1]
        else:
            if rhs:
                return False
    return True


class _Gf2Elimination:
    """Gaussian elimination over GF(2), complete for affine premises.

    The premises' rows are brought to echelon form once; each literal set
    reduces its unit rows against a copy of the pivots.
    """

    def __init__(self, n_lits: int, rows: list[tuple[int, int]], check: bool):
        self.pivots: dict[int, tuple[int, int]] = {}
        self.ok = _eliminate(self.pivots, rows)

    def sat(self, lits: list[int]) -> bool:
        units = [(1 << (lit >> 1), ~lit & 1) for lit in lits]
        return self.ok and _eliminate(dict(self.pivots), units)


_ENGINES = {
    "horn": _UnitPropagation,
    "dual_horn": _UnitPropagation,
    "bijunctive": _ImplicationGraph,
    "affine": _Gf2Elimination,
}


class _Premises:
    """Premises compiled once for one fragment, as blocks of constraints.

    Compiling interns the variables and instantiates each block's
    prime-implicate clauses (GF(2) rows on the affine fragment) once;
    solver() builds the fragment's engine over every block or all but one.
    """

    def __init__(self, fragment: str, blocks: Iterable[Iterable[Constraint]]):
        self.index: dict[str, int] = {}
        self.engine = _ENGINES[fragment]
        instantiate = self._rows if fragment == "affine" else self._clauses
        self.blocks = [instantiate(block) for block in blocks]

    def _ids(self, c: Constraint) -> list[int]:
        index = self.index
        return [index.setdefault(a, len(index)) for a in c.args]

    def _clauses(self, constraints: Iterable[Constraint]) -> list[tuple[int, ...]]:
        out = []
        for c in constraints:
            ids = self._ids(c)
            # Only repeated arguments can merge literals or make a
            # tautology, so the set is built only for them.
            repeated = len(set(ids)) < len(ids)
            for clause in cnf_of(c.relation):
                lits = [2 * ids[i - 1] for i in clause.pos]
                lits += [2 * ids[i - 1] + 1 for i in clause.neg]
                if repeated:
                    lits = set(lits)
                    if any(lit ^ 1 in lits for lit in lits):
                        continue
                out.append(tuple(lits))
        return out

    def _rows(self, constraints: Iterable[Constraint]) -> list[tuple[int, int]]:
        out = []
        for c in constraints:
            ids = self._ids(c)
            k = len(ids)
            for cmask, rhs in _affine_rows(c.relation):
                gmask = 0
                for j, v in enumerate(ids):
                    if cmask >> (k - 1 - j) & 1:
                        gmask ^= 1 << v
                out.append((gmask, rhs))
        return out

    def solver(self, without: Collection[int] = ()):
        """The engine over every block whose index is not in `without`.

        Every subset of consistent premises is consistent, so a solver
        that leaves blocks out is built with check=False: the implication
        graph then skips its component search. Propagation and elimination
        decide consistency as they build, so they ignore the flag.
        """
        blocks = (block for i, block in enumerate(self.blocks) if i not in without)
        items = [x for block in blocks for x in block]
        return self.engine(2 * len(self.index), items, not without)

    def refutations(self, alpha: GammaFormula) -> list[list[int]]:
        """The negation of each non-tautological prime-implicate clause of
        alpha, as literals on premise variables; the others are free."""
        index = self.index
        out = []
        for c in alpha.constraints:
            for clause in cnf_of(c.relation):
                pos = {c.args[i - 1] for i in clause.pos}
                neg = {c.args[i - 1] for i in clause.neg}
                if pos & neg:
                    continue
                lits = [2 * index[v] + 1 for v in pos if v in index]
                lits += [2 * index[v] for v in neg if v in index]
                out.append(lits)
        return out


def _entailed(solver, refutations: list[list[int]]) -> bool:
    """Consistent premises entail alpha iff every refutation is unsatisfiable."""
    return not any(solver.sat(lits) for lits in refutations)


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------


def _fragment(relations: set[Relation]) -> str:
    reports = [relation_properties(r) for r in relations]
    for flag in ("horn", "dual_horn", "bijunctive", "affine"):
        if all(getattr(rep, flag) for rep in reports):
            return flag
    return "generic"


def _check_engine(engine: str):
    if engine not in ("auto", "generic"):
        raise ValueError(f"unknown engine {engine!r}")


def _enumeration_sat(constraints: list[Constraint], max_models: int) -> bool:
    order = tuple(sorted({a for c in constraints for a in c.args}))
    if 1 << len(order) > max_models:
        raise BudgetExceededError(
            f"2^{len(order)} assignments exceed the model budget {max_models}"
        )
    return bool(models_mask(constraints, order).any())


def is_consistent(
    phi: GammaFormula | Iterable[GammaFormula],
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Decide whether a formula collection has a common model.

    Args:
        phi: a formula or collection of formulas, read conjunctively;
            the empty collection is consistent.
        engine: "auto" dispatches on the relations present, "generic"
            forces plain model enumeration.
        max_models: assignment budget for the enumeration path.

    Raises:
        BudgetExceededError: enumeration would exceed max_models.
    """
    _check_engine(engine)
    constraints = _as_constraints(phi)
    if not constraints:
        return True
    if engine == "generic":
        return _enumeration_sat(constraints, max_models)
    relations = {c.relation for c in constraints}
    reports = [relation_properties(r) for r in relations]
    if all(rep.zero_valid for rep in reports) or all(rep.one_valid for rep in reports):
        return True
    fragment = _fragment(relations)
    logger.debug("is_consistent via %s engine", fragment)
    if fragment == "generic":
        return _enumeration_sat(constraints, max_models)
    return _Premises(fragment, [constraints]).solver().ok


def entails(
    phi: GammaFormula | Iterable[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Decide whether every common model of the premises satisfies alpha.

    The generic engine enumerates the joint assignment space once and
    compares satisfaction masks. The fragment path compiles the premises
    once and refutes one prime-implicate clause of alpha at a time: the
    clause's negation is a set of unit literals, so each check is one
    assumption call on the compiled premises. Literals on variables the
    premises do not mention are free. Inconsistent premises entail
    everything.

    Raises:
        BudgetExceededError: enumeration would exceed max_models.
    """
    _check_engine(engine)
    premises = _as_constraints(phi)
    relations = {c.relation for c in premises} | {c.relation for c in alpha.constraints}
    fragment = "generic" if engine == "generic" else _fragment(relations)
    if fragment == "generic":
        order = tuple(
            sorted({a for c in premises for a in c.args} | set(alpha.variables))
        )
        if 1 << len(order) > max_models:
            raise BudgetExceededError(
                f"2^{len(order)} assignments exceed the model budget {max_models}"
            )
        phi_mask = models_mask(premises, order)
        alpha_mask = models_mask(alpha.constraints, order)
        return not bool(np.any(phi_mask & ~alpha_mask))
    logger.debug("entails via %s engine", fragment)
    compiled = _Premises(fragment, [premises])
    solver = compiled.solver()
    return not solver.ok or _entailed(solver, compiled.refutations(alpha))
