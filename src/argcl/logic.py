"""Satisfiability and entailment over constraint formulas.

Two entry points, is_consistent and entails, sit on top of several
answer-identical engines. The generic engine enumerates assignments and
is the correctness anchor; when every relation in the input lies in a
tractable fragment (Horn, dual Horn, bijunctive, affine) a dedicated
polynomial engine is dispatched instead. Entailment reduces to
unsatisfiability of the premises plus unit assumptions refuting one
prime-implicate clause of the claim at a time, which stays inside the
fragment of the inputs.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .formulas import (
    Constraint,
    DEFAULT_MAX_MODELS,
    GammaFormula,
    _as_constraints,
    models_mask,
)
from .relations import Relation, relation_properties

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


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
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
# Fragment engines. Each decides satisfiability of a constraint set plus
# unit assumptions, assuming every relation lies in its fragment.
# ---------------------------------------------------------------------------

_Lit = tuple[str, bool]


def _instantiated_clauses(constraints: Iterable[Constraint]) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """CNF of a constraint set on its actual variables, tautologies dropped."""
    out = []
    for c in constraints:
        for clause in cnf_of(c.relation):
            pos = frozenset(c.args[i - 1] for i in clause.pos)
            neg = frozenset(c.args[i - 1] for i in clause.neg)
            if pos & neg:
                continue
            out.append((tuple(sorted(pos)), tuple(sorted(neg))))
    return out


def _unit_propagation_sat(
    clauses: list[tuple[tuple[str, ...], tuple[str, ...]]],
    assumptions: Mapping[str, bool],
) -> bool:
    """Unit propagation to fixpoint; complete for Horn and dual Horn sets."""
    assign = dict(assumptions)
    changed = True
    while changed:
        changed = False
        for pos, neg in clauses:
            if any(assign.get(v) is True for v in pos):
                continue
            if any(assign.get(v) is False for v in neg):
                continue
            open_lits = [(v, True) for v in pos if v not in assign]
            open_lits += [(v, False) for v in neg if v not in assign]
            if not open_lits:
                return False
            if len(open_lits) == 1:
                v, val = open_lits[0]
                assign[v] = val
                changed = True
    return True


def _two_sat(
    clauses: list[tuple[tuple[str, ...], tuple[str, ...]]],
    assumptions: Mapping[str, bool],
) -> bool:
    """Implication-graph 2-SAT with strongly connected components."""
    variables: set[str] = set(assumptions)
    for pos, neg in clauses:
        variables.update(pos)
        variables.update(neg)
    index = {v: i for i, v in enumerate(sorted(variables))}
    n = len(index)
    # Literal node: 2i for v, 2i+1 for ~v.
    adj: list[list[int]] = [[] for _ in range(2 * n)]

    def add_clause(lits: list[tuple[int, bool]]):
        if len(lits) == 1:
            (i, s), = lits
            a = 2 * i if s else 2 * i + 1
            adj[a ^ 1].append(a)
        else:
            (i, s), (j, t) = lits
            a = 2 * i if s else 2 * i + 1
            b = 2 * j if t else 2 * j + 1
            adj[a ^ 1].append(b)
            adj[b ^ 1].append(a)

    for pos, neg in clauses:
        lits = [(index[v], True) for v in pos] + [(index[v], False) for v in neg]
        add_clause(lits)
    for v, val in assumptions.items():
        add_clause([(index[v], val)])

    # Iterative Tarjan SCC.
    order = [0] * (2 * n)
    low = [0] * (2 * n)
    seen = [False] * (2 * n)
    on_stack = [False] * (2 * n)
    comp = [-1] * (2 * n)
    stack: list[int] = []
    counter = itertools.count()
    n_comp = 0
    for root in range(2 * n):
        if seen[root]:
            continue
        work = [(root, 0)]
        while work:
            node, ptr = work.pop()
            if ptr == 0:
                seen[node] = True
                order[node] = low[node] = next(counter)
                stack.append(node)
                on_stack[node] = True
            if ptr < len(adj[node]):
                work.append((node, ptr + 1))
                nxt = adj[node][ptr]
                if not seen[nxt]:
                    work.append((nxt, 0))
                elif on_stack[nxt]:
                    low[node] = min(low[node], order[nxt])
            else:
                if low[node] == order[node]:
                    while True:
                        top = stack.pop()
                        on_stack[top] = False
                        comp[top] = n_comp
                        low[top] = low[node]
                        if top == node:
                            break
                    n_comp += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
    return all(comp[2 * i] != comp[2 * i + 1] for i in range(n))


@functools.lru_cache(maxsize=None)
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


def _affine_sat(
    constraints: Iterable[Constraint],
    assumptions: Mapping[str, bool],
    variables: Iterable[str],
) -> bool:
    """Gaussian elimination over GF(2) on the stacked constraint systems."""
    index = {v: i for i, v in enumerate(sorted(set(variables) | set(assumptions)))}
    rows: list[tuple[int, int]] = []
    for c in constraints:
        k = c.relation.arity
        for cmask, rhs in _affine_rows(c.relation):
            gmask = 0
            for j, arg in enumerate(c.args):
                if (cmask >> (k - 1 - j)) & 1:
                    gmask ^= 1 << index[arg]
            rows.append((gmask, rhs))
    for v, val in assumptions.items():
        rows.append((1 << index[v], int(val)))
    pivots: dict[int, tuple[int, int]] = {}
    for mask, rhs in rows:
        while mask:
            lead = 1 << (mask.bit_length() - 1)
            if lead not in pivots:
                pivots[lead] = (mask, rhs)
                break
            pm, pr = pivots[lead]
            mask ^= pm
            rhs ^= pr
        if not mask and rhs:
            return False
    return True


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


def _sat_in_fragment(
    fragment: str,
    constraints: list[Constraint],
    assumptions: Mapping[str, bool],
) -> bool:
    if fragment in ("horn", "dual_horn"):
        clauses = _instantiated_clauses(constraints)
        units = [((v,), ()) if val else ((), (v,)) for v, val in assumptions.items()]
        return _unit_propagation_sat(clauses + units, {})
    if fragment == "bijunctive":
        return _two_sat(_instantiated_clauses(constraints), assumptions)
    variables = {a for c in constraints for a in c.args}
    return _affine_sat(constraints, assumptions, variables)


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
    return _sat_in_fragment(fragment, constraints, {})


def entails(
    phi: GammaFormula | Iterable[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Decide whether every common model of the premises satisfies alpha.

    The generic engine enumerates the joint assignment space once and
    compares satisfaction masks. The fragment path refutes one
    prime-implicate clause of alpha at a time: the clause's negation is
    a set of unit assumptions, so each check is a fragment
    satisfiability call on the premises. Inconsistent premises entail
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
    for c in alpha.constraints:
        for clause in cnf_of(c.relation):
            pos = frozenset(c.args[i - 1] for i in clause.pos)
            neg = frozenset(c.args[i - 1] for i in clause.neg)
            if pos & neg:
                continue
            assumptions = {v: False for v in pos}
            assumptions.update({v: True for v in neg})
            if _sat_in_fragment(fragment, premises, assumptions):
                return False
    return True
