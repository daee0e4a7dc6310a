"""Satisfiability and entailment over constraint formulas.

Two entry points, is_consistent and entails, sit on top of several
answer-identical engines. The generic engine enumerates assignments and
is the correctness anchor; when every relation in the input lies in a
tractable fragment (Horn, dual Horn, bijunctive, affine) the premises are
compiled once per call into that fragment's polynomial engine: counter
unit propagation, an implication graph, or a GF(2) echelon form.
Entailment then reduces to unsatisfiability of the premises plus the
unit literals refuting one prime-implicate clause of the claim, one
assumption check per clause against that single compile; on the affine
fragment it is one check per GF(2) row of the claim, that row with its
rhs flipped.

Per-relation work is done once per query: _relations collects the
query's relations by identity, so each distinct relation is hashed once
and not once per constraint, and _fragment reads the fragment off the
language report that relations.language_properties caches per language.
The compile, _Premises, then instantiates every constraint in one pass from
its relation's literal template (the prime-implicate clauses as
(coordinate, sign) pairs, cached per relation like cnf_of itself, and
fetched once per compile for each relation it meets, looked up by
identity). Unary constraints, and binary and ternary ones on distinct
variables, take straight-line code; only repeated arguments, which can
merge literals or make a tautology, and wider relations take the general
path. The claim goes through the same routine after the premises,
continuing their variable ids in the same table, so cnf_of is the one
source of every clause (positive_cnf_of and negative_cnf_of only reorder
it); the affine claim takes its rows from _affine_rows, as the premises
do. The compile builds one engine over all of its caller-given blocks,
and records the block that owns each clause or row. That engine decides
consistency, answers each assumption check with any blocks masked out,
and reports the core of a refutation: the blocks it used. With blocks
masked out of inconsistent premises it also names the blocks of one
conflict among the blocks left, or None when they are consistent. The
GF(2) engine's cores are exact when the premises' rows are independent
(exact): each is then the one set of blocks whose rows sum to the
refuted row, so a block outside it can go and every block in it is
needed. So the argumentation queries compile a base once, one block per
formula, and read existence, verification and one minimal support off
that one engine: a subset question masks the blocks left out, a formula
outside every core needs no check at all, and the conflicts lead to the
maximal consistent subsets.
"""

from __future__ import annotations

import bisect
import functools
import logging
from typing import Iterable

from .errors import PreconditionError
from .formulas import (
    Constraint,
    DEFAULT_MAX_MODELS,
    GammaFormula,
    _ModelBits,
    _as_constraints,
    _model_order,
)
from .relations import (
    RELATION_CACHE_SIZE,
    Clause,
    PropertyReport,
    Relation,
    _coord_mask,
    _literal_template,
    cnf_of,
    language_properties,
    relation_properties,
)

__all__ = [
    "Clause",
    "cnf_of",
    "positive_cnf_of",
    "negative_cnf_of",
    "is_consistent",
    "entails",
]

logger = logging.getLogger(__name__)


@functools.lru_cache(maxsize=RELATION_CACHE_SIZE)
def positive_cnf_of(relation: Relation) -> tuple[Clause, ...]:
    """All-positive CNF of an upward-closed relation.

    Its prime implicates, cnf_of: one clause per maximal non-member m,
    over the coordinates where m is 0, ordered by descending m.

    Raises:
        PreconditionError: if the relation is not upward-closed.
    """
    if not relation_properties(relation).positive:
        raise PreconditionError(f"{relation.name} is not upward-closed")
    k = relation.arity
    return tuple(sorted(cnf_of(relation), key=lambda clause: _coord_mask(clause.pos, k)))


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
    return tuple(sorted(cnf_of(relation), key=lambda clause: _coord_mask(clause.neg, k)))


# ---------------------------------------------------------------------------
# Fragment engines. Variables are interned to ints; literal 2v stands for
# variable v true and 2v + 1 for v false, so l ^ 1 is the complement of l.
# Each engine is built once over every block of its premises, recording the
# block that owns each clause or row, and then answers any number of
# refutations with any blocks masked out: literal sets, one per claim
# clause, or on affine GF(2) rows, one per claim row. Block masks are ints,
# block i at bit i. ok says whether all the premises are consistent;
# conflict(masked) gives None if the blocks left are, and otherwise the
# blocks of one conflict among them. sat and core are defined where the
# blocks left are consistent, as every subset of a consistent set is too.
# exact(masked) says that each core among the blocks left is the only one,
# so the blocks left without block b refute iff b is outside the core; it
# is True only on the GF(2) engine, when the rows left are independent.
# ---------------------------------------------------------------------------

# The count of a satisfied clause: no run of decrements brings it to 1.
_SATISFIED = 1 << 40


def _blocks(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _UnitPropagation:
    """Counter-based unit propagation; complete for Horn and dual Horn.

    Each clause keeps the count of its literals not yet false, and each
    true literal its reason: the clause that forced it, or -1 for an
    assumed one. The premises' fixpoint is computed once, and each literal
    set propagates on from copies of the reasons and counts. With no
    conflict, setting every open variable false (Horn) or true (dual Horn)
    is a model. On a conflict, the reasons lead back from the falsified
    clause to the clauses that refuted the literal set, and so to its core.

    A masked block's clauses count as satisfied. The fixpoint is reused
    unless a masked block forced one of its literals; it is then rebuilt
    without them. Inconsistent premises have no fixpoint to reuse, only
    the core of their conflict, so every mask rebuilds. The state of the
    last mask is kept for the next query.
    """

    def __init__(self, n_lits: int, clauses: list[tuple[int, ...]], owners: list[int]):
        self.clauses = clauses
        self.owners = owners
        occurs: list[list[int]] = [[] for _ in range(n_lits)]
        for c, lits in enumerate(clauses):
            for lit in lits:
                occurs[lit].append(c)
        self.occurs = occurs
        self.counts = list(map(len, clauses))
        self.left = self.counts.copy()
        self.reason, conflict = self._fixpoint(self.left)
        self.ok = conflict is None
        self.first = (self.reason, self.left, conflict)
        self.last = (0, *self.first)

    @functools.cached_property
    def fed(self) -> int:
        """The blocks whose clauses forced a literal at the premises'
        fixpoint, whose masking rebuilds it; every block (-1) on
        inconsistent premises. Only masked queries need it."""
        if not self.ok:
            return -1
        owners = self.owners
        fed = 0
        for c in self.reason:
            if c is not None:
                fed |= 1 << owners[c]
        return fed

    def _fixpoint(self, left: list[int]):
        """Propagate the unit clauses of fresh counts, updating them in
        place: (the reasons at the fixpoint, None), or on a conflict
        (None, the blocks of its derivation)."""
        units = [c for c, n in enumerate(left) if n == 1]
        reason: list[int | None] = [None] * len(self.occurs)
        queue = [self.clauses[c][0] for c in units]
        conflict = self._propagate(reason, left, queue, units)
        if conflict is None:
            return reason, None
        return None, self._trace(reason, *conflict)

    def _state(self, masked: int):
        """(reasons, counts, conflict) with the masked blocks' clauses
        satisfied, as `_fixpoint` leaves them."""
        if not masked:
            return self.first
        if masked != self.last[0]:
            fresh = masked & self.fed
            left = (self.counts if fresh else self.left).copy()
            owners = self.owners
            for b in _blocks(masked):
                # A block's clauses are contiguous, as the compile gives
                # them block by block.
                lo = bisect.bisect_left(owners, b)
                hi = bisect.bisect_right(owners, b, lo)
                left[lo:hi] = [_SATISFIED] * (hi - lo)
            reason, conflict = self._fixpoint(left) if fresh else (self.reason, None)
            self.last = (masked, reason, left, conflict)
        return self.last[1:]

    def _propagate(self, reason, left, queue: list[int], whys: list[int]):
        """Set the queued literals true, each with its reason, and
        propagate. None without a conflict; else the true literals whose
        derivations, with the blocks in the returned mask, refute."""
        occurs, clauses, owners = self.occurs, self.clauses, self.owners
        while queue:
            lit = queue.pop()
            why = whys.pop()
            if reason[lit] is not None:
                continue
            if reason[lit ^ 1] is not None:
                if why < 0:
                    return [lit ^ 1], 0
                return [other ^ 1 for other in clauses[why]], 1 << owners[why]
            reason[lit] = why
            for c in occurs[lit]:
                left[c] = _SATISFIED
            for c in occurs[lit ^ 1]:
                left[c] -= 1
                if left[c] == 1:
                    for other in clauses[c]:
                        if reason[other ^ 1] is None:
                            queue.append(other)
                            whys.append(c)
                elif not left[c]:
                    return [other ^ 1 for other in clauses[c]], 1 << owners[c]
        return None

    def _trace(self, reason, stack: list[int], blocks: int) -> int:
        """blocks with those of every clause that derived the true
        literals on the stack, followed back through their reasons."""
        clauses, owners = self.clauses, self.owners
        seen = set(stack)
        while stack:
            c = reason[stack.pop()]
            if c < 0:
                continue
            blocks |= 1 << owners[c]
            for other in clauses[c]:
                if reason[other ^ 1] is not None and other ^ 1 not in seen:
                    seen.add(other ^ 1)
                    stack.append(other ^ 1)
        return blocks

    def _refute(self, lits: list[int], masked: int):
        reason, left, _ = self._state(masked)
        queue = [lit for lit in lits if reason[lit] is None]
        if not queue:
            return None
        reason = reason.copy()
        conflict = self._propagate(reason, left.copy(), queue, [-1] * len(queue))
        return None if conflict is None else (reason, *conflict)

    def conflict(self, masked: int = 0) -> int | None:
        return self._state(masked)[2]

    def exact(self, masked: int = 0) -> bool:
        return False

    def sat(self, lits: list[int], masked: int = 0) -> bool:
        return self._refute(lits, masked) is None

    def core(self, lits: list[int], masked: int = 0) -> int | None:
        """The blocks one refutation of lits used, or None if satisfiable."""
        found = self._refute(lits, masked)
        return None if found is None else self._trace(*found)


class _ImplicationGraph:
    """Implication-graph 2-SAT by reachability (Even, Itai and Shamir).

    Satisfiable premises are satisfiable with a literal set L iff the
    literals reachable from L hold no complementary pair: those literals
    can all be true, and the clauses they leave open are premises on the
    other variables, satisfied by any model. The same search decides the
    premises themselves, a variable at a time (`_complementary_literal`).
    An edge (target, block, source) stands for one clause; the search
    skips a masked block's edges, and its parent pointers lead from a
    complementary pair back to L through the core's edges. A conflict is
    a variable whose literals l and l ^ 1 both reach a complementary
    pair: the cores that refute l and l ^ 1 together refute either value.
    """

    def __init__(self, n_lits: int, clauses: list[tuple[int, ...]], owners: list[int]):
        succ: list[list[tuple[int, int, int]]] = [[] for _ in range(n_lits)]
        for lits, block in zip(clauses, owners):
            if len(lits) == 1:
                lit = lits[0]
                succ[lit ^ 1].append((lit, block, lit ^ 1))
            else:
                a, b = lits
                succ[a ^ 1].append((b, block, a ^ 1))
                succ[b ^ 1].append((a, block, b ^ 1))
        self.succ = succ
        self.first = _complementary_literal(succ)
        self.ok = self.first is None

    def _refute(self, lits: list[int], masked: int):
        succ = self.succ
        parent: dict[int, tuple[int, int, int] | None] = dict.fromkeys(lits)
        stack = list(parent)
        while stack:
            lit = stack.pop()
            if lit ^ 1 in parent:
                return parent, lit
            for edge in succ[lit]:
                nxt = edge[0]
                if nxt not in parent and not masked >> edge[1] & 1:
                    parent[nxt] = edge
                    stack.append(nxt)
        return None

    def conflict(self, masked: int = 0) -> int | None:
        lit = _complementary_literal(self.succ, masked) if masked else self.first
        if lit is None:
            return None
        return self.core([lit], masked) | self.core([lit ^ 1], masked)

    def exact(self, masked: int = 0) -> bool:
        return False

    def sat(self, lits: list[int], masked: int = 0) -> bool:
        return self._refute(lits, masked) is None

    def core(self, lits: list[int], masked: int = 0) -> int | None:
        """The blocks one refutation of lits used, or None if satisfiable."""
        found = self._refute(lits, masked)
        if found is None:
            return None
        parent, lit = found
        blocks = 0
        for end in (lit, lit ^ 1):
            edge = parent[end]
            while edge is not None:
                blocks |= 1 << edge[1]
                edge = parent[edge[2]]
        return blocks


def _complementary_literal(
    succ: list[list[tuple[int, int, int]]], masked: int = 0
) -> int | None:
    """Even, Itai and Shamir's lockstep search over the edges of blocks
    outside `masked`: the positive literal l of a variable with neither
    value possible, l and l ^ 1 each reaching a complementary pair, or
    None if the premises are satisfiable.

    The literals set true so far are closed under the edges and hold no
    complementary pair, so the clauses they leave open are premises on
    the unset variables alone. For each unset variable, both of its
    literals are searched, one step from each in turn (one edge, or the
    end of a literal's edges), past the literals already set; no search
    can reach the complement of one. The first search that ends with no
    complementary pair sets its literals true. Taking turns a step at a
    time keeps the work linear: a search that is dropped has taken at
    most one step more than the one whose literals are set, and a
    literal once set is never searched again."""
    true = [False] * len(succ)
    for var in range(0, len(succ), 2):
        if true[var] or true[var + 1]:
            continue
        if not succ[var] or not succ[var + 1]:
            # A literal with no successor is a search that ends at once.
            true[var if not succ[var] else var + 1] = True
            continue
        # Each search is its seen set and a stack of successor iterators.
        searches = [({var}, [iter(succ[var])]), ({var + 1}, [iter(succ[var + 1])])]
        turn = 0
        while searches:
            seen, stack = searches[turn]
            if not stack:
                for lit in seen:
                    true[lit] = True
                break
            edge = next(stack[-1], None)
            if edge is None:
                stack.pop()
            elif not (edge[0] in seen or true[edge[0]] or masked >> edge[1] & 1):
                nxt = edge[0]
                if nxt ^ 1 in seen:
                    del searches[turn]
                    turn = 0
                    continue
                seen.add(nxt)
                stack.append(iter(succ[nxt]))
            turn = (turn + 1) % len(searches)
        else:
            return var
    return None


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


def _eliminate(
    pivots: dict[int, tuple[int, int, int]], rows: Iterable[tuple[int, int, int]]
) -> int | None:
    """Add GF(2) rows (variable mask, rhs, tag) to the echelon form
    `pivots`, keyed by leading bit. Premise row j comes tagged with bit j,
    and each reduction XORs in the pivot's tag, so a tag is exactly the
    set of premise rows that sum to its row. A row that reduces to 0 = 1
    returns its tag, the rows of one conflict; None when every row fits."""
    for mask, rhs, tag in rows:
        while mask:
            lead = mask.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (mask, rhs, tag)
                break
            mask ^= pivot[0]
            rhs ^= pivot[1]
            tag ^= pivot[2]
        else:
            if rhs:
                return tag
    return None


class _Gf2Elimination:
    """Gaussian elimination over GF(2), complete for affine premises.

    The premises' rows are brought to echelon form once, each pivot
    tagged with the premise rows that sum to it (`_eliminate`), and the
    tags map to blocks through `owners`. A claim row (mask, rhs) reduces
    against those pivots, which it leaves as they are: it is refuted iff
    it reduces to 0 = 1, and the tag it gathers on the way is the one set
    of premise rows that sum to it when they are independent, and one of
    them otherwise. With blocks masked, the rows left are eliminated
    afresh; the echelon form of the last mask is kept for the next query.

    exact(masked) says whether the rows left are consistent and each of
    them became a pivot. Their sums are then unique, so the blocks left
    without block b still refute a claim row iff b is outside its core.
    """

    def __init__(self, n_lits: int, rows: list[tuple[int, int]], owners: list[int]):
        self.rows = [(mask, rhs, 1 << j) for j, (mask, rhs) in enumerate(rows)]
        self.owners = owners
        pivots: dict[int, tuple[int, int, int]] = {}
        self.first = (pivots, self._owned(_eliminate(pivots, self.rows)))
        self.ok = self.first[1] is None
        self.last = (0, *self.first)

    def _owned(self, tag: int | None) -> int | None:
        """The blocks owning the premise rows of a tag."""
        if tag is None:
            return None
        owners = self.owners
        blocks = 0
        for j in _blocks(tag):
            blocks |= 1 << owners[j]
        return blocks

    def _state(self, masked: int):
        """(the echelon form of the rows left, the blocks of a conflict
        among them or None)."""
        if not masked:
            return self.first
        if masked != self.last[0]:
            pivots: dict[int, tuple[int, int, int]] = {}
            left = (row for row, b in zip(self.rows, self.owners) if not masked >> b & 1)
            self.last = (masked, pivots, self._owned(_eliminate(pivots, left)))
        return self.last[1:]

    def conflict(self, masked: int = 0) -> int | None:
        return self._state(masked)[1]

    def exact(self, masked: int = 0) -> bool:
        pivots, conflict = self._state(masked)
        left = sum(not masked >> b & 1 for b in self.owners) if masked else len(self.rows)
        return conflict is None and len(pivots) == left

    def core(self, row: tuple[int, int], masked: int = 0) -> int | None:
        """The blocks whose rows sum to the refutation row, or None if it
        is satisfiable."""
        mask, rhs = row
        pivots = self._state(masked)[0]
        tag = 0
        while mask:
            pivot = pivots.get(mask.bit_length())
            if pivot is None:
                return None
            mask ^= pivot[0]
            rhs ^= pivot[1]
            tag ^= pivot[2]
        return self._owned(tag) if rhs else None

    def sat(self, row: tuple[int, int], masked: int = 0) -> bool:
        return self.core(row, masked) is None


_ENGINES = {
    "horn": _UnitPropagation,
    "dual_horn": _UnitPropagation,
    "bijunctive": _ImplicationGraph,
    "affine": _Gf2Elimination,
}


def _instantiate_clauses(
    blocks: Iterable[Iterable[Constraint]], lit_of: dict[str, int] | None = None
):
    """Every block's clauses, instantiated from literal templates in one
    pass: (the positive literal 2 * id of each variable, by first
    occurrence after those already in lit_of, which is extended in place;
    the clauses as literal tuples, block by block; the block owning each
    clause).

    Each relation's template is fetched from _literal_template once per
    call and kept in a local dict keyed by the relation's id, which costs
    no Relation.__hash__ per constraint; the relations are held beside
    it, so no id is reused while the dict lives. Unary constraints, and
    binary and ternary ones on distinct variables, most of any base, are
    instantiated in straight-line code. The rest keep the general path,
    where only repeated arguments can merge literals or make a tautology,
    so the literal set is built only for them.
    """
    if lit_of is None:
        lit_of = {}
    templates: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}
    held: list[Relation] = []
    items: list[tuple[int, ...]] = []
    owners: list[int] = []
    append = items.append
    for i, block in enumerate(blocks):
        start = len(items)
        for c in block:
            relation = c.relation
            template = templates.get(id(relation))
            if template is None:
                template = templates[id(relation)] = _literal_template(relation)
                held.append(relation)
            args = c.args
            arity = len(args)
            if arity == 1:
                x = lit_of.get(args[0])
                if x is None:
                    x = lit_of[args[0]] = 2 * len(lit_of)
                # A unary relation is one unit clause.
                (((_, s),),) = template
                append((x + s,))
                continue
            if arity == 2:
                a, b = args
                x = lit_of.get(a)
                if x is None:
                    x = lit_of[a] = 2 * len(lit_of)
                y = lit_of.get(b)
                if y is None:
                    y = lit_of[b] = 2 * len(lit_of)
                if x != y:
                    for clause in template:
                        if len(clause) == 2:
                            (j, s), (_, t) = clause
                            append((y + s, x + t) if j else (x + s, y + t))
                        else:
                            ((j, s),) = clause
                            append(((y if j else x) + s,))
                    continue
                lits = [x, y]
            elif arity == 3:
                a, b, d = args
                x = lit_of.get(a)
                if x is None:
                    x = lit_of[a] = 2 * len(lit_of)
                y = lit_of.get(b)
                if y is None:
                    y = lit_of[b] = 2 * len(lit_of)
                z = lit_of.get(d)
                if z is None:
                    z = lit_of[d] = 2 * len(lit_of)
                lits = [x, y, z]
                if x != y and x != z and y != z:
                    for clause in template:
                        if len(clause) == 3:
                            (j, s), (k, t), (m, u) = clause
                            append((lits[j] + s, lits[k] + t, lits[m] + u))
                        elif len(clause) == 2:
                            (j, s), (k, t) = clause
                            append((lits[j] + s, lits[k] + t))
                        else:
                            ((j, s),) = clause
                            append((lits[j] + s,))
                    continue
            else:
                lits = []
                for a in args:
                    x = lit_of.get(a)
                    if x is None:
                        x = lit_of[a] = 2 * len(lit_of)
                    lits.append(x)
                if len(set(lits)) == len(lits):
                    for clause in template:
                        append(tuple([lits[j] + s for j, s in clause]))
                    continue
            for clause in template:
                merged = {lits[j] + s for j, s in clause}
                if not any(lit ^ 1 in merged for lit in merged):
                    append(tuple(merged))
        owners += [i] * (len(items) - start)
    return lit_of, items, owners


def _instantiate_rows(
    blocks: Iterable[Iterable[Constraint]], bit_of: dict[str, int] | None = None
):
    """_instantiate_clauses for the affine fragment: (the bit 1 << id of
    each variable, ids going on after those already in bit_of, which is
    extended in place; every block's GF(2) rows (variable mask, rhs), in
    order; the block owning each row). A row's mask XORs the bits of the
    arguments its coefficients name, so a repeated argument cancels."""
    if bit_of is None:
        bit_of = {}
    templates: dict[int, tuple[tuple[tuple[int, ...], int], ...]] = {}
    held: list[Relation] = []
    items: list[tuple[int, int]] = []
    owners: list[int] = []
    append = items.append
    for i, block in enumerate(blocks):
        start = len(items)
        for c in block:
            relation = c.relation
            template = templates.get(id(relation))
            if template is None:
                # Each row as (the coordinates it names, rhs); coefficient
                # bit k-1-j belongs to 0-based coordinate j.
                k = relation.arity
                template = templates[id(relation)] = tuple(
                    (tuple(j for j in range(k) if cmask >> (k - 1 - j) & 1), rhs)
                    for cmask, rhs in _affine_rows(relation)
                )
                held.append(relation)
            bits = []
            for a in c.args:
                bit = bit_of.get(a)
                if bit is None:
                    bit = bit_of[a] = 1 << len(bit_of)
                bits.append(bit)
            for coords, rhs in template:
                gmask = 0
                for j in coords:
                    gmask ^= bits[j]
                append((gmask, rhs))
        owners += [i] * (len(items) - start)
    return bit_of, items, owners


class _Premises:
    """Premises, as blocks of constraints, and a claim compiled once for one fragment.

    Compiling interns the variables and instantiates every constraint in
    one pass (`_instantiate_clauses`): each prime-implicate clause of its
    relation, kept as a literal template of (coordinate, sign) pairs,
    becomes the literals 2v + sign on the argument ids v, ids going by
    first occurrence. On the affine fragment each GF(2) row becomes a
    mask of argument bits instead (`_instantiate_rows`). The fragment's
    engine is then built over all of them, with block i owning the
    clauses of the i-th caller-given block. That one engine decides the
    premises' consistency (engine.ok), and with any blocks masked out
    whether the blocks left are consistent and, when they are not, which
    blocks one conflict among them used (engine.conflict). Where they are
    consistent it decides whether they are satisfiable with one refutation
    of the claim (engine.sat), which blocks that refutation used
    (engine.core), and whether those cores are exact (engine.exact).

    The claim alpha then goes through the same routine with the premises'
    id table, which the claim's new variables extend in place, and each
    of its clauses is negated into `claim`: the unit literals refuting
    it, on the premise variables only, as the others are free. On the
    affine fragment `claim` holds one refutation row per GF(2) row of
    alpha, the row with its rhs flipped; a new variable keeps its bit,
    which no premise pivot clears, so its row is never refuted. Consistent
    premises entail alpha iff no refutation is satisfiable (`_entailed`).
    """

    def __init__(
        self,
        fragment: str,
        blocks: Iterable[Iterable[Constraint]],
        alpha: GammaFormula | None = None,
    ):
        instantiate = _instantiate_rows if fragment == "affine" else _instantiate_clauses
        ids, items, owners = instantiate(blocks)
        n_lits = 2 * len(ids)
        self.engine = _ENGINES[fragment](n_lits, items, owners)
        claimed = instantiate([alpha.constraints] if alpha else [], ids)[1]
        if fragment == "affine":
            self.claim = [(mask, rhs ^ 1) for mask, rhs in claimed]
            return
        # Plain loops: a nested comprehension costs a call per clause.
        claim: list[list[int]] = []
        for clause in claimed:
            lits = []
            for lit in clause:
                if lit < n_lits:
                    lits.append(lit ^ 1)
            claim.append(lits)
        self.claim = claim


def _entailed(premises: _Premises, masked: int = 0) -> bool:
    """Consistent premises, the blocks left unmasked, entail alpha iff
    every refutation of its claim is unsatisfiable."""
    return not any(premises.engine.sat(lits, masked) for lits in premises.claim)


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------


def _relations(blocks: Iterable[Iterable[Constraint]]) -> frozenset[Relation]:
    """The distinct relations of the blocks' constraints: the query's
    language. They are collected by id(), so each distinct relation is
    hashed once per query, by the frozenset, and not once per constraint."""
    return frozenset({id(c.relation): c.relation for block in blocks for c in block}.values())


def _fragment(report: PropertyReport) -> str:
    """The first tractable fragment holding every relation of a language,
    or "generic", read off the language's report (`language_properties`)."""
    for flag in ("horn", "dual_horn", "bijunctive", "affine"):
        if getattr(report, flag):
            return flag
    return "generic"


def _check_engine(engine: str):
    if engine not in ("auto", "generic"):
        raise ValueError(f"unknown engine {engine!r}")


def _enumeration_sat(constraints: list[Constraint], max_models: int) -> bool:
    order = _model_order({a for c in constraints for a in c.args}, max_models)
    return _ModelBits(order).bits(constraints) != 0


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
    report = language_properties(_relations([constraints]))
    if report.eps_valid:
        return True
    fragment = _fragment(report)
    logger.debug("is_consistent via %s engine", fragment)
    if fragment == "generic":
        return _enumeration_sat(constraints, max_models)
    return _Premises(fragment, [constraints]).engine.ok


def entails(
    phi: GammaFormula | Iterable[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Decide whether every common model of the premises satisfies alpha.

    The generic engine enumerates the joint assignment space once and
    compares model bitsets (`formulas._ModelBits`). The fragment path compiles the premises
    once and refutes one prime-implicate clause of alpha at a time: the
    clause's negation is a set of unit literals, so each check is one
    assumption call on the compiled premises. Literals on variables the
    premises do not mention are free. On the affine fragment each check
    is one GF(2) row of alpha with its rhs flipped, which a variable the
    premises do not mention leaves unrefuted. Inconsistent premises
    entail everything.

    Raises:
        BudgetExceededError: enumeration would exceed max_models.
    """
    _check_engine(engine)
    premises = _as_constraints(phi)
    if engine == "generic":
        fragment = "generic"
    else:
        fragment = _fragment(language_properties(_relations([premises, alpha.constraints])))
    if fragment == "generic":
        order = _model_order(
            {a for c in premises for a in c.args} | set(alpha.variables), max_models
        )
        space = _ModelBits(order)
        return not space.bits(premises) & ~space.bits(alpha.constraints)
    logger.debug("entails via %s engine", fragment)
    compiled = _Premises(fragment, [premises], alpha)
    return not compiled.engine.ok or _entailed(compiled)
