"""Argument existence, verification, relevance, and complexity classification.

An argument for a claim is a consistent subset of the knowledge base that
entails the claim and is subset-minimal with that property. By
monotonicity a support exists iff some maximal consistent subset (MCS) of
the base entails the claim.

Verification, outside the monotone case below, compiles phi once into
one fragment engine when phi and the claim lie in one tractable
fragment. Otherwise, under the "auto" engine and inside the mask limit,
it builds each formula's models as one int over the joint assignments,
and consistency, entailment and every one-formula removal are ANDs of
those ints; past the limit it goes through is_consistent and entails.

Under the "auto" engine, an instance whose relations are all
upward-closed or all downward-closed (monotone) is decided by clause
covers (`_Covers`) for existence, one support, verification and
relevance alike, with no compile: point evaluations give the claim
clauses each formula alone entails, and tests on those bitmasks decide.
The query's language report, read once, gives that test and the
fragment.

Otherwise existence, one minimal support, all minimal supports and
relevance take the first of three routes that answers, picked once
by `_route` for existence and one support and by `_all_route` for the
others:

1. The base's MCSes (`_Whole`), for existence and one support only. When
   the base and the claim lie in one tractable fragment, its one fragment
   compile finds the MCSes from the engine's conflicts, fewest formulas
   dropped first (`_corrections`), and the first that entails the claim
   answers; a consistent base is its own one MCS. This search visits at
   most one node per formula below the base, and past that it hands
   over: route 2 answers inside the mask limit and route 3 past it. A
   small base, at most 16 formulas over at most `_SMALL_VARS` variables
   with the claim's, skips this route for route 2, which answers it in
   one compile whether or not it is consistent, unless its language is
   eps-valid, so that the base is consistent and its fragment compile
   answers with no search. A base in no fragment is taken whole only
   past the mask limit, when is_consistent finds it consistent, and
   entails calls answer; inside the limit route 2 answers it with no
   enumeration, as a consistent base's one MCS is itself.
2. The signature base (`_KB`), when the assignment space fits the mask
   limit: the base and the claim are compiled once into per-assignment
   signatures, the claim as one more bit, so every query is read off
   with no subset enumeration. Up to 16 formulas, and past that while
   the base's subsets number at most 8 per assignment, superset-OR
   transforms of the signatures' presence bitset mark every consistent
   subset and every subset that does not entail the claim, and the
   minimal supports are read off those two bitsets by one-formula
   deletions. Otherwise the signatures are peeled: the maximal ones are
   the MCSes, those of the claim's non-models decide entailment, and one
   hitting-set search over both lists gives supports and relevance.
3. Canonical subset search (`_Search`) over at most max_kb formulas,
   past the mask limit and always under the "generic" engine. It is the
   one place max_kb is checked; all supports and relevance set it up
   before the signature base is built, so they meet max_kb there too.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, PreconditionError
from .formulas import (
    DEFAULT_MAX_MODELS,
    GammaFormula,
    _LACKING_16,
    _ModelBits,
    _lacking,
)
from .logic import (
    _Premises,
    _blocks,
    _check_engine,
    _entailed,
    _fragment,
    _lazy,
    _literal_template,
    _relations,
    entails,
    is_consistent,
)
from .kernels import transpose_codes
from .relations import ConstraintLanguage, PropertyReport, language_properties

__all__ = [
    "DEFAULT_MAX_KB",
    "Support",
    "ComplexityReport",
    "COMPLEXITY_CLASSES",
    "argcheck",
    "arg_exists",
    "find_minimal_support",
    "enumerate_minimal_supports",
    "argrel",
    "argrel_positive",
    "argrel_negative",
    "classify_complexity",
]

logger = logging.getLogger(__name__)

DEFAULT_MAX_KB = 20

# Bases whose signature array (counted as one 64-bit word per 64 formulas
# per assignment) fits in this many words are compiled into a _KB, and the
# generic subset search tests them on model bitsets; beyond it both
# fall back to per-subset consistency and entailment calls.
_MASK_LIMIT = 1 << 20

# Existence and one support on a base of at most 16 formulas (the subset
# bitset's own bound) over at most this many variables, the claim's
# included, compile the signature base (`_KB`) at once, with no fragment
# compile first. On the targets of reduction-sweep's four ARG kinds, all
# inside this bound, arg_exists took 85-99 us per target with the bound
# at 11 and 322-376 us with it at 0 (3-SAT to NEQ), 49-50 against 171-232
# us (positive 1-in-3 to AND_NOT) and 24-34 against 31-43 us (the two
# abduction kinds): there the fragment compile and its MCS tree cost more
# than one _KB compile. On kb-search's inconsistent 12-formula bases,
# with two MCSes each, it took 0.61x at 10 variables, 0.74x at 11 and
# 0.94x at 12. A base over an eps-valid language is consistent, so its
# fragment compile answers with no MCS tree, and such bases skip this
# bound: over 54 random ones (0-valid Horn, 1-valid dual Horn and 0-valid
# affine languages, 6, 10 and 16 formulas at 6-11 variables, two claims
# each), _KB took a median 1.26-1.34x the fragment route's time for
# existence and 1.32-1.41x for one support, over three runs (the
# targets: means over each kind, two runs; the bases: medians per base,
# best of 5 per query; 2-core Xeon VM).
_SMALL_VARS = 11

COMPLEXITY_CLASSES = (
    "P",
    "NP-complete",
    "coNP-complete",
    "DP-complete",
    "SigmaP2-complete",
)


@dataclass(frozen=True, slots=True)
class Support:
    """An index set into a knowledge base, strictly ascending."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("support indices must be strictly ascending")

    def formulas(self, delta: Sequence[GammaFormula]) -> tuple[GammaFormula, ...]:
        return tuple(delta[i] for i in self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices


@dataclass(frozen=True)
class ComplexityReport:
    """Predicted complexity classes of the three decision problems."""

    arg: str
    argcheck: str
    argrel: str

    def __post_init__(self):
        for value in (self.arg, self.argcheck, self.argrel):
            if value not in COMPLEXITY_CLASSES:
                raise ValueError(f"unknown complexity class {value!r}")


def _dedup(formulas: Iterable[GammaFormula]) -> list[GammaFormula]:
    """The formulas without repeats (by value), each at its first
    occurrence. Formulas are bucketed by their first constraint's
    arguments, a tuple of strings whose hash is cheap, and compared with
    == only within a bucket, so no Constraint is hashed."""
    buckets: dict[tuple[str, ...], list[GammaFormula]] = {}
    out = []
    for f in formulas:
        key = f.constraints[0].args
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [f]
        elif f in bucket:
            continue
        else:
            bucket.append(f)
        out.append(f)
    return out


def argcheck(
    phi: Iterable[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Verify that a formula set is an argument for the claim.

    True iff phi is consistent, entails alpha, and no proper subset
    entails alpha. By monotonicity of entailment the last condition is
    equivalent to single-element removal never preserving entailment,
    which is what gets checked. Duplicate formulas are collapsed first
    (set semantics).

    Under the auto engine the language report of phi and alpha is read
    once. When every relation is upward-closed, or every one
    downward-closed, phi is consistent and its clause covers (`_Covers`)
    decide, with no compile: phi is an argument iff its covers hold every
    clause of alpha and each formula covers a clause no other does.

    When phi and alpha lie in one tractable fragment, phi is compiled
    once into one engine with one block per formula. Each refutation of
    one of alpha's clauses, or on the affine fragment of one of its GF(2)
    rows, yields a core, the formulas that refutation used. A formula in
    no core can go with every refutation intact, so phi is not minimal.
    When phi's rows are independent (engine.exact), each affine core is
    the one set of formulas whose rows sum to the refuted row, so every
    formula in a core is needed and phi is an argument. Otherwise each
    formula is masked out in turn and only the refutations whose core
    holds it are tried again.

    Otherwise the auto engine, inside the mask limit, compiles each
    formula and alpha once into its models over the joint variables
    (`_argcheck_bits`), and every check is an AND of those. Past the mask
    limit, and always under the generic engine, phi's consistency,
    entailment and each one-formula removal are is_consistent and
    entails calls.
    """
    _check_engine(engine)
    formulas = _dedup(phi)
    if engine != "generic":
        report = _language(formulas, alpha)
        if report.positive or report.negative:
            return _Covers(formulas, alpha, report.positive).argument()
        premises = _fragment_premises(formulas, alpha, _fragment(report))
        if premises is not None:
            return _argcheck_compiled(premises, len(formulas))
        order = _mask_order(formulas, alpha, max_models)
        if order is not None:
            return _argcheck_bits(formulas, alpha, order)
    if not is_consistent(formulas, engine=engine, max_models=max_models):
        return False
    if not entails(formulas, alpha, engine=engine, max_models=max_models):
        return False
    for i in range(len(formulas)):
        rest = formulas[:i] + formulas[i + 1 :]
        if entails(rest, alpha, engine=engine, max_models=max_models):
            return False
    return True


def _argcheck_compiled(premises: _Premises, n: int) -> bool:
    """argcheck on n formulas compiled one block each with alpha, from one engine."""
    engine, claim = premises.engine, premises.claim
    if not engine.ok:
        return False
    # The refutations whose core holds each formula, in claim order.
    held: list[list] = [[] for _ in range(n)]
    covered = 0
    for refutation in claim:
        core = engine.core(refutation)
        if core is None:
            return False
        covered |= core
        while core:
            low = core & -core
            held[low.bit_length() - 1].append(refutation)
            core ^= low
    if covered != (1 << n) - 1:
        return False
    # With exact cores, phi without formula i refutes a claim row iff
    # i is outside its core, and every i lies in one.
    if engine.exact():
        return True
    # Removing formula i keeps every refutation whose core misses i, so
    # only the others are tried with i masked; one of them must now hold.
    return all(any(engine.sat(refutation, 1 << i) for refutation in held[i]) for i in range(n))


def _argcheck_bits(formulas: Sequence[GammaFormula], alpha: GammaFormula, order) -> bool:
    """argcheck on the formulas' model bitsets over one joint order
    (`_ModelBits`): phi is consistent iff the AND of its rows is nonzero,
    and entails alpha iff that AND misses alpha's non-models. phi without
    formula i is the AND of the rows before i, kept as prefixes, and of
    those after it, gathered from the back."""
    full = (1 << (1 << len(order))) - 1
    *rows, claim = _int_rows((*formulas, alpha), order)
    before = list(itertools.accumulate(rows, operator.and_, initial=full))
    if not before[-1]:
        return False
    outside = full ^ claim
    if before[-1] & outside:
        return False
    after = full
    for i in reversed(range(len(rows))):
        if not before[i] & after & outside:
            return False
        after &= rows[i]
    return True


def _language(formulas: Sequence[GammaFormula], alpha: GammaFormula) -> PropertyReport:
    """The report of the query's language, the relations of the formulas
    and alpha (`language_properties`, cached per frozenset of them). A
    query reads it once, for its route and its fragment alike."""
    return language_properties(_relations([f.constraints for f in (*formulas, alpha)]))


def _fragment_premises(
    formulas: Sequence[GammaFormula], alpha: GammaFormula, fragment: str
) -> _Premises | None:
    """The formulas compiled one block each, with alpha, for the fragment
    that holds them and alpha (`_fragment`); None when it is "generic"."""
    if fragment == "generic":
        return None
    return _Premises(fragment, [f.constraints for f in formulas], alpha)


def _mask_order(
    delta: Sequence[GammaFormula], alpha: GammaFormula, max_models: int
) -> tuple[str, ...] | None:
    """The joint variable order, or None past max_models or _MASK_LIMIT.
    The limit counts the formulas' 64-bit signature words; alpha's bit
    rides in their code whenever `_KB` takes the subset bitset, and in
    one byte of its own otherwise, at most 1 MB more at 2**20
    assignments. The variables are gathered by one set union over the
    constraints' argument tuples."""
    args = [c.args for f in (*delta, alpha) for c in f.constraints]
    order = tuple(sorted(set().union(*args)))
    words = (len(delta) + 63) // 64
    if (1 << len(order)) > max_models or (1 << len(order)) * words > _MASK_LIMIT:
        return None
    return order


def _members(bits: int) -> tuple[int, ...]:
    return tuple(i for i in range(bits.bit_length()) if bits >> i & 1)


def _canonical(sets: Iterable[int]) -> list[int]:
    """Most members first, ties broken by ascending bitmask: a stable sort
    by members, descending, of the ascending list."""
    return sorted(sorted(sets), key=int.bit_count, reverse=True)


def _maximal(sig: np.ndarray) -> list[int]:
    """The inclusion-maximal distinct rows of a signature array, as ints
    in canonical order (`_canonical`). A base of at most 64 formulas
    passes one unsigned code per row, a wider one rows of 64-bit words,
    low word first. A row with the most members is maximal among the
    rows left, so each pass takes one and drops every row it contains."""
    if sig.ndim == 1:
        sig = sig[:, None]
    tops = []
    while len(sig):
        top = sig[np.argmax(np.bitwise_count(sig).sum(axis=1))]
        tops.append(int.from_bytes(top.astype("<u8").tobytes(), "little"))
        sig = sig[(sig & ~top).any(axis=1)]
    return _canonical(tops)


# The set bits of each byte value, ascending.
_BYTE_BITS = [tuple(b for b in range(8) if v >> b & 1) for v in range(256)]


def _presence(codes: np.ndarray, size: int) -> np.ndarray:
    """Entry s is True iff some code equals s, for codes below size."""
    present = np.zeros(size, dtype=np.bool_)
    # Indexing with intp codes took 10 us where uint16 codes took 17 us
    # (2048 rows, 12 formulas): numpy casts other index types in chunks.
    # Cast a step at a time, the intp copy stays at 1 MB at the mask limit.
    for start in range(0, len(codes), 1 << 17):
        present[codes[start : start + (1 << 17)].astype(np.intp)] = True
    return present


def _packed(present: np.ndarray) -> int:
    """A bool array as an int bitset, entry s at bit s."""
    return int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")


def _bits(bitset: int) -> list[int]:
    """The set bits of an int bitset, ascending."""
    data = bitset.to_bytes((bitset.bit_length() + 7) >> 3, "little")
    nonzero = np.flatnonzero(np.frombuffer(data, dtype=np.uint8)).tolist()
    return [8 * j + b for j in nonzero for b in _BYTE_BITS[data[j]]]


def _zeta(rows: int, lacking: list[int]) -> int:
    """The superset-OR (zeta) transform of a bitset over the subsets of
    len(lacking) formulas (Bjorklund, Husfeldt, Kaski and Koivisto, STOC
    2007): bit s of the result is set iff s lies inside some row. One
    shift-and-mask step per formula, n * 2**n bit operations."""
    for i, pattern in enumerate(lacking):
        rows |= (rows >> (1 << i)) & pattern
    return rows


def _step(bits: int, lacking: list[int], up: bool) -> int:
    """The subsets of len(lacking) formulas that add one formula to (up),
    or lack one formula of, some set in `bits`. A row is maximal iff it
    lacks one formula of no subset of a row (`_zeta`), and a support is
    minimal iff it adds one formula to no support."""
    step = 0
    for i, pattern in enumerate(lacking):
        step |= (bits & pattern) << (1 << i) if up else (bits >> (1 << i)) & pattern
    return step


def _hitting_sets(
    mcs: list[int], bad: list[int], n: int, idx: int | None = None
) -> Iterator[int]:
    """The minimal hitting sets of the edges ~b (b in bad) over n formulas
    that lie inside some MCS, each once, or only those that hold idx. A
    subset entails alpha iff it meets every edge and is consistent iff an
    MCS holds it, so these are the minimal supports.

    MMCS (Murakami and Uno, DAM 2014), on an explicit stack as a support
    may hold every formula. A node keeps its set S, its candidates, the
    edges S leaves uncovered and each member's critical edges (those it
    alone of S meets), as bitmasks over edge indices, and the holders of
    S. It branches on the candidates of the uncovered edge with the
    fewest; each goes back into the candidates of the branches after it,
    so every set is reached once, and a branch that leaves a member with
    no critical edge is pruned, as no superset is then minimal.

    A holder is an MCS that meets every edge, cut to what a support
    inside it can hold: its formulas alone of it in some edge, which each
    such support holds, and those in an edge that none of these meets,
    where the others find their critical edges. Only holders' formulas
    stay candidates, so every S is consistent, and with no holder nothing
    is yielded.
    """
    full = (1 << n) - 1
    edges = [full & ~b for b in bad]
    # The edges each formula meets: the edges' bit matrix, one row of
    # packed bytes per edge, transposed by one unpack and one pack.
    size = (n + 7) >> 3
    data = np.frombuffer(b"".join(e.to_bytes(size, "little") for e in edges), dtype=np.uint8)
    bits = np.unpackbits(data.reshape(len(edges), size), axis=1, count=n, bitorder="little")
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    hits = [int.from_bytes(row.tobytes(), "little") for row in packed]
    every = (1 << len(edges)) - 1
    start = 0 if idx is None else 1 << idx
    holders = set()
    for m in mcs:
        if m & start != start:
            continue
        members = _members(m)
        # The edges m meets once, and those it meets more often.
        once = more = 0
        for i in members:
            more |= once & hits[i]
            once = (once ^ hits[i]) & ~more
        if once | more == every:
            forced = functools.reduce(operator.or_, [hits[i] for i in members if hits[i] & once], 0)
            holders.add(sum(1 << i for i in members if hits[i] & (once | every & ~forced)))
    if idx is None:
        stack = [(0, full, every, (), list(holders))]
    else:
        hit, holders = hits[idx], [h for h in holders if h & start]
        stack = [(start, full ^ start, every & ~hit, (hit,), holders)] if hit and holders else []
    while stack:
        s, cand, uncovered, critical, holders = stack.pop()
        if not uncovered:
            yield s
            continue
        cand &= functools.reduce(operator.or_, holders, 0)
        branch, rest = cand, uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            fewer = edges[low.bit_length() - 1] & cand
            if fewer.bit_count() < branch.bit_count():
                branch = fewer
                if branch.bit_count() < 2:
                    break
        cand &= ~branch
        done = 0
        while branch:
            bit = branch & -branch
            branch ^= bit
            hit = hits[bit.bit_length() - 1]
            kept = (*(c & ~hit for c in critical), uncovered & hit)
            if all(kept):
                inside = [m for m in holders if m & bit]
                stack.append((s | bit, cand | done, uncovered & ~hit, kept, inside))
            done |= bit


def _int_rows(formulas: Sequence[GammaFormula], order) -> list[int]:
    """The formulas' model bitsets over one order as ints, bit a for
    assignment a, from one kernel pass (`_ModelBits.rows`)."""
    rows = _ModelBits(order).rows([f.constraints for f in formulas])
    return [int.from_bytes(row, "little") for row in rows]


def _model_rows(formulas: Sequence[GammaFormula], order) -> np.ndarray:
    """The formulas' packed model bitsets over the 2**len(order)
    assignments, one row each, from one kernel pass (`_ModelBits.rows`),
    in the form `transpose_codes` takes."""
    rows = _ModelBits(order).rows([f.constraints for f in formulas])
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(formulas), -1)


class _KB:
    """A knowledge base compiled against one claim.

    Bit i of an assignment's signature says that it satisfies delta[i].
    A subset is consistent iff it lies inside some signature, and entails
    alpha iff it lies inside no signature of alpha's non-models. The
    maximal signatures `mcs` are the maximal consistent subsets of delta,
    in canonical order (`_canonical`).

    The compile builds every formula's models as a packed bitset over
    the 2**len(order) assignments in one kernel call (`_model_rows`, by
    `formulas._ModelBits.rows`, its variable index, literals and
    relation templates fetched once per compile): one int AND or OR per
    clause and literal, in blocks of 2**16 assignments past 16
    variables. One bit transpose of the packed rows (`transpose_codes`)
    then gives one narrow code per assignment, so the numpy calls per
    compile do not grow with the formulas.

    The compile takes the subset bitset (`bitset`) up to 16 formulas, and
    past that while the 2**n subsets number at most 8 per assignment (n
    at most len(order) + 3, so at most 23 inside the mask limit); its
    transforms cost n * 2**n bit operations whatever the base. There
    alpha is compiled the same way as formula n, so bit n of a code says
    the assignment is a model of alpha. One presence bitset of 2**(n+1)
    bits holds every code: its low half, `outside`, marks the signatures
    of alpha's non-models, and the OR of its halves, `rows`, every
    signature. Every query is read off two superset-OR transforms
    (`_zeta`) over the shift patterns `lacking`, each made at most once
    and only when a query needs it: `consistent` of rows, and
    `unentailing` of outside, whose bit s says that s does not entail
    alpha. The supports are `consistent &
    ~unentailing`, and the minimal ones (`minimal`) are the supports s
    with no support s - {i}: a support t inside s leaves s - {i} a
    support for each i in s - t, as entailment holds upward and
    consistency downward, so one-formula deletions test minimality. A
    support exists iff some row entails alpha, as a support lies inside
    the row of any of its models and that row entails alpha too, so
    `unentailing` alone decides existence.

    Otherwise alpha's row is unpacked on its own into the mask of its
    non-models, and the formulas' codes, stacked into 64-bit words past
    64 formulas, are peeled (`_maximal`) for `mcs` and `bad`, the maximal
    signatures of alpha's non-models. A subset entails alpha iff it lies
    inside no member of `bad`, and one search (`_hitting_sets`) over both
    lists gives the minimal supports and relevance.
    """

    def __init__(self, delta: Sequence[GammaFormula], alpha: GammaFormula, order):
        n = self.n = len(delta)
        n_vars = len(order)
        # 2**n <= 8 * 2**len(order): at most 8 subsets per assignment.
        self.bitset = n <= 16 or n <= n_vars + 3
        if self.bitset:
            self.lacking = _LACKING_16[:n] if n <= 16 else _lacking(n)
            codes = transpose_codes(_model_rows((*delta, alpha), order), n_vars)
            present = _packed(_presence(codes, 2 << n))
            self.outside = present & ((1 << (1 << n)) - 1)
            self.rows = self.outside | present >> (1 << n)
            return
        models = _model_rows((*delta, alpha), order)
        # Alpha's row gives its non-models, so the formula words stop at n.
        outside = np.unpackbits(models[n], count=1 << n_vars, bitorder="little") == 0
        words = [transpose_codes(models[w : min(w + 64, n)], n_vars) for w in range(0, n, 64)]
        del models
        if len(words) == 1:
            sig = words[0]
        else:
            sig = np.stack([w.astype(np.uint64) for w in words], axis=1)
        # Set here, these shadow the cached property below.
        self.mcs = _maximal(sig)
        self.bad = _maximal(sig[outside])

    @_lazy
    def consistent(self) -> int:
        """Bit s is set iff subset s is consistent (`bitset` only)."""
        return _zeta(self.rows, self.lacking)

    @_lazy
    def unentailing(self) -> int:
        """Bit s is set iff subset s does not entail alpha (`bitset` only)."""
        return _zeta(self.outside, self.lacking)

    @_lazy
    def minimal(self) -> int:
        """Bit s is set iff subset s is a minimal support (`bitset` only)."""
        supports = self.consistent & ~self.unentailing
        return supports & ~_step(supports, self.lacking, True)

    @_lazy
    def mcs(self) -> list[int]:
        """The maximal rows (`bitset` only)."""
        below = _step(self.consistent, self.lacking, False)
        return _canonical(_bits(self.rows & ~below))

    def entails(self, s: int) -> bool:
        if self.bitset:
            return not self.unentailing >> s & 1
        return all(s & ~b for b in self.bad)

    def exists(self) -> bool:
        if self.bitset:
            return self.rows & ~self.unentailing != 0
        return any(self.entails(m) for m in self.mcs)

    def first_support(self) -> Support | None:
        """Shrink the first entailing MCS, ascending, while it entails."""
        for m in self.mcs:
            if self.entails(m):
                for i in _members(m):
                    if self.entails(m & ~(1 << i)):
                        m &= ~(1 << i)
                return Support(_members(m))
        return None

    def minimal_supports(self) -> list[Support]:
        """The set bits of `minimal` on the bitset, otherwise the hitting
        sets of `_hitting_sets`, none when no MCS entails alpha; by
        cardinality, then lexicographic."""
        if self.bitset:
            found = _bits(self.minimal)
        else:
            found = _hitting_sets(self.mcs, self.bad, self.n)
        members = sorted(map(_members, found), key=lambda m: (len(m), m))
        return [Support(m) for m in members]

    def relevant(self, idx: int) -> bool:
        """Does some minimal support contain delta[idx].

        On the bitset, `minimal` answers at once. Otherwise none does when
        no MCS entails alpha, and else `_hitting_sets` started at {idx}
        answers at its first set.
        """
        if self.bitset:
            return self.minimal & ~self.lacking[idx] != 0
        return any(_hitting_sets(self.mcs, self.bad, self.n, idx))


class _Search:
    """Canonical subset search over at most max_kb formulas, the route of
    the generic engine and of auto past the mask limit.

    Subsets are visited by cardinality then lexicographically, skipping
    supersets of a support already found; any other subset that is
    consistent and entails alpha is minimal, since a smaller qualifying
    subset would have come first. Subsets are tested on the formulas'
    model bitsets (`_ModelBits`) when those fit, else by
    is_consistent/entails calls.

    Raises:
        BudgetExceededError: when len(delta) exceeds max_kb; this is the
            one place that check is made.
    """

    def __init__(self, delta, alpha, engine: str, max_models: int, max_kb: int):
        if len(delta) > max_kb:
            raise BudgetExceededError(
                f"subset search over {len(delta)} formulas exceeds the budget {max_kb}"
            )
        self.delta, self.alpha = delta, alpha
        self.engine, self.max_models = engine, max_models

    def supports(self) -> Iterator[Support]:
        """Yield every minimal support in canonical order."""
        delta, alpha, engine, max_models = self.delta, self.alpha, self.engine, self.max_models
        order = _mask_order(delta, alpha, max_models)
        if order is not None:
            *rows, claim = _int_rows((*delta, alpha), order)
            full = (1 << (1 << len(order))) - 1
            outside = full ^ claim

            def qualifies(subset):
                models = functools.reduce(operator.and_, [rows[i] for i in subset], full)
                return models != 0 and not models & outside

        else:

            def qualifies(subset):
                chosen = [delta[i] for i in subset]
                return is_consistent(
                    chosen, engine=engine, max_models=max_models
                ) and entails(chosen, alpha, engine=engine, max_models=max_models)

        found: list[int] = []
        for size in range(len(delta) + 1):
            for subset in itertools.combinations(range(len(delta)), size):
                bits = sum(1 << i for i in subset)
                if any(s & ~bits == 0 for s in found):
                    continue
                if qualifies(subset):
                    found.append(bits)
                    yield Support(subset)

    def exists(self) -> bool:
        return self.first_support() is not None

    def first_support(self) -> Support | None:
        return next(self.supports(), None)

    def minimal_supports(self) -> list[Support]:
        return list(self.supports())

    def relevant(self, idx: int) -> bool:
        return any(idx in s for s in self.supports())


def _monotone_clauses(alpha: GammaFormula) -> list[frozenset[str]]:
    """The clauses of a claim over upward- or downward-closed relations as
    variable sets, deduplicated keep-first. Every clause of such a claim
    is positive, or every one negative, so its variables name it."""
    clauses = {
        frozenset(c.args[j] for j, _ in clause): None
        for c in alpha.constraints
        for clause in _literal_template(c.relation)
    }
    return list(clauses)


class _Covers:
    """A monotone instance, every relation upward-closed (upward) or every
    one downward-closed, compiled into clause covers: the route of
    existence, one support, verification and relevance under auto.

    The claim is the conjunction of its prime-implicate clauses C_k
    (`_monotone_clauses`), all positive or all negative, and the base is
    consistent, as every relation holds at all-ones (all-zeros). Take
    value = upward, and C_k's point: its variables at not-value, every
    other variable at value. A conjunction of closed constraints entails
    C_k iff one of them is false at that point: the point lies above
    (below) every assignment that falsifies C_k, so it is a model if any
    of those is. So a formula's cover, the bitmask of the clauses it
    alone entails, takes one point evaluation per constraint and clause
    that share a variable, and a set of formulas entails the claim iff
    its covers OR to `full`. A constraint off the claim's variables
    shares none and is skipped.

    None of these queries compiles a fragment or enumerates assignments,
    and max_models and max_kb do not bind.
    """

    def __init__(self, delta: Sequence[GammaFormula], alpha: GammaFormula, upward: bool):
        clauses = _monotone_clauses(alpha)
        self.full = (1 << len(clauses)) - 1
        # The clauses each variable lies in, as a bitmask.
        holding: dict[str, int] = {}
        for k, clause in enumerate(clauses):
            for v in clause:
                holding[v] = holding.get(v, 0) | 1 << k
        off_claim = holding.keys().isdisjoint
        covers = []
        for f in delta:
            cover = 0
            for c in f.constraints:
                args = c.args
                if off_claim(args):
                    continue
                arity, tuples = len(args), c.relation.tuples
                held = [holding.get(a, 0) for a in args]
                left = functools.reduce(operator.or_, held) & ~cover
                # The point at value everywhere, first coordinate the MSB.
                base = (1 << arity) - 1 if upward else 0
                while left:
                    low = left & -left
                    left ^= low
                    point = base
                    for j, h in enumerate(held):
                        if h & low:
                            point ^= 1 << (arity - 1 - j)
                    if point not in tuples:
                        cover |= low
            covers.append(cover)
        self.covers = covers

    @_lazy
    def after(self) -> list[int]:
        """Entry i is the OR of the covers from formula i on; entry n is 0."""
        return list(itertools.accumulate(reversed(self.covers), operator.or_, initial=0))[::-1]

    def exists(self) -> bool:
        """The base is consistent, so a support exists iff it entails the claim."""
        return self.after[0] == self.full

    def first_support(self) -> Support | None:
        """Shrink the base, ascending, while the formulas left entail the
        claim: formula i goes when those kept before it and every one
        after it cover every clause."""
        if not self.exists():
            return None
        kept, before = [], 0
        for i, cover in enumerate(self.covers):
            if before | self.after[i + 1] != self.full:
                kept.append(i)
                before |= cover
        return Support(tuple(kept))

    def argument(self) -> bool:
        """argcheck on distinct formulas: they entail the claim, and none
        can go, as each covers a clause that the others do not."""
        if not self.exists():
            return False
        before = 0
        for i, cover in enumerate(self.covers):
            if before | self.after[i + 1] == self.full:
                return False
            before |= cover
        return True

    def relevant(self, idx: int) -> bool:
        """Does some minimal support contain delta[idx]. For each clause
        C_i, the candidate base keeps delta[idx] and every formula that
        does not cover C_i; delta[idx] is relevant iff one candidate still
        covers every clause. Only the clauses delta[idx] covers are tried,
        as no other member of C_i's candidate covers C_i."""
        covers = self.covers
        for i in _members(covers[idx]):
            held = covers[idx]
            for j, cover in enumerate(covers):
                if j != idx and not cover >> i & 1:
                    held |= cover
            if held == self.full:
                return True
        return False


def _corrections(engine, n: int) -> Iterator[int | None]:
    """The minimal correction sets H of n formulas compiled one block each
    into engine: the sets whose complements ~H are the MCSes. They come
    level by level, fewest formulas first, and each level by descending
    H, so the MCSes come in canonical order (`_canonical`).

    This is Reiter's hitting-set tree (AIJ 1987), searched breadth first:
    a node H whose formulas left are inconsistent branches on the blocks
    of their conflict, to the children H | b. Equal children are merged,
    and a child that holds a correction set found on an earlier level is
    pruned. Each consistent node is then a minimal correction set, and
    each minimal one H* is reached: every node inside it is inconsistent
    and unpruned, and its conflict meets H* outside the node. A conflict
    found before that misses a node refutes it with no engine call. A
    consistent base is the root, with the one correction set 0.

    A None ends the list, and the caller hands over to the next route,
    when a level would bring the nodes below the root past n, inside the
    mask limit and past it alike.
    """
    core = engine.conflict()
    if core is None:
        yield 0
        return
    found: list[int] = []
    conflicts = [core]
    level = {0: core}
    budget = n
    while level:
        children = {h | 1 << b for h, k in level.items() for b in _blocks(k)}
        # Ascending, so that the last state an engine keeps is that of the
        # largest H, whose MCS is tried first.
        fresh = sorted(h for h in children if not any(f & ~h == 0 for f in found))
        budget -= len(fresh)
        if budget < 0:
            yield None
            return
        level = {}
        consistent = []
        for h in fresh:
            core = next((k for k in conflicts if not k & h), None)
            if core is None:
                core = engine.conflict(h)
                if core is not None:
                    conflicts.append(core)
            if core is None:
                consistent.append(h)
            else:
                level[h] = core
        consistent.reverse()
        found += consistent
        yield from consistent


class _Whole:
    """Existence and one support from the base's MCSes: a support exists
    iff some MCS entails alpha, and shrinking the first that does, in
    canonical order, gives the one support `_KB` gives.

    `premises` is the base's fragment compile with alpha, when delta and
    alpha lie in one tractable fragment: its engine finds the MCSes
    (`_corrections`) and decides entailment within each. When that search
    spends its n nodes and hands over, the next route answers instead:
    `_KB` inside the mask limit, `_Search` past it. premises is None for a
    base in no fragment that is_consistent found consistent past the mask
    limit, its own one MCS, where entails calls decide. Only existence and
    one support reach this route.

    premises, for the fragment `_route` read off the query's language, and
    the joint variable order are each made once, when first read, and
    `_route` reads them here to pick the route.
    """

    def __init__(self, delta, alpha, max_models: int, max_kb: int, fragment: str):
        self.delta, self.alpha = delta, alpha
        self.max_models, self.max_kb = max_models, max_kb
        self.fragment = fragment

    @_lazy
    def premises(self) -> _Premises | None:
        return _fragment_premises(self.delta, self.alpha, self.fragment)

    @_lazy
    def order(self) -> tuple[str, ...] | None:
        return _mask_order(self.delta, self.alpha, self.max_models)

    def _next(self):
        if self.order is not None:
            return _KB(self.delta, self.alpha, self.order)
        return _Search(self.delta, self.alpha, "auto", self.max_models, self.max_kb)

    def exists(self) -> bool:
        if self.premises is None:
            return entails(self.delta, self.alpha, max_models=self.max_models)
        for h in _corrections(self.premises.engine, len(self.delta)):
            if h is None:
                return self._next().exists()
            if _entailed(self.premises, h):
                return True
        return False

    def first_support(self) -> Support | None:
        if self.premises is None:
            return _shrink_consistent(self.delta, self.alpha, self.max_models)
        for h in _corrections(self.premises.engine, len(self.delta)):
            if h is None:
                return self._next().first_support()
            support = _shrink_compiled(self.premises, len(self.delta), h)
            if support is not None:
                return support
        return None


def _route(delta, alpha, engine: str, max_models: int, max_kb: int):
    """The first route, in the order the module docstring gives, that
    answers existence and one support. These meet max_kb only on the
    subset search. The query's language report is read once, for the
    monotone test and the fragment."""
    if engine == "generic":
        return _Search(delta, alpha, engine, max_models, max_kb)
    report = _language(delta, alpha)
    if report.positive or report.negative:
        return _Covers(delta, alpha, report.positive)
    route = _Whole(delta, alpha, max_models, max_kb, _fragment(report))
    # An eps-valid base is consistent, and its fragment compile answers
    # at any size. len(delta) is tested next, so a larger base makes its
    # order only when its fragment compile or the next route needs it.
    small = (
        not report.eps_valid
        and len(delta) <= 16
        and route.order is not None
        and len(route.order) <= _SMALL_VARS
    )
    if not small and route.premises is not None:
        return route
    if route.order is not None:
        return _KB(delta, alpha, route.order)
    if is_consistent(delta, engine=engine, max_models=max_models):
        return route
    return _Search(delta, alpha, engine, max_models, max_kb)


def _all_route(delta, alpha, engine: str, max_models: int, max_kb: int):
    """The route of all supports and relevance: the subset search is set
    up first, so that they meet max_kb before the signature base is
    built, and the signature base answers under auto when it fits."""
    search = _Search(delta, alpha, engine, max_models, max_kb)
    order = None if engine == "generic" else _mask_order(delta, alpha, max_models)
    return search if order is None else _KB(delta, alpha, order)


def arg_exists(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
    max_kb: int = DEFAULT_MAX_KB,
) -> bool:
    """Decide whether some consistent subset of delta entails alpha.

    A support exists iff some MCS of delta entails alpha; a consistent
    base is its own one MCS. A monotone instance is consistent, and under
    the auto engine its clause covers (`_Covers`) decide.

    Raises:
        BudgetExceededError: the instance exceeds the model budget, or
            the subset search exceeds max_kb.
    """
    _check_engine(engine)
    return _route(list(delta), alpha, engine, max_models, max_kb).exists()


def find_minimal_support(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
    max_kb: int = DEFAULT_MAX_KB,
) -> Support | None:
    """Return one minimal support for alpha, or None when none exists.

    The result is deterministic per engine. The auto engine takes the
    whole base when it is consistent, and otherwise the first entailing
    MCS in canonical MCS order (most formulas first, ties broken by the
    ascending bitmask of their indices), and removes indices in ascending
    order whenever entailment survives. A monotone instance is consistent,
    and there clause covers (`_Covers`) decide each removal, with no
    compile. On the subset search (under the generic engine, and past the
    mask limit for a base outside every fragment or one whose MCS search
    hands over) it is the first support in canonical subset order. The returned support always passes
    argcheck.

    Raises:
        BudgetExceededError: the instance exceeds the model budget, or
            the subset search exceeds max_kb.
    """
    _check_engine(engine)
    return _route(list(delta), alpha, engine, max_models, max_kb).first_support()


def _shrink_consistent(
    delta: list[GammaFormula], alpha: GammaFormula, max_models: int
) -> Support | None:
    """Shrink a consistent base that entails alpha, ascending, while it
    entails; each step is one entails call on the formulas left."""
    if not entails(delta, alpha, max_models=max_models):
        return None
    dropped: set[int] = set()
    for idx in range(len(delta)):
        rest = [f for i, f in enumerate(delta) if i not in dropped and i != idx]
        if entails(rest, alpha, max_models=max_models):
            dropped.add(idx)
    return Support(tuple(i for i in range(len(delta)) if i not in dropped))


def _shrink_compiled(premises: _Premises, n: int, dropped: int) -> Support | None:
    """_shrink_consistent on the consistent formulas outside `dropped` of
    n formulas compiled one block each with alpha, from their one engine.

    Each refutation of alpha keeps a core inside the formulas left. An
    index in no core is dropped with no check, as every refutation goes
    on without it (clause-set refinement, Marques-Silva and Lynce, SAT
    2011). Otherwise only the refutations whose core holds the index are
    tried with it masked out too, and their cores are renewed when it
    goes. The support is the one the plain ascending loop keeps.
    """
    engine, claim = premises.engine, premises.claim
    cores = [engine.core(lits, dropped) for lits in claim]
    if None in cores:
        return None
    for idx in range(n):
        trial = dropped | 1 << idx
        renewed = {}
        for k, core in enumerate(cores):
            if core >> idx & 1:
                renewed[k] = engine.core(claim[k], trial)
                if renewed[k] is None:
                    break
        else:
            dropped = trial
            for k, core in renewed.items():
                cores[k] = core
    return Support(tuple(i for i in range(n) if not dropped >> i & 1))


def enumerate_minimal_supports(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
    max_kb: int = DEFAULT_MAX_KB,
) -> list[Support]:
    """List every minimal support in canonical order.

    Canonical order is by cardinality, then lexicographic.

    Raises:
        BudgetExceededError: when len(delta) exceeds max_kb.
    """
    _check_engine(engine)
    return _all_route(list(delta), alpha, engine, max_models, max_kb).minimal_supports()


def _psi_index(delta: Sequence[GammaFormula], psi: int | GammaFormula) -> int:
    """psi's index: any integral value (operator.index) but a bool, or the
    first occurrence of a formula."""
    if isinstance(psi, (bool, np.bool_)):
        raise ValueError(f"a bool ({psi}) is not an index into the knowledge base")
    try:
        idx = operator.index(psi)
    except TypeError:
        for i, f in enumerate(delta):
            if f == psi:
                return i
        raise ValueError("the queried formula is not in the knowledge base") from None
    if not 0 <= idx < len(delta):
        raise ValueError(f"index {idx} out of range for a base of {len(delta)}")
    return idx


def _argrel_closed(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    psi: int | GammaFormula,
    upward: bool,
    engine: str,
) -> bool:
    """Relevance by clause covers (`_Covers`), after checking the engine
    and that every relation of the instance is upward-closed (upward) or
    every one downward-closed."""
    _check_engine(engine)
    delta = list(delta)
    report = _language(delta, alpha)
    if not (report.positive if upward else report.negative):
        direction = "upward" if upward else "downward"
        raise PreconditionError(f"instance relations are not all {direction}-closed")
    return _Covers(delta, alpha, upward).relevant(_psi_index(delta, psi))


def argrel_positive(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    psi: int | GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Relevance over an upward-closed language by clause decomposition.

    The claim is split into its positive clauses C_i; for each, the
    candidate base keeps psi plus every formula not entailing C_i, and
    psi is relevant iff one candidate still entails the whole claim.
    Sound because entailment of a positive clause by a conjunction of
    upward-closed formulas requires a single conjunct to entail it; by
    the same fact a candidate entails the claim iff each C_k is entailed
    by one of its formulas. Every test is one point evaluation of one
    constraint (`_Covers`), under either engine, so no assignment space
    is enumerated and max_models does not bind.

    Raises:
        PreconditionError: some relation in the instance is not
            upward-closed.
        ValueError: an unknown engine.
    """
    return _argrel_closed(delta, alpha, psi, True, engine)


def argrel_negative(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    psi: int | GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Dual of argrel_positive for downward-closed languages; max_models
    does not bind here either."""
    return _argrel_closed(delta, alpha, psi, False, engine)


def argrel(
    delta: Sequence[GammaFormula],
    alpha: GammaFormula,
    psi: int | GammaFormula,
    *,
    engine: str = "auto",
    max_models: int = DEFAULT_MAX_MODELS,
    max_kb: int = DEFAULT_MAX_KB,
) -> bool:
    """Decide whether psi belongs to some minimal support for alpha.

    psi may be given as an index into delta or as a formula (its first
    occurrence is used). Under the auto engine a monotone (upward- or
    downward-closed) instance is decided by clause covers (`_Covers`), as
    in argrel_positive and argrel_negative, the route of existence, one
    support and verification there too, and max_kb does not bind there.

    Raises:
        BudgetExceededError: when len(delta) exceeds max_kb outside the
            monotone case.
    """
    _check_engine(engine)
    delta = list(delta)
    idx = _psi_index(delta, psi)
    if engine != "generic":
        report = _language(delta, alpha)
        if report.positive or report.negative:
            logger.debug("argrel: clause covers (upward=%s)", report.positive)
            return _Covers(delta, alpha, report.positive).relevant(idx)
    return _all_route(delta, alpha, engine, max_models, max_kb).relevant(idx)


def classify_complexity(language: ConstraintLanguage) -> ComplexityReport:
    """Predict the complexity class of each decision problem.

    Existence is polynomial for Schaefer and eps-valid languages,
    NP-complete for Schaefer ones lacking a valid constant, coNP-complete
    for eps-valid non-Schaefer ones, and SigmaP2-complete otherwise.
    Verification is polynomial exactly on Schaefer languages and
    DP-complete elsewhere. Relevance is polynomial on monotone
    (upward- or downward-closed) languages, NP-complete on other
    Schaefer languages, and SigmaP2-complete beyond Schaefer.
    """
    props = language_properties(language)
    if props.schaefer:
        arg = "P" if props.eps_valid else "NP-complete"
    else:
        arg = "coNP-complete" if props.eps_valid else "SigmaP2-complete"
    check = "P" if props.schaefer else "DP-complete"
    if props.positive or props.negative:
        rel = "P"
    elif props.schaefer:
        rel = "NP-complete"
    else:
        rel = "SigmaP2-complete"
    return ComplexityReport(arg=arg, argcheck=check, argrel=rel)
