"""Constructive expressibility gadgets with mandatory verification.

Given a constraint language whose combined properties meet a target's
precondition, these builders produce a formula over the language whose
free-variable projection is extensionally a fixed reference relation:
disequality, implication, and-not, the two constants, equality, equality
conjoined with a forced constant, and existentially defined equality.

Multi-relation languages are handled by condensation: the relations are
combined into one internal product relation (coordinates grouped per
factor in name order), witnesses are scanned on the product, and the
output constraints are the per-factor argument slices, so the product
itself never appears in results. Every construction is verified
extensionally before being returned and fails loudly on mismatch.
"""

from __future__ import annotations

import enum
import itertools
import logging
from typing import Callable, Mapping

import numpy as np

from .errors import BudgetExceededError, ConstructionError, PreconditionError
from .formulas import (
    Constraint,
    DEFAULT_MAX_MODELS,
    GammaFormula,
    QuantifiedFormula,
    _model_order,
    models_mask,
)
from .relations import (
    MAX_ARITY,
    ConstraintLanguage,
    PropertyReport,
    Relation,
    language_properties,
)

__all__ = [
    "GadgetTarget",
    "TARGET_RELATIONS",
    "precondition_met",
    "express",
    "verify_expresses",
    "drop_quantifiers",
]

logger = logging.getLogger(__name__)


class GadgetTarget(enum.Enum):
    NEQ = "neq"
    IMPL = "impl"
    AND_NOT = "and_not"
    T_CONST = "t_const"
    F_CONST = "f_const"
    EQ = "eq"
    EQ_AND_T = "eq_and_t"
    EQ_AND_F = "eq_and_f"
    EQ_EXISTS = "eq_exists"


TARGET_RELATIONS: Mapping[GadgetTarget, Relation] = {
    GadgetTarget.NEQ: Relation("NEQ", 2, frozenset({0b01, 0b10})),
    GadgetTarget.IMPL: Relation("IMPL", 2, frozenset({0b00, 0b01, 0b11})),
    GadgetTarget.AND_NOT: Relation("AND_NOT", 2, frozenset({0b10})),
    GadgetTarget.T_CONST: Relation("T", 1, frozenset({0b1})),
    GadgetTarget.F_CONST: Relation("F", 1, frozenset({0b0})),
    GadgetTarget.EQ: Relation("EQ", 2, frozenset({0b00, 0b11})),
    GadgetTarget.EQ_AND_T: Relation("EQ_AND_T", 3, frozenset({0b001, 0b111})),
    GadgetTarget.EQ_AND_F: Relation("EQ_AND_F", 3, frozenset({0b000, 0b110})),
    GadgetTarget.EQ_EXISTS: Relation("EQ", 2, frozenset({0b00, 0b11})),
}

_PRECONDITIONS: Mapping[GadgetTarget, Callable[[PropertyReport], bool]] = {
    GadgetTarget.NEQ: lambda p: p.complementive and not p.zero_valid and not p.one_valid,
    GadgetTarget.IMPL: lambda p: not p.complementive and p.zero_valid and p.one_valid,
    GadgetTarget.AND_NOT: lambda p: not p.complementive
    and not p.zero_valid
    and not p.one_valid,
    GadgetTarget.T_CONST: lambda p: p.one_valid and not p.zero_valid,
    GadgetTarget.F_CONST: lambda p: p.zero_valid and not p.one_valid,
    GadgetTarget.EQ: lambda p: p.zero_valid and p.one_valid,
    GadgetTarget.EQ_AND_T: lambda p: p.one_valid and not p.zero_valid and not p.positive,
    GadgetTarget.EQ_AND_F: lambda p: p.zero_valid
    and not p.one_valid
    and not p.negative,
    GadgetTarget.EQ_EXISTS: lambda p: not p.schaefer,
}


def precondition_met(target: GadgetTarget, language: ConstraintLanguage) -> bool:
    """Check a target's language precondition without building anything."""
    return _PRECONDITIONS[target](language_properties(language))


# ---------------------------------------------------------------------------
# Condensation: one internal product relation plus per-factor emission.
# Global coordinates are 0-based; coordinate c occupies bit K-1-c.
# ---------------------------------------------------------------------------


class _Condensed:
    def __init__(self, language: ConstraintLanguage):
        self.factors = language.relations
        self.offsets = []
        total = 0
        for r in self.factors:
            self.offsets.append(total)
            total += r.arity
        if total > MAX_ARITY:
            raise BudgetExceededError(
                f"condensed arity {total} exceeds the limit {MAX_ARITY}"
            )
        self.arity = total
        self.full = (1 << total) - 1
        tuples = set()
        parts = [sorted(r.tuples) for r in self.factors]
        for combo in itertools.product(*parts):
            mask = 0
            for r, off, t in zip(self.factors, self.offsets, combo):
                mask |= t << (total - off - r.arity)
            tuples.add(mask)
        self.tuples = sorted(tuples)
        self.members = frozenset(tuples)

    def bit(self, t: int, coord: int) -> int:
        return (t >> (self.arity - 1 - coord)) & 1

    def emit(self, var_of: Mapping[int, str]) -> list[Constraint]:
        """One constraint per factor, arguments named by global coordinate."""
        out = []
        for r, off in zip(self.factors, self.offsets):
            args = tuple(var_of[off + j] for j in range(r.arity))
            out.append(Constraint(r, args))
        return out

    def sections(self, *witnesses: int) -> dict[tuple[int, ...], list[int]]:
        """Group coordinates by their bit pattern across the witness tuples."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for c in range(self.arity):
            key = tuple(self.bit(w, c) for w in witnesses)
            groups.setdefault(key, []).append(c)
        return groups

    def var_map(self, assignment: Mapping[tuple[int, ...], str], *witnesses: int) -> dict[int, str]:
        """Map every coordinate to the variable its section is assigned."""
        out: dict[int, str] = {}
        for key, coords in self.sections(*witnesses).items():
            name = assignment[key]
            for c in coords:
                out[c] = name
        return out


def _first_member(cond: _Condensed) -> int:
    return cond.tuples[0]


def _first_non_member(cond: _Condensed) -> int:
    for m in range(1 << cond.arity):
        if m not in cond.members:
            return m
    raise ConstructionError("product relation has no non-member")


def _first_uncomplemented(cond: _Condensed) -> int:
    for m in cond.tuples:
        if (~m & cond.full) not in cond.members:
            return m
    raise ConstructionError("every product tuple has its complement")


def _first_pair_violating(cond: _Condensed, op: Callable[[int, int], int]) -> tuple[int, int]:
    for m1 in cond.tuples:
        for m2 in cond.tuples:
            if (op(m1, m2) & cond.full) not in cond.members:
                return m1, m2
    raise ConstructionError("no closure-violating pair found")


# ---------------------------------------------------------------------------
# Builders. Section keys are bit patterns across the scanned witnesses,
# e.g. with one witness m the key (0,) collects the coordinates where m
# is 0. Output variables are named so their sorted order matches the
# reference relation's coordinates.
# ---------------------------------------------------------------------------


def _build_neq(cond: _Condensed) -> GammaFormula:
    m = _first_member(cond)
    var_of = cond.var_map({(0,): "x", (1,): "y"}, m)
    return GammaFormula(tuple(cond.emit(var_of)))


def _build_impl(cond: _Condensed) -> GammaFormula:
    m = _first_uncomplemented(cond)
    var_of = cond.var_map({(0,): "x", (1,): "y"}, m)
    return GammaFormula(tuple(cond.emit(var_of)))


def _build_and_not(cond: _Condensed) -> GammaFormula:
    m = _first_uncomplemented(cond)
    var_of = cond.var_map({(1,): "x", (0,): "y"}, m)
    return GammaFormula(tuple(cond.emit(var_of)))


def _constant_constraints(cond: _Condensed, name: str) -> list[Constraint]:
    return cond.emit({c: name for c in range(cond.arity)})


def _build_t_const(cond: _Condensed) -> GammaFormula:
    return GammaFormula(tuple(_constant_constraints(cond, "x")))


def _build_eq(cond: _Condensed) -> GammaFormula:
    m = _first_non_member(cond)
    forward = cond.var_map({(0,): "x", (1,): "y"}, m)
    backward = cond.var_map({(0,): "y", (1,): "x"}, m)
    return GammaFormula(tuple(cond.emit(forward) + cond.emit(backward)))


def _build_eq_and_t(cond: _Condensed, impl_closed: bool) -> GammaFormula:
    if impl_closed:
        anchor = None
        for p in range(cond.arity):
            cls = [
                q
                for q in range(cond.arity)
                if all(cond.bit(t, q) == cond.bit(t, p) for t in cond.tuples)
            ]
            if len(cls) >= 2 and any(cond.bit(t, p) == 0 for t in cond.tuples):
                anchor, group = p, cls
                break
        if anchor is None:
            raise ConstructionError("no forced-equality anchor position found")
        var_of = {}
        for c in range(cond.arity):
            if c == anchor:
                var_of[c] = "x"
            elif c in group:
                var_of[c] = "y"
            else:
                var_of[c] = "z"
        constraints = cond.emit(var_of)
    else:
        m1, m2 = _first_pair_violating(cond, lambda a, b: (~a | b) & cond.full)
        scheme1 = {(0, 0): "x", (1, 0): "y", (0, 1): "z", (1, 1): "z"}
        scheme2 = {(0, 0): "y", (1, 0): "x", (0, 1): "z", (1, 1): "z"}
        constraints = cond.emit(cond.var_map(scheme1, m1, m2))
        constraints += cond.emit(cond.var_map(scheme2, m1, m2))
    constraints += _constant_constraints(cond, "z")
    return GammaFormula(tuple(constraints))


def _dualized(language: ConstraintLanguage) -> ConstraintLanguage:
    flipped = []
    for r in language:
        full = (1 << r.arity) - 1
        flipped.append(Relation(r.name, r.arity, frozenset(~t & full for t in r.tuples)))
    return ConstraintLanguage(tuple(flipped))


def _build_eq_and_f(language: ConstraintLanguage) -> GammaFormula:
    """Run the forced-true construction on the bit-flipped language.

    Satisfying assignments complement coordinate-wise when every relation
    is replaced by its bit-flip, so a formula whose flipped-language
    models are (x=y) and z has (x=y) and not-z as its original models.
    """
    dual = _dualized(language)
    cond = _Condensed(dual)
    formula = _build_eq_and_t(cond, language_properties(dual).in_is0)
    originals = {r.name: r for r in language}
    constraints = tuple(
        Constraint(originals[c.relation.name], c.args) for c in formula.constraints
    )
    return GammaFormula(constraints)


def _neq_indirect(cond: _Condensed, xv: str, yv: str, tv: str, fv: str) -> list[Constraint]:
    """Disequality of xv and yv given tv true and fv false, without symmetry.

    Uses a conjunction-violating pair, a disjunction-violating pair, and
    the and-not gadget: the first factor formula rules out both variables
    false, the second both true, and the gadget forces tv and fv.
    """
    a1, a2 = _first_pair_violating(cond, lambda a, b: a & b)
    d1, d2 = _first_pair_violating(cond, lambda a, b: a | b)
    scheme = {(0, 0): fv, (0, 1): xv, (1, 0): yv, (1, 1): tv}
    constraints = cond.emit(cond.var_map(scheme, a1, a2))
    constraints += cond.emit(cond.var_map(scheme, d1, d2))
    an = _first_uncomplemented(cond)
    constraints += cond.emit(cond.var_map({(1,): tv, (0,): fv}, an))
    return constraints


def _build_eq_exists(
    language: ConstraintLanguage, cond: _Condensed, props: PropertyReport
) -> QuantifiedFormula:
    if props.zero_valid and props.one_valid:
        return QuantifiedFormula(frozenset(), _build_eq(cond))
    if props.one_valid:
        body = _build_eq_and_t(cond, props.in_is0)
        return QuantifiedFormula(frozenset({"z"}), body)
    if props.zero_valid:
        body = _build_eq_and_f(language)
        return QuantifiedFormula(frozenset({"z"}), body)
    if props.complementive:
        m = _first_member(cond)
        first = cond.var_map({(0,): "x", (1,): "z"}, m)
        second = cond.var_map({(0,): "z", (1,): "y"}, m)
        body = GammaFormula(tuple(cond.emit(first) + cond.emit(second)))
        return QuantifiedFormula(frozenset({"z"}), body)
    chain = _neq_indirect(cond, "x", "z", "t1", "f1")
    chain += _neq_indirect(cond, "z", "y", "t2", "f2")
    bound = frozenset({"z", "t1", "f1", "t2", "f2"})
    return QuantifiedFormula(bound, GammaFormula(tuple(chain)))


def verify_expresses(
    formula: GammaFormula | QuantifiedFormula,
    target: Relation,
    *,
    max_models: int = DEFAULT_MAX_MODELS,
) -> bool:
    """Check that the free-variable projection equals the target exactly.

    Free variables are taken in sorted order as the target's coordinates;
    an assignment to them belongs to the projection when it extends to a
    model of the body. Set equality is required, not containment.

    Raises:
        BudgetExceededError: the body's assignment space exceeds the
            model budget.
    """
    if isinstance(formula, QuantifiedFormula):
        body = formula.body
        free = sorted(formula.free_variables)
    else:
        body = formula
        free = sorted(formula.variables)
    if len(free) != target.arity:
        return False
    order = _model_order(body.variables, max_models)
    n = len(order)
    mask = models_mask(body.constraints, order)
    models = np.flatnonzero(mask).astype(np.int64)
    position = {v: i for i, v in enumerate(order)}
    k = target.arity
    projected = np.zeros(models.shape[0], dtype=np.int64)
    for j, v in enumerate(free):
        bit = (models >> (n - 1 - position[v])) & 1
        projected |= bit << (k - 1 - j)
    return set(int(p) for p in np.unique(projected)) == set(target.tuples)


def express(
    target: GadgetTarget | str,
    language: ConstraintLanguage,
    *,
    max_models: int = DEFAULT_MAX_MODELS,
) -> GammaFormula | QuantifiedFormula:
    """Build a formula over the language expressing the target relation.

    Args:
        target: a GadgetTarget or its string value, e.g. "neq".
        language: the source constraint language.
        max_models: budget for the final extensional verification.

    Returns:
        A plain formula, or a quantified one for the existential
        equality target. Free variables are named x, y, z as the target
        arity requires.

    Raises:
        PreconditionError: the language does not meet the target's
            property precondition.
        ConstructionError: the built formula fails verification; this
            indicates an internal error and never a bad input.
        BudgetExceededError: the condensed language is too wide.
    """
    if isinstance(target, str):
        target = GadgetTarget(target)
    props = language_properties(language)
    if not _PRECONDITIONS[target](props):
        raise PreconditionError(
            f"language does not meet the precondition of {target.value}"
        )
    cond = _Condensed(language)
    logger.debug("express %s over %s", target.value, language.names)
    if target is GadgetTarget.NEQ:
        formula: GammaFormula | QuantifiedFormula = _build_neq(cond)
    elif target is GadgetTarget.IMPL:
        formula = _build_impl(cond)
    elif target is GadgetTarget.AND_NOT:
        formula = _build_and_not(cond)
    elif target in (GadgetTarget.T_CONST, GadgetTarget.F_CONST):
        formula = _build_t_const(cond)
    elif target is GadgetTarget.EQ:
        formula = _build_eq(cond)
    elif target is GadgetTarget.EQ_AND_T:
        formula = _build_eq_and_t(cond, props.in_is0)
    elif target is GadgetTarget.EQ_AND_F:
        formula = _build_eq_and_f(language)
    else:
        formula = _build_eq_exists(language, cond, props)
    if not verify_expresses(formula, TARGET_RELATIONS[target], max_models=max_models):
        raise ConstructionError(
            f"construction for {target.value} failed extensional verification"
        )
    return formula


def drop_quantifiers(formula: QuantifiedFormula | GammaFormula) -> GammaFormula:
    """Strip existential quantifiers, making bound variables free.

    Raises:
        PreconditionError: the body uses the built-in equality relation,
            which has no quantifier-free counterpart over the language.
    """
    body = formula.body if isinstance(formula, QuantifiedFormula) else formula
    for c in body.constraints:
        if c.relation.name == "=":
            raise PreconditionError("body contains built-in equality constraints")
    return body
