"""Tests for argument existence, verification, relevance, and classification."""

import dataclasses
import functools
import itertools
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from argcl import (
    DEFAULT_MAX_KB,
    DEFAULT_MAX_MODELS,
    BudgetExceededError,
    ComplexityReport,
    Constraint,
    ConstraintLanguage,
    GammaFormula,
    PreconditionError,
    Relation,
    Support,
    arg_exists,
    argcheck,
    argrel,
    argrel_negative,
    argrel_positive,
    classify_complexity,
    entails,
    enumerate_minimal_supports,
    find_minimal_support,
    is_consistent,
    relation_properties,
)

from argcl import argumentation, formulas, kernels, logic
from argcl.argumentation import _KB, _mask_order, _maximal, _members
from argcl.formulas import models_mask, satisfies, variables_of
from argcl.reductions import BRIDGE7
from conftest import (
    AND_NOT,
    EQ2,
    IMPL,
    NAE3,
    NEQ,
    ONE_IN_THREE,
    OR2,
    RPRIME,
    T,
    F,
    _dedup,
    naive_arg_exists,
    naive_argcheck,
    naive_argrel,
    naive_min_supports,
    random_formula,
    random_instance,
)


def gamma(*constraints):
    return GammaFormula(tuple(constraints))


def or2(a, b):
    return gamma(Constraint(OR2, (a, b)))


def fragment_premises(delta, alpha):
    """The base's fragment compile with alpha, as `_route` makes it."""
    fragment = logic._fragment(argumentation._language(delta, alpha))
    return argumentation._fragment_premises(delta, alpha, fragment)


class TestSupport:
    def test_indices_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            Support((2, 1))
        with pytest.raises(ValueError, match="ascending"):
            Support((1, 1))

    def test_formulas_projection(self):
        delta = [or2("a", "b"), or2("b", "c"), or2("c", "d")]
        assert Support((0, 2)).formulas(delta) == (delta[0], delta[2])

    def test_iteration(self):
        assert tuple(Support((0, 3))) == (0, 3)

    def test_slotted_frozen_value(self):
        # A slotted Support has no per-instance dict, so a run that keeps
        # every support it returned holds about half the bytes.
        support = Support(range(1, 4))
        assert support.indices == (1, 2, 3)
        assert not hasattr(support, "__dict__")
        copy = pickle.loads(pickle.dumps(support))
        assert copy == support == Support((1, 2, 3)) != Support((1, 2))
        assert hash(copy) == hash(support)
        assert len({copy, support, Support((1, 2))}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            support.indices = (0,)


class TestComplexityReport:
    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown complexity class"):
            ComplexityReport(arg="P", argcheck="P", argrel="PSPACE-complete")


class TestArgExists:
    def test_direct_entailment(self):
        delta = [or2("a", "b")]
        assert arg_exists(delta, or2("b", "a"))

    def test_subset_rescues_inconsistent_base(self):
        # The base as a whole is contradictory, yet the OR2 formula alone
        # supports the claim.
        delta = [
            gamma(Constraint(T, ("x",)), Constraint(F, ("x",))),
            or2("a", "b"),
        ]
        alpha = or2("b", "a")
        assert arg_exists(delta, alpha)
        assert arg_exists(delta, alpha, engine="generic")

    def test_no_support(self):
        # T(a) says nothing about b or c, so no subset reaches the claim.
        delta = [gamma(Constraint(T, ("a",)))]
        assert not arg_exists(delta, or2("b", "c"))

    def test_empty_base(self):
        assert not arg_exists([], or2("a", "b"))
        assert arg_exists([], gamma(Constraint(EQ2, ("x", "x"))))

    def test_matches_naive_random(self):
        rng = random.Random(5150)
        for _ in range(150):
            language, delta, alpha = random_instance(rng, max_kb=5, max_vars=5)
            want = naive_arg_exists(delta, alpha)
            assert arg_exists(delta, alpha) == want
            assert arg_exists(delta, alpha, engine="generic") == want

    def test_subset_budget(self):
        delta = [or2("a", f"b{i}") for i in range(21)]
        alpha = or2("z", "w")
        with pytest.raises(BudgetExceededError):
            arg_exists(delta, alpha, engine="generic")

    def test_budget_override(self):
        delta = [or2("a", "b"), or2("b", "c"), or2("c", "d")]
        with pytest.raises(BudgetExceededError):
            arg_exists(delta, or2("a", "d"), engine="generic", max_kb=2)

    def test_shortcut_path_ignores_subset_budget(self):
        # A 1-valid base is consistent outright, so existence reduces to
        # entailment and no subset search happens.
        delta = [gamma(Constraint(T, (f"x{i}",))) for i in range(30)]
        assert arg_exists(delta, gamma(Constraint(T, ("x0",))))
        assert not arg_exists(delta, gamma(Constraint(T, ("y",))))


# Wider than formulas._CNF_ARITY, in no fragment, and holding both constant
# tuples, so that WIDE6 on one repeated variable is valid.
WIDE6 = Relation("WIDE6", 6, frozenset(t for t in range(64) if t.bit_count() in (0, 1, 5, 6)))
ARGCHECK_RELATIONS = (NAE3, ONE_IN_THREE, WIDE6, IMPL, OR2, NEQ, T, F)


@st.composite
def nonfragment_argchecks(draw):
    """phi of 0-5 formulas, about one in four a repeat of an earlier one,
    and a claim, over at most 6 variables and together in no fragment.
    Arguments repeat freely, and one claim in four is valid: IMPL(v, v)
    or WIDE6 on one variable."""
    variables = [f"v{i}" for i in range(draw(st.integers(1, 6)))]

    def formula():
        constraints = []
        for _ in range(draw(st.integers(1, 2))):
            relation = draw(st.sampled_from(ARGCHECK_RELATIONS))
            args = tuple(draw(st.sampled_from(variables)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    phi = []
    for _ in range(draw(st.integers(0, 5))):
        repeat = phi and draw(st.integers(0, 3)) == 0
        phi.append(draw(st.sampled_from(phi)) if repeat else formula())
    v = draw(st.sampled_from(variables))
    kind = draw(st.integers(0, 7))
    if kind == 0:
        alpha = gamma(Constraint(IMPL, (v, v)))
    elif kind == 1:
        alpha = gamma(Constraint(WIDE6, (v,) * 6))
    else:
        alpha = formula()
    assume(logic._fragment(argumentation._language(phi, alpha)) == "generic")
    return phi, alpha


class TestArgcheck:
    def test_exact_argument(self):
        delta = [gamma(Constraint(IMPL, ("a", "b"))), gamma(Constraint(T, ("a",)))]
        assert argcheck(delta, gamma(Constraint(T, ("b",))))

    def test_inconsistent_set_fails(self):
        delta = [gamma(Constraint(T, ("x",)), Constraint(F, ("x",)))]
        assert not argcheck(delta, gamma(Constraint(EQ2, ("x", "x"))))

    def test_non_entailing_set_fails(self):
        assert not argcheck([or2("a", "b")], gamma(Constraint(T, ("a",))))

    def test_proper_subset_must_not_entail(self):
        delta = [or2("a", "b"), gamma(Constraint(T, ("c",)))]
        assert not argcheck(delta, or2("b", "a"))

    def test_duplicates_collapse(self):
        phi = or2("a", "b")
        assert argcheck([phi, phi], or2("b", "a"))

    @pytest.fixture
    def checked(self, monkeypatch):
        """The deduplicated formulas argcheck dispatches on, one list per
        call, whichever route then answers and under either engine."""
        seen = []
        dedup = argumentation._dedup

        def spy(formulas):
            seen.append(dedup(formulas))
            return seen[-1]

        monkeypatch.setattr(argumentation, "_dedup", spy)
        return seen

    @pytest.mark.parametrize("engine", ["auto", "generic"])
    def test_equal_formulas_collapse_to_the_first(self, checked, engine):
        """Distinct but equal formula objects, down to a relation rebuilt
        under the same name and tuples, collapse to the first occurrence,
        in order."""
        impl = gamma(Constraint(IMPL, ("a", "b")))
        unit = gamma(Constraint(T, ("a",)))
        rebuilt = Relation(IMPL.name, IMPL.arity, frozenset(IMPL.tuples))
        phi = [impl, unit, gamma(Constraint(rebuilt, ("a", "b"))), gamma(Constraint(T, ("a",)))]
        assert phi[2] == impl and phi[2] is not impl and phi[3] is not unit
        assert argcheck(phi, gamma(Constraint(T, ("b",))), engine=engine)
        assert len(checked) == 1
        assert [id(f) for f in checked[0]] == [id(impl), id(unit)]

    @pytest.mark.parametrize("engine", ["auto", "generic"])
    def test_same_named_relations_stay_distinct(self, checked, engine):
        """Formulas over two relations named R, with different tuples, on
        the same arguments are two formulas: the claim needs only the
        first, so the pair is not minimal."""
        r_or = Relation("R", 2, frozenset(OR2.tuples))
        r_nand = Relation("R", 2, frozenset({0b00, 0b01, 0b10}))
        phi = [gamma(Constraint(r_or, ("a", "b"))), gamma(Constraint(r_nand, ("a", "b")))]
        assert phi[0] != phi[1]
        assert not argcheck(phi, or2("a", "b"), engine=engine)
        assert argcheck(phi[:1], or2("a", "b"), engine=engine)
        assert [len(formulas) for formulas in checked] == [2, 1]

    def test_empty_set_checks_tautologies(self):
        assert argcheck([], gamma(Constraint(EQ2, ("x", "x"))))
        assert not argcheck([], or2("a", "b"))

    def test_matches_naive_random(self):
        rng = random.Random(61)
        for _ in range(150):
            language, delta, alpha = random_instance(rng, max_kb=4, max_vars=5)
            want = naive_argcheck(delta, alpha)
            assert argcheck(delta, alpha) == want
            assert argcheck(delta, alpha, engine="generic") == want

    def test_outside_every_fragment_compiles_once(self, monkeypatch):
        """phi and a claim in no fragment, inside the mask limit, are read
        off one model-bitset compile over their joint variables, with no
        is_consistent or entails call. Past a mask limit lowered to 1 the
        same answers come from those calls, as under generic."""
        # NAE3 lies in no fragment; with T(a) and T(b) it fixes c false,
        # and each of the three is needed.
        phi = [
            gamma(Constraint(NAE3, ("a", "b", "c"))),
            gamma(Constraint(T, ("a",))),
            gamma(Constraint(T, ("b",))),
        ]
        claim = gamma(Constraint(F, ("c",)))
        cases = (
            (phi, claim, True),
            (phi + [gamma(Constraint(IMPL, ("c", "d")))], claim, False),  # not minimal
            (phi, gamma(Constraint(T, ("d",))), False),  # not entailed
            (phi + [gamma(Constraint(T, ("c",)))], claim, False),  # inconsistent
        )
        built = []

        class Counting(formulas._ModelBits):
            def __init__(self, order):
                built.append(order)
                super().__init__(order)

        def forbidden(*args, **kwargs):
            raise AssertionError("argcheck inside the mask limit called is_consistent or entails")

        with monkeypatch.context() as patched:
            patched.setattr(argumentation, "_ModelBits", Counting)
            patched.setattr(argumentation, "is_consistent", forbidden)
            patched.setattr(argumentation, "entails", forbidden)
            for premises, alpha, want in cases:
                built.clear()
                assert argcheck(premises, alpha) is want
                assert built == [tuple(sorted(variables_of(premises) | alpha.variables))]
        calls = []
        is_consistent = argumentation.is_consistent

        def spy(chosen, **kwargs):
            calls.append(chosen)
            return is_consistent(chosen, **kwargs)

        monkeypatch.setattr(argumentation, "_MASK_LIMIT", 1)
        monkeypatch.setattr(argumentation, "is_consistent", spy)
        for premises, alpha, want in cases:
            calls.clear()
            assert argcheck(premises, alpha) is want
            assert len(calls) == 1
            assert argcheck(premises, alpha, engine="generic") is want

    NAE = gamma(Constraint(NAE3, ("a", "b", "c")))

    @settings(max_examples=150, deadline=None, database=None)
    @given(nonfragment_argchecks())
    # Empty phi and a valid claim: the empty argument.
    @example(([], gamma(Constraint(WIDE6, ("x",) * 6))))
    # A valid claim needs no formula, so phi is not minimal.
    @example(([NAE], gamma(Constraint(IMPL, ("a", "a")))))
    # A repeated formula collapses; NAE3 is symmetric.
    @example(([NAE, NAE], gamma(Constraint(NAE3, ("c", "b", "a")))))
    def test_outside_every_fragment_matches_generic(self, instance):
        phi, alpha = instance
        want = argcheck(phi, alpha, engine="generic")
        assert argcheck(phi, alpha) is want
        assert want is naive_argcheck(phi, alpha)


class TestFindMinimalSupport:
    def test_agrees_with_existence(self):
        rng = random.Random(8112)
        for _ in range(120):
            language, delta, alpha = random_instance(rng, max_kb=5, max_vars=5)
            delta = _dedup(delta)
            support = find_minimal_support(delta, alpha)
            if support is None:
                assert not naive_arg_exists(delta, alpha)
            else:
                assert tuple(support) in naive_min_supports(delta, alpha)
                assert argcheck(support.formulas(delta), alpha)

    def test_deterministic_per_engine(self):
        rng = random.Random(404)
        for _ in range(40):
            language, delta, alpha = random_instance(rng, max_kb=5, max_vars=4)
            for engine in ("auto", "generic"):
                first = find_minimal_support(delta, alpha, engine=engine)
                second = find_minimal_support(delta, alpha, engine=engine)
                assert first == second

    def test_empty_support_for_tautology(self):
        delta = [or2("a", "b")]
        support = find_minimal_support(delta, gamma(Constraint(EQ2, ("x", "x"))))
        assert support == Support(())

    def test_none_when_nothing_supports(self):
        assert find_minimal_support([], or2("a", "b")) is None

    def test_budget(self):
        delta = [or2("a", f"b{i}") for i in range(3)]
        with pytest.raises(BudgetExceededError):
            find_minimal_support(delta, or2("a", "z"), engine="generic", max_kb=2)


class TestOneCompile:
    """A consistent base in one fragment with its claim is compiled once
    into one engine: existence, verification and one support read
    everything off it, and call neither is_consistent nor entails. These
    bases are small enough that existence and one support compile the
    signature base instead (`TestRoute`), so those tests lower the bound
    `_SMALL_VARS` to 0."""

    NAND2 = Relation("NAND2", 2, frozenset({0b00, 0b01, 0b10}))
    EVEN3 = Relation("EVEN3", 3, frozenset({0b000, 0b011, 0b101, 0b110}))
    # fragment: (base, entailed claim and its support, unentailed claim)
    CASES = {
        "bijunctive": (
            [
                gamma(Constraint(T, ("a",))),
                gamma(Constraint(IMPL, ("a", "b"))),
                gamma(Constraint(IMPL, ("b", "c"))),
                gamma(Constraint(NEQ, ("c", "d"))),
                or2("d", "e"),
            ],
            (gamma(Constraint(NEQ, ("b", "d"))), (0, 1, 2, 3)),
            gamma(Constraint(IMPL, ("e", "d"))),
        ),
        "horn": (
            [
                gamma(Constraint(T, ("a",))),
                gamma(Constraint(IMPL, ("a", "b"))),
                gamma(Constraint(NAND2, ("b", "c"))),
                gamma(Constraint(IMPL, ("d", "c"))),
                gamma(Constraint(F, ("e",))),
            ],
            (gamma(Constraint(F, ("d",))), (0, 1, 2, 3)),
            gamma(Constraint(T, ("d",))),
        ),
        "dual_horn": (
            [
                gamma(Constraint(F, ("a",))),
                gamma(Constraint(IMPL, ("b", "a"))),
                or2("b", "c"),
                gamma(Constraint(IMPL, ("c", "d"))),
                gamma(Constraint(T, ("e",))),
            ],
            (gamma(Constraint(T, ("d",))), (0, 1, 2, 3)),
            gamma(Constraint(F, ("d",))),
        ),
        "affine": (
            [
                gamma(Constraint(T, ("a",))),
                gamma(Constraint(EQ2, ("a", "b"))),
                gamma(Constraint(EVEN3, ("b", "c", "d"))),
                gamma(Constraint(T, ("c",))),
                gamma(Constraint(NEQ, ("e", "f"))),
            ],
            (gamma(Constraint(F, ("d",))), (0, 1, 2, 3)),
            gamma(Constraint(T, ("e",))),
        ),
    }

    @pytest.fixture
    def compiles(self, monkeypatch):
        built = []

        class Counting(argumentation._Premises):
            def __init__(self, fragment, blocks, alpha=None):
                built.append(fragment)
                super().__init__(fragment, blocks, alpha)

        def forbidden(*args, **kwargs):
            raise AssertionError("the fragment route called is_consistent or entails")

        monkeypatch.setattr(argumentation, "_Premises", Counting)
        monkeypatch.setattr(argumentation, "is_consistent", forbidden)
        monkeypatch.setattr(argumentation, "entails", forbidden)
        return built

    @pytest.fixture
    def engines(self, monkeypatch):
        built = []
        for fragment, cls in list(logic._ENGINES.items()):

            def counting(*args, cls=cls):
                built.append(cls.__name__)
                return cls(*args)

            monkeypatch.setitem(logic._ENGINES, fragment, counting)
        return built

    @pytest.mark.parametrize("fragment", sorted(CASES))
    def test_argcheck(self, compiles, engines, fragment):
        delta, (yes, support), no = self.CASES[fragment]
        phi = [delta[i] for i in support]
        extra = delta[len(support)]
        cases = (
            (phi, yes, True),  # every formula is needed
            (phi + [extra], yes, False),  # extra lies in no core
            (phi, no, False),  # not entailed
            (phi[1:], yes, False),  # not entailed either
        )
        for premises, alpha, want in cases:
            compiles.clear()
            engines.clear()
            assert argcheck(premises, alpha) is want
            assert compiles == [fragment]
            assert len(engines) == 1

    @pytest.mark.parametrize("fragment", sorted(CASES))
    def test_arg_exists(self, compiles, monkeypatch, fragment):
        monkeypatch.setattr(argumentation, "_SMALL_VARS", 0)
        delta, (yes, _), no = self.CASES[fragment]
        for alpha, want in ((yes, True), (no, False)):
            compiles.clear()
            assert arg_exists(delta, alpha) is want
            assert compiles == [fragment]

    @pytest.mark.parametrize("fragment", sorted(CASES))
    def test_find_minimal_support(self, compiles, monkeypatch, fragment):
        monkeypatch.setattr(argumentation, "_SMALL_VARS", 0)
        delta, (yes, support), no = self.CASES[fragment]
        for alpha, want in ((yes, Support(support)), (no, None)):
            compiles.clear()
            assert find_minimal_support(delta, alpha) == want
            assert compiles == [fragment]

    @classmethod
    def inconsistent(cls, fragment):
        """The fragment's case with the complement of its first formula, a
        unit, appended. The MCSes are the base and the base with that unit
        swapped, and the base comes first in canonical order, so the
        answers stay those of the consistent case."""
        delta, yes, no = cls.CASES[fragment]
        (first,) = delta[0].constraints
        flipped = gamma(Constraint(F if first.relation is T else T, first.args))
        return delta + [flipped], yes, no

    @pytest.mark.parametrize("fragment", sorted(CASES))
    def test_inconsistent_base(self, compiles, monkeypatch, fragment):
        """An inconsistent base in one fragment with its claim finds its
        MCSes on its one compile: existence and one support build neither
        the signature base nor a subset search."""

        def forbidden(*args, **kwargs):
            raise AssertionError("an inconsistent fragment base left its compile")

        monkeypatch.setattr(argumentation, "_SMALL_VARS", 0)
        monkeypatch.setattr(argumentation, "_KB", forbidden)
        monkeypatch.setattr(argumentation, "_Search", forbidden)
        delta, (yes, support), no = self.inconsistent(fragment)
        for alpha, exists, want in ((yes, True, Support(support)), (no, False, None)):
            compiles.clear()
            assert arg_exists(delta, alpha) is exists
            assert compiles == [fragment]
            compiles.clear()
            assert find_minimal_support(delta, alpha) == want
            assert compiles == [fragment]

    @pytest.mark.parametrize("fragment", sorted(CASES))
    def test_inconsistent_base_agrees_with_generic(self, fragment):
        delta, (yes, support), no = self.inconsistent(fragment)
        assert not is_consistent(delta, engine="generic")
        for alpha, want in ((yes, Support(support)), (no, None)):
            assert find_minimal_support(delta, alpha, engine="generic") == want


# Odd parity of three: affine, and neither Horn, dual Horn nor bijunctive,
# so a language holding it takes the GF(2) engine.
XOR3 = Relation("XOR3", 3, frozenset({0b001, 0b010, 0b100, 0b111}))
# The affine test language, the units drawn less often.
AFFINE_DRAWS = (EQ2, NEQ, XOR3, EQ2, NEQ, XOR3, T, F)


def disjoint_reference(phi, alpha):
    """Generic answers on pairwise variable-disjoint formulas, from small
    generic calls. Their models are the product of each formula's own,
    so when all are consistent a subset entails a claim constraint iff
    its formulas sharing a variable with that constraint do. Returns
    (entails, arg_exists, the support find_minimal_support gives: the
    base's one MCS, its consistent formulas, shrunk in ascending order,
    argcheck of the whole base)."""
    consistent = [is_consistent([f], engine="generic") for f in phi]
    touching = [
        [j for j, f in enumerate(phi) if f.variables & set(c.args)] for c in alpha.constraints
    ]

    @functools.lru_cache(maxsize=None)
    def holds(k, kept):
        return entails([phi[j] for j in kept], gamma(alpha.constraints[k]), engine="generic")

    def entailed(subset):
        return all(holds(k, tuple(j for j in t if j in subset)) for k, t in enumerate(touching))

    mcs = {i for i in range(len(phi)) if consistent[i]}
    support = None
    if entailed(mcs):
        kept = set(mcs)
        for i in sorted(mcs):
            if entailed(kept - {i}):
                kept.discard(i)
        support = Support(tuple(sorted(kept)))
    whole = set(range(len(phi)))
    argument = (
        all(consistent)
        and entailed(whole)
        and not any(entailed(whole - {i}) for i in whole)
    )
    return not all(consistent) or entailed(whole), support is not None, support, argument


def subset_reference(delta, alpha):
    """find_minimal_support's auto answer from generic calls over every
    subset: the first MCS in canonical order (most formulas first, ties
    by ascending index bitmask) that entails alpha, shrunk in ascending
    order while it entails; None when no MCS entails alpha."""
    n = len(delta)
    subsets = argumentation._canonical(range(1 << n))
    consistent = {
        s for s in subsets if is_consistent([delta[i] for i in _members(s)], engine="generic")
    }
    for s in subsets:
        if s not in consistent or any(
            s | 1 << j in consistent for j in range(n) if not s >> j & 1
        ):
            continue
        kept = list(_members(s))
        if not entails([delta[i] for i in kept], alpha, engine="generic"):
            continue
        for i in list(kept):
            rest = [delta[j] for j in kept if j != i]
            if entails(rest, alpha, engine="generic"):
                kept.remove(i)
        return Support(tuple(kept))
    return None


@st.composite
def affine_instances(draw, disjoint: bool):
    """A base and claim over EQ2, NEQ, XOR3, T and F with an XOR3 among
    them, so that the fragment is affine. Disjoint: 1-24 formulas, each
    over three variables of its own; overlapping: 1-6 formulas over
    p0..p4. The claim copies one constraint from each formula or from
    some, or is drawn afresh. The base's constraints may all hold at a drawn
    assignment, which makes a consistent base likely. In half of the
    instances args may repeat (XOR3(x, x, y), EQ2(x, x), NEQ(x, x)) and a
    formula may hold EQ2(x, y) with EQ2(y, x), or x = y, y != z and
    x != z, the last row the sum of the other two. The claim may name q0
    and q1, which no premise does."""
    n = draw(st.integers(1, 24) if disjoint else st.integers(1, 6))
    pools = [
        [f"v{i}_{j}" for j in range(3)] if disjoint else [f"p{j}" for j in range(5)]
        for i in range(n)
    ]
    plant: dict[str, int] = {}
    planted = draw(st.integers(0, 3)) > 0
    # Repeated arguments and dependent rows, in half of the instances.
    odd = draw(st.booleans())

    def holds(relation, args):
        values = [plant.setdefault(a, draw(st.integers(0, 1))) for a in args]
        return sum(x << (len(values) - 1 - j) for j, x in enumerate(values)) in relation.tuples

    def constraint(variables, relations=AFFINE_DRAWS, plain=False):
        if not odd or draw(st.integers(0, 5)):
            args = draw(st.lists(st.sampled_from(variables), min_size=3, max_size=3, unique=True))
        else:
            args = [draw(st.sampled_from(variables)) for _ in range(3)]
        if planted and not plain:
            relations = [r for r in relations if holds(r, args[: r.arity])] or relations
        relation = draw(st.sampled_from(relations))
        return Constraint(relation, tuple(args[: relation.arity]))

    def pair(x, y):
        """EQ2 or NEQ, the one that holds at the plant when it is drawn."""
        if planted:
            return EQ2 if holds(EQ2, (x, y)) else NEQ
        return draw(st.sampled_from((EQ2, NEQ)))

    def formula(variables):
        constraints = [constraint(variables) for _ in range(draw(st.integers(1, 2)))]
        a, b, c = draw(st.lists(st.sampled_from(variables), min_size=3, max_size=3, unique=True))
        ab, bc = (pair(x, y) for x, y in ((a, b), (b, c)))
        shape = draw(st.integers(0, 3)) if odd else 0
        if shape == 1:
            constraints += [Constraint(ab, (a, b)), Constraint(ab, (b, a))]
        elif shape == 2:
            ac = EQ2 if ab is bc else NEQ
            constraints += [Constraint(ab, (a, b)), Constraint(bc, (b, c)), Constraint(ac, (a, c))]
        return GammaFormula(tuple(constraints))

    delta = [formula(pool) for pool in pools]
    fresh = ["q0", "q1"]
    copied = draw(st.integers(0, 2))
    if copied:
        chosen = delta if copied == 1 else [f for f in delta if draw(st.booleans())] or delta
        claim = [draw(st.sampled_from(f.constraints)) for f in chosen]
    else:
        variables = sorted({a for f in delta for a in f.variables}) + fresh
        claim = [constraint(variables, plain=True) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        claim.append(constraint(sorted(delta[0].variables) + fresh, (XOR3,), plain=True))
    else:
        i = draw(st.integers(0, n - 1))
        extra = constraint(pools[i], (XOR3,))
        delta[i] = GammaFormula(delta[i].constraints + (extra,))
    return delta, GammaFormula(tuple(claim))


class TestAffineCores:
    """The GF(2) engine tags each premise row with its own bit and XORs
    the tags in each reduction, so the core of a claim row is exactly the
    set of formulas whose rows sum to it. When the rows are independent
    that sum is unique, and argcheck reads minimality off the cores with
    no masked elimination."""

    def test_a_cancelled_row_is_outside_the_core(self):
        # NEQ(y, x) alone gives the claim: reducing its row passes through
        # the XOR3 row twice, and the two cancel.
        phi = [gamma(Constraint(XOR3, ("z", "y", "x"))), gamma(Constraint(NEQ, ("y", "x")))]
        alpha = gamma(Constraint(NEQ, ("y", "x")))
        assert logic._fragment(argumentation._language(phi, alpha)) == "affine"
        premises = fragment_premises(phi, alpha)
        assert [premises.engine.core(row) for row in premises.claim] == [0b10]
        for engine in ("auto", "generic"):
            assert argcheck(phi, alpha, engine=engine) is False
            assert argcheck(phi[1:], alpha, engine=engine) is True

    @pytest.fixture
    def masks(self, monkeypatch):
        """The masks of every echelon form the GF(2) engine asks for."""
        seen = []
        state = logic._Gf2Elimination._state

        def recording(self, masked):
            seen.append(masked)
            return state(self, masked)

        monkeypatch.setattr(logic._Gf2Elimination, "_state", recording)
        return seen

    def test_independent_rows_need_no_masked_elimination(self, masks):
        # Formula i is XOR3(a, b, c) and c = d on its own variables; the
        # claim takes c = d from the even ones, and XOR3(a, b, d), which
        # needs both rows, from the odd ones.
        phi = [
            gamma(
                Constraint(XOR3, (f"a{i}", f"b{i}", f"c{i}")),
                Constraint(EQ2, (f"c{i}", f"d{i}")),
            )
            for i in range(24)
        ]
        alpha = gamma(
            *(
                Constraint(XOR3, (f"a{i}", f"b{i}", f"d{i}")) if i % 2 else f.constraints[1]
                for i, f in enumerate(phi)
            )
        )
        assert argcheck(phi, alpha) is True
        assert masks and not any(masks)
        assert disjoint_reference(phi, alpha)[3] is True

    @pytest.mark.parametrize(
        "phi, alpha, want",
        [
            # EQ2(a, d) twice over: no row of the second becomes a pivot.
            (
                [
                    gamma(Constraint(XOR3, ("a", "b", "c"))),
                    gamma(Constraint(EQ2, ("a", "d")), Constraint(EQ2, ("d", "a"))),
                ],
                gamma(Constraint(XOR3, ("d", "b", "c"))),
                True,
            ),
            # a = c follows from a = b and b = c, and from the last formula
            # alone, which makes the first two redundant.
            (
                [
                    gamma(Constraint(EQ2, ("a", "b"))),
                    gamma(Constraint(EQ2, ("b", "c"))),
                    gamma(Constraint(EQ2, ("a", "c")), Constraint(XOR3, ("c", "d", "e"))),
                ],
                gamma(Constraint(EQ2, ("a", "c")), Constraint(XOR3, ("c", "d", "e"))),
                False,
            ),
        ],
    )
    def test_dependent_rows_keep_the_masked_checks(self, masks, phi, alpha, want):
        premises = fragment_premises(phi, alpha)
        assert premises.engine.ok and not premises.engine.exact()
        masks.clear()
        assert argcheck(phi, alpha) is argcheck(phi, alpha, engine="generic") is want
        assert any(masks)

    @settings(max_examples=150, deadline=None, database=None)
    @given(affine_instances(disjoint=True))
    def test_disjoint_bases_match_generic(self, instance):
        delta, alpha = instance
        assert logic._fragment(argumentation._language(delta, alpha)) == "affine"
        entailed, exists, support, argument = disjoint_reference(delta, alpha)
        assert argcheck(delta, alpha) is argument
        assert entails(delta, alpha) is entailed
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(argumentation, "_SMALL_VARS", 0)
            assert arg_exists(delta, alpha) is exists
            assert find_minimal_support(delta, alpha) == support
        if support is not None:
            chosen = support.formulas(delta)
            assert argcheck(chosen, alpha) is disjoint_reference(chosen, alpha)[3] is True

    @settings(max_examples=150, deadline=None, database=None)
    @given(affine_instances(disjoint=False))
    def test_overlapping_bases_match_generic(self, instance):
        delta, alpha = instance
        assert logic._fragment(argumentation._language(delta, alpha)) == "affine"
        assert argcheck(delta, alpha) is argcheck(delta, alpha, engine="generic")
        assert entails(delta, alpha) is entails(delta, alpha, engine="generic")
        support = subset_reference(delta, alpha)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(argumentation, "_SMALL_VARS", 0)
            assert arg_exists(delta, alpha) is arg_exists(delta, alpha, engine="generic")
            assert arg_exists(delta, alpha) is (support is not None)
            assert find_minimal_support(delta, alpha) == support
        if support is not None:
            chosen = support.formulas(delta)
            assert argcheck(chosen, alpha) is argcheck(chosen, alpha, engine="generic") is True


class TestEnumerateMinimalSupports:
    def test_matches_naive(self):
        rng = random.Random(321)
        for _ in range(120):
            language, delta, alpha = random_instance(rng, max_kb=5, max_vars=5)
            delta = _dedup(delta)
            got = enumerate_minimal_supports(delta, alpha)
            assert [tuple(s) for s in got] == naive_min_supports(delta, alpha)

    def test_canonical_order_and_no_supersets(self):
        delta = [or2("a", "b"), or2("a", "b"), gamma(Constraint(T, ("c",)))]
        supports = enumerate_minimal_supports(delta, or2("b", "a"))
        assert [tuple(s) for s in supports] == [(0,), (1,)]

    def test_each_result_is_an_argument(self):
        delta = [
            gamma(Constraint(IMPL, ("a", "b"))),
            gamma(Constraint(T, ("a",))),
            gamma(Constraint(T, ("b",))),
        ]
        alpha = gamma(Constraint(T, ("b",)))
        supports = enumerate_minimal_supports(delta, alpha)
        assert [tuple(s) for s in supports] == [(2,), (0, 1)]
        for s in supports:
            assert argcheck(s.formulas(delta), alpha)

    def test_budget(self):
        delta = [or2("a", f"b{i}") for i in range(21)]
        with pytest.raises(BudgetExceededError):
            enumerate_minimal_supports(delta, or2("x", "y"))


class TestArgrel:
    def test_membership_in_some_minimal_support(self):
        # {OR2(a,b)} and {NEQ(a,b)} are the minimal supports; T(c) joins none.
        delta = [or2("a", "b"), gamma(Constraint(NEQ, ("a", "b"))), gamma(Constraint(T, ("c",)))]
        alpha = or2("a", "b")
        assert argrel(delta, alpha, 0)
        assert argrel(delta, alpha, 1)
        assert not argrel(delta, alpha, 2)

    def test_jointly_needed_formulas(self):
        delta = [gamma(Constraint(IMPL, ("a", "b"))), gamma(Constraint(T, ("a",)))]
        alpha = gamma(Constraint(T, ("b",)))
        assert argrel(delta, alpha, 0)
        assert argrel(delta, alpha, 1)

    def test_psi_as_formula_uses_first_occurrence(self):
        phi = or2("a", "b")
        delta = [phi, gamma(Constraint(T, ("c",)))]
        assert argrel(delta, or2("b", "a"), phi)

    def test_psi_validation(self):
        delta = [or2("a", "b")]
        with pytest.raises(ValueError, match="out of range"):
            argrel(delta, or2("a", "b"), 1)
        with pytest.raises(ValueError, match="not in the knowledge base"):
            argrel(delta, or2("a", "b"), or2("x", "y"))

    def test_psi_any_integral_index(self):
        delta = [or2("a", "b"), gamma(Constraint(NEQ, ("a", "b"))), gamma(Constraint(T, ("c",)))]
        alpha = or2("a", "b")
        assert argrel(delta, alpha, np.int64(1))
        assert not argrel(delta, alpha, np.uint8(2))
        with pytest.raises(ValueError, match="out of range"):
            argrel(delta, alpha, np.int64(3))

    @pytest.mark.parametrize("psi", [True, False, np.True_])
    def test_psi_bool_rejected(self, psi):
        # True must not be read as index 1.
        delta = [or2("a", "b"), gamma(Constraint(NEQ, ("a", "b")))]
        with pytest.raises(ValueError, match="bool"):
            argrel(delta, or2("a", "b"), psi)

    def test_matches_naive_random(self):
        rng = random.Random(7777)
        done = 0
        while done < 150:
            language, delta, alpha = random_instance(rng, max_kb=5, max_vars=5)
            if not delta:
                continue
            psi = rng.randrange(len(delta))
            want = naive_argrel(delta, alpha, psi)
            assert argrel(delta, alpha, psi) == want
            assert argrel(delta, alpha, psi, engine="generic") == want
            done += 1

    def test_budget(self):
        # A disequality base sidesteps the monotone shortcut, forcing the
        # subset search and with it the knowledge-base budget.
        delta = [gamma(Constraint(NEQ, ("a", f"b{i}"))) for i in range(21)]
        with pytest.raises(BudgetExceededError):
            argrel(delta, gamma(Constraint(NEQ, ("x", "y"))), 0)


NAND2 = Relation("NAND2", 2, frozenset({0b00, 0b01, 0b10}))
NAND3 = Relation("NAND3", 3, frozenset(range(7)))
OR3 = Relation("OR3", 3, frozenset(range(1, 8)))
# 3-majority and its dual, at most one of three: monotone relations that
# are no single clause.
MAJ3 = Relation("MAJ3", 3, frozenset({0b011, 0b101, 0b110, 0b111}))
AT_MOST_ONE3 = Relation("AT_MOST_ONE3", 3, frozenset({0b000, 0b001, 0b010, 0b100}))
# Upward-closed (True) and downward-closed (False) languages.
MONOTONE_LANGUAGES = {
    True: (OR2, OR3, MAJ3, T),
    False: (NAND2, NAND3, AT_MOST_ONE3, F),
}


@st.composite
def monotone_instances(draw):
    """1-6 formulas of one or two constraints over p0..p3, or 17-40 over
    p0..p9, in an upward- or downward-closed language, so arguments often
    repeat; some formulas are copies of earlier ones. A claim of 1-3
    constraints over the premise variables and q0, which no premise
    mentions, and the index of psi. Last a phi of 0-6 formulas, each
    a base formula or, as often, one of the claim's constraints alone."""
    upward = draw(st.booleans())
    language = MONOTONE_LANGUAGES[upward]
    large = draw(st.booleans())
    premise_vars = [f"p{i}" for i in range(10 if large else 4)]

    def formula(variables, size):
        constraints = []
        for _ in range(draw(st.integers(1, size))):
            relation = draw(st.sampled_from(language))
            args = tuple(draw(st.sampled_from(variables)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    delta = []
    for _ in range(draw(st.integers(17, 40) if large else st.integers(1, 6))):
        copy = delta and draw(st.integers(0, 4)) == 0
        delta.append(draw(st.sampled_from(delta)) if copy else formula(premise_vars, 2))
    alpha = formula(premise_vars + ["q0"], 3)
    psi = draw(st.integers(0, len(delta) - 1))
    sources = (delta, [gamma(c) for c in alpha.constraints])
    phi = [
        draw(st.sampled_from(sources[draw(st.integers(0, 1))]))
        for _ in range(draw(st.integers(0, 6)))
    ]
    return upward, delta, alpha, psi, phi


class TestMonotoneArgrel:
    def test_positive_language_dispatch(self):
        rng = random.Random(909)
        language = ConstraintLanguage.of(OR2, T)
        variables = ["p", "q", "r", "s"]
        done = 0
        while done < 120:
            delta = [
                random_formula(rng, language, variables)
                for _ in range(rng.randint(1, 5))
            ]
            alpha = random_formula(rng, language, variables)
            psi = rng.randrange(len(delta))
            want = naive_argrel(delta, alpha, psi)
            assert argrel(delta, alpha, psi) == want
            assert argrel_positive(delta, alpha, psi) == want
            done += 1

    def test_negative_language_dispatch(self):
        rng = random.Random(910)
        nand = Relation("NAND", 2, frozenset({0b00, 0b01, 0b10}))
        language = ConstraintLanguage.of(nand, F)
        variables = ["p", "q", "r"]
        done = 0
        while done < 120:
            delta = [
                random_formula(rng, language, variables)
                for _ in range(rng.randint(1, 5))
            ]
            alpha = random_formula(rng, language, variables)
            psi = rng.randrange(len(delta))
            want = naive_argrel(delta, alpha, psi)
            assert argrel(delta, alpha, psi) == want
            assert argrel_negative(delta, alpha, psi) == want
            done += 1

    def test_wide_formula_never_enumerates(self):
        # One OR2 chain over 40 variables: enumerating its 2**40
        # assignments is out of reach, so each clause test must be one
        # point evaluation. The chain forces x20 | x21 (one of its links)
        # but not x0 | y, since x0 = 0 and every other x at 1 satisfies it.
        xs = [f"x{i}" for i in range(40)]
        chain = gamma(*(Constraint(OR2, pair) for pair in zip(xs, xs[1:])))
        delta = [chain, or2("x0", "y"), or2("y", "z")]
        planted = [
            (or2("x20", "x21"), [True, False, False]),
            (or2("x0", "y"), [False, True, False]),
            (or2("x0", "z"), [False, False, False]),
            (
                gamma(Constraint(OR2, ("x0", "y")), Constraint(OR2, ("x5", "x6"))),
                [True, True, False],
            ),
        ]
        start = time.perf_counter()
        for alpha, want in planted:
            assert [argrel(delta, alpha, i) for i in range(3)] == want
        assert time.perf_counter() - start < 1.0

    def test_positive_precondition(self):
        delta = [gamma(Constraint(NEQ, ("a", "b")))]
        with pytest.raises(PreconditionError, match="upward-closed"):
            argrel_positive(delta, or2("a", "b"), 0)

    def test_negative_precondition(self):
        delta = [or2("a", "b")]
        with pytest.raises(PreconditionError, match="downward-closed"):
            argrel_negative(delta, or2("a", "b"), 0)

    @settings(max_examples=400, deadline=None, database=None)
    @given(monotone_instances())
    def test_covers_match_generic(self, instance):
        """Every query the clause covers answer agrees with the generic
        engine, and the one support is the fragment route's, reached with
        the monotone test patched off. On the 17-40 formula bases, out of
        the generic subset search's reach, existence is checked against
        the base's generic entailment, as a monotone base is consistent,
        and relevance against the signature base with max_kb raised."""
        upward, delta, alpha, psi, phi = instance
        assert is_consistent(delta, engine="generic")
        if len(delta) <= 6:
            exists = arg_exists(delta, alpha, engine="generic")
            relevant = argrel(delta, alpha, psi, engine="generic")
        else:
            exists = logic.entails(delta, alpha, engine="generic")
            relevant = None
        assert arg_exists(delta, alpha) is exists
        assert argcheck(phi, alpha) is argcheck(phi, alpha, engine="generic")
        support = find_minimal_support(delta, alpha)
        assert (support is not None) is exists
        if support is not None:
            chosen = support.formulas(delta)
            assert argcheck(chosen, alpha) is argcheck(chosen, alpha, engine="generic") is True
        language = argumentation._language

        def not_monotone(formulas, claim):
            return dataclasses.replace(language(formulas, claim), positive=False, negative=False)

        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(argumentation, "_language", not_monotone)
            patched.setattr(argumentation, "_SMALL_VARS", 0)
            route = argumentation._route(
                delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
            )
            assert type(route) is argumentation._Whole
            assert find_minimal_support(delta, alpha) == support
            if relevant is None:
                relevant = argrel(delta, alpha, psi, max_kb=len(delta))
        assert argrel(delta, alpha, psi) is relevant
        public = argrel_positive if upward else argrel_negative
        assert public(delta, alpha, psi) is relevant
        assert public(delta, alpha, psi, engine="generic") is relevant

    def test_no_compile_and_no_oracle(self, monkeypatch):
        # psi = 0 is relevant to the first claim of each direction only.
        cases = {
            True: (
                [
                    or2("a", "b"),
                    gamma(Constraint(MAJ3, ("a", "c", "c"))),
                    gamma(Constraint(T, ("d",))),
                ],
                [(gamma(Constraint(OR3, ("a", "b", "q"))), True), (or2("c", "d"), False)],
            ),
            False: (
                [
                    gamma(Constraint(NAND2, ("a", "b"))),
                    gamma(Constraint(AT_MOST_ONE3, ("a", "c", "c"))),
                    gamma(Constraint(F, ("d",))),
                ],
                [
                    (gamma(Constraint(NAND3, ("a", "b", "q"))), True),
                    (gamma(Constraint(NAND2, ("c", "d"))), False),
                ],
            ),
        }
        calls = []

        def counting(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"monotone relevance called {name}")

            return call

        for module, name in (
            (argumentation, "_Premises"),
            (argumentation, "_KB"),
            (argumentation, "entails"),
            (argumentation, "is_consistent"),
            (argumentation, "_ModelBits"),
            (logic, "_Premises"),
            (logic, "_ModelBits"),
        ):
            monkeypatch.setattr(module, name, counting(f"{module.__name__}.{name}"))
        for upward, (delta, claims) in cases.items():
            public = argrel_positive if upward else argrel_negative
            # The one support of each claim, the shrink of the whole base;
            # the second formula fixes c, and alone supports the second.
            supports = [Support((0,)), Support((2,))]
            for (alpha, want), support in zip(claims, supports):
                assert argrel(delta, alpha, 0) is want
                for engine in ("auto", "generic"):
                    assert public(delta, alpha, 0, engine=engine) is want
                assert arg_exists(delta, alpha) is True
                assert find_minimal_support(delta, alpha) == support
                assert argcheck(support.formulas(delta), alpha) is True
                assert argcheck(delta, alpha) is False
                assert argcheck(delta[1:2], alpha) is not want
        assert calls == []

    def test_point_evaluations_grow_linearly(self):
        """Existence, one support, verification and relevance on positive
        bases of 100 to 6400 formulas make a number of point evaluations
        linear in the base, counted as membership tests on the relation's
        tuples.
        Half of each base is an OR2 chain on x0, x1, ..., and the other
        half OR2 formulas on fresh variables; the claim holds every
        second link of the chain, a clause per four formulas. Each chain
        link meets at most two claim clauses, so it takes at most two
        evaluations, and each fresh formula none, where testing every
        formula against every clause would take a number quadratic in the
        base."""
        evaluations = 0

        class Counting(frozenset):
            def __contains__(self, item):
                nonlocal evaluations
                evaluations += 1
                return frozenset.__contains__(self, item)

        counted = Relation("OR2_COUNTED", 2, OR2.tuples)
        object.__setattr__(counted, "tuples", Counting(counted.tuples))

        def link(a, b):
            return gamma(Constraint(counted, (a, b)))

        per_formula = []
        for n in (100, 200, 400, 800, 1600, 3200, 6400):
            chain = [link(f"x{i}", f"x{i + 1}") for i in range(n // 2)]
            fresh = [link(f"y{i}", f"z{i}") for i in range(n // 2)]
            delta = chain + fresh
            alpha = gamma(*(f.constraints[0] for f in chain[::2]))
            support = Support(range(0, n // 2, 2))
            # Warm the per-relation caches, whose first fill reads the tuples.
            arg_exists(delta, alpha)
            counts = []
            for query, want in (
                (lambda: arg_exists(delta, alpha), True),
                (lambda: find_minimal_support(delta, alpha), support),
                (lambda: argcheck(support.formulas(delta), alpha), True),
                (lambda: argrel(delta, alpha, 0), True),
                (lambda: argrel(delta, alpha, n - 1), False),
            ):
                evaluations = 0
                assert query() == want
                counts.append(evaluations)
            # Each support link is evaluated, and no link more than twice.
            assert n // 4 <= min(counts) and max(counts) <= n
            per_formula.append(counts[0] / n)
        assert max(per_formula) - min(per_formula) < 0.01


KB_RELATIONS = (NEQ, IMPL, OR2, EQ2, AND_NOT, NAE3, ONE_IN_THREE, T, F)


@st.composite
def kb_instances(draw):
    """8-10 formulas of 1-2 constraints over at most 10 variables; the unit
    relations T and F make bases with several MCSes common."""
    variables = [f"v{i}" for i in range(draw(st.integers(2, 10)))]

    def formula():
        constraints = []
        for _ in range(draw(st.integers(1, 2))):
            relation = draw(st.sampled_from(KB_RELATIONS))
            args = tuple(draw(st.sampled_from(variables)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    delta = [formula() for _ in range(draw(st.integers(8, 10)))]
    alpha = formula()
    return delta, alpha, draw(st.integers(0, len(delta) - 1))


def all_queries(delta, alpha, psi, **kwargs):
    return (
        arg_exists(delta, alpha, **kwargs),
        find_minimal_support(delta, alpha, **kwargs),
        enumerate_minimal_supports(delta, alpha, **kwargs),
        argrel(delta, alpha, psi, **kwargs),
    )


@st.composite
def bitset_instances(draw, sizes=st.integers(0, 16)):
    """0-16 formulas (or as many as `sizes` draws) over at most 5
    variables, about one in six a repeat of an earlier one and others
    valid or unsatisfiable, with a claim that may be valid or
    unsatisfiable too."""
    variables = [f"v{i}" for i in range(draw(st.integers(1, 5)))]

    def formula():
        v = draw(st.sampled_from(variables))
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return gamma(Constraint(EQ2, (v, v)))
        if kind == 1:
            return gamma(Constraint(T, (v,)), Constraint(F, (v,)))
        constraints = []
        for _ in range(draw(st.integers(1, 2))):
            relation = draw(st.sampled_from(KB_RELATIONS))
            args = tuple(draw(st.sampled_from(variables)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    delta = []
    for _ in range(draw(sizes)):
        repeat = delta and draw(st.integers(0, 5)) == 0
        delta.append(draw(st.sampled_from(delta)) if repeat else formula())
    return delta, formula()


def kb_answers(kb, n):
    """Every query of a compiled base, relevance for each of the first n
    formulas."""
    relevant = [kb.relevant(i) for i in range(n)]
    return kb.exists(), kb.first_support(), kb.minimal_supports(), relevant


class TestCompiledBase:
    """The auto engine's compiled signature base against the generic
    engine's canonical subset search and against known answers."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(kb_instances())
    def test_auto_matches_generic(self, instance):
        delta, alpha, psi = instance
        exists, support, supports, relevant = all_queries(delta, alpha, psi)
        want = enumerate_minimal_supports(delta, alpha, engine="generic")
        assert supports == want
        assert exists == bool(want) == arg_exists(delta, alpha, engine="generic")
        if want:
            assert support in want
            assert argcheck(support.formulas(delta), alpha)
        else:
            assert support is None
        assert find_minimal_support(delta, alpha, engine="generic") == (
            want[0] if want else None
        )
        assert relevant == any(psi in s for s in want)
        assert relevant == argrel(delta, alpha, psi, engine="generic")

    @pytest.mark.parametrize("engine", ["auto", "generic"])
    def test_valid_claim_has_only_the_empty_support(self, engine):
        delta = [
            gamma(Constraint(T, ("x",))),
            gamma(Constraint(F, ("x",))),
            gamma(Constraint(NEQ, ("a", "b"))),
        ]
        alpha = gamma(Constraint(EQ2, ("y", "y")))
        for psi in range(len(delta)):
            answers = all_queries(delta, alpha, psi, engine=engine)
            assert answers == (True, Support(()), [Support(())], False)

    @pytest.mark.parametrize("engine", ["auto", "generic"])
    def test_consistent_base_without_entailment(self, engine):
        delta = [gamma(Constraint(NEQ, ("a", "b"))), gamma(Constraint(IMPL, ("b", "c")))]
        alpha = gamma(Constraint(T, ("c",)))
        for psi in range(len(delta)):
            assert all_queries(delta, alpha, psi, engine=engine) == (
                False,
                None,
                [],
                False,
            )

    @pytest.mark.parametrize("engine", ["auto", "generic"])
    def test_empty_base(self, engine):
        tautology = gamma(Constraint(EQ2, ("x", "x")))
        assert find_minimal_support([], tautology, engine=engine) == Support(())
        assert enumerate_minimal_supports([], tautology, engine=engine) == [Support(())]
        assert find_minimal_support([], or2("a", "b"), engine=engine) is None
        assert enumerate_minimal_supports([], or2("a", "b"), engine=engine) == []
        contradiction = gamma(Constraint(NEQ, ("x", "x")))
        assert enumerate_minimal_supports([], contradiction, engine=engine) == []

    @pytest.mark.parametrize("engine", ["auto", "generic"])
    def test_duplicate_formulas_in_an_inconsistent_base(self, engine):
        impl = gamma(Constraint(IMPL, ("x", "y")))
        delta = [
            gamma(Constraint(T, ("x",))),
            gamma(Constraint(F, ("x",))),
            impl,
            impl,
            gamma(Constraint(F, ("y",))),
        ]
        alpha = gamma(Constraint(T, ("y",)))
        supports = enumerate_minimal_supports(delta, alpha, engine=engine)
        assert supports == [Support((0, 2)), Support((0, 3))]
        assert find_minimal_support(delta, alpha, engine=engine) in supports
        relevant = [argrel(delta, alpha, i, engine=engine) for i in range(len(delta))]
        assert relevant == [True, False, True, True, False]

    @pytest.mark.parametrize("size", [63, 70])
    def test_large_inconsistent_base(self, size):
        # F(v0) first, T(v0) and IMPL(v0, v1) last, and fillers over
        # v2..v9 in between: the one minimal support for T(v1) is the
        # last two formulas. 70 formulas need two signature words.
        fillers = [
            gamma(Constraint(rel, (f"v{i}", f"v{j}")))
            for rel in (NEQ, EQ2, IMPL)
            for i, j in itertools.combinations(range(2, 10), 2)
        ]
        delta = (
            [gamma(Constraint(F, ("v0",)))]
            + fillers[: size - 3]
            + [gamma(Constraint(T, ("v0",))), gamma(Constraint(IMPL, ("v0", "v1")))]
        )
        assert len(delta) == size
        alpha = gamma(Constraint(T, ("v1",)))
        want = Support((size - 2, size - 1))
        assert all_queries(delta, alpha, size - 1, max_kb=size) == (
            True,
            want,
            [want],
            True,
        )
        assert not argrel(delta, alpha, 0, max_kb=size)
        assert all_queries(delta, gamma(Constraint(F, ("v1",))), 0, max_kb=size) == (
            False,
            None,
            [],
            False,
        )

    @pytest.mark.parametrize("n_vars", [20, 21])
    def test_either_side_of_the_mask_limit(self, n_vars):
        names = [f"v{i:02d}" for i in range(n_vars)]
        chain = GammaFormula(
            tuple(Constraint(IMPL, pair) for pair in zip(names, names[1:]))
        )
        delta = [
            gamma(Constraint(T, ("v00",))),
            gamma(Constraint(F, ("v00",))),
            chain,
        ]
        alpha = gamma(Constraint(T, (names[-1],)))
        fits = _mask_order(delta, alpha, DEFAULT_MAX_MODELS) is not None
        assert fits == (n_vars == 20)
        assert all_queries(delta, alpha, 2) == (
            True,
            Support((0, 2)),
            [Support((0, 2))],
            True,
        )
        assert not argrel(delta, alpha, 1)

    def test_sixty_four_formulas_at_the_mask_limit(self):
        # 64 formulas over 20 variables fill one signature word, so alpha's
        # bit takes a byte of its own and the base still fits the limit;
        # 65 take two words and do not. T(v00) and F(v00) make the base
        # inconsistent and NAE3 puts it in no fragment, so only the
        # signature base answers: subset search refuses 64 > max_kb.
        names = [f"v{i:02d}" for i in range(20)]
        chain = [gamma(Constraint(IMPL, pair)) for pair in zip(names[1:], names[2:])]
        nae = [gamma(Constraint(NAE3, ("v00", "v01", v))) for v in names[2:5]]
        fillers = [or2(a, b) for a, b in itertools.combinations(names[1:], 2)]
        delta = [
            gamma(Constraint(T, ("v00",))),
            gamma(Constraint(F, ("v00",))),
            gamma(Constraint(T, ("v01",))),
            *chain,
            *nae,
        ]
        delta += fillers[: 64 - len(delta)]
        yes = gamma(Constraint(T, ("v19",)))
        no = gamma(Constraint(F, ("v19",)))
        assert len(delta) == 64 > DEFAULT_MAX_KB
        assert len(variables_of(delta)) == 20
        assert _mask_order(delta, yes, DEFAULT_MAX_MODELS) is not None
        assert _mask_order([*delta, delta[-1]], yes, DEFAULT_MAX_MODELS) is None
        assert arg_exists(delta, yes) is True
        assert argcheck(find_minimal_support(delta, yes).formulas(delta), yes)
        assert arg_exists(delta, no) is False
        assert find_minimal_support(delta, no) is None

    @pytest.mark.parametrize(
        "size, n_vars",
        [pytest.param(size, 8, id=str(size)) for size in (8, 63, 64, 65, 70)]
        + [
            pytest.param(size, n_vars, id=f"{n_vars}vars-{size}")
            for n_vars in (1, 2, 3)
            for size in (12, 20)
        ],
    )
    def test_signatures_match_brute_force(self, size, n_vars):
        # Formula 63 takes the top bit of the first signature word and 64
        # starts a second word; a wrong bit for either changes mcs or bad
        # here, before any query loop runs. Over 1 to 3 variables a model
        # bitset is shorter than one byte; 12 formulas take the subset
        # bitset there and 20 are peeled.
        rng = random.Random(size if n_vars == 8 else 100 * n_vars + size)
        variables = [f"v{i}" for i in range(n_vars)]

        def formula():
            relation = rng.choice(KB_RELATIONS)
            args = tuple(rng.choice(variables) for _ in range(relation.arity))
            return gamma(Constraint(relation, args))

        delta = [formula() for _ in range(size)]
        alpha = gamma(Constraint(OR2, (variables[0], variables[min(1, n_vars - 1)])))
        order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
        signatures, outside = set(), set()
        for values in itertools.product((False, True), repeat=len(order)):
            point = dict(zip(order, values))
            sig = sum(
                1 << i
                for i, f in enumerate(delta)
                if all(satisfies(point, c) for c in f.constraints)
            )
            signatures.add(sig)
            if not all(satisfies(point, c) for c in alpha.constraints):
                outside.add(sig)
        kb = _KB(delta, alpha, order)
        assert kb.mcs == brute_maximal(signatures)
        assert len(kb.mcs) > 1 and non_models_match(kb, outside)

    @pytest.mark.parametrize(
        "n_vars, size, wide, chunk",
        [
            pytest.param(n, size, False, None, id=f"{n}-{size}")
            for n in (12, 14, 16)
            for size in (0, 1, 16, 17)
        ]
        + [pytest.param(12, size, False, None, id=f"12-{size}") for size in (63, 64, 65)]
        + [
            pytest.param(12, 17, True, None, id="12-17-both-sides-of-the-arity-cut"),
            pytest.param(14, 40, True, None, id="14-40-both-sides-of-the-arity-cut"),
            pytest.param(12, 16, True, 64, id="12-16-chunk-64"),
            pytest.param(13, 41, True, 24, id="13-41-chunk-24"),
        ],
    )
    def test_wide_signatures_match_brute_force(self, n_vars, size, wide, chunk, monkeypatch):
        # Formulas of 1-4 constraints draw their arguments, repeated and
        # unsorted, from the last four variables, from variables spread
        # over the whole order, or from anywhere. 16 formulas fill a 16-bit
        # code and 17 widen it; 64 fill a word and 65 take two. The wide
        # bases also draw BRIDGE7, a random arity-5 relation (from its CNF,
        # at the arity cut) and a random arity-6 one (from its table), and
        # lead with arguments that merge a literal or make a clause
        # tautological. A transpose step of `chunk` assignments puts
        # several step boundaries, and a short last step, in one compile.
        if chunk is not None:
            monkeypatch.setattr(kernels, "_CHUNK", chunk)
        rng = random.Random(1000 * n_vars + size)
        variables = [f"v{i:02d}" for i in range(n_vars)]
        pools = [variables[-4:], variables[:: n_vars // 4] + variables[-1:], variables]
        relations = KB_RELATIONS
        delta = []
        if wide:
            relations += tuple(
                Relation(name, k, frozenset(rng.sample(range(1 << k), (1 << k) // 2)))
                for name, k in (("R5", 5), ("R6", 6))
            )
            relations += (BRIDGE7,)
            assert relations[-3].arity <= formulas._CNF_ARITY < relations[-2].arity
            x, y, z = variables[-1], variables[0], variables[n_vars // 2]
            delta = [
                gamma(Constraint(IMPL, (x, x))),
                gamma(Constraint(OR2, (y, y)), Constraint(NAE3, (x, z, x))),
                gamma(Constraint(relations[-3], (z, x, z, y, x))),
                gamma(Constraint(BRIDGE7, (x, y, x, z, y, y, x))),
            ]

        def formula():
            constraints = []
            for _ in range(rng.randint(1, 4)):
                relation = rng.choice(relations)
                pool = rng.choice(pools)
                args = tuple(rng.choice(pool) for _ in range(relation.arity))
                constraints.append(Constraint(relation, args))
            return GammaFormula(tuple(constraints))

        delta += [formula() for _ in range(size - len(delta))]
        alpha = gamma(Constraint(OR2, (variables[-1], variables[0])))
        order = tuple(variables)
        codes = np.zeros(1 << n_vars, dtype=object)
        codes[:] = 0
        for i, f in enumerate(delta):
            codes += satisfaction_row(f, order).astype(object) << i
        outside = ~satisfaction_row(alpha, order)
        kb = _KB(delta, alpha, order)
        assert kb.mcs == brute_maximal(codes.tolist())
        bad = non_models_match(kb, codes[outside].tolist())
        if size >= 16:
            assert len(kb.mcs) > 1 and bad

    @pytest.mark.parametrize(
        "n_vars, size",
        [(6, 8), (8, 17), (12, 16), (14, 12), (16, 17), (9, 63), (9, 64), (9, 65)],
    )
    def test_claim_bit_matches_mask_rows(self, n_vars, size):
        # Alpha is compiled as bit `size` of the signature codes; here it is
        # checked against one models_mask row per formula and one for alpha.
        # Each base leads with repeated arguments, IMPL(x, x) and
        # NAE3(x, y, x), a formula of three constraints, and T(y), F(y);
        # alpha also constrains w, which no formula has, as EQ2(w, w), so
        # its models still depend on the base. 17 formulas are peeled at 8
        # variables and take the bitset at 16; 63 fill a 64-bit code with
        # alpha's bit, and 64 and 65 take two words. From 12 variables the
        # kernel materialises tables near the last axes.
        rng = random.Random(100 * n_vars + size)
        variables = [f"v{i:02d}" for i in range(n_vars - 1)]
        x, y, z = variables[-1], variables[0], variables[len(variables) // 2]
        pools = [variables[-4:], variables[:: max(1, n_vars // 4)], variables]

        def formula():
            constraints = []
            for _ in range(rng.randint(1, 3)):
                relation = rng.choice(KB_RELATIONS)
                pool = rng.choice(pools)
                args = tuple(rng.choice(pool) for _ in range(relation.arity))
                constraints.append(Constraint(relation, args))
            return GammaFormula(tuple(constraints))

        delta = [
            gamma(Constraint(IMPL, (x, x))),
            gamma(Constraint(NAE3, (x, y, x))),
            gamma(
                Constraint(OR2, (z, x)),
                Constraint(NEQ, (y, z)),
                Constraint(ONE_IN_THREE, (z, y, z)),
            ),
            gamma(Constraint(T, (y,))),
            gamma(Constraint(F, (y,))),
        ]
        delta += [formula() for _ in range(size - len(delta))]
        alpha = gamma(Constraint(EQ2, ("w", "w")), Constraint(OR2, (z, x)))
        order = (*variables, "w")
        assert "w" not in variables_of(delta)
        codes = np.zeros(1 << n_vars, dtype=object)
        codes[:] = 0
        for i, f in enumerate(delta):
            codes += models_mask(f.constraints, order).astype(object) << i
        outside = ~models_mask(alpha.constraints, order)
        kb = _KB(delta, alpha, order)
        assert kb.mcs == brute_maximal(codes.tolist())
        assert len(kb.mcs) > 1 and non_models_match(kb, codes[outside].tolist())

    def test_no_mask_per_compile(self, monkeypatch):
        # The formulas' and alpha's model bitsets come from their clauses'
        # literal bitsets, so a compile over relations no wider than the
        # arity cut builds no satisfaction mask at all.
        def forbidden(*args, **kwargs):
            raise AssertionError("the signature base built a mask")

        monkeypatch.setattr(formulas, "models_mask", forbidden)
        monkeypatch.setattr(kernels, "filter_models", forbidden)
        delta = [or2(f"v{i}", f"v{i + 1}") for i in range(12)]
        alpha = gamma(Constraint(T, ("v0",)))
        kb = _KB(delta, alpha, tuple(sorted(variables_of(delta) | alpha.variables)))
        assert kb.mcs == [(1 << 12) - 1] and kb.unentailing

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_lacking_patterns_past_sixteen(self, n):
        # Bit s of pattern i is set iff subset s lacks formula i.
        subsets = np.arange(1 << n)
        patterns = argumentation._lacking(n)
        assert len(patterns) == n
        for i, pattern in enumerate(patterns):
            want = np.packbits((subsets >> i & 1) == 0, bitorder="little")
            assert pattern == int.from_bytes(want.tobytes(), "little")

    @pytest.mark.parametrize("size, bound", [(13, 10_511_849), (41, 21_524_152)])
    def test_compile_memory_at_the_mask_limit(self, size, bound):
        # One compile over 2**20 assignments: 13 formulas take the subset
        # bitset and 41 are peeled. Each bound is the tracemalloc peak, in
        # bytes, of the per-formula broadcast-OR compile this one replaced,
        # on the same base: 10.02 and 20.53 MB. This compile peaked at 7.43
        # and 20.51 MB; past 16 formulas the peel sets the peak.
        names = [f"v{i:02d}" for i in range(20)]
        chain = [gamma(Constraint(IMPL, pair)) for pair in zip(names[1:], names[2:])]
        nae = [gamma(Constraint(NAE3, ("v00", "v01", v))) for v in names[2:5]]
        fillers = [or2(a, b) for a, b in itertools.combinations(names[1:], 2)]
        delta = [
            gamma(Constraint(T, ("v00",))),
            gamma(Constraint(F, ("v00",))),
            gamma(Constraint(T, ("v01",))),
            *chain,
            *nae,
            *fillers,
        ][:size]
        alpha = gamma(Constraint(T, ("v19",)))
        tracemalloc.start()
        try:
            kb = _KB(delta, alpha, tuple(names))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kb.bitset == (size == 13) and kb.mcs
        assert peak <= bound

    @pytest.mark.parametrize("size", [0, 1, 12, 16])
    def test_small_bases_skip_maximal(self, size, monkeypatch):
        # Up to 16 formulas the compile reads mcs and the unentailing
        # subsets off one presence bitset, so _maximal is reached only past
        # that.
        def forbidden(*args):
            raise AssertionError("a small base went through _maximal")

        monkeypatch.setattr(argumentation, "_maximal", forbidden)
        delta = [or2(f"v{i}", f"v{i + 1}") for i in range(size - 1)]
        delta += [gamma(Constraint(F, ("v0",)))][:size]
        alpha = gamma(Constraint(T, ("v0",)))
        order = tuple(sorted(variables_of(delta) | alpha.variables))
        kb = _KB(delta, alpha, order)
        codes = np.zeros(1 << len(order), dtype=object)
        codes[:] = 0
        for i, f in enumerate(delta):
            codes += satisfaction_row(f, order).astype(object) << i
        outside = ~satisfaction_row(alpha, order)
        assert kb.mcs == brute_maximal(codes.tolist())
        non_models_match(kb, codes[outside].tolist())

    @settings(max_examples=150, deadline=None, database=None)
    @given(bitset_instances())
    def test_bitset_queries_match_generic_and_wide(self, instance):
        """Up to 16 formulas every query is read off the bitsets. They
        agree with the generic engine's subset search (its one support is
        its first, so only membership is compared) and, answer for answer,
        with the wide path on the same codes: the base padded to 17
        formulas with valid ones, which lie in no minimal support and
        change no other answer."""
        delta, alpha = instance
        order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
        kb = _KB(delta, alpha, order)
        exists, support, supports, relevant = kb_answers(kb, len(delta))
        want = enumerate_minimal_supports(delta, alpha, engine="generic")
        assert supports == want
        assert exists is bool(want)
        assert support in want if want else support is None
        assert relevant == [any(i in s for s in want) for i in range(len(delta))]
        pad = gamma(Constraint(EQ2, (order[0], order[0])))
        wide = _KB(delta + [pad] * (17 - len(delta)), alpha, order)
        pads = [False] * (17 - len(delta))
        assert kb_answers(wide, 17) == (exists, support, supports, relevant + pads)

    BERGE_BASE = [
        gamma(Constraint(T, ("x",))),
        gamma(Constraint(F, ("x",))),
        gamma(Constraint(IMPL, ("x", "y"))),
        gamma(Constraint(NEQ, ("x", "y"))),
        gamma(Constraint(OR2, ("x", "y"))),
        gamma(Constraint(T, ("y",))),
    ]

    @pytest.mark.parametrize("size", [6, 12, 16])
    def test_small_bases_skip_edges_and_berge(self, size, monkeypatch):
        """Up to 16 formulas no query reaches the peel's hitting-set search
        (`_hitting_sets`, which took the place of per-MCS edges and Berge's
        method); the answers are the generic engine's. The base repeats six
        formulas that alone have three MCSes and six minimal supports of
        T(y)."""

        def forbidden(*args):
            raise AssertionError("a small base went through the hitting-set search")

        delta = (self.BERGE_BASE * 3)[:size]
        alpha = gamma(Constraint(T, ("y",)))
        want = enumerate_minimal_supports(delta, alpha, engine="generic")
        assert len(want) >= 6
        monkeypatch.setattr(argumentation, "_hitting_sets", forbidden)
        monkeypatch.setattr(argumentation, "_maximal", forbidden)
        kb = _KB(delta, alpha, _mask_order(delta, alpha, DEFAULT_MAX_MODELS))
        exists, support, supports, relevant = kb_answers(kb, size)
        assert (exists, supports) == (True, want)
        assert support in want
        assert relevant == [any(i in s for s in want) for i in range(size)]
        assert enumerate_minimal_supports(delta, alpha) == want

    def test_sixteen_and_seventeen_formulas_agree(self, monkeypatch):
        """A 17th formula, valid, moves the base over two variables past
        the subset bitset to the hitting-set search and changes no
        answer."""
        delta = (self.BERGE_BASE * 3)[:16]
        wider = delta + [gamma(Constraint(EQ2, ("y", "y")))]
        calls = []
        search = argumentation._hitting_sets
        monkeypatch.setattr(
            argumentation, "_hitting_sets", lambda *args: calls.append(1) or search(*args)
        )
        for alpha in (gamma(Constraint(T, ("y",))), gamma(Constraint(F, ("y",)))):
            for psi in (0, 2, 4, 15):
                assert all_queries(delta, alpha, psi) == all_queries(wider, alpha, psi)
            assert not argrel(wider, alpha, 16)
        assert calls

    @pytest.mark.parametrize(
        "size, spare, bitset",
        [(17, 3, True), (20, 3, True), (17, 4, False), (20, 4, False)],
    )
    def test_bitset_rule_past_sixteen_formulas(self, size, spare, bitset, monkeypatch):
        """Past 16 formulas the compile takes the subset bitset while the
        2**n subsets number at most 8 per assignment, over n - 3
        variables, and peels over n - 4. Each side matches a brute-force
        subset oracle (`subset_oracle`); the bitset never reaches
        `_maximal` or the hitting-set search, and the peel builds no
        transform. The formulas draw random relations over six hub
        variables, and each other variable enters one formula through
        the valid EQ2(v, v), so every variable is used and the distinct
        signatures stay few enough for the oracle."""
        rng = random.Random(size * 10 + spare)
        variables = [f"v{i:02d}" for i in range(size - spare)]
        hub = variables[:6]

        def draw(relations):
            relation = rng.choice(relations)
            return Constraint(relation, tuple(rng.choice(hub) for _ in range(relation.arity)))

        delta = [gamma(draw(KB_RELATIONS)) for _ in range(size)]
        for i, v in enumerate(variables[len(hub) :]):
            delta[i] = gamma(*delta[i].constraints, Constraint(EQ2, (v, v)))
        alpha = gamma(draw((OR2, IMPL, NEQ)))
        order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
        assert order == tuple(variables)
        codes = np.zeros(1 << len(order), dtype=np.int64)
        for i, f in enumerate(delta):
            codes |= satisfaction_row(f, order).astype(np.int64) << i
        mcs, want = subset_oracle(codes, ~satisfaction_row(alpha, order), size)
        assert len(want[2]) > 1 and True in want[3] and False in want[3]

        def forbidden(*args):
            raise AssertionError("the wrong mode for the bitset rule")

        if bitset:
            monkeypatch.setattr(argumentation, "_maximal", forbidden)
            monkeypatch.setattr(argumentation, "_hitting_sets", forbidden)
        else:
            monkeypatch.setattr(argumentation, "_zeta", forbidden)
        kb = _KB(delta, alpha, order)
        assert kb.bitset is bitset
        assert kb.mcs == mcs
        assert kb_answers(kb, size) == want
        assert ("unentailing" in vars(kb)) is bitset
        assert enumerate_minimal_supports(delta, alpha) == want[2]


class TestCompileSetUp:
    """What one signature compile and its route pay besides the kernel:
    relation templates fetched once per compile, and each lazily read
    part computed once per object."""

    @staticmethod
    def base():
        """An inconsistent base of six formulas, two MCSes, and a claim
        one of them entails."""
        delta = [
            gamma(Constraint(T, ("a",))),
            gamma(Constraint(IMPL, ("a", "b"))),
            gamma(Constraint(F, ("a",))),
            gamma(Constraint(IMPL, ("b", "c"))),
            or2("c", "d"),
            gamma(Constraint(NEQ, ("d", "e"))),
        ]
        return delta, gamma(Constraint(T, ("c",)))

    def test_equal_relations_cost_one_lookup_per_compile(self, monkeypatch):
        # The template cache holds IMPL, NEQ, OR2, T and F already; the base
        # uses copies that are equal to them but not the same objects, so
        # every cache lookup of a copy runs Relation.__eq__ on the key.
        for relation in (IMPL, NEQ, OR2, T, F):
            formulas._literal_template(relation)
        impl, neq, or_, t, f = (
            Relation(r.name, r.arity, r.tuples) for r in (IMPL, NEQ, OR2, T, F)
        )
        names = [f"v{i}" for i in range(10)]
        delta = [gamma(Constraint(t, ("v0",))), gamma(Constraint(f, ("v0",)))]
        for i in range(1, 10):
            delta.append(
                gamma(
                    Constraint(impl, (names[i - 1], names[i])),
                    Constraint(or_, (names[i], names[(i + 3) % 10])),
                )
            )
        delta.append(gamma(Constraint(neq, ("v7", "v9"))))
        alpha = gamma(Constraint(impl, ("v1", "v3")))
        constraints = sum(len(f.constraints) for f in (*delta, alpha))
        assert constraints == 22
        order = _mask_order(delta, alpha, 1 << 22)
        fetched, compared = [], []
        fetch, equal = formulas._literal_template, Relation.__eq__

        def counting_fetch(relation):
            fetched.append(relation)
            return fetch(relation)

        def counting_equal(self, other):
            compared.append(self)
            return equal(self, other)

        with monkeypatch.context() as patched:
            patched.setattr(formulas, "_literal_template", counting_fetch)
            patched.setattr(Relation, "__eq__", counting_equal)
            kb = _KB(delta, alpha, order)
        # One fetch per distinct relation object, and so at most one
        # compare each, where a fetch per constraint made 22 compares.
        assert sorted(map(id, fetched)) == sorted(map(id, (impl, neq, or_, t, f)))
        assert len(compared) <= 5
        supports = kb.minimal_supports()
        assert Support((3, 4)) in supports
        assert supports == enumerate_minimal_supports(delta, alpha, engine="generic")

    def test_each_transform_runs_once_per_compile(self, monkeypatch):
        delta, alpha = self.base()
        order = _mask_order(delta, alpha, 1 << 22)
        calls = []
        zeta = argumentation._zeta

        def counting(rows, lacking):
            calls.append(rows)
            return zeta(rows, lacking)

        monkeypatch.setattr(argumentation, "_zeta", counting)
        kb = _KB(delta, alpha, order)
        assert kb.bitset
        first = (kb.consistent, kb.unentailing, kb.minimal, kb.mcs)
        for _ in range(3):
            assert (kb.consistent, kb.unentailing, kb.minimal, kb.mcs) == first
            kb_answers(kb, len(delta))
        assert calls == [kb.rows, kb.outside]

    def test_whole_builds_its_premises_and_order_once(self, monkeypatch):
        delta, alpha = self.base()
        delta = delta[:4]
        built, ordered = [], []
        premises, mask_order = argumentation._Premises, argumentation._mask_order

        def counting_premises(*args):
            built.append(args)
            return premises(*args)

        def counting_order(*args):
            ordered.append(args)
            return mask_order(*args)

        monkeypatch.setattr(argumentation, "_Premises", counting_premises)
        monkeypatch.setattr(argumentation, "_mask_order", counting_order)
        whole = argumentation._Whole(delta, alpha, 1 << 22, 20, "horn")
        for _ in range(3):
            assert whole.premises is whole.premises and whole.order == whole.order
            whole.exists()
            whole.first_support()
        assert len(built) == len(ordered) == 1

    def test_lazy_values_stay_with_their_compile(self):
        # The descriptor stores each value in the instance, never on the
        # class: two compiles read their own values, in either order.
        one = self.base()
        two = ([f for i, f in enumerate(one[0]) if i != 2], one[1])
        kbs = [_KB(d, a, _mask_order(d, a, 1 << 22)) for d, a in (one, two)]
        assert all("consistent" not in vars(kb) for kb in kbs)
        fresh = [_KB(d, a, _mask_order(d, a, 1 << 22)) for d, a in (one, two)]
        values = [(kb.consistent, kb.minimal) for kb in reversed(kbs)][::-1]
        assert values == [(kb.consistent, kb.minimal) for kb in fresh]
        assert values[0] != values[1]
        descriptor = vars(_KB)["consistent"]
        assert set(vars(descriptor)) == {"compute", "name", "__doc__"}


def berge(edges):
    """The minimal hitting sets of edges, by Berge's method."""
    transversals = [0]
    for e in edges:
        hit = [t for t in transversals if t & e]
        grown = {t | 1 << i for t in transversals if not t & e for i in _members(e)}
        transversals = hit + [
            g
            for g in grown
            if not any(h & ~g == 0 for h in hit)
            and not any(o != g and o & ~g == 0 for o in grown)
        ]
    return transversals


def per_mcs_supports(kb):
    """The minimal supports as a list with repeats, found by Berge's
    method inside each MCS m: a subset of m entails the claim iff it
    meets every minimal set m & ~b over b in `bad`, and every subset of
    m is consistent."""
    found = []
    for m in kb.mcs:
        edges = []
        for e in sorted({m & ~b for b in kb.bad}, key=int.bit_count):
            if not any(f & ~e == 0 for f in edges):
                edges.append(e)
        found += berge(edges)
    return found


def peeled(delta, alpha):
    kb = _KB(delta, alpha, _mask_order(delta, alpha, DEFAULT_MAX_MODELS))
    assert not kb.bitset
    return kb


class TestPeelSearch:
    """Past the subset bitset `_KB` reads the minimal supports and
    relevance off one hitting-set search over `mcs` and `bad`
    (`_hitting_sets`)."""

    X, Y = gamma(Constraint(T, ("x",))), gamma(Constraint(F, ("x",)))
    LOOSE = [or2("x", "y"), gamma(Constraint(NEQ, ("x", "y")))] * 8 + [
        gamma(Constraint(IMPL, ("x", "y")))
    ]

    @settings(max_examples=80, deadline=None, database=None)
    # 17-20 formulas over at most 5 variables, so `_KB` peels.
    @given(bitset_instances(st.integers(17, 20)))
    # A valid claim: the empty support is the only one.
    @example((LOOSE + [X, Y], gamma(Constraint(EQ2, ("z", "z")))))
    # A consistent base that does not entail the claim: no support.
    @example((LOOSE, gamma(Constraint(T, ("z",)))))
    # EQ2(y, y) holds at every non-model, so it lies in no edge.
    @example((LOOSE + [X, gamma(Constraint(EQ2, ("y", "y")))], gamma(Constraint(T, ("y",)))))
    # T(x) and F(x) together lie in no MCS.
    @example((LOOSE + [gamma(Constraint(T, ("x",)), Constraint(F, ("x",)))], or2("x", "y")))
    def test_matches_subset_oracle(self, instance):
        delta, alpha = instance
        kb = peeled(delta, alpha)
        order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
        codes = np.zeros(1 << len(order), dtype=np.int64)
        for i, f in enumerate(delta):
            codes |= satisfaction_row(f, order).astype(np.int64) << i
        mcs, want = subset_oracle(codes, ~satisfaction_row(alpha, order), len(delta))
        assert kb.mcs == mcs
        assert kb_answers(kb, len(delta)) == want

    def test_each_support_once(self):
        """On a base whose MCSes share supports, Berge's method inside each
        MCS finds some support more than once; the search yields each once."""
        delta = (TestCompiledBase.BERGE_BASE * 3)[:18]
        kb = peeled(delta, gamma(Constraint(T, ("y",))))
        repeated = per_mcs_supports(kb)
        found = list(argumentation._hitting_sets(kb.mcs, kb.bad, kb.n))
        assert len(found) == len(set(found)) == len(set(repeated)) < len(repeated)
        assert set(found) == set(repeated)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_berge_per_mcs(self, seed):
        """Random 20-30-formula bases over 6-12 variables, one constraint
        each: the search finds the supports Berge's method finds inside
        the MCSes, and a formula is relevant iff one of them holds it."""
        rng = random.Random(seed)
        variables = [f"v{i:02d}" for i in range(rng.randint(6, 12))]

        def draw(relations):
            relation = rng.choice(relations)
            args = tuple(rng.choice(variables) for _ in range(relation.arity))
            return gamma(Constraint(relation, args))

        n = rng.randint(max(20, len(variables) + 4), 30)
        delta = [draw((NEQ, IMPL, OR2, EQ2, NAE3, T, F)) for _ in range(n)]
        kb = peeled(delta, draw((OR2, IMPL, NEQ)))
        want = set(per_mcs_supports(kb))
        found = list(argumentation._hitting_sets(kb.mcs, kb.bad, n))
        assert len(found) == len(set(found))
        assert set(found) == want
        relevant = [any(s >> i & 1 for s in want) for i in range(n)]
        assert [kb.relevant(i) for i in range(n)] == relevant


@st.composite
def small_inconsistent_fragment_bases(draw):
    """Bases in one fragment with their claim (a language of
    `TestRoute.FRAGMENT_LANGUAGES`, with T and F), made inconsistent by
    1-3 contradicting pairs T(x), F(x): at most 12 formulas of 1-2
    constraints over at most 8 variables, and a claim that may bring one
    more, all inside the small route's bound."""
    language = draw(st.sampled_from(TestRoute.FRAGMENT_LANGUAGES)) + (T, F)
    variables = [f"x{i}" for i in range(draw(st.integers(1, 8)))]

    def formula(pool):
        constraints = []
        for _ in range(draw(st.integers(1, 2))):
            relation = draw(st.sampled_from(language))
            args = tuple(draw(st.sampled_from(pool)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    pairs = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True))
    delta = [gamma(Constraint(unit, (v,))) for v in pairs for unit in (T, F)]
    delta += [formula(variables) for _ in range(draw(st.integers(0, 6)))]
    return draw(st.permutations(delta)), formula(variables + ["q"])


class TestRoute:
    """Which route `_route` takes, and where max_kb binds."""

    # The link between consecutive chain variables, per fragment: with
    # T(x0), and T(one) for the affine link, each base is consistent and
    # fixes every chain variable.
    LINKS = {
        "horn": lambda a, b: Constraint(IMPL, (a, b)),
        "bijunctive": lambda a, b: Constraint(NEQ, (a, b)),
        "affine": lambda a, b: Constraint(TestOneCompile.EVEN3, (a, b, "one")),
    }

    @pytest.mark.parametrize("n_vars", [5, 64])
    @pytest.mark.parametrize("fragment", sorted(LINKS))
    def test_consistent_fragment_base_stays_on_its_compile(
        self, fragment, n_vars, monkeypatch
    ):
        """Existence on a consistent base in a fragment with its claim is
        in P, so above the small route's bound it reads that one compile,
        inside the mask limit and past it, and never reaches the
        signature base or subset search. The 5-variable base lies inside
        the bound, which is lowered to 0 here; the eps-valid test below
        pins bases above the real bound."""
        names = [f"x{i:02d}" for i in range(n_vars)]
        delta = [gamma(Constraint(T, (v,))) for v in ("x00", "one")[: 1 + (fragment == "affine")]]
        delta += [gamma(self.LINKS[fragment](a, b)) for a, b in zip(names, names[1:])]
        # horn keeps every x true; the NEQ and EVEN3 links alternate.
        last = fragment == "horn" or n_vars % 2 == 1
        yes = gamma(Constraint(T if last else F, (names[-1],)))
        no = gamma(Constraint(F if last else T, (names[-1],)))
        fits = _mask_order(delta, yes, DEFAULT_MAX_MODELS) is not None
        assert fits == (n_vars == 5)
        monkeypatch.setattr(argumentation, "_SMALL_VARS", 0)

        def forbidden(*args, **kwargs):
            raise AssertionError("a consistent fragment base left its compile")

        for name in ("_KB", "_Search", "is_consistent", "entails"):
            monkeypatch.setattr(argumentation, name, forbidden)
        for alpha, want in ((yes, True), (no, False)):
            route = argumentation._route(
                delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
            )
            assert isinstance(route, argumentation._Whole)
            assert type(route.premises.engine) is logic._ENGINES[fragment]
            assert route.exists() is want
            support = route.first_support()
            assert (support is not None) is want
            assert arg_exists(delta, alpha) is want
        assert support is None
        assert argcheck(find_minimal_support(delta, yes).formulas(delta), yes)

    def test_base_outside_every_fragment_reads_the_signature_base(self, monkeypatch):
        """Existence and one support on a consistent base outside every
        fragment read the signature base inside the mask limit, with no
        is_consistent or entails call, and take the base whole past it;
        both agree with the generic engine."""
        # ONE_IN_THREE(a, b, d) and T(b) fix a and d false; NAE3 and
        # ONE_IN_THREE lie in no fragment. F(a) has the one minimal support
        # {1, 3}; nothing fixes c.
        delta = [
            gamma(Constraint(NAE3, ("a", "b", "c"))),
            gamma(Constraint(ONE_IN_THREE, ("a", "b", "d"))),
            gamma(Constraint(IMPL, ("d", "e"))),
            gamma(Constraint(T, ("b",))),
        ]
        claims = [gamma(Constraint(F, ("a",))), gamma(Constraint(T, ("c",)))]
        want = [
            (
                arg_exists(delta, alpha, engine="generic"),
                find_minimal_support(delta, alpha, engine="generic"),
            )
            for alpha in claims
        ]
        assert want == [(True, Support((1, 3))), (False, None)]

        def answers(route_type):
            for alpha, (exists, support) in zip(claims, want):
                route = argumentation._route(
                    delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
                )
                assert type(route) is route_type
                assert getattr(route, "premises", None) is None
                assert arg_exists(delta, alpha) is exists
                assert find_minimal_support(delta, alpha) == support

        def forbidden(*args, **kwargs):
            raise AssertionError("a base inside the mask limit was enumerated")

        with monkeypatch.context() as patched:
            patched.setattr(argumentation, "is_consistent", forbidden)
            patched.setattr(argumentation, "entails", forbidden)
            answers(_KB)
        monkeypatch.setattr(argumentation, "_MASK_LIMIT", 1)
        answers(argumentation._Whole)

    @staticmethod
    def bound_base(n_formulas, n_vars):
        """T(x0), F(x0), the IMPL chain x0 -> ... -> x{n_vars - 1}, then
        IMPL(x_i, x_{i+2}) for i = 0, 1, ... up to n_formulas: an
        inconsistent Horn base over n_vars variables."""
        names = [f"x{i}" for i in range(n_vars)]
        delta = [gamma(Constraint(T, ("x0",))), gamma(Constraint(F, ("x0",)))]
        delta += [gamma(Constraint(IMPL, pair)) for pair in zip(names, names[1:])]
        delta += [gamma(Constraint(IMPL, pair)) for pair in zip(names, names[2:])]
        assert len(delta) >= n_formulas
        return delta[:n_formulas]

    def test_small_base_reads_the_signature_base(self, monkeypatch):
        """Existence and one support on a base of at most 16 formulas over
        at most `_SMALL_VARS` variables, the claim's included, compile the
        signature base straight away, with no fragment compile first; one
        formula more, or one variable more, takes the fragment compile.
        Both routes give the signature base's answers."""
        small = argumentation._SMALL_VARS
        last = f"x{small - 1}"
        claims = [
            gamma(Constraint(T, (last,))),  # T(x0) and the chain
            gamma(Constraint(F, (last,))),  # no support
            gamma(Constraint(IMPL, ("x0", last))),  # the chain alone
        ]
        cases = (
            (self.bound_base(16, small), claims, _KB),
            (self.bound_base(17, small), claims, argumentation._Whole),
            (self.bound_base(16, small), [gamma(Constraint(T, ("y",)))], argumentation._Whole),
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("a small base was compiled for its fragment")

        for delta, alphas, route_type in cases:
            for alpha in alphas:
                order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
                kb = _KB(delta, alpha, order)
                with monkeypatch.context() as patched:
                    if route_type is _KB:
                        patched.setattr(argumentation, "_Premises", forbidden)
                    route = argumentation._route(
                        delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
                    )
                    assert type(route) is route_type
                    assert arg_exists(delta, alpha) is kb.exists()
                    assert find_minimal_support(delta, alpha) == kb.first_support()
        assert kb.exists() is False
        assert arg_exists(cases[0][0], claims[0]) is True

    # eps-valid languages of three fragments: ARG on each is in P.
    EPS_VALID_LANGUAGES = (
        (IMPL, TestOneCompile.NAND2, F),  # 0-valid, Horn
        (IMPL, OR2, T),  # 1-valid, dual Horn
        (EQ2, TestOneCompile.EVEN3),  # 0-valid, affine
    )

    def eps_valid_base(self, language, n_formulas, n_vars):
        """A random base over the language, every one of n_vars variables
        used, with one claim copied from the base, one on fresh variables
        that no base entails, and two at random."""
        relations = self.EPS_VALID_LANGUAGES[language]
        assert classify_complexity(ConstraintLanguage(relations)).arg == "P"
        rng = random.Random(3500 + 10 * language + n_vars)
        names = [f"x{i:02d}" for i in range(n_vars)]
        delta = []
        for i in range(n_formulas):
            relation = rng.choice(relations)
            # Every variable is used: the i-th formula's first argument.
            args = [names[i % n_vars]] + rng.sample(names, relation.arity - 1)
            delta.append(gamma(Constraint(relation, tuple(args))))
        claims = [gamma(rng.choice(delta).constraints[0])]
        fresh = rng.choice(relations)
        claims.append(gamma(Constraint(fresh, tuple(f"z{i}" for i in range(fresh.arity)))))
        for _ in range(2):
            relation = rng.choice(relations)
            claims.append(gamma(Constraint(relation, tuple(rng.sample(names, relation.arity)))))
        return delta, claims

    @staticmethod
    def answers_from_the_compile(delta, claims, monkeypatch):
        """Existence and one support equal the signature base's, with the
        signature base, subset search and the two oracles patched to
        raise."""
        want = []
        for alpha in claims:
            kb = _KB(delta, alpha, _mask_order(delta, alpha, DEFAULT_MAX_MODELS))
            want.append((kb.exists(), kb.first_support()))
        assert {exists for exists, _ in want} == {True, False}

        def forbidden(*args, **kwargs):
            raise AssertionError("an eps-valid base left its compile")

        for name in ("_KB", "_Search", "is_consistent", "entails"):
            monkeypatch.setattr(argumentation, name, forbidden)
        for alpha, (exists, support) in zip(claims, want):
            assert arg_exists(delta, alpha) is exists
            assert find_minimal_support(delta, alpha) == support

    @pytest.mark.parametrize("n_formulas, n_vars", [(17, 6), (12, 12)])
    @pytest.mark.parametrize("language", range(len(EPS_VALID_LANGUAGES)))
    def test_eps_valid_base_above_the_bound_never_builds_the_signature_base(
        self, language, n_formulas, n_vars, monkeypatch
    ):
        """A base over an eps-valid Schaefer language is consistent, and
        existence on it is in P. Above the small route's bound, by its
        formulas or by its variables, existence and one support read its
        one fragment compile and never build the signature base."""
        delta, claims = self.eps_valid_base(language, n_formulas, n_vars)
        for alpha in claims:
            order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
            assert len(delta) > 16 or len(order) > argumentation._SMALL_VARS
        self.answers_from_the_compile(delta, claims, monkeypatch)

    @pytest.mark.parametrize("n_formulas, n_vars", [(6, 6), (16, 11)])
    @pytest.mark.parametrize("language", range(len(EPS_VALID_LANGUAGES)))
    def test_small_eps_valid_base_takes_its_fragment_compile(
        self, language, n_formulas, n_vars, monkeypatch
    ):
        """Inside the small route's bound too, existence and one support
        on an eps-valid Schaefer base read its fragment compile, which
        answers with no MCS search, as the base is consistent; over such
        bases the signature base took a median 1.3x its time."""
        delta, claims = self.eps_valid_base(language, n_formulas, n_vars)
        # The second claim's fresh variables may take it past the bound.
        for alpha in claims[:1] + claims[2:]:
            order = _mask_order(delta, alpha, DEFAULT_MAX_MODELS)
            assert len(order) <= argumentation._SMALL_VARS
            route = argumentation._route(
                delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
            )
            assert type(route) is argumentation._Whole
        self.answers_from_the_compile(delta, claims, monkeypatch)

    @settings(max_examples=100, deadline=None, database=None)
    @given(small_inconsistent_fragment_bases())
    def test_small_inconsistent_base_matches_generic_and_the_fragment_route(self, instance):
        """On small inconsistent bases in one fragment with their claim,
        the signature base answers existence as the generic engine does,
        and gives the one support the fragment route gives, reached with
        the small route's bound lowered to 0."""
        delta, alpha = instance
        route = argumentation._route(
            delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
        )
        assert type(route) is _KB
        exists, support = arg_exists(delta, alpha), find_minimal_support(delta, alpha)
        assert exists is arg_exists(delta, alpha, engine="generic")
        assert (support is not None) is exists
        if support is not None:
            assert argcheck(support.formulas(delta), alpha, engine="generic")
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(argumentation, "_SMALL_VARS", 0)
            route = argumentation._route(
                delta, alpha, "auto", DEFAULT_MAX_MODELS, DEFAULT_MAX_KB
            )
            assert type(route) is argumentation._Whole
            assert arg_exists(delta, alpha) is exists
            assert find_minimal_support(delta, alpha) == support

    @staticmethod
    def state_note_base(n, overlapping=False):
        """T(v00), F(v00) and IMPL formulas on fresh pairs, n in all: two
        MCSes over 2n - 3 variables. With `overlapping`, IMPL(v00, w) and
        F(w) come third and fourth, a second conflict that shares T(v00)
        with the first: three MCSes, one of them two formulas short."""
        base = [gamma(Constraint(T, ("v00",))), gamma(Constraint(F, ("v00",)))]
        if overlapping:
            base += [gamma(Constraint(IMPL, ("v00", "w"))), gamma(Constraint(F, ("w",)))]
        fresh = [gamma(Constraint(IMPL, (f"a{i}", f"b{i}"))) for i in range(n - len(base))]
        return base + fresh

    @pytest.mark.parametrize("overlapping", [False, True])
    def test_inconsistent_fragment_base_past_the_mask_limit(self, monkeypatch, overlapping):
        """An inconsistent Horn base past the mask limit by its own
        variable count (18 formulas, 30 or 33 variables) is answered from
        its engine's MCSes, with no subset search; past the limit the
        search goes on below an inconsistent node, as the base with two
        overlapping conflicts needs. At 8 formulas, inside the limit, the
        same answers agree with the generic engine.
        """
        supported = 4 if overlapping else 2
        claims = (
            (gamma(Constraint(F, ("a0",))), False, None),
            (
                gamma(Constraint(IMPL, ("a0", "b0")), Constraint(T, ("v00",))),
                True,
                Support((0, supported)),
            ),
        )
        small = self.state_note_base(8, overlapping)
        for alpha, exists, support in claims:
            assert arg_exists(small, alpha, engine="generic") is exists
            assert find_minimal_support(small, alpha, engine="generic") == support
            assert arg_exists(small, alpha) is exists
            assert find_minimal_support(small, alpha) == support

        def forbidden(*args, **kwargs):
            raise AssertionError("an inconsistent fragment base reached subset search")

        delta = self.state_note_base(18, overlapping)
        assert len(variables_of(delta)) == (30 if overlapping else 33)
        assert _mask_order(delta, claims[0][0], DEFAULT_MAX_MODELS) is None
        monkeypatch.setattr(argumentation, "_Search", forbidden)
        for alpha, exists, support in claims:
            assert arg_exists(delta, alpha) is exists
            assert find_minimal_support(delta, alpha) == support

    @pytest.mark.parametrize(
        "pairs, fillers, capped",
        [(1, 0, False), (2, 2, False), (2, 0, True), (3, 8, False), (3, 0, True)],
    )
    def test_contradicting_pairs(self, pairs, fillers, capped, monkeypatch):
        """k pairs T(x), F(x) and some IMPL formulas on fresh variables
        have 2**k MCSes of equal size. The engine lists their complements
        in canonical order, unless the 2 + 4 + ... + 2**k nodes below the
        root pass the number of formulas. Whichever route answers, inside
        the limit and past a limit lowered to 1, the answers are the
        signature base's, and on up to 8 formulas the generic engine's;
        inside the limit an uncapped tree answers with no signature base.
        The small route's bound is lowered to 0, so that these bases take
        the fragment compile."""
        names = [f"x{i}" for i in range(pairs)]
        delta = [gamma(Constraint(unit, (v,))) for v in names for unit in (T, F)]
        delta += [gamma(Constraint(IMPL, (f"a{i}", f"b{i}"))) for i in range(fillers)]
        claims = [
            gamma(*(Constraint(F, (v,)) for v in names)),
            gamma(Constraint(T, ("x0",))),
            gamma(Constraint(T, ("y",))),
        ]
        engine = fragment_premises(delta, claims[0]).engine
        full = (1 << len(delta)) - 1
        rest = full & ~((1 << 2 * pairs) - 1)
        mcses = [
            rest | sum(1 << (2 * i + pick) for i, pick in enumerate(picks))
            for picks in itertools.product((0, 1), repeat=pairs)
        ]
        listed = [full & ~m for m in argumentation._canonical(mcses)]
        found = list(argumentation._corrections(engine, len(delta)))
        assert found == ([None] if capped else listed)
        kbs = [_KB(delta, a, _mask_order(delta, a, DEFAULT_MAX_MODELS)) for a in claims]

        def forbidden(*args, **kwargs):
            raise AssertionError("an uncapped tree handed over to the signature base")

        for fits in (True, False):
            with monkeypatch.context() as patched:
                # Else the small route would answer from the signature base.
                patched.setattr(argumentation, "_SMALL_VARS", 0)
                if not fits:
                    patched.setattr(argumentation, "_MASK_LIMIT", 1)
                elif not capped:
                    patched.setattr(argumentation, "_KB", forbidden)
                for alpha, kb in zip(claims, kbs):
                    assert arg_exists(delta, alpha) is kb.exists()
                    assert find_minimal_support(delta, alpha) == kb.first_support()
        if len(delta) <= 8:
            for alpha, kb in zip(claims, kbs):
                assert kb.exists() is arg_exists(delta, alpha, engine="generic")
        assert kbs[0].first_support() == Support(range(1, 2 * pairs, 2))

    # One language per fragment; T and F come with each.
    FRAGMENT_LANGUAGES = (
        (IMPL, TestOneCompile.NAND2),
        (IMPL, OR2),
        (IMPL, OR2, TestOneCompile.NAND2, NEQ, EQ2),
        (NEQ, EQ2, TestOneCompile.EVEN3),
    )

    def test_engine_mcses_match_the_signature_base(self, monkeypatch):
        """On random inconsistent bases in one fragment with the claim
        (1-3 contradicting pairs T(x), F(x) and up to six formulas more,
        which on every other base one plant satisfies), existence and one
        support under auto equal the signature base's, called directly,
        and existence the generic engine's. Where the search lists every
        MCS within its node cap, it lists the signature base's MCSes in
        their order, and the answers are checked again past a mask limit
        lowered to 1. Subset search, which takes the others past the
        limit, is tested elsewhere. The small route's bound is lowered to
        0, so that these bases take the fragment compile."""
        rng = random.Random(2323)
        answered = 0
        seen = set()
        for trial in range(200):
            language = ConstraintLanguage(self.FRAGMENT_LANGUAGES[trial % 4] + (T, F))
            variables = [f"x{i}" for i in range(rng.randint(3, 6))]
            plant = {v: rng.random() < 0.5 for v in variables}
            delta = [
                gamma(Constraint(unit, (v,)))
                for v in rng.sample(variables, rng.randint(1, 3))
                for unit in (T, F)
            ]
            while len(delta) < 8 and rng.random() < 0.8:
                f = random_formula(rng, language, variables, 2)
                if trial % 2 or all(satisfies(plant, c) for c in f.constraints):
                    delta.append(f)
            rng.shuffle(delta)
            if rng.random() < 0.5:
                sources = rng.sample(delta, rng.randint(1, 3))
                alpha = gamma(*(rng.choice(f.constraints) for f in sources))
            else:
                alpha = random_formula(rng, language, variables + ["q"], 2)
            kb = _KB(delta, alpha, _mask_order(delta, alpha, DEFAULT_MAX_MODELS))
            exists = arg_exists(delta, alpha, engine="generic")
            assert kb.exists() is exists
            compiled = fragment_premises(delta, alpha)
            assert compiled is not None and not compiled.engine.ok
            listed = list(argumentation._corrections(compiled.engine, len(delta)))
            done = None not in listed
            answered += done
            if done:
                full = (1 << len(delta)) - 1
                assert listed == [full & ~m for m in kb.mcs]
                seen.add((type(compiled.engine).__name__, exists))
            for fits in (True, False) if done else (True,):
                with monkeypatch.context() as patched:
                    # Else the small route would answer from the signature base.
                    patched.setattr(argumentation, "_SMALL_VARS", 0)
                    if not fits:
                        patched.setattr(argumentation, "_MASK_LIMIT", 1)
                    assert arg_exists(delta, alpha) is exists
                    support = find_minimal_support(delta, alpha)
                assert support == kb.first_support()
                assert (support is not None) is exists
                if support is not None:
                    assert argcheck(support.formulas(delta), alpha, engine="generic")
        # Some bases are answered by the search and some handed over.
        assert 20 <= answered <= 160
        assert len(seen) == 6

    # 21 formulas over 8 variables: T(a) and F(a) make the base
    # inconsistent, and 19 NEQ constraints on the even 6-cycle v0..v5
    # (each edge both ways, each long diagonal both ways, and one to w)
    # fix no variable, so nothing entails NEQ(a, v0).
    CYCLE = [(i, (i + 1) % 6) for i in range(6)] + [(i, i + 3) for i in range(3)]
    BUDGET_BASE = [gamma(Constraint(T, ("a",))), gamma(Constraint(F, ("a",)))] + [
        gamma(Constraint(NEQ, (f"v{i}", f"v{j}")))
        for pair in CYCLE
        for i, j in (pair, pair[::-1])
    ] + [gamma(Constraint(NEQ, ("v0", "w")))]

    def test_where_max_kb_binds_inside_the_mask_limit(self):
        """Under auto, existence and one support answer from the engine's
        MCSes past max_kb; all supports and relevance refuse the base
        first. Under generic all four reach subset search and refuse."""
        delta = self.BUDGET_BASE
        alpha = gamma(Constraint(NEQ, ("a", "v0")))
        assert len(delta) == DEFAULT_MAX_KB + 1 and len(variables_of(delta)) == 8
        assert _mask_order(delta, alpha, DEFAULT_MAX_MODELS) is not None
        assert arg_exists(delta, alpha) is False
        assert find_minimal_support(delta, alpha) is None
        with pytest.raises(BudgetExceededError):
            enumerate_minimal_supports(delta, alpha)
        with pytest.raises(BudgetExceededError):
            argrel(delta, alpha, 0)
        for query in (arg_exists, find_minimal_support, enumerate_minimal_supports):
            with pytest.raises(BudgetExceededError):
                query(delta, alpha, engine="generic")
        with pytest.raises(BudgetExceededError):
            argrel(delta, alpha, 0, engine="generic")


def satisfaction_row(formula, order):
    """Which of the 2**len(order) assignments satisfy the formula: each
    point of the formula's own variables is checked with `satisfies`, and
    every assignment reads its point off its own bits."""
    n = len(order)
    own = sorted(formula.variables)
    assignments = np.arange(1 << n)
    point = np.zeros(1 << n, dtype=np.int64)
    for v in own:
        point = point << 1 | (assignments >> (n - 1 - order.index(v))) & 1
    good = [
        all(satisfies(dict(zip(own, bits)), c) for c in formula.constraints)
        for bits in itertools.product((False, True), repeat=len(own))
    ]
    return np.array(good, dtype=np.bool_)[point]


def brute_maximal(rows):
    """The distinct rows that no other row contains, most members first,
    ties by ascending value."""
    rows = set(rows)
    tops = [r for r in rows if not any(o != r and o & r == r for o in rows)]
    return sorted(tops, key=lambda r: (-bin(r).count("1"), r))


def subset_oracle(codes, outside, n):
    """Brute-force answers for an n-formula base from its assignments'
    signature codes, `outside` marking the claim's non-models: a subset
    is consistent iff it lies inside a maximal signature, and entails
    the claim iff it lies inside no maximal non-model signature, checked
    on all 2**n subsets the way `non_models_match` does. The minimal
    supports are taken smallest first, each dropping its supersets.
    Returns the canonical MCSes and what `kb_answers` gives: existence,
    the shrink of the first entailing MCS, the minimal supports and each
    formula's relevance."""
    subsets = np.arange(1 << n)

    def inside(rows):
        hit = np.zeros(1 << n, dtype=np.bool_)
        for r in brute_maximal(rows):
            hit |= subsets & ~r == 0
        return hit

    entailing = ~inside(codes[outside].tolist())
    left = np.flatnonzero(inside(codes.tolist()) & entailing)
    left = left[np.argsort(np.bitwise_count(left), kind="stable")]
    minimal = []
    while len(left):
        minimal.append(int(left[0]))
        left = left[left & left[0] != left[0]]
    supports = sorted(
        (tuple(i for i in range(n) if m >> i & 1) for m in minimal),
        key=lambda m: (len(m), m),
    )
    mcs = brute_maximal(codes.tolist())
    first = None
    for m in mcs:
        if entailing[m]:
            for i in range(n):
                if m >> i & 1 and entailing[m & ~(1 << i)]:
                    m &= ~(1 << i)
            first = Support(tuple(i for i in range(n) if m >> i & 1))
            break
    relevant = [any(i in s for s in supports) for i in range(n)]
    return mcs, (bool(supports), first, [Support(s) for s in supports], relevant)


def non_models_match(kb, outside):
    """Assert that a compiled base holds the non-model signatures
    `outside` as the brute-force maximal ones do: as the `unentailing`
    bitset on the subset bitset, whose bit s is set iff s lies inside one
    of them, and as `bad` otherwise. Returns those maximal signatures."""
    bad = brute_maximal(outside)
    if not kb.bitset:
        assert kb.bad == bad
        return bad
    subsets = np.arange(1 << kb.n)
    inside = np.zeros(1 << kb.n, dtype=np.bool_)
    for b in bad:
        inside |= subsets & ~b == 0
    packed = np.packbits(inside, bitorder="little").tobytes()
    assert kb.unentailing == int.from_bytes(packed, "little")
    return bad


def signature_array(rows, n, dtype=None):
    """Rows as `_KB` hands them to `_maximal`: one code each in `dtype`,
    by default the narrowest unsigned type that holds n bits, for n <= 64,
    and 64-bit words, low word first, beyond."""
    if n <= 64:
        return np.array(rows, dtype=dtype or np.min_scalar_type((1 << n) - 1))
    words = (n + 63) // 64
    out = np.zeros((len(rows), words), dtype=np.uint64)
    for i, r in enumerate(rows):
        for w in range(words):
            out[i, w] = r >> (64 * w) & (2**64 - 1)
    return out


def sampled_rows(n, distinct, count, seed):
    """count rows drawn with repeats from `distinct` random n-bit values."""
    rng = random.Random(seed)
    values = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(distinct)]
    return [rng.choice(values) for _ in range(count)]


class TestMaximal:
    """_maximal's peel against a brute-force maximal set, in the canonical
    order the callers rely on."""

    @pytest.mark.parametrize(
        "n, rows",
        [
            (0, [0] * 3),
            (1, [0, 1, 1, 0]),
            (1, [0, 0]),
            (12, [0b101, 0b011, 0b101] * 200 + [0b110, 0b1000, 0b1000]),
            (12, [0b1111_0000_1111] * 512),
            (12, list(range(0, 1 << 12, 7))),
            (12, sampled_rows(12, 60, 700, seed=12)),
        ],
    )
    def test_routes_agree_where_the_bitset_fits(self, n, rows):
        want = brute_maximal(rows)
        for dtype in (None, np.uint32, np.uint64):
            assert _maximal(signature_array(rows, n, dtype)) == want

    @pytest.mark.parametrize("n", [13, 14, 15, 16])
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_routes_agree_up_to_sixteen_formulas(self, n, dtype):
        # 512 rows under 25 maximal ones of n/2 formulas each.
        rng = random.Random(n)
        tops = [sum(1 << i for i in rng.sample(range(n), n // 2)) for _ in range(25)]
        rows = tops + [rng.choice(tops) & rng.getrandbits(n) for _ in range(487)]
        want = brute_maximal(rows)
        assert len(want) == len(set(tops))
        assert _maximal(signature_array(rows, n, dtype)) == want

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_empty_base(self, dtype):
        # With no formulas every row is the empty set.
        for rows, want in (([0] * 5, [0]), ([], [])):
            assert _maximal(signature_array(rows, 0, dtype)) == want

    @pytest.mark.parametrize("n", [0, 1, 12, 63, 64, 65])
    def test_no_rows(self, n):
        assert _maximal(signature_array([], n)) == []

    @pytest.mark.parametrize("n", [12, 63, 64, 65])
    def test_peel_with_duplicates(self, n):
        rng = random.Random(n)
        distinct = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(8)]
        distinct += [d & rng.getrandbits(n) for d in distinct]
        rows = [rng.choice(distinct) for _ in range(100)] + distinct[:1] * 5
        assert _maximal(signature_array(rows, n)) == brute_maximal(rows)

    def test_ties_in_ascending_bitmask_order(self):
        rows = [0b1100, 0b0011, 0b1010, 0b0001]
        assert _maximal(signature_array(rows, 4)) == [0b0011, 0b1010, 0b1100]


# A 1-valid ternary relation closed under none of the four operations:
# 100 & 010, 100 | 001, maj(100, 010, 001), and 100 ^ 010 ^ 110 all
# leave the tuple set.
RC3 = Relation("RC3", 3, frozenset({0b111, 0b100, 0b010, 0b001, 0b110}))


class TestClassifyComplexity:
    def test_polynomial_monotone(self):
        report = classify_complexity(ConstraintLanguage.of(OR2))
        assert (report.arg, report.argcheck, report.argrel) == ("P", "P", "P")

    def test_tractable_existence_hard_relevance(self):
        report = classify_complexity(ConstraintLanguage.of(IMPL))
        assert (report.arg, report.argcheck, report.argrel) == (
            "P",
            "P",
            "NP-complete",
        )

    def test_no_valid_constant(self):
        report = classify_complexity(ConstraintLanguage.of(NEQ))
        assert (report.arg, report.argcheck, report.argrel) == (
            "NP-complete",
            "P",
            "NP-complete",
        )

    def test_one_valid_outside_schaefer(self):
        rep = relation_properties(RC3)
        assert rep.one_valid and not rep.schaefer
        report = classify_complexity(ConstraintLanguage.of(RC3))
        assert (report.arg, report.argcheck, report.argrel) == (
            "coNP-complete",
            "DP-complete",
            "SigmaP2-complete",
        )

    def test_fully_hard(self):
        for rel in (NAE3, ONE_IN_THREE):
            report = classify_complexity(ConstraintLanguage.of(rel))
            assert (report.arg, report.argcheck, report.argrel) == (
                "SigmaP2-complete",
                "DP-complete",
                "SigmaP2-complete",
            )

    def test_dual_horn_without_monotonicity(self):
        report = classify_complexity(ConstraintLanguage.of(RPRIME))
        assert (report.arg, report.argcheck, report.argrel) == (
            "P",
            "P",
            "NP-complete",
        )

    def test_combination_keeps_shared_closure_only(self):
        # NEQ kills Horn, dual Horn, and both valid constants; bijunctive
        # closure is the one property both relations share.
        report = classify_complexity(ConstraintLanguage.of(NEQ, IMPL))
        assert (report.arg, report.argcheck, report.argrel) == (
            "NP-complete",
            "P",
            "NP-complete",
        )
        assert report == classify_complexity(ConstraintLanguage.of(IMPL, NEQ))
