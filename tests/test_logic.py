"""Tests for CNF extraction and the satisfiability and entailment engines."""

import functools
import itertools
import operator
import random
import time
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argcl import (
    BudgetExceededError,
    Clause,
    Constraint,
    ConstraintLanguage,
    GammaFormula,
    PreconditionError,
    Relation,
    arg_exists,
    argcheck,
    argrel,
    argrel_negative,
    argrel_positive,
    cnf_of,
    entails,
    enumerate_minimal_supports,
    find_minimal_support,
    is_consistent,
    language_properties,
    negative_cnf_of,
    positive_cnf_of,
    relation_properties,
)

from argcl import argumentation
from argcl.argumentation import _shrink_consistent
from argcl.formulas import DEFAULT_MAX_MODELS, _constraint_template, satisfies
from argcl import logic
from argcl.logic import _Premises, _affine_rows, _fragment, _literal_template
from argcl.relations import RELATION_CACHE_SIZE, _language_report, truth_table
from conftest import (
    CATALOG,
    EQ2,
    IMPL,
    NAE3,
    NEQ,
    OR2,
    OR3,
    T,
    F,
    naive_consistent,
    naive_entails,
    random_formula,
    random_instance,
)

EVEN3 = Relation("EVEN3", 3, frozenset({0b000, 0b011, 0b101, 0b110}))
NAND2 = Relation("NAND2", 2, frozenset({0b00, 0b01, 0b10}))


def gamma(*constraints):
    return GammaFormula(tuple(constraints))


def clause_models(clauses, arity):
    """Tuple masks satisfying every clause, for checking CNF extraction."""
    out = set()
    for t in range(1 << arity):
        ok = True
        for cl in clauses:
            hit = any(t >> (arity - i) & 1 for i in cl.pos)
            hit = hit or any(not (t >> (arity - i) & 1) for i in cl.neg)
            if not hit:
                ok = False
                break
        if ok:
            out.add(t)
    return out


class TestCnfOf:
    def test_clause_str(self):
        assert str(Clause((1,), (2,))) == "(x1 | ~x2)"
        assert str(Clause((1, 2), ())) == "(x1 | x2)"

    def test_neq(self):
        assert cnf_of(NEQ) == (Clause((1, 2), ()), Clause((), (1, 2)))

    def test_impl(self):
        assert cnf_of(IMPL) == (Clause((2,), (1,)),)

    def test_eq2(self):
        assert cnf_of(EQ2) == (Clause((1,), (2,)), Clause((2,), (1,)))

    def test_models_recover_relation(self):
        rng = random.Random(133)
        rels = list(CATALOG) + [EVEN3]
        for i in range(40):
            tuples = frozenset(rng.sample(range(8), rng.randint(1, 7)))
            rels.append(Relation(f"C{i}", 3, tuples))
        for rel in rels:
            assert clause_models(cnf_of(rel), rel.arity) == rel.tuples

    def test_clauses_are_prime(self):
        # No kept clause stays an implicate after dropping a literal.
        for rel in CATALOG:
            for cl in cnf_of(rel):
                lits = [(i, True) for i in cl.pos] + [(i, False) for i in cl.neg]
                for drop in range(len(lits)):
                    sub = lits[:drop] + lits[drop + 1 :]
                    pos = tuple(i for i, s in sub if s)
                    neg = tuple(i for i, s in sub if not s)
                    shrunk = Clause(pos, neg)
                    assert not clause_models([shrunk], rel.arity) >= rel.tuples

    def test_horn_clause_shape(self):
        for rel in CATALOG:
            rep = relation_properties(rel)
            for cl in cnf_of(rel):
                if rep.horn:
                    assert len(cl.pos) <= 1
                if rep.dual_horn:
                    assert len(cl.neg) <= 1
                if rep.bijunctive:
                    assert len(cl.pos) + len(cl.neg) <= 2

    def test_cached(self):
        assert cnf_of(NEQ) is cnf_of(NEQ)


class TestMonotoneCnf:
    def test_positive_example(self):
        # Upward closure of {110, 001}; its maximal non-members 100 and
        # 010 give one all-positive clause each.
        rel = Relation("UP", 3, frozenset({0b110, 0b111, 0b001, 0b011, 0b101}))
        assert positive_cnf_of(rel) == (Clause((2, 3), ()), Clause((1, 3), ()))

    def test_positive_models(self):
        rel = Relation("UP2", 2, frozenset({0b01, 0b11}))
        assert clause_models(positive_cnf_of(rel), 2) == rel.tuples

    def test_positive_requires_upward_closed(self):
        with pytest.raises(PreconditionError, match="upward-closed"):
            positive_cnf_of(NEQ)

    def test_negative_example(self):
        nand = Relation("NAND", 2, frozenset({0b00, 0b01, 0b10}))
        assert negative_cnf_of(nand) == (Clause((), (1, 2)),)

    def test_negative_models(self):
        rel = Relation("DOWN", 3, frozenset({0b000, 0b100, 0b010, 0b110, 0b001}))
        assert clause_models(negative_cnf_of(rel), 3) == rel.tuples

    def test_negative_requires_downward_closed(self):
        with pytest.raises(PreconditionError, match="downward-closed"):
            negative_cnf_of(OR2)

    def test_match_the_non_member_scans(self):
        """On every upward- and downward-closed relation of arity 1-4 (189
        each), the monotone CNFs are the clauses of the maximal (minimal)
        non-members, in the order of the scans that found them."""

        def upsets(k):
            # An up-set of the k-cube is a pair of up-sets of the
            # (k-1)-cube, the half with the top bit clear inside the other.
            if k == 0:
                return [frozenset(), frozenset({0})]
            low = upsets(k - 1)
            top = 1 << (k - 1)
            return [a | {t | top for t in b} for a in low for b in low if a <= b]

        def scan(relation, upward):
            k = relation.arity
            non_members = set(range(1 << k)) - relation.tuples
            if upward:
                ends = [m for m in non_members if not any(n != m and n & m == m for n in non_members)]
                return tuple(
                    Clause(tuple(i for i in range(1, k + 1) if not m >> (k - i) & 1), ())
                    for m in sorted(ends, reverse=True)
                )
            ends = [m for m in non_members if not any(n != m and n & m == n for n in non_members)]
            return tuple(
                Clause((), tuple(i for i in range(1, k + 1) if m >> (k - i) & 1))
                for m in sorted(ends)
            )

        checked = 0
        for k in range(1, 5):
            full = (1 << k) - 1
            for up in upsets(k):
                if not 0 < len(up) <= full:
                    continue
                down = frozenset(t ^ full for t in up)
                code = sum(1 << t for t in up)
                upward = Relation(f"UP{k}_{code}", k, up)
                downward = Relation(f"DOWN{k}_{code}", k, down)
                assert positive_cnf_of(upward) == scan(upward, True)
                assert negative_cnf_of(downward) == scan(downward, False)
                checked += 2
        assert checked == 378


class TestConsistency:
    def test_empty_is_consistent(self):
        assert is_consistent([])
        assert is_consistent([], engine="generic")

    def test_plain_contradiction(self):
        phi = gamma(Constraint(T, ("x",)), Constraint(F, ("x",)))
        assert not is_consistent([phi])
        assert not is_consistent([phi], engine="generic")

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            is_consistent([], engine="fast")

    def test_budget_generic(self):
        phi = gamma(Constraint(NAE3, ("a", "b", "c")))
        with pytest.raises(BudgetExceededError):
            is_consistent([phi], engine="generic", max_models=4)

    def test_budget_auto_outside_fragments(self):
        phi = gamma(Constraint(NAE3, ("a", "b", "c")), Constraint(T, ("a",)))
        with pytest.raises(BudgetExceededError):
            is_consistent([phi], max_models=4)

    def test_shared_constant_shortcut(self):
        # Every relation here accepts the all-ones tuple, so the formula
        # is satisfiable no matter how the constraints overlap.
        phi = gamma(
            Constraint(OR2, ("a", "b")),
            Constraint(T, ("b",)),
            Constraint(IMPL, ("a", "b")),
        )
        assert is_consistent([phi], max_models=1)

    def test_matches_naive_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            language, delta, alpha = random_instance(rng, max_kb=3, max_vars=5)
            want = naive_consistent(delta)
            assert is_consistent(delta) == want
            assert is_consistent(delta, engine="generic") == want


class TestEntailment:
    def test_horn_transitivity(self):
        delta = [
            gamma(Constraint(IMPL, ("a", "b"))),
            gamma(Constraint(IMPL, ("b", "c"))),
        ]
        assert entails(delta, gamma(Constraint(IMPL, ("a", "c"))))
        assert not entails(delta, gamma(Constraint(IMPL, ("c", "a"))))

    def test_dual_horn_symmetry(self):
        delta = [gamma(Constraint(OR2, ("a", "b")), Constraint(T, ("c",)))]
        assert entails(delta, gamma(Constraint(OR2, ("b", "a"))))

    def test_two_sat_chain(self):
        delta = [
            gamma(Constraint(NEQ, ("a", "b"))),
            gamma(Constraint(NEQ, ("b", "c"))),
        ]
        assert entails(delta, gamma(Constraint(EQ2, ("a", "c"))))
        assert not entails(delta, gamma(Constraint(EQ2, ("a", "b"))))

    def test_affine_parity(self):
        delta = [gamma(Constraint(EVEN3, ("a", "b", "c")))]
        assert entails(delta, gamma(Constraint(EVEN3, ("b", "a", "c"))))
        assert not entails(delta, gamma(Constraint(NEQ, ("a", "b"))))

    def test_inconsistent_premises_entail_everything(self):
        delta = [gamma(Constraint(T, ("x",)), Constraint(F, ("x",)))]
        alpha = gamma(Constraint(OR2, ("a", "b")))
        assert entails(delta, alpha)
        assert entails(delta, alpha, engine="generic")

    def test_tautological_claim(self):
        alpha = gamma(Constraint(EQ2, ("x", "x")))
        assert entails([], alpha)
        assert entails([], alpha, engine="generic")

    def test_unsupported_claim(self):
        assert not entails([], gamma(Constraint(OR2, ("a", "b"))))

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            entails([], gamma(Constraint(T, ("x",))), engine="best")

    def test_budget(self):
        delta = [gamma(Constraint(NAE3, ("a", "b", "c")))]
        alpha = gamma(Constraint(NAE3, ("b", "c", "a")))
        with pytest.raises(BudgetExceededError):
            entails(delta, alpha, max_models=4)

    def test_matches_naive_random(self):
        rng = random.Random(77)
        for _ in range(200):
            language, delta, alpha = random_instance(rng, max_kb=3, max_vars=5)
            want = naive_entails(delta, alpha)
            assert entails(delta, alpha) == want
            assert entails(delta, alpha, engine="generic") == want


# A consistent Horn base whose claim lies in its fragment: the one-compile
# route would answer it, so the engine must be checked before routing.
HORN_QUERY = (
    [gamma(Constraint(T, ("a",))), gamma(Constraint(IMPL, ("a", "b")))],
    gamma(Constraint(T, ("b",))),
)
# Upward- and downward-closed bases: monotone relevance compiles nothing
# and calls no oracle that could reject the engine for it.
UPWARD_QUERY = (
    [gamma(Constraint(OR2, ("a", "b"))), gamma(Constraint(T, ("a",)))],
    gamma(Constraint(OR2, ("a", "c"))),
)
DOWNWARD_QUERY = (
    [gamma(Constraint(NAND2, ("a", "b"))), gamma(Constraint(F, ("a",)))],
    gamma(Constraint(NAND2, ("a", "c"))),
)


@pytest.mark.parametrize(
    "query",
    [
        lambda engine: arg_exists(*HORN_QUERY, engine=engine),
        lambda engine: find_minimal_support(*HORN_QUERY, engine=engine),
        lambda engine: enumerate_minimal_supports(*HORN_QUERY, engine=engine),
        lambda engine: argrel(*HORN_QUERY, 0, engine=engine),
        lambda engine: argrel_positive(*UPWARD_QUERY, 0, engine=engine),
        lambda engine: argrel_negative(*DOWNWARD_QUERY, 0, engine=engine),
    ],
    ids=[
        "arg_exists",
        "find_minimal_support",
        "enumerate_minimal_supports",
        "argrel",
        "argrel_positive",
        "argrel_negative",
    ],
)
@pytest.mark.parametrize("engine", ["fast", "Generic"])
def test_queries_reject_unknown_engine(query, engine):
    with pytest.raises(ValueError, match="unknown engine"):
        query(engine)


# Languages chosen so auto dispatch lands on each dedicated engine:
# the flags are checked in the order horn, dual Horn, bijunctive, affine.
FRAGMENT_LANGUAGES = [
    ("horn", ConstraintLanguage.of(IMPL, F)),
    ("dual_horn", ConstraintLanguage.of(OR2, T)),
    ("bijunctive", ConstraintLanguage.of(NEQ, EQ2)),
    ("affine", ConstraintLanguage.of(EVEN3, NEQ)),
]


@pytest.mark.parametrize("name,language", FRAGMENT_LANGUAGES, ids=lambda v: v if isinstance(v, str) else "")
def test_fragment_engines_match_naive(name, language):
    rng = random.Random(zlib.crc32(name.encode()))
    variables = ["p", "q", "r", "s"]
    fragment_flags = [
        getattr(relation_properties(r), name) for r in language
    ]
    assert all(fragment_flags)
    for _ in range(120):
        delta = [
            random_formula(rng, language, variables)
            for _ in range(rng.randint(1, 3))
        ]
        alpha = random_formula(rng, language, variables)
        assert is_consistent(delta) == naive_consistent(delta)
        assert entails(delta, alpha) == naive_entails(delta, alpha)


HORN3 = Relation("HORN3", 3, frozenset(range(8)) - {0b110})
ODD3 = Relation("ODD3", 3, frozenset({0b001, 0b010, 0b100, 0b111}))

# One language per Schaefer fragment, each with both constant units so that
# bases can be inconsistent. Auto dispatch tries horn, dual Horn, bijunctive
# and affine in that order; each language holds relations outside the
# fragments tried before its own, so every engine gets instances.
SCHAEFER_LANGUAGES = {
    "horn": (HORN3, NAND2, IMPL, T, F),
    "dual_horn": (OR3, OR2, IMPL, T, F),
    "bijunctive": (OR2, NAND2, NEQ, IMPL, T, F),
    "affine": (EVEN3, ODD3, NEQ, EQ2, T, F),
}


@st.composite
def schaefer_instances(draw):
    """0-6 formulas over p0..p4 in one fragment; a claim copied from some
    of them, or drawn over p0..p4 plus q0 and q1, which no premise
    mentions; and a candidate argument: those source formulas, or all."""
    language = SCHAEFER_LANGUAGES[draw(st.sampled_from(sorted(SCHAEFER_LANGUAGES)))]
    premise_vars = [f"p{i}" for i in range(5)]
    claim_vars = premise_vars + ["q0", "q1"]

    def formula(variables, size):
        constraints = []
        for _ in range(draw(st.integers(1, size))):
            relation = draw(st.sampled_from(language))
            args = tuple(draw(st.sampled_from(variables)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    delta = [formula(premise_vars, 2) for _ in range(draw(st.integers(0, 6)))]
    if delta and draw(st.booleans()):
        # A claim copied from some premises, so that entailment and
        # minimality both come up often.
        sources = draw(st.lists(st.sampled_from(delta), min_size=1, max_size=3))
        copied = tuple(draw(st.sampled_from(f.constraints)) for f in sources)
        return delta, GammaFormula(copied), sources
    return delta, formula(claim_vars, 3), delta


@settings(max_examples=400, deadline=None, database=None)
@given(schaefer_instances())
def test_compiled_engines_match_generic(instance):
    delta, alpha, phi = instance
    for query in (
        lambda engine: is_consistent(delta, engine=engine),
        lambda engine: entails(delta, alpha, engine=engine),
        lambda engine: argcheck(delta, alpha, engine=engine),
        lambda engine: argcheck(phi, alpha, engine=engine),
        lambda engine: arg_exists(delta, alpha, engine=engine),
    ):
        assert query("auto") == query("generic")
    support = find_minimal_support(delta, alpha)
    generic = find_minimal_support(delta, alpha, engine="generic")
    assert (support is None) == (generic is None)
    if support is not None:
        assert argcheck(support.formulas(delta), alpha, engine="generic")


@st.composite
def consistent_bases(draw, names=tuple(sorted(SCHAEFER_LANGUAGES))):
    """1-8 formulas over p0..p7 in the Horn, dual Horn, 2-CNF or affine
    language (one of `names`), all satisfied by one drawn plant; a claim
    copied from some of them, or drawn from the same language over p0..p7
    and the free q0."""
    name = draw(st.sampled_from(names))
    language = SCHAEFER_LANGUAGES[name]
    variables = [f"p{i}" for i in range(8)]
    plant = {v: draw(st.booleans()) for v in variables}

    def planted():
        args = tuple(draw(st.sampled_from(variables)) for _ in range(3))
        choices = [Constraint(r, args[: r.arity]) for r in language]
        return draw(st.sampled_from([c for c in choices if satisfies(plant, c)]))

    delta = [
        GammaFormula(tuple(planted() for _ in range(draw(st.integers(1, 2)))))
        for _ in range(draw(st.integers(1, 8)))
    ]
    if draw(st.booleans()):
        sources = draw(st.lists(st.sampled_from(delta), min_size=1, max_size=3))
        copied = tuple(draw(st.sampled_from(f.constraints)) for f in sources)
        return delta, GammaFormula(copied)
    relation = draw(st.sampled_from(language))
    claim_vars = variables + ["q0"]
    args = tuple(draw(st.sampled_from(claim_vars)) for _ in range(relation.arity))
    return delta, GammaFormula((Constraint(relation, args),))


@settings(max_examples=300, deadline=None, database=None)
@given(consistent_bases())
def test_consistent_shrink_matches_entails_loop(instance):
    """find_minimal_support on a consistent base shrinks one compile; it
    must give what a removal loop over entails calls gives, as must the
    shrink through auto entails calls, and arg_exists must agree."""
    delta, alpha = instance
    assert is_consistent(delta, engine="generic")
    want = None
    if entails(delta, alpha, engine="generic"):
        kept = list(range(len(delta)))
        for idx in range(len(delta)):
            rest = [delta[i] for i in kept if i != idx]
            if entails(rest, alpha, engine="generic"):
                kept.remove(idx)
        want = tuple(kept)
    for support in (
        find_minimal_support(delta, alpha),
        _shrink_consistent(delta, alpha, DEFAULT_MAX_MODELS),
    ):
        assert (None if support is None else support.indices) == want
        if support is not None:
            assert argcheck(support.formulas(delta), alpha, engine="generic")
    assert arg_exists(delta, alpha) == (want is not None)


def first_occurrence(blocks):
    """The premise variables in order of first occurrence: the variable
    ids of the compile."""
    return list(dict.fromkeys(a for block in blocks for c in block for a in c.args))


def refutation_formulas(refutation, names):
    """A claim refutation as formulas, for enumeration: the unit literals
    of a clause engine, or on the affine fragment the parity constraint
    of its row (mask, rhs) on the variables of the mask's bits (none for
    0 = 0, and T and F on a fresh variable for 0 = 1)."""
    if isinstance(refutation, list):
        return [gamma(Constraint(F if lit & 1 else T, (names[lit >> 1],))) for lit in refutation]
    mask, rhs = refutation
    args = tuple(names[v] for v in range(mask.bit_length()) if mask >> v & 1)
    if not args:
        return [gamma(Constraint(T, ("fresh",))), gamma(Constraint(F, ("fresh",)))] if rhs else []
    k = len(args)
    parity = Relation(
        f"PARITY{k}_{rhs}", k, frozenset(t for t in range(1 << k) if t.bit_count() & 1 == rhs)
    )
    return [gamma(Constraint(parity, args))]


@pytest.mark.parametrize("language", sorted(SCHAEFER_LANGUAGES))
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_cores_are_sound(language, data):
    """For each refutation of the claim (the unit literals refuting one
    of its clauses, or on affine one of its rows with the rhs flipped),
    with no blocks, some drawn blocks or any one block masked: the
    engine's sat agrees with enumeration over the formulas left, and a
    core misses the mask and refutes on its own formulas. Where the
    engine calls the blocks left exact, every block of a core is needed:
    without it the refutation is satisfiable. A formula in no core of an
    entailed claim can go with the claim still entailed."""
    delta, alpha = data.draw(consistent_bases((language,)))
    masked = data.draw(st.integers(0, (1 << len(delta)) - 1))
    relations = frozenset(c.relation for f in (*delta, alpha) for c in f.constraints)
    blocks = [f.constraints for f in delta]
    premises = _Premises(_fragment(language_properties(relations)), blocks, alpha)
    engine = premises.engine
    assert engine.ok
    # A claim row keeps the bits of the claim's new variables.
    names = first_occurrence(blocks + [alpha.constraints])
    cores = []
    for refutation in premises.claim:
        units = refutation_formulas(refutation, names)
        for mask in (0, masked, *(1 << i for i in range(len(delta)))):
            kept = [f for i, f in enumerate(delta) if not mask >> i & 1]
            core = engine.core(refutation, mask)
            sat = is_consistent(kept + units, engine="generic")
            assert engine.sat(refutation, mask) is sat is (core is None)
            if core is not None:
                assert not core & mask
                used = [f for i, f in enumerate(delta) if core >> i & 1]
                assert not is_consistent(used + units, engine="generic")
                if engine.exact(mask):
                    for b in range(len(delta)):
                        if core >> b & 1:
                            assert engine.sat(refutation, mask | 1 << b)
                            rest = [f for i, f in enumerate(delta) if not (mask | 1 << b) >> i & 1]
                            assert is_consistent(rest + units, engine="generic")
        cores.append(engine.core(refutation))
    if None not in cores:
        used = functools.reduce(operator.or_, cores, 0)
        for i in range(len(delta)):
            if not used >> i & 1:
                assert entails(delta[:i] + delta[i + 1 :], alpha, engine="generic")


@pytest.mark.parametrize("language", sorted(SCHAEFER_LANGUAGES))
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_conflicts_are_sound_under_masks(language, data):
    """On an inconsistent base (0-8 unplanted formulas over p0..p7, and
    T(x) and F(x) at drawn places), with no blocks, some drawn blocks or
    any one block masked: the engine's conflict is None iff the formulas
    left are consistent under enumeration, and a conflict misses the mask
    and is inconsistent on its own formulas. Where the formulas left are
    consistent, sat on a drawn literal agrees with enumeration too."""
    variables = [f"p{i}" for i in range(8)]
    relations = SCHAEFER_LANGUAGES[language]

    def formula():
        constraints = []
        for _ in range(data.draw(st.integers(1, 2))):
            relation = data.draw(st.sampled_from(relations))
            args = tuple(data.draw(st.sampled_from(variables)) for _ in range(relation.arity))
            constraints.append(Constraint(relation, args))
        return GammaFormula(tuple(constraints))

    delta = [formula() for _ in range(data.draw(st.integers(0, 8)))]
    x = data.draw(st.sampled_from(variables))
    for unit in (T, F):
        delta.insert(data.draw(st.integers(0, len(delta))), gamma(Constraint(unit, (x,))))
    relations = frozenset(c.relation for f in delta for c in f.constraints)
    fragment = _fragment(language_properties(relations))
    blocks = [f.constraints for f in delta]
    engine = _Premises(fragment, blocks).engine
    assert not engine.ok
    names = first_occurrence(blocks)
    lit = data.draw(st.integers(0, 2 * len(names) - 1))
    unit = gamma(Constraint(F if lit & 1 else T, (names[lit >> 1],)))
    # The literal as the GF(2) engine takes it: the row x = 1 or x = 0.
    refutation = (1 << (lit >> 1), ~lit & 1) if fragment == "affine" else [lit]
    masked = data.draw(st.integers(0, (1 << len(delta)) - 1))
    for mask in (0, masked, *(1 << i for i in range(len(delta)))):
        kept = [f for i, f in enumerate(delta) if not mask >> i & 1]
        conflict = engine.conflict(mask)
        assert (conflict is None) is is_consistent(kept, engine="generic")
        if conflict is None:
            assert engine.sat(refutation, mask) is is_consistent(kept + [unit], engine="generic")
        else:
            assert not conflict & mask
            used = [f for i, f in enumerate(delta) if conflict >> i & 1]
            assert not is_consistent(used, engine="generic")


# Three blocks that the claim (last) needs together, through two
# derivations that meet in a conflict, and a fourth block on other
# variables.
JOINT_CORES = {
    "horn": ((IMPL, "ab"), (IMPL, "ac"), (NAND2, "bc"), (IMPL, "xy"), (F, "a")),
    "dual_horn": ((IMPL, "ba"), (IMPL, "ca"), (OR2, "bc"), (IMPL, "xy"), (T, "a")),
    "bijunctive": ((IMPL, "ab"), (IMPL, "ac"), (NAND2, "bc"), (NEQ, "xy"), (F, "a")),
    "affine": ((EVEN3, "abc"), (EQ2, "bd"), (EQ2, "ce"), (NEQ, "xy"), (EVEN3, "ade")),
}


@pytest.mark.parametrize("fragment", sorted(JOINT_CORES))
def test_core_spans_every_derivation(fragment):
    *blocks, claim = [Constraint(r, tuple(args)) for r, args in JOINT_CORES[fragment]]
    premises = _Premises(fragment, [[c] for c in blocks], gamma(claim))
    engine = premises.engine
    refutations = premises.claim
    assert engine.ok and refutations
    for lits in refutations:
        assert engine.core(lits) == engine.core(lits, 0b1000) == 0b111
        for i in range(3):
            assert engine.sat(lits, 1 << i)


def test_relation_caches_are_bounded():
    caches = (
        truth_table,
        relation_properties,
        cnf_of,
        _literal_template,
        positive_cnf_of,
        negative_cnf_of,
        _affine_rows,
        _constraint_template,
        _language_report,
    )
    # Upward-closed, downward-closed and affine shapes, a third each, so
    # that every cache sees more fresh relations, and the language
    # report's cache more fresh languages, than it may keep.
    shapes = (OR2.tuples, NAND2.tuples, NEQ.tuples)
    for i in range(1000):
        relation = Relation(f"FRESH{i}", 2, shapes[i % 3])
        _fragment(language_properties(frozenset({relation, T})))
        truth_table(relation)
        relation_properties(relation)
        cnf_of(relation)
        _literal_template(relation)
        _constraint_template(relation, (1, 0))
        [positive_cnf_of, negative_cnf_of, _affine_rows][i % 3](relation)
    for cache in caches:
        assert cache.cache_info().currsize <= RELATION_CACHE_SIZE == 256


def test_fragment_cache_matches_the_uncached_choice():
    """The fragment read off the report cached per language is the first
    one whose flag every relation has, on every language drawn from the
    catalog, and a language seen before reads the same choice from the
    cache."""
    for size in range(1, len(CATALOG) + 1):
        for language in itertools.combinations(CATALOG, size):
            reports = [relation_properties(r) for r in language]
            flags = ("horn", "dual_horn", "bijunctive", "affine")
            want = next((f for f in flags if all(getattr(p, f) for p in reports)), "generic")
            assert _fragment(language_properties(frozenset(language))) == want
            assert _fragment(language_properties(frozenset(reversed(language)))) == want


@pytest.mark.parametrize("fragment", ["horn", "affine", "generic"])
def test_relation_hashes_do_not_grow_with_the_base(fragment):
    """Compiling or deciding a base hashes each of its k distinct
    relations a number of times bounded in k, not once per constraint:
    the same count at 20 and 160 formulas, and at most a few per relation."""
    relations = {
        "horn": (IMPL, NAND2, T, F),
        "affine": (NEQ, EQ2, T, F),
        "generic": (OR2, NAE3, T, F),
    }[fragment]
    rng = random.Random(len(fragment))

    def base(size):
        variables = [f"x{i}" for i in range(size)]
        return [
            gamma(Constraint(r, tuple(rng.sample(variables, r.arity))))
            for r in (rng.choice(relations) for _ in range(size))
        ]

    alpha = gamma(Constraint(relations[0], ("x0", "x1")))

    def compile_base(delta):
        fragment = _fragment(argumentation._language(delta, alpha))
        argumentation._fragment_premises(delta, alpha, fragment)

    hash_of = Relation.__hash__
    counts = []
    for size in (20, 160):
        delta = base(size)
        compile_base(delta)
        hashes = []

        def counting(relation):
            hashes.append(relation)
            return hash_of(relation)

        with mock.patch.object(Relation, "__hash__", counting):
            compile_base(delta)
            if fragment != "generic":
                is_consistent(delta)
                entails(delta, alpha)
        counts.append(len(hashes))
    assert counts[0] == counts[1] <= 12 * len(relations)


# The polymorphism that closes each Schaefer fragment, on tuple bitmasks.
FRAGMENT_CLOSURES = {
    "horn": lambda a, b, c: a & b,
    "dual_horn": lambda a, b, c: a | b,
    "bijunctive": lambda a, b, c: (a & b) | (b & c) | (a & c),
    "affine": lambda a, b, c: a ^ b ^ c,
}


def fragment_relation(fragment: str, arity: int, seed: frozenset[int]) -> Relation:
    """The closure of seed under the fragment's polymorphism; one tuple of
    it instead when the closure is full, which no Relation may be."""
    op = FRAGMENT_CLOSURES[fragment]
    tuples = set(seed)
    while True:
        grown = {op(a, b, c) for a in tuples for b in tuples for c in tuples} - tuples
        if not grown:
            break
        tuples |= grown
    if len(tuples) == 1 << arity:
        tuples = {min(seed)}
    code = sum(1 << t for t in tuples)
    return Relation(f"{fragment.upper()}{arity}_{code}", arity, frozenset(tuples))


@st.composite
def template_instances(draw):
    """Blocks of constraints in one fragment, over relations of arity 1-4,
    with one tautology-making constraint (IMPL(x, x), or EQ2(x, x) on the
    affine fragment); and a claim over the premise variables and two the
    premises lack. The premise variables are three, so that most
    constraints repeat an argument, or eight, so that most do not and the
    compile's distinct-argument paths run."""
    fragment = draw(st.sampled_from(sorted(FRAGMENT_CLOSURES)))
    premise_vars = draw(st.sampled_from([["a", "b", "c"], [f"v{i}" for i in range(8)]]))
    claim_vars = premise_vars + ["q0", "q1"]

    def constraint(variables):
        arity = draw(st.integers(1, 4))
        seed = draw(st.frozensets(st.integers(0, (1 << arity) - 1), min_size=1))
        relation = fragment_relation(fragment, arity, seed)
        assert getattr(relation_properties(relation), fragment)
        return Constraint(relation, tuple(draw(st.sampled_from(variables)) for _ in range(arity)))

    blocks = [
        [constraint(premise_vars) for _ in range(draw(st.integers(1, 3)))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    tautology = EQ2 if fragment == "affine" else IMPL
    x = draw(st.sampled_from(premise_vars))
    draw(st.sampled_from(blocks)).append(Constraint(tautology, (x, x)))
    alpha = GammaFormula(tuple(constraint(claim_vars) for _ in range(draw(st.integers(1, 3)))))
    return fragment, blocks, alpha


def reference_clauses(c, index):
    """The constraint's cnf_of clauses on the variable index, as the
    compile gives them: on distinct arguments each clause's literals in
    template order (positive coordinates ascending, then negated ones);
    on a repeated argument, which can merge literals, the clause's
    literal set in Python's iteration order, and no tautology."""
    ids = [index[a] for a in c.args]
    out = []
    for clause in cnf_of(c.relation):
        lits = [2 * ids[i - 1] for i in clause.pos] + [2 * ids[i - 1] + 1 for i in clause.neg]
        if len(set(ids)) == len(ids):
            out.append(tuple(lits))
            continue
        merged = set(lits)
        if not any(lit ^ 1 in merged for lit in merged):
            out.append(tuple(merged))
    return out


def reference_compile(fragment, blocks, index=None):
    """The variable index, going on after the one given, and each block's
    clauses (reference_clauses) or GF(2) rows, in order, instantiated
    straight from cnf_of and _affine_rows."""
    index = {} if index is None else index
    per_block = []
    for block in blocks:
        made = []
        for c in block:
            ids = [index.setdefault(a, len(index)) for a in c.args]
            if fragment == "affine":
                k = len(ids)
                for cmask, rhs in _affine_rows(c.relation):
                    gmask = 0
                    for j, v in enumerate(ids):
                        if cmask >> (k - 1 - j) & 1:
                            gmask ^= 1 << v
                    made.append((gmask, rhs))
                continue
            made += reference_clauses(c, index)
        per_block.append(made)
    return index, per_block


def reference_refutations(fragment, index, alpha):
    """Each claim clause (reference_clauses, the claim's new variables
    indexed after the premises' by first occurrence) negated on the
    premise variables, in order; on affine each of the claim's GF(2)
    rows (reference_compile) with its rhs flipped, in order."""
    if fragment == "affine":
        _, rows = reference_compile(fragment, [alpha.constraints], dict(index))
        return [(mask, rhs ^ 1) for mask, rhs in rows[0]]
    n = len(index)
    index = dict(index)
    for c in alpha.constraints:
        for a in c.args:
            index.setdefault(a, len(index))
    return [
        [lit ^ 1 for lit in clause if lit < 2 * n]
        for c in alpha.constraints
        for clause in reference_clauses(c, index)
    ]


@settings(max_examples=400, deadline=None, database=None)
@given(template_instances())
def test_template_compile_matches_cnf_of(instance):
    """The one-pass compile from literal templates gives exactly what
    instantiating cnf_of's clauses gives: the variable ids by first
    occurrence, each block's clauses (or rows) in order with their
    literals in order, and the claim's refutations in order."""
    fragment, blocks, alpha = instance
    built = {}
    engine = logic._ENGINES[fragment]

    def recording(n_lits, items, owners):
        built.update(n_lits=n_lits, items=items, owners=owners)
        return engine(n_lits, items, owners)

    # The premises' variable codes, from the first instantiation (the
    # claim's comes second): literal 2 * id, or bit 1 << id on affine.
    name = "_instantiate_rows" if fragment == "affine" else "_instantiate_clauses"
    instantiate = getattr(logic, name)
    codes = []

    def recording_codes(*args):
        out = instantiate(*args)
        codes.append(list(out[0].items()))
        return out

    with (
        mock.patch.dict(logic._ENGINES, {fragment: recording}),
        mock.patch.object(logic, name, recording_codes),
    ):
        premises = _Premises(fragment, blocks, alpha)
    index, want = reference_compile(fragment, blocks)
    assert list(index) == first_occurrence(blocks)
    code = (lambda i: 1 << i) if fragment == "affine" else (lambda i: 2 * i)
    assert codes[0] == [(v, code(i)) for v, i in index.items()]
    assert built["n_lits"] == 2 * len(index)
    assert built["items"] == [item for made in want for item in made]
    assert built["owners"] == [i for i, made in enumerate(want) for _ in made]
    assert premises.claim == reference_refutations(fragment, index, alpha)


@st.composite
def two_cnfs(draw):
    """Blocks of bijunctive constraints over p0..p5: binary clauses, unit
    clauses, and constraints that repeat an argument (IMPL(x, x) is a
    tautology, NAND2(x, x) the unit ~x, NEQ(x, x) a contradiction)."""
    variables = [f"p{i}" for i in range(6)]
    relations = (OR2, NAND2, IMPL, NEQ, EQ2, T, F)

    def constraint():
        relation = draw(st.sampled_from(relations))
        if relation.arity == 2 and draw(st.integers(0, 5)) == 0:
            x = draw(st.sampled_from(variables))
            return Constraint(relation, (x, x))
        return Constraint(
            relation, tuple(draw(st.sampled_from(variables)) for _ in range(relation.arity))
        )

    return [
        [constraint() for _ in range(draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(1, 10)))
    ]


@settings(max_examples=400, deadline=None, database=None)
@given(two_cnfs(), st.data())
def test_two_sat_consistency_matches_enumeration(blocks, data):
    """ok agrees with enumeration, and so, with a drawn block mask, does
    conflict on the blocks left; a conflict misses the mask and is
    inconsistent on its own blocks."""
    engine = _Premises("bijunctive", blocks).engine
    assert isinstance(engine, logic._ImplicationGraph)
    formulas = [GammaFormula(tuple(b)) for b in blocks]
    assert engine.ok is naive_consistent(formulas)
    mask = data.draw(st.integers(0, (1 << len(blocks)) - 1))
    kept = [f for i, f in enumerate(formulas) if not mask >> i & 1]
    conflict = engine.conflict(mask)
    assert naive_consistent(kept) is (conflict is None)
    if conflict is not None:
        assert not conflict & mask
        assert not naive_consistent([f for i, f in enumerate(formulas) if conflict >> i & 1])


@pytest.mark.parametrize("contradiction", [False, True])
@pytest.mark.parametrize("tail", [False, True])
@pytest.mark.parametrize("family", ["chain", "hub"])
def test_two_sat_consistency_is_linear(family, tail, contradiction):
    """Two families at k = 8000 whose u_j are all decided first.

    chain: F(u_j), then IMPL(u_j, w0), then the chain IMPL(w_i, w_i+1).
    A depth-first search that tries u_j before ~u_j, and checks a
    literal's complement as it pops it, walks the chain once per u_j:
    k^2 steps. Here ~u_j has no successor, so it is set at once.
    T(w0) and F(w_k) make the chain with them the one conflict.

    hub: OR2(u_j, a_j), then IMPL(u_j, h), then IMPL(h, v_i). ~u_j
    reaches a_j in one edge, but u_j reaches h, whose k edges a search
    that takes turns a popped literal at a time scans in one turn, once
    per u_j: k^2 steps again. T(h), IMPL(h, v0) and F(v0) make the one
    conflict.

    With IMPL(x_j, u_j) added (`tail`), ~u_j has one more successor,
    ~x_j."""
    k = 8000
    if family == "chain":
        blocks = [[Constraint(F, (f"u{j}",))] for j in range(k)]
        blocks += [[Constraint(IMPL, (f"u{j}", "w0"))] for j in range(k)]
    else:
        blocks = [[Constraint(OR2, (f"u{j}", f"a{j}"))] for j in range(k)]
        blocks += [[Constraint(IMPL, (f"u{j}", "h"))] for j in range(k)]
    if tail:
        blocks += [[Constraint(IMPL, (f"x{j}", f"u{j}"))] for j in range(k)]
    start = len(blocks)
    if family == "chain":
        blocks += [[Constraint(IMPL, (f"w{i}", f"w{i + 1}"))] for i in range(k)]
        if contradiction:
            blocks += [[Constraint(T, ("w0",))], [Constraint(F, (f"w{k}",))]]
        conflict = ((1 << (k + 2)) - 1) << start
    else:
        blocks += [[Constraint(IMPL, ("h", f"v{i}"))] for i in range(k)]
        if contradiction:
            blocks += [[Constraint(T, ("h",))], [Constraint(F, ("v0",))]]
        conflict = (1 | 3 << k) << start
    began = time.perf_counter()
    engine = _Premises("bijunctive", blocks).engine
    assert time.perf_counter() - began < 2.0
    assert engine.ok is not contradiction
    if contradiction:
        assert engine.conflict() == conflict


@pytest.mark.parametrize("contradiction", [False, True])
def test_two_sat_consistency_on_a_long_cycle(contradiction):
    """IMPL around 5000 variables makes two components of 5000 literals,
    the cycle and its contrapositive; NEQ between two of its variables
    joins them into one component of 10^4 literals, which holds
    complementary pairs."""
    n = 5000
    blocks = [[Constraint(IMPL, (f"x{i}", f"x{(i + 1) % n}"))] for i in range(n)]
    if contradiction:
        blocks.append([Constraint(NEQ, ("x0", f"x{n // 2}"))])
    engine = _Premises("bijunctive", blocks).engine
    assert len(engine.succ) == 2 * n
    assert engine.ok is not contradiction
