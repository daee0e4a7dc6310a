"""Tests for source problems, reduction builders, and instance families."""

import itertools
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argcl import (
    ArgInstance,
    BudgetExceededError,
    Constraint,
    ConstraintLanguage,
    GammaFormula,
    ParseError,
    PreconditionError,
    REDUCTION_KINDS,
    SOURCE_PROBLEMS,
    AbdInstance,
    CnfInput,
    arg_exists,
    argcheck,
    argrel,
    parse_abduction,
    parse_dimacs,
    parse_instance,
    parse_relations,
    reduce,
    serialize_instance,
    small_abduction_family,
    small_cnf_family,
    small_instance_family,
    small_pos1in3_family,
    solve_source,
    source_type_of,
)
from argcl import reductions

from conftest import AND_NOT, EQ2, IMPL, NAE3, NEQ, OR2, T


def gamma(*constraints):
    return GammaFormula(tuple(constraints))


def cnf(n, *clauses):
    return CnfInput(n, tuple(frozenset(c) for c in clauses))


# Fixed sweep languages per source-instance kind.
ABD_LANGUAGES = {
    "abdp_arg_neq_ext": ConstraintLanguage.of(NEQ, NAE3),
    "abdp_arg_andnot_ext": ConstraintLanguage.of(IMPL, OR2),
    "abd_argrel_bothvalid": ConstraintLanguage.of(IMPL, EQ2),
    "abd_argrel_onevalid": ConstraintLanguage.of(OR2, IMPL),
}
TELIM_LANGUAGES = {
    "telim_eq": ConstraintLanguage.of(EQ2, T),
    "telim_neq": ConstraintLanguage.of(NEQ, T),
}


def target_answer(kind, instance):
    """Run the solver the reduction kind targets."""
    if "_arg_" in kind and "_argrel_" not in kind and "_argcheck_" not in kind:
        return arg_exists(instance.delta, instance.alpha)
    if "argrel" in kind:
        return argrel(instance.delta, instance.alpha, instance.relevant)
    return argcheck(instance.delta, instance.alpha)


def source_answer(kind, source):
    if kind.startswith("threesat_arg_neq"):
        return solve_source("threesat", source)
    if kind.startswith("threesat_argrel"):
        return solve_source("threesat", source)
    if kind.startswith("pos1in3"):
        return solve_source("pos1in3", source)
    if kind.startswith("critsat"):
        return solve_source("criticalsat", source)
    if kind.startswith("abdp"):
        return solve_source("abd_p", source)
    if kind.startswith("abd"):
        return solve_source("abd", source)
    if kind == "arg_argrel":
        return arg_exists(source.delta, source.alpha)
    return argcheck(source.delta, source.alpha)


def sample(family, count=24):
    if len(family) <= count:
        return list(family)
    step = len(family) // count
    return list(family[::step][:count])


def sources_for(kind):
    source_type = source_type_of(kind)
    if source_type is CnfInput:
        if kind.startswith("pos1in3"):
            return small_pos1in3_family()
        return small_cnf_family()
    if source_type is AbdInstance:
        return small_abduction_family(ABD_LANGUAGES[kind])
    language = TELIM_LANGUAGES.get(kind, ConstraintLanguage.of(OR2, T))
    return small_instance_family(language)


class TestCnfInput:
    def test_clauses_become_frozensets(self):
        inst = CnfInput(2, ([1, -2],))
        assert inst.clauses == (frozenset({1, -2}),)

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError, match="empty clause"):
            cnf(2, ())

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError, match="out of range"):
            cnf(2, (0, 1))

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError, match="out of range"):
            cnf(2, (3,))

    def test_rejects_complementary_pair(self):
        with pytest.raises(ValueError, match="negation"):
            cnf(2, (1, -1))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CnfInput(-1, ())


class TestAbdInstance:
    def test_rejects_duplicate_hypothesis(self):
        phi = gamma(Constraint(IMPL, ("h", "q")))
        with pytest.raises(ValueError, match="duplicate hypothesis"):
            AbdInstance(ConstraintLanguage.of(IMPL), phi, ("h", "h"), "q")

    def test_rejects_observed_hypothesis(self):
        phi = gamma(Constraint(IMPL, ("h", "q")))
        with pytest.raises(ValueError, match="may not be a hypothesis"):
            AbdInstance(ConstraintLanguage.of(IMPL), phi, ("h", "q"), "q")

    def test_rejects_foreign_relation(self):
        phi = gamma(Constraint(OR2, ("h", "q")))
        with pytest.raises(ValueError, match="outside the language"):
            AbdInstance(ConstraintLanguage.of(IMPL), phi, ("h",), "q")

    def test_hypothesis_outside_theory_allowed(self):
        phi = gamma(Constraint(IMPL, ("h", "q")))
        inst = AbdInstance(ConstraintLanguage.of(IMPL), phi, ("h", "z"), "q")
        assert inst.hypotheses == ("h", "z")


DIMACS = """\
c a two-clause example
p cnf 3 2
1 -2 0
-1 3 0
"""


class TestParseDimacs:
    def test_basic(self):
        inst = parse_dimacs(DIMACS)
        assert inst.n == 3
        assert inst.clauses == (frozenset({1, -2}), frozenset({-1, 3}))

    def test_clause_may_span_lines(self):
        inst = parse_dimacs("p cnf 2 1\n1\n-2\n0\n")
        assert inst.clauses == (frozenset({1, -2}),)

    def test_duplicate_header(self):
        with pytest.raises(ParseError, match="duplicate header"):
            parse_dimacs("p cnf 1 0\np cnf 1 0\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="p cnf"):
            parse_dimacs("p sat 3 2\n")

    def test_non_numeric_header(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_dimacs("p cnf three 2\n")

    def test_clause_before_header(self):
        with pytest.raises(ParseError, match="before"):
            parse_dimacs("1 0\np cnf 1 1\n")

    def test_bad_literal(self):
        with pytest.raises(ParseError, match="bad literal"):
            parse_dimacs("p cnf 1 1\nx 0\n")

    def test_empty_clause(self):
        with pytest.raises(ParseError, match="empty clause"):
            parse_dimacs("p cnf 1 1\n0\n")

    def test_unterminated_clause(self):
        with pytest.raises(ParseError, match="unterminated"):
            parse_dimacs("p cnf 1 1\n1\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing"):
            parse_dimacs("c nothing\n")

    def test_clause_count_checked(self):
        with pytest.raises(ParseError, match="promises 2"):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_semantic_errors_become_parse_errors(self):
        with pytest.raises(ParseError, match="negation"):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")


ABD_TEXT = """\
relation IMPL 2 { 00 01 11 }
formula rule = IMPL(h,q)
kb rule
hypotheses h
observation q
"""


class TestParseAbduction:
    def test_basic(self):
        inst = parse_abduction(ABD_TEXT)
        assert str(inst.phi) == "IMPL(h,q)"
        assert inst.hypotheses == ("h",)
        assert inst.q == "q"

    def test_claim_is_forbidden(self):
        text = ABD_TEXT + "claim IMPL(h,q)\n"
        with pytest.raises(ParseError, match="observation, not a claim"):
            parse_abduction(text)

    def test_kb_required(self):
        text = "relation IMPL 2 { 00 01 11 }\nobservation q\n"
        with pytest.raises(ParseError, match="nonempty kb"):
            parse_abduction(text)

    def test_observation_required(self):
        text = "relation IMPL 2 { 00 01 11 }\nformula r = IMPL(h,q)\nkb r\n"
        with pytest.raises(ParseError, match="missing observation"):
            parse_abduction(text)

    def test_variable_names_checked(self):
        for old, new in (("hypotheses h", "hypotheses h -"), ("observation q", "observation q&")):
            with pytest.raises(ParseError, match="invalid variable name"):
                parse_abduction(ABD_TEXT.replace(old, new))

    def test_observation_not_hypothesis(self):
        text = ABD_TEXT.replace("hypotheses h", "hypotheses h q")
        with pytest.raises(ParseError, match="listed as a hypothesis"):
            parse_abduction(text)

    def test_single_observation_line(self):
        text = ABD_TEXT + "observation h2\n"
        with pytest.raises(ParseError, match="multiple observation"):
            parse_abduction(text)

    def test_duplicate_hypothesis(self):
        text = ABD_TEXT.replace("hypotheses h", "hypotheses h h")
        with pytest.raises(ParseError, match="duplicate hypothesis"):
            parse_abduction(text)

    def test_theory_follows_kb_order(self):
        text = (
            "relation IMPL 2 { 00 01 11 }\n"
            "formula b = IMPL(x,y)\n"
            "formula a = IMPL(y,z)\n"
            "kb a b\n"
            "observation z\n"
        )
        inst = parse_abduction(text)
        assert str(inst.phi) == "IMPL(y,z) & IMPL(x,y)"


class TestSharedDirectives:
    """Instance and abduction files read `use`, `relation`, `formula` and
    `kb` lines alike, so each broken one fails both the same way."""

    RELATION = "relation T 1 { 1 }\n"
    BAD_NAME = "line 2: expected `formula <name> = <constraints>`"

    @pytest.mark.parametrize(
        "lines, message",
        [
            pytest.param("use\n", "line 1: use needs a file path", id="use-no-path"),
            pytest.param(
                "use gone.rel\n", "line 1: cannot read gone.rel", id="use-unreadable"
            ),
            pytest.param(
                RELATION + RELATION, "line 2: duplicate relation T", id="dup-relation"
            ),
            pytest.param(
                RELATION + "formula f = T(x)\nformula f = T(y)\n",
                "line 3: duplicate formula f",
                id="dup-formula",
            ),
            pytest.param(
                RELATION + "kb f\n", "line 2: unknown formula f", id="kb-unknown"
            ),
            pytest.param(
                RELATION + "formula f = T(x)\nkb f f\n",
                "line 3: formula f repeated in kb",
                id="kb-repeated",
            ),
            pytest.param(RELATION + "formula 1x = T(x)\n", BAD_NAME, id="name-1x"),
            pytest.param(RELATION + "formula a b = T(x)\n", BAD_NAME, id="name-a-b"),
            pytest.param(RELATION + "formula = T(x)\n", BAD_NAME, id="name-empty"),
        ],
    )
    def test_same_error_in_both_file_kinds(self, lines, message, tmp_path):
        errors = []
        for parse, tail in (
            (parse_instance, "claim T(x)\n"),
            (parse_abduction, "hypotheses h\nobservation x\n"),
        ):
            with pytest.raises(ParseError) as info:
                parse(lines + tail, base_dir=str(tmp_path))
            errors.append((str(info.value), info.value.line))
        assert errors[0] == errors[1]
        assert errors[0][0].startswith(message)


class TestReadmeFormats:
    """The README's three file-format examples, read by the parsers, so the
    docs and the readers cannot drift apart."""

    def test_examples_parse(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### File formats", 1)[1].split("\n## ", 1)[0]
        rel, arg, abd = re.findall(r"```text\n(.*?)```", section, re.S)
        assert [r.name for r in parse_relations(rel)] == ["NEQ", "OR2"]
        (tmp_path / "lang.rel").write_text(rel)
        inst = parse_instance(arg, base_dir=str(tmp_path))
        assert [str(f) for f in inst.delta] == ["OR2(a,b)", "NEQ(a,b)"]
        assert str(inst.alpha) == "OR2(b,a)"
        assert inst.relevant == 1
        source = parse_abduction(abd)
        assert str(source.phi) == "IMPL(h,q)"
        assert (source.hypotheses, source.q) == (("h",), "q")
        assert solve_source("abd_p", source)


class TestSolveSource:
    def test_threesat(self):
        assert not solve_source("threesat", cnf(1, (1,), (-1,)))
        assert solve_source("threesat", cnf(3, (1, -2), (-1, 3)))

    def test_threesat_width_check(self):
        wide = cnf(4, (1, 2, 3, 4))
        with pytest.raises(PreconditionError, match="width"):
            solve_source("threesat", wide)

    def test_pos1in3(self):
        assert solve_source("pos1in3", cnf(3, (1, 2, 3)))
        # All four triples over {1,2,3,4}: any selection satisfying the
        # first three leaves the last with zero or two true members.
        blocked = cnf(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert not solve_source("pos1in3", blocked)

    def test_pos1in3_shape_check(self):
        with pytest.raises(PreconditionError, match="positive"):
            solve_source("pos1in3", cnf(3, (1, -2, 3)))
        with pytest.raises(PreconditionError, match="positive"):
            solve_source("pos1in3", cnf(3, (1, 2)))

    def test_criticalsat(self):
        assert solve_source("criticalsat", cnf(1, (1,), (-1,)))
        assert not solve_source("criticalsat", cnf(2, (1,), (2,)))
        assert not solve_source("criticalsat", cnf(1, (1,), (-1,), (1,)))

    def test_cnf_oracles_match_the_definitions(self):
        # Random CNFs over at most 4 variables against satisfiability
        # checked assignment by assignment: criticalsat holds iff the CNF
        # is unsatisfiable and dropping any one clause leaves it
        # satisfiable.
        rng = random.Random(19)
        criticals = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            clauses = [
                frozenset(
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n)))
                )
                for _ in range(rng.randint(0, 6))
            ]
            want = critical(n, clauses)
            criticals += want
            instance = CnfInput(n, tuple(clauses))
            assert solve_source("threesat", instance) == satisfiable(n, clauses)
            assert solve_source("criticalsat", instance) == want
        assert criticals >= 5

    @staticmethod
    def criticalsat_peak(n):
        """tracemalloc's peak while criticalsat answers 200 random
        3-clauses over n variables."""
        rng = random.Random(n)
        clauses = tuple(
            frozenset(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(200)
        )
        tracemalloc.start()
        try:
            solve_source("criticalsat", CnfInput(n, clauses))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_cnf_oracle_memory_does_not_grow_with_clauses(self):
        # 200 random 3-clauses over 16 variables: the per-variable sets and
        # a few 2^16-bit ints serve every clause, where one mask per clause
        # took 14 MB.
        assert self.criticalsat_peak(16) < 3 * 2**20

    def test_cnf_oracle_memory_at_the_budget_edge(self):
        # At the 20-variable budget the 20 per-variable sets of 2^20 bits
        # take 2.5 MB and each clause's set 128 KB more: 3.6 MB peak on a
        # 2-core Xeon VM.
        assert self.criticalsat_peak(20) < 8 * 2**20
        with pytest.raises(BudgetExceededError):
            solve_source("criticalsat", CnfInput(21, (frozenset({1, -2, 21}),)))

    def test_abd_and_positive_abd(self):
        lang = ConstraintLanguage.of(IMPL)
        fwd = AbdInstance(lang, gamma(Constraint(IMPL, ("h", "q"))), ("h",), "q")
        assert solve_source("abd", fwd)
        assert solve_source("abd_p", fwd)
        neg_lang = ConstraintLanguage.of(NEQ)
        rev = AbdInstance(neg_lang, gamma(Constraint(NEQ, ("h", "q"))), ("h",), "q")
        assert solve_source("abd", rev)
        assert not solve_source("abd_p", rev)

    def test_inconsistent_picks_do_not_count(self):
        # The theory forces h=0, so asserting h contradicts it; the
        # contradiction entails q vacuously but is not an explanation.
        lang = ConstraintLanguage.of(reductions.AN, IMPL)
        phi = gamma(
            Constraint(reductions.AN, ("z", "h")), Constraint(IMPL, ("h", "q"))
        )
        inst = AbdInstance(lang, phi, ("h",), "q")
        assert not solve_source("abd", inst)
        assert not solve_source("abd_p", inst)

    def test_type_errors(self):
        lang = ConstraintLanguage.of(IMPL)
        abd = AbdInstance(lang, gamma(Constraint(IMPL, ("h", "q"))), ("h",), "q")
        with pytest.raises(TypeError, match="CnfInput"):
            solve_source("threesat", abd)
        with pytest.raises(TypeError, match="AbdInstance"):
            solve_source("abd", cnf(1, (1,)))

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown source problem"):
            solve_source("foursat", cnf(1, (1,)))

    def test_cnf_budget(self):
        big = CnfInput(21, (frozenset({1}),))
        with pytest.raises(BudgetExceededError):
            solve_source("threesat", big)
        # Far past the budget, every CNF oracle must raise before it
        # allocates its 2^n assignment arrays (2^40 entries would not fit).
        huge = CnfInput(40, (frozenset({1, 2, 3}),))
        for problem in ("threesat", "pos1in3", "criticalsat"):
            with pytest.raises(BudgetExceededError):
                solve_source(problem, huge)

    def test_hypothesis_budget(self):
        lang = ConstraintLanguage.of(IMPL)
        phi = gamma(Constraint(IMPL, ("h0", "q")))
        hyps = tuple(f"h{i}" for i in range(13))
        with pytest.raises(BudgetExceededError):
            solve_source("abd", AbdInstance(lang, phi, hyps, "q"))


# ---------------------------------------------------------------------------
# solve_source against a per-assignment oracle. The oracle walks dict
# assignments with itertools and shares no code with reductions.py or
# formulas.py.
# ---------------------------------------------------------------------------


def points(variables):
    """Every assignment to the variables, as a dict to booleans."""
    variables = sorted(variables)
    for values in itertools.product((False, True), repeat=len(variables)):
        yield dict(zip(variables, values))


def satisfiable(n, clauses):
    return any(
        all(any(point[abs(lit)] == (lit > 0) for lit in c) for c in clauses)
        for point in points(range(1, n + 1))
    )


def one_in_three(n, clauses):
    return any(
        all(sum(point[v] for v in c) == 1 for c in clauses)
        for point in points(range(1, n + 1))
    )


def critical(n, clauses):
    return not satisfiable(n, clauses) and all(
        satisfiable(n, clauses[:i] + clauses[i + 1 :]) for i in range(len(clauses))
    )


def explained(phi, hypotheses, q, positive_only):
    """Some literal set over the hypotheses is consistent with phi and,
    with it, entails q."""
    def holds(point):
        return all(
            sum(point[a] << (len(c.args) - 1 - i) for i, a in enumerate(c.args))
            in c.relation.tuples
            for c in phi.constraints
        )

    scope = phi.variables | set(hypotheses) | {q}
    models = [point for point in points(scope) if holds(point)]
    choices = (True, None) if positive_only else (True, False, None)
    for picks in itertools.product(choices, repeat=len(hypotheses)):
        chosen = [
            point
            for point in models
            if all(v is None or point[h] == v for h, v in zip(hypotheses, picks))
        ]
        if chosen and all(point[q] for point in chosen):
            return True
    return False


@st.composite
def cnf_sources(draw):
    """A CNF over 0-5 variables with clauses of width 1-4, some of them
    drawn again as repeats."""
    n = draw(st.integers(0, 5))
    if n == 0:
        return CnfInput(0, ())
    clause = st.lists(
        st.integers(1, n), min_size=1, max_size=min(4, n), unique=True
    ).flatmap(
        lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)).map(frozenset)
    )
    clauses = draw(st.lists(clause, max_size=6))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=2))
    return CnfInput(n, tuple(clauses))


@st.composite
def pos1in3_sources(draw):
    n = draw(st.integers(3, 6))
    triple = st.lists(st.integers(1, n), min_size=3, max_size=3, unique=True)
    return CnfInput(n, tuple(map(frozenset, draw(st.lists(triple, max_size=5)))))


ABD_RELATIONS = (IMPL, OR2, NEQ, AND_NOT, EQ2, T, NAE3)
ABD_VARIABLES = ("a", "b", "c", "d", "e")


@st.composite
def abduction_sources(draw):
    """A theory of 1-3 constraints, 0-3 hypotheses (theory variables or
    not) and an observation that is not a hypothesis."""
    constraint = st.sampled_from(ABD_RELATIONS).flatmap(
        lambda r: st.tuples(*[st.sampled_from(ABD_VARIABLES)] * r.arity).map(
            lambda args, r=r: Constraint(r, args)
        )
    )
    phi = gamma(*draw(st.lists(constraint, min_size=1, max_size=3)))
    q = draw(st.sampled_from(ABD_VARIABLES))
    hypotheses = draw(
        st.lists(st.sampled_from([v for v in ABD_VARIABLES if v != q]), max_size=3, unique=True)
    )
    return AbdInstance(ConstraintLanguage.of(*ABD_RELATIONS), phi, tuple(hypotheses), q)


class TestSolveSourceByAssignment:
    @settings(max_examples=150, deadline=None, database=None)
    @given(cnf_sources())
    @example(CnfInput(0, ()))
    @example(cnf(1, (1,), (-1,)))
    @example(cnf(2, (1,), (-1, 2), (-2,)))
    @example(cnf(1, (1,), (-1,), (1,)))
    @example(cnf(2, (1, 2), (1, -2), (-1, 2), (-1, -2), (1, 2)))
    def test_threesat_and_criticalsat(self, source):
        clauses = list(source.clauses)
        if any(len(c) > 3 for c in clauses):
            with pytest.raises(PreconditionError):
                solve_source("threesat", source)
        else:
            assert solve_source("threesat", source) == satisfiable(source.n, clauses)
        assert solve_source("criticalsat", source) == critical(source.n, clauses)

    @settings(max_examples=100, deadline=None, database=None)
    @given(pos1in3_sources())
    @example(cnf(3))
    @example(cnf(4, (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
    @example(cnf(3, (1, 2, 3), (1, 2, 3)))
    def test_pos1in3(self, source):
        assert solve_source("pos1in3", source) == one_in_three(source.n, list(source.clauses))

    @settings(max_examples=150, deadline=None, database=None)
    @given(abduction_sources())
    @example(AbdInstance(ConstraintLanguage.of(T), gamma(Constraint(T, ("q",))), (), "q"))
    @example(
        AbdInstance(
            ConstraintLanguage.of(NEQ, IMPL),
            gamma(Constraint(NEQ, ("h", "q")), Constraint(IMPL, ("g", "q"))),
            ("h", "g", "z"),
            "q",
        )
    )
    def test_abduction(self, source):
        args = (source.phi, source.hypotheses, source.q)
        assert solve_source("abd", source) == explained(*args, positive_only=False)
        assert solve_source("abd_p", source) == explained(*args, positive_only=True)


class TestReduceDispatch:
    def test_kind_listing(self):
        assert len(REDUCTION_KINDS) == 15
        assert set(REDUCTION_KINDS) == set(reductions._BUILDERS)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown reduction kind"):
            reduce("threesat_arg_or", cnf(1, (1,)))
        with pytest.raises(ValueError, match="unknown reduction kind"):
            source_type_of("telim_or")

    def test_source_types(self):
        assert source_type_of("threesat_arg_neq") is CnfInput
        assert source_type_of("abdp_arg_neq_ext") is AbdInstance
        assert source_type_of("arg_argrel") is ArgInstance

    def test_wrong_source_type(self):
        with pytest.raises(TypeError, match="expects a CnfInput"):
            reduce("threesat_arg_neq", "not a cnf")

    def test_emitted_language_matches_instance(self):
        language, instance = reduce("threesat_arg_neq", cnf(3, (1, -2, 3)))
        assert instance.language == language


class TestConstructionShapes:
    def test_threesat_arg_neq_size(self):
        # Two formulas per source variable, one pairing formula, and one
        # formula per clause literal.
        language, instance = reduce("threesat_arg_neq", cnf(3, (1, -2, 3)))
        assert language.names == ("NEQ",)
        assert len(instance.delta) == 2 * 3 + 1 + 3
        assert instance.relevant is None

    def test_critsat_worked_example(self):
        language, instance = reduce("critsat_argcheck_impl", cnf(1, (1,), (-1,)))
        assert argcheck(instance.delta, instance.alpha)

    def test_threesat_argrel_shape(self):
        language, instance = reduce("threesat_argrel_eq", cnf(3, (1, -2, 3)))
        assert len(instance.delta) == 2 * 3 + 1
        assert instance.relevant == 2 * 3

    def test_arg_argrel_appends_focus_formula(self):
        source_lang = ConstraintLanguage.of(OR2, T)
        source = ArgInstance(
            source_lang,
            (gamma(Constraint(OR2, ("a", "b"))),),
            gamma(Constraint(OR2, ("b", "a"))),
        )
        language, instance = reduce("arg_argrel", source)
        assert instance.relevant == len(source.delta)
        assert len(instance.delta) == len(source.delta) + 1

    def test_telim_eq_removes_unary_truth(self):
        lang = TELIM_LANGUAGES["telim_eq"]
        source = ArgInstance(
            lang,
            (gamma(Constraint(T, ("a",))), gamma(Constraint(EQ2, ("a", "b")))),
            gamma(Constraint(T, ("b",))),
        )
        language, instance = reduce("telim_eq", source)
        for rel in language:
            assert not (rel.arity == 1 and rel.tuples == frozenset({0b1}))
        assert argcheck(instance.delta, instance.alpha) == argcheck(
            source.delta, source.alpha
        )

    def test_telim_neq_removes_unary_truth(self):
        lang = TELIM_LANGUAGES["telim_neq"]
        source = ArgInstance(
            lang,
            (gamma(Constraint(T, ("a",))), gamma(Constraint(NEQ, ("a", "b")))),
            gamma(Constraint(NEQ, ("b", "a"))),
        )
        language, instance = reduce("telim_neq", source)
        for rel in language:
            assert not (rel.arity == 1 and rel.tuples == frozenset({0b1}))
        assert argcheck(instance.delta, instance.alpha) == argcheck(
            source.delta, source.alpha
        )


class TestPreconditions:
    def test_abdp_neq_needs_complement_closure(self):
        lang = ConstraintLanguage.of(IMPL)
        abd = AbdInstance(lang, gamma(Constraint(IMPL, ("h", "q"))), ("h",), "q")
        with pytest.raises(PreconditionError):
            reduce("abdp_arg_neq_ext", abd)

    def test_abd_bothvalid_needs_both_constants(self):
        lang = ConstraintLanguage.of(NEQ)
        abd = AbdInstance(lang, gamma(Constraint(NEQ, ("h", "q"))), ("h",), "q")
        with pytest.raises(PreconditionError):
            reduce("abd_argrel_bothvalid", abd)

    def test_abd_onevalid_needs_one(self):
        lang = ConstraintLanguage.of(NEQ)
        abd = AbdInstance(lang, gamma(Constraint(NEQ, ("h", "q"))), ("h",), "q")
        with pytest.raises(PreconditionError):
            reduce("abd_argrel_onevalid", abd)

    def test_telim_eq_rest_constraints(self):
        lang = ConstraintLanguage.of(OR2, T)
        source = ArgInstance(
            lang, (gamma(Constraint(T, ("a",))),), gamma(Constraint(OR2, ("a", "b")))
        )
        with pytest.raises(PreconditionError):
            reduce("telim_eq", source)

    def test_telim_neq_rest_constraints(self):
        lang = ConstraintLanguage.of(EQ2, T)
        source = ArgInstance(
            lang, (gamma(Constraint(T, ("a",))),), gamma(Constraint(EQ2, ("a", "b")))
        )
        with pytest.raises(PreconditionError):
            reduce("telim_neq", source)

    def test_telim_neq_needs_other_relations(self):
        lang = ConstraintLanguage.of(T)
        source = ArgInstance(
            lang, (gamma(Constraint(T, ("a",))),), gamma(Constraint(T, ("a",)))
        )
        with pytest.raises(PreconditionError):
            reduce("telim_neq", source)


class TestBridgeRelations:
    def test_bridge4_table(self):
        expected = set()
        for bits in range(16):
            x1, x2, x3, x4 = (bits >> 3 & 1, bits >> 2 & 1, bits >> 1 & 1, bits & 1)
            if ((x1 | x2) == x3) and x4:
                expected.add(bits)
        assert reductions.BRIDGE4.tuples == frozenset(expected)

    def test_bridge7_table(self):
        expected = set()
        for bits in range(128):
            x = [(bits >> (6 - i)) & 1 for i in range(7)]
            clause = x[0] | (1 - x[1]) | x[2]
            if (clause == (1 if x[3] == x[4] else 0)) and x[5] == x[6]:
                expected.add(bits)
        assert reductions.BRIDGE7.tuples == frozenset(expected)


class TestFamilies:
    def test_cnf_family_size(self):
        family = small_cnf_family()
        assert len(family) == 2951
        assert all(len(inst.clauses) <= 3 for inst in family)
        assert all(
            len({abs(lit) for lit in clause}) == len(clause)
            for inst in family
            for clause in inst.clauses
        )

    def test_pos1in3_family_size(self):
        family = small_pos1in3_family()
        assert len(family) == 55
        assert all(
            len(clause) == 3 and min(clause) > 0
            for inst in family
            for clause in inst.clauses
        )

    def test_abduction_family_sizes(self):
        assert len(small_abduction_family(ABD_LANGUAGES["abdp_arg_neq_ext"])) == 2481
        assert len(small_abduction_family(ABD_LANGUAGES["abdp_arg_andnot_ext"])) == 333
        assert len(small_abduction_family(ABD_LANGUAGES["abd_argrel_bothvalid"])) == 333

    def test_instance_family_size(self):
        family = small_instance_family(ConstraintLanguage.of(OR2, T))
        assert len(family) == 936

    def test_renaming_canonicalization_drops_isomorphs(self):
        family = small_abduction_family(ConstraintLanguage.of(IMPL, EQ2))
        theories = {str(inst.phi) for inst in family}
        assert "IMPL(a,b)" in theories
        assert "IMPL(b,a)" not in theories


@pytest.mark.parametrize("kind", REDUCTION_KINDS)
def test_reduction_preserves_answers(kind):
    for source in sample(sources_for(kind)):
        language, instance = reduce(kind, source)
        assert target_answer(kind, instance) == source_answer(kind, source), source


@pytest.mark.parametrize("kind", REDUCTION_KINDS)
def test_reduction_output_round_trips(kind):
    for source in sample(sources_for(kind), count=5):
        language, instance = reduce(kind, source)
        again = parse_instance(serialize_instance(instance))
        assert again == instance
