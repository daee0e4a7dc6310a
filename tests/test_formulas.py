"""Tests for constraint formulas, model enumeration, and instance files."""

import dataclasses
import itertools
import pickle
import random
import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argcl import (
    ArgInstance,
    BudgetExceededError,
    Constraint,
    ConstraintLanguage,
    GammaFormula,
    ParseError,
    QuantifiedFormula,
    Relation,
    conjoin,
    enumerate_models,
    is_consistent,
    models_mask,
    parse_abduction,
    parse_instance,
    satisfies,
    serialize_instance,
    serialize_relations,
    substitute,
    variables_of,
)

from argcl.formulas import _CNF_ARITY, _ModelBits, _block_literals
from argcl.relations import _is_identifier
from conftest import (
    CATALOG,
    F,
    IMPL,
    NEQ,
    OR2,
    T,
    naive_models,
    random_formula,
    random_instance,
)


def gamma(*constraints):
    return GammaFormula(tuple(constraints))


class TestConstraint:
    def test_str_has_no_spaces(self):
        c = Constraint(IMPL, ("x", "y"))
        assert str(c) == "IMPL(x,y)"

    def test_repeated_variables_allowed(self):
        c = Constraint(NEQ, ("x", "x"))
        assert c.variables == frozenset({"x"})

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match=r"^NEQ expects 2 args, got 1$"):
            Constraint(NEQ, ("x",))

    def test_bad_variable_name(self):
        with pytest.raises(ValueError, match="variable"):
            Constraint(T, ("1x",))
        with pytest.raises(ValueError, match=r"^invalid variable name 'x-1'$"):
            Constraint(NEQ, ("x", "x-1"))

    def test_substitute_merges_positions(self):
        c = Constraint(NEQ, ("x", "y"))
        merged = substitute(c, {"x", "y"}, "z")
        assert merged == Constraint(NEQ, ("z", "z"))

    def test_substitute_leaves_others(self):
        c = Constraint(IMPL, ("x", "y"))
        assert substitute(c, {"y"}, "w") == Constraint(IMPL, ("x", "w"))


class TestGammaFormula:
    def test_str_joins_with_ampersand(self):
        phi = gamma(Constraint(OR2, ("a", "b")), Constraint(T, ("a",)))
        assert str(phi) == "OR2(a,b) & T(a)"

    def test_empty_rejected(self):
        for empty in ((), iter(())):
            with pytest.raises(ValueError, match=r"^formula must contain at least one constraint$"):
                GammaFormula(empty)

    def test_variables(self):
        phi = gamma(Constraint(OR2, ("a", "b")), Constraint(T, ("c",)))
        assert phi.variables == frozenset({"a", "b", "c"})

    def test_conjoin_preserves_order(self):
        left = gamma(Constraint(T, ("a",)))
        right = gamma(Constraint(OR2, ("a", "b")))
        both = conjoin(left, right)
        assert both.constraints == left.constraints + right.constraints

    def test_variables_of_union(self):
        phis = [gamma(Constraint(T, ("a",))), gamma(Constraint(T, ("b",)))]
        assert variables_of(phis) == frozenset({"a", "b"})


class TestConstructorContracts:
    """What callers rely on from the Constraint and GammaFormula
    constructors: the keyword form, any iterable stored as a tuple,
    dataclasses.replace, pickling, equality and hashing by value, frozen
    fields, and the arity checked before the names."""

    def test_keyword_form_stores_a_tuple(self):
        c = Constraint(relation=NEQ, args=["x", "y"])
        assert c.relation is NEQ
        assert c.args == ("x", "y") and type(c.args) is tuple
        assert c == Constraint(NEQ, ("x", "y"))

    def test_formula_from_a_generator(self):
        phi = GammaFormula(Constraint(T, (v,)) for v in "abc")
        assert type(phi.constraints) is tuple
        assert phi == gamma(*(Constraint(T, (v,)) for v in "abc"))

    def test_replace_builds_through_the_constructor(self):
        c = Constraint(NEQ, ("x", "y"))
        swapped = dataclasses.replace(c, args=["y", "x"])
        assert swapped == Constraint(NEQ, ("y", "x")) and type(swapped.args) is tuple
        with pytest.raises(ValueError, match="invalid variable name 'x-1'"):
            dataclasses.replace(c, args=("x-1", "y"))
        phi = gamma(c)
        longer = dataclasses.replace(phi, constraints=[c, swapped])
        assert longer.constraints == (c, swapped)
        with pytest.raises(ValueError, match="at least one constraint"):
            dataclasses.replace(phi, constraints=[])

    def test_pickle_equality_and_hash(self):
        c = Constraint(IMPL, ["x", "y"])
        phi = GammaFormula([c, Constraint(T, ["x"])])
        for obj, fresh in (
            (c, Constraint(IMPL, ("x", "y"))),
            (phi, gamma(Constraint(IMPL, ("x", "y")), Constraint(T, ("x",)))),
        ):
            back = pickle.loads(pickle.dumps(obj))
            assert back == obj == fresh
            assert hash(back) == hash(obj) == hash(fresh)
        assert c != Constraint(IMPL, ("y", "x"))
        assert len({c, Constraint(IMPL, ("x", "y"))}) == 1

    def test_fields_are_frozen(self):
        c = Constraint(NEQ, ("x", "y"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.args = ("y", "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            gamma(c).constraints = ()

    def test_arity_is_checked_before_names(self):
        with pytest.raises(ValueError, match=r"^NEQ expects 2 args, got 1$"):
            Constraint(NEQ, ("1x",))
        with pytest.raises(ValueError, match=r"^T expects 1 args, got 2$"):
            Constraint(T, ("x-1", 5))


def _old_rule(s):
    """The identifier rule as a regex, the oracle for `_is_identifier`."""
    return re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", s) is not None


# \u00e9 is e-acute, \uff58 a full-width x and \u0663 an Arabic-Indic three:
# Unicode letters and digits that str.isidentifier alone would admit.
IDENTIFIER_CASES = (
    "", "_", "x1", "1x", "x-1", "a b", "a\n", "\u00e9", "\uff58", "x\u0663",
    "if", "None", "x\x00",
)
ASCII_HEAVY = string.ascii_letters + string.digits + "_-. \n\x00\u00e9\uff58\u0663\u00aa"

# The cases that reach a file's name checks unchanged: a file splits its
# lines and words on whitespace before it checks a name.
WORD_CASES = tuple(s for s in IDENTIFIER_CASES if s.split() == [s])


class TestIdentifierRule:
    """Relation, variable and formula names are ASCII identifiers, one rule
    (`relations._is_identifier`) wherever a name is checked."""

    @given(st.text())
    def test_matches_the_regex_on_any_text(self, s):
        assert _is_identifier(s) == _old_rule(s)

    @given(st.text(st.sampled_from(ASCII_HEAVY)))
    def test_matches_the_regex_on_ascii_heavy_text(self, s):
        assert _is_identifier(s) == _old_rule(s)

    @pytest.mark.parametrize("name", IDENTIFIER_CASES)
    def test_constraint_arguments(self, name):
        assert _is_identifier(name) == _old_rule(name)
        if _old_rule(name):
            assert Constraint(T, (name,)).args == (name,)
        else:
            with pytest.raises(ValueError, match=re.escape(f"invalid variable name {name!r}")):
                Constraint(T, (name,))

    @pytest.mark.parametrize("name", IDENTIFIER_CASES)
    def test_relation_names(self, name):
        if _old_rule(name):
            assert Relation(name, 1, {1}).name == name
        else:
            with pytest.raises(ValueError, match="invalid relation name"):
                Relation(name, 1, {1})

    @pytest.mark.parametrize("name", WORD_CASES)
    def test_relation_names_in_files(self, name):
        text = f"relation {name} 1 {{ 1 }}\nformula f = {name}(x)\nkb f\nclaim {name}(x)\n"
        if _old_rule(name):
            assert parse_instance(text).language.names == (name,)
        else:
            with pytest.raises(ParseError, match="invalid relation name"):
                parse_instance(text)

    @pytest.mark.parametrize("name", WORD_CASES)
    def test_instance_formula_names_and_arguments(self, name):
        named = f"relation T 1 {{ 1 }}\nformula {name} = T(x)\nkb {name}\nclaim T(x)\n"
        applied = f"relation T 1 {{ 1 }}\nformula f = T({name})\nkb f\nclaim T({name})\n"
        if _old_rule(name):
            assert parse_instance(named).delta == (gamma(Constraint(T, ("x",))),)
            assert parse_instance(applied).alpha == gamma(Constraint(T, (name,)))
        else:
            with pytest.raises(ParseError, match="expected `formula <name> = <constraints>`"):
                parse_instance(named)
            with pytest.raises(ParseError, match="invalid variable name"):
                parse_instance(applied)

    @pytest.mark.parametrize("name", WORD_CASES)
    def test_abduction_hypotheses_and_observation(self, name):
        theory = "relation IMPL 2 { 00 01 11 }\nformula r = IMPL(h,q)\nkb r\n"
        hypothesis = theory + f"hypotheses {name}\nobservation q\n"
        observation = theory + f"hypotheses h\nobservation {name}\n"
        if _old_rule(name):
            assert parse_abduction(hypothesis).hypotheses == (name,)
            assert parse_abduction(observation).q == name
        else:
            for text in (hypothesis, observation):
                with pytest.raises(ParseError, match="invalid variable name"):
                    parse_abduction(text)

    @pytest.mark.parametrize("value", [5, b"x", None])
    def test_a_non_string_raises_type_error(self, value):
        with pytest.raises(TypeError):
            _is_identifier(value)
        with pytest.raises(TypeError):
            Constraint(T, (value,))


class TestQuantifiedFormula:
    def test_str_sorts_bound_variables(self):
        body = gamma(Constraint(OR2, ("u", "x")), Constraint(NEQ, ("t", "x")))
        q = QuantifiedFormula(frozenset({"u", "t"}), body)
        assert str(q) == "exists t u . OR2(u,x) & NEQ(t,x)"

    def test_no_bound_variables(self):
        body = gamma(Constraint(T, ("x",)))
        assert str(QuantifiedFormula(frozenset(), body)) == "T(x)"

    def test_free_variables(self):
        body = gamma(Constraint(OR2, ("u", "x")))
        q = QuantifiedFormula(frozenset({"u"}), body)
        assert q.free_variables == frozenset({"x"})

    def test_bound_must_appear_in_body(self):
        body = gamma(Constraint(T, ("x",)))
        with pytest.raises(ValueError, match="not in body"):
            QuantifiedFormula(frozenset({"y"}), body)


class TestArgInstance:
    def test_relevant_range(self):
        lang = ConstraintLanguage.of(T)
        phi = gamma(Constraint(T, ("x",)))
        with pytest.raises(ValueError, match="out of range"):
            ArgInstance(lang, (phi,), phi, relevant=1)

    def test_foreign_relation_rejected(self):
        lang = ConstraintLanguage.of(T)
        phi = gamma(Constraint(OR2, ("x", "y")))
        with pytest.raises(ValueError, match="outside the instance language"):
            ArgInstance(lang, (), phi)

    def test_empty_kb_allowed(self):
        lang = ConstraintLanguage.of(T)
        inst = ArgInstance(lang, (), gamma(Constraint(T, ("x",))))
        assert inst.delta == ()
        assert inst.relevant is None


class TestModelEnumeration:
    def test_models_mask_msb_first(self):
        # Over order (a, b) the masks 0..3 read a b as 00, 01, 10, 11;
        # IMPL holds everywhere except a=1, b=0.
        mask = models_mask([Constraint(IMPL, ("a", "b"))], ("a", "b"))
        assert mask.tolist() == [True, True, False, True]

    def test_models_mask_argument_shapes(self):
        # IMPL(b, a) fails only at a=0, b=1; IMPL(a, a) holds everywhere;
        # T(b) holds where b=1, whatever its position in the order.
        order = ("a", "b")
        assert models_mask([Constraint(IMPL, ("b", "a"))], order).tolist() == [
            True,
            False,
            True,
            True,
        ]
        assert models_mask([Constraint(IMPL, ("a", "a"))], order).all()
        assert models_mask([Constraint(T, ("b",))], order).tolist() == [False, True] * 2

    def test_models_mask_checks_the_order(self):
        # An order missing a constraint's variable, or repeating one,
        # is refused and the variables are named.
        impl = [Constraint(IMPL, ("a", "b"))]
        with pytest.raises(ValueError, match=r"scope misses variables: \['b'\]"):
            models_mask(impl, ("a",))
        with pytest.raises(ValueError, match=r"scope repeats variables: \['a'\]"):
            models_mask(impl, ("a", "b", "a"))

    @pytest.mark.parametrize("n_vars", range(20))
    def test_models_mask_matches_satisfies(self, n_vars):
        # Random conjunctions of relations of arity 1-8, on both sides of
        # the CNF arity cut (5), with repeated arguments, against
        # per-assignment `satisfies`. Past 16 variables the kernel works
        # in blocks of 2**16 assignments, so 17-19 variables cross
        # several; past 12 variables a sample of assignments is checked,
        # some of them models.
        rng = random.Random(2800 + n_vars)
        order = tuple(f"v{i:02d}" for i in range(n_vars))
        relations = [
            Relation(f"R{k}", k, frozenset(rng.sample(range(1 << k), (3 << k) // 4)))
            for k in range(1, 9)
        ]
        for _ in range(4):
            constraints = []
            if n_vars:
                used = order[: rng.randint(1, n_vars)]
                for _ in range(rng.randint(1, 4)):
                    relation = rng.choice(relations)
                    args = [rng.choice(used) for _ in range(relation.arity)]
                    args[-1] = args[0]
                    constraints.append(Constraint(relation, tuple(args)))
            mask = models_mask(constraints, order)
            assert mask.dtype == np.bool_ and mask.shape == (1 << n_vars,)
            if n_vars <= 12:
                points = range(1 << n_vars)
            else:
                models = np.flatnonzero(mask).tolist()
                points = rng.sample(models, min(20, len(models)))
                points += [rng.randrange(1 << n_vars) for _ in range(280)]
            for a in points:
                assignment = {v: bool(a >> (n_vars - 1 - i) & 1) for i, v in enumerate(order)}
                want = all(satisfies(assignment, c) for c in constraints)
                assert mask[a] == want, (constraints, a)
            if n_vars <= 12:
                phi = gamma(*constraints) if constraints else []
                got = enumerate_models(phi, over=order)
                assert len(got) == mask.sum()
                assert all(all(satisfies(m, c) for c in constraints) for m in got)

    @pytest.mark.parametrize("n_vars", [5, 17])
    def test_orders_of_one_length_share_the_literal_tables(self, n_vars):
        # The per-block literal tables depend only on the variable count:
        # two orders of equal length read the same objects, and the masks
        # from a cold and a warm cache agree with `satisfies`.
        first = tuple(f"a{i:02d}" for i in range(n_vars))
        second = tuple(f"b{i:02d}" for i in reversed(range(n_vars)))
        _block_literals.cache_clear()
        one, two = _ModelBits(first), _ModelBits(second)
        assert one.blocks is two.blocks and one.full == two.full and one.width == two.width
        assert _block_literals.cache_info().misses == 1
        rng = random.Random(n_vars)
        constraints = [
            Constraint(rng.choice((IMPL, NEQ, OR2)), tuple(rng.sample(second, 2)))
            for _ in range(n_vars)
        ]
        _block_literals.cache_clear()
        cold = models_mask(constraints, second)
        warm = models_mask(constraints, second)
        assert np.array_equal(cold, warm)
        for a in rng.sample(range(1 << n_vars), 32) + np.flatnonzero(cold)[:8].tolist():
            assignment = {v: bool(a >> (n_vars - 1 - i) & 1) for i, v in enumerate(second)}
            assert cold[a] == all(satisfies(assignment, c) for c in constraints)

    def test_memory_at_22_variables(self):
        # 44 narrow constraints over 22 variables: the kernel takes the
        # 2**22 assignments in blocks of 2**16, so the mask's 4 MB is
        # the bulk of the peak, and generic consistency builds no mask.
        order = tuple(f"v{i:02d}" for i in range(22))
        constraints = [Constraint(OR2, (order[i], order[(i + 1) % 22])) for i in range(22)]
        constraints += [Constraint(IMPL, (order[i], order[(i + 5) % 22])) for i in range(22)]
        for run in (
            lambda: models_mask(constraints, order),
            lambda: is_consistent(gamma(*constraints), engine="generic"),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

    def test_lexicographic_order(self):
        phi = gamma(Constraint(OR2, ("a", "b")))
        models = enumerate_models(phi)
        assert models == [
            {"a": False, "b": True},
            {"a": True, "b": False},
            {"a": True, "b": True},
        ]

    def test_empty_collection_has_one_empty_model(self):
        assert enumerate_models([]) == [{}]

    def test_over_extends_scope(self):
        phi = gamma(Constraint(T, ("a",)))
        models = enumerate_models(phi, over=("a", "b"))
        assert models == [
            {"a": True, "b": False},
            {"a": True, "b": True},
        ]

    def test_over_must_cover_formula(self):
        phi = gamma(Constraint(OR2, ("a", "b")))
        with pytest.raises(ValueError, match="misses variables"):
            enumerate_models(phi, over=("a",))

    def test_budget(self):
        phi = gamma(Constraint(OR2, ("a", "b")))
        with pytest.raises(BudgetExceededError):
            enumerate_models(phi, max_models=2)
        assert len(enumerate_models(phi, max_models=4)) == 3

    def test_matches_naive_on_random_formulas(self):
        rng = random.Random(4571)
        for _ in range(120):
            language, delta, alpha = random_instance(rng, max_kb=3, max_vars=4)
            formulas = delta + [alpha]
            scope = sorted({v for f in formulas for v in f.variables})
            got = enumerate_models(formulas)
            want = [
                {k: bool(v) for k, v in m.items()}
                for m in naive_models(formulas, scope)
            ]
            assert got == want

    def test_repeated_variable_collapses_diagonal(self):
        phi = gamma(Constraint(NEQ, ("x", "x")))
        assert enumerate_models(phi) == []

    def test_satisfies(self):
        c = Constraint(IMPL, ("x", "y"))
        assert satisfies({"x": False, "y": False}, c)
        assert not satisfies({"x": True, "y": False}, c)
        models = enumerate_models(gamma(c))
        assert all(satisfies(m, c) for m in models)


INSTANCE_TEXT = """\
# two-formula base over OR2 and T
relation OR2 2 { 01 10 11 }
relation T 1 { 1 }
formula left = OR2(a,b)
formula right = T(a) & T(b)
kb left right
claim OR2(b,a)
relevant right
"""


@st.composite
def kernel_cases(draw):
    """An order of 0-20 variables, drawn in any permutation, and 1-4
    conjunctions of 0-3 constraints each over relations of arity 1-8,
    both sides of the CNF cut. A conjunction's arguments come from a pool
    of at most 9 of the order's variables, so they repeat and come in any
    order; its relations come from a per-case list of random and catalog
    relations, so a relation object recurs across conjunctions, some as
    an equal copy, beside others of its arity. A unit constraint
    on the order's first variable, the leading one past 16 variables, is
    common, so a conjunction often empties a block before its wide
    constraints."""
    # sampled_from draws sizes about evenly, where integers favours small.
    names = [f"v{i:02d}" for i in range(draw(st.sampled_from(range(21))))]
    order = tuple(draw(st.permutations(names)))
    relations = []
    for r in range(draw(st.integers(1, 4))):
        arity = draw(st.sampled_from(range(1, 9)))
        # Neither empty nor full, either way round.
        size = min(12, (1 << arity) - 1)
        tuples = draw(st.frozensets(st.integers(0, (1 << arity) - 1), min_size=1, max_size=size))
        if draw(st.booleans()):
            tuples = frozenset(range(1 << arity)) - tuples
        relations.append(Relation(f"R{r}", arity, tuples))
    relations += [Relation(r.name, r.arity, r.tuples) for r in relations[:1]]
    relations += draw(st.lists(st.sampled_from(CATALOG), max_size=4))
    conjunctions = []
    for _ in range(draw(st.integers(1, 4))):
        constraints = []
        if order:
            pool = draw(st.lists(st.sampled_from(order), min_size=1, max_size=9, unique=True))
            if draw(st.booleans()):
                constraints.append(Constraint(draw(st.sampled_from((T, F))), order[:1]))
            for _ in range(draw(st.integers(0, 3))):
                relation = draw(st.sampled_from(relations))
                args = [draw(st.sampled_from(pool)) for _ in range(relation.arity)]
                constraints.append(Constraint(relation, args))
        conjunctions.append(constraints)
    return order, conjunctions


def oracle_mask(constraints, order):
    """Which of the 2**len(order) assignments satisfy the conjunction,
    position p of the order at assignment bit n-1-p, from the naive
    models over the conjunction's own variables (`naive_models`): an
    assignment is a model iff its values there are one."""
    n = len(order)
    own = sorted({a for c in constraints for a in c.args})
    codes = [
        sum(m[v] << (len(own) - 1 - i) for i, v in enumerate(own))
        for m in naive_models([gamma(*constraints)] if constraints else [], own)
    ]
    assignments = np.arange(1 << n, dtype=np.int64)
    position = {v: p for p, v in enumerate(order)}
    projected = np.zeros(1 << n, dtype=np.int64)
    for v in own:
        projected = (projected << 1) | (assignments >> (n - 1 - position[v]) & 1)
    return np.isin(projected, codes)


def row_mask(row, n):
    """A packed row of `_ModelBits.rows` as one bool per assignment."""
    return np.unpackbits(np.frombuffer(row, np.uint8), count=1 << n, bitorder="little").view(np.bool_)


class TestModelRows:
    """`_ModelBits.rows`, the one kernel loop, against the naive models."""

    @settings(max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_every_row_is_exactly_its_models(self, case):
        order, conjunctions = case
        n = len(order)
        rows = _ModelBits(order).rows(conjunctions)
        assert len(rows) == len(conjunctions)
        for constraints, row in zip(conjunctions, rows):
            want = oracle_mask(constraints, order)
            assert len(row) == max(1, (1 << n) >> 3)
            assert int.from_bytes(row, "little") >> (1 << n) == 0
            assert np.array_equal(row_mask(row, n), want), (order, constraints)
            assert np.array_equal(models_mask(constraints, order), want)
            assert _ModelBits(order).packed(constraints) == row
            assert _ModelBits(order).bits(constraints) == int.from_bytes(row, "little")

    def test_catalog_relations_on_every_argument_tuple(self):
        # Every relation of the catalog (arity 1-3) on every tuple of
        # three variables, repeats and every order included, one
        # conjunction each, all from one call.
        order = ("c", "a", "d", "b")
        conjunctions = [
            [Constraint(relation, args)]
            for relation in CATALOG
            for args in itertools.product(order[:3], repeat=relation.arity)
        ]
        rows = _ModelBits(order).rows(conjunctions)
        for constraints, row in zip(conjunctions, rows):
            assert np.array_equal(row_mask(row, 4), oracle_mask(constraints, order)), constraints

    @pytest.mark.parametrize("n_vars", [16, 18])
    def test_a_block_emptied_early_still_takes_its_wide_constraints(self, n_vars):
        # T(v00) empties every block where the leading v00 is false (or,
        # at 16 variables, half the one block) before the wide
        # constraint is read, and F(v00) every block where it is true,
        # the last one included; the blocks where it holds must still
        # take the wide constraint, and a formula after it in the same
        # call must start from a full row.
        order = tuple(f"v{i:02d}" for i in range(n_vars))
        wide = Relation("W7", 7, frozenset(t for t in range(128) if t.bit_count() != 3))
        assert wide.arity > _CNF_ARITY
        conjunctions = [
            [Constraint(T, ("v00",)), Constraint(wide, order[-7:])],
            [Constraint(F, ("v00",)), Constraint(wide, order[-7:])],
            [Constraint(F, ("v00",)), Constraint(T, ("v00",)), Constraint(wide, order[:7])],
            [Constraint(IMPL, (order[-1], order[1])), Constraint(NEQ, (order[1], order[2]))],
        ]
        rows = _ModelBits(order).rows(conjunctions)
        for constraints, row in zip(conjunctions, rows):
            assert np.array_equal(row_mask(row, n_vars), oracle_mask(constraints, order))
        assert not any(rows[2])


class TestInstanceParsing:
    def test_full_grammar(self):
        inst = parse_instance(INSTANCE_TEXT)
        assert inst.language.names == ("OR2", "T")
        assert [str(f) for f in inst.delta] == ["OR2(a,b)", "T(a) & T(b)"]
        assert str(inst.alpha) == "OR2(b,a)"
        assert inst.relevant == 1

    def test_kb_order_follows_kb_line(self):
        text = (
            "relation T 1 { 1 }\n"
            "formula second = T(b)\n"
            "formula first = T(a)\n"
            "kb first second\n"
            "claim T(a)\n"
        )
        inst = parse_instance(text)
        assert [str(f) for f in inst.delta] == ["T(a)", "T(b)"]

    def test_kb_lines_accumulate(self):
        text = (
            "relation T 1 { 1 }\n"
            "formula a = T(x)\n"
            "formula b = T(y)\n"
            "kb a\n"
            "kb b\n"
            "claim T(x)\n"
        )
        assert len(parse_instance(text).delta) == 2

    def test_use_reads_relation_file(self, tmp_path):
        (tmp_path / "lang.rel").write_text("relation T 1 { 1 }\n")
        text = "use lang.rel\nformula f = T(x)\nkb f\nclaim T(x)\n"
        inst = parse_instance(text, base_dir=str(tmp_path))
        assert inst.language.names == ("T",)

    def test_use_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_instance("use gone.rel\nclaim T(x)\n", base_dir=str(tmp_path))

    def test_language_argument_supplies_relations(self):
        lang = ConstraintLanguage.of(T)
        inst = parse_instance("claim T(x)\n", language=lang)
        assert inst.language == lang

    def test_missing_claim(self):
        with pytest.raises(ParseError, match="missing claim"):
            parse_instance("relation T 1 { 1 }\n")

    def test_no_relations(self):
        # Constraint parsing hits the empty language before the final check.
        with pytest.raises(ParseError, match="unknown relation T"):
            parse_instance("claim T(x)\n")

    def test_unknown_relation_in_constraint(self):
        with pytest.raises(ParseError, match="unknown relation"):
            parse_instance("relation T 1 { 1 }\nclaim U(x)\n")

    def test_constraint_arity_checked(self):
        with pytest.raises(ParseError, match="expects 1 args"):
            parse_instance("relation T 1 { 1 }\nclaim T(x,y)\n")

    def test_malformed_constraint(self):
        with pytest.raises(ParseError, match="malformed constraint"):
            parse_instance("relation T 1 { 1 }\nclaim T(x) & & T(y)\n")

    def test_duplicate_formula_name(self):
        text = "relation T 1 { 1 }\nformula f = T(x)\nformula f = T(y)\nclaim T(x)\n"
        with pytest.raises(ParseError, match="duplicate formula"):
            parse_instance(text)

    def test_unknown_formula_in_kb(self):
        with pytest.raises(ParseError, match="unknown formula"):
            parse_instance("relation T 1 { 1 }\nkb f\nclaim T(x)\n")

    def test_repeated_kb_name(self):
        text = "relation T 1 { 1 }\nformula f = T(x)\nkb f f\nclaim T(x)\n"
        with pytest.raises(ParseError, match="repeated in kb"):
            parse_instance(text)

    def test_multiple_claims(self):
        text = "relation T 1 { 1 }\nclaim T(x)\nclaim T(y)\n"
        with pytest.raises(ParseError, match="multiple claim"):
            parse_instance(text)

    def test_relevant_must_be_in_kb(self):
        text = "relation T 1 { 1 }\nformula f = T(x)\nclaim T(x)\nrelevant f\n"
        with pytest.raises(ParseError, match="not in the kb"):
            parse_instance(text)

    def test_relevant_single_name(self):
        text = "relation T 1 { 1 }\nformula f = T(x)\nkb f\nclaim T(x)\nrelevant f g\n"
        with pytest.raises(ParseError, match="exactly one"):
            parse_instance(text)

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_instance("observe T(x)\n")

    def test_parse_error_line_numbers(self):
        text = "relation T 1 { 1 }\n\nformula f = U(x)\n"
        try:
            parse_instance(text)
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a parse error")


class TestInstanceSerialization:
    def test_round_trip_inline(self):
        inst = parse_instance(INSTANCE_TEXT)
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_round_trip_with_use(self, tmp_path):
        inst = parse_instance(INSTANCE_TEXT)
        (tmp_path / "lang.rel").write_text(serialize_relations(inst.language))
        text = serialize_instance(inst, use="lang.rel")
        assert text.splitlines()[0] == "use lang.rel"
        again = parse_instance(text, base_dir=str(tmp_path))
        assert again == inst

    def test_names_regenerated(self):
        inst = parse_instance(INSTANCE_TEXT)
        text = serialize_instance(inst)
        assert "formula f0 = OR2(a,b)" in text
        assert "kb f0 f1" in text
        assert text.rstrip().endswith("relevant f1")

    def test_deterministic(self):
        inst = parse_instance(INSTANCE_TEXT)
        assert serialize_instance(inst) == serialize_instance(inst)

    def test_round_trip_random(self):
        rng = random.Random(911)
        for _ in range(40):
            language, delta, alpha = random_instance(rng, max_kb=4, max_vars=4)
            inst = ArgInstance(language, tuple(delta), alpha)
            assert parse_instance(serialize_instance(inst)) == inst
