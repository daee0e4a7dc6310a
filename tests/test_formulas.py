"""Tests for constraint formulas, model enumeration, and instance files."""

import random
import tracemalloc

import numpy as np
import pytest

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
    parse_instance,
    satisfies,
    serialize_instance,
    serialize_relations,
    substitute,
    variables_of,
)

from argcl.formulas import _ModelBits, _block_literals
from conftest import (
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
        with pytest.raises(ValueError, match="expects 2 args"):
            Constraint(NEQ, ("x",))

    def test_bad_variable_name(self):
        with pytest.raises(ValueError, match="variable"):
            Constraint(T, ("1x",))

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
        with pytest.raises(ValueError, match="at least one"):
            GammaFormula(())

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
