"""Tests for relations: validation, property flags, and the file format."""

import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

import argcl

from argcl import (
    EQUALITY,
    FLAG_NAMES,
    ConstraintLanguage,
    ParseError,
    Relation,
    language_properties,
    parse_relations,
    relation_properties,
    serialize_relations,
    truth_table,
)

from conftest import CATALOG, NAE3, NEQ, ONE_IN_THREE, OR2, RPRIME, F, T


def naive_flags(relation):
    """Recompute every property flag by brute force over the tuple set."""
    ts = relation.tuples
    k = relation.arity
    full = (1 << k) - 1
    pairs = list(itertools.product(ts, repeat=2))
    triples = list(itertools.product(ts, repeat=3))
    flags = {}
    flags["horn"] = all(a & b in ts for a, b in pairs)
    flags["dual_horn"] = all(a | b in ts for a, b in pairs)
    flags["bijunctive"] = all(
        (a & b) | (a & c) | (b & c) in ts for a, b, c in triples
    )
    flags["affine"] = all(a ^ b ^ c in ts for a, b, c in triples)
    flags["zero_valid"] = 0 in ts
    flags["one_valid"] = full in ts
    flags["eps_valid"] = flags["zero_valid"] or flags["one_valid"]
    flags["complementive"] = all(t ^ full in ts for t in ts)
    flags["positive"] = all(
        u in ts for t in ts for u in range(full + 1) if u & t == t
    )
    flags["negative"] = all(
        u in ts for t in ts for u in range(full + 1) if u & t == u
    )
    flags["in_is0"] = all((~a & full) | b in ts for a, b in pairs)
    flags["in_is1"] = all(a & (~b & full) in ts for a, b in pairs)
    flags["schaefer"] = (
        flags["horn"] or flags["dual_horn"] or flags["bijunctive"] or flags["affine"]
    )
    return flags


def all_relations_of_arity(arity):
    size = 1 << arity
    for bits in range(1, (1 << size) - 1):
        tuples = frozenset(i for i in range(size) if bits >> i & 1)
        yield Relation(f"R{bits}", arity, tuples)


# Coordinate-wise operations whose closure each flag names, with their
# arity; the bijunctive and affine flags are the ternary ones.
CLOSURE_OPS = {
    "horn": (2, lambda a, b: a & b),
    "dual_horn": (2, lambda a, b: a | b),
    "bijunctive": (3, lambda a, b, c: (a & b) | (a & c) | (b & c)),
    "affine": (3, lambda a, b, c: a ^ b ^ c),
}


def closure_of(seed, flag):
    """The smallest tuple set containing seed and closed under the
    operation of flag."""
    n, op = CLOSURE_OPS[flag]
    closed = set(seed)
    while True:
        new = {op(*xs) for xs in itertools.product(closed, repeat=n)} - closed
        if not new:
            return frozenset(closed)
        closed |= new


class TestRelationValidation:
    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Relation("E", 2, frozenset())

    def test_full_relation_rejected(self):
        with pytest.raises(ValueError, match="full"):
            Relation("FULL", 1, frozenset({0, 1}))

    def test_arity_bounds(self):
        with pytest.raises(ValueError):
            Relation("Z", 0, frozenset({0}))
        with pytest.raises(ValueError):
            Relation("Z", 17, frozenset({0}))

    def test_tuple_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Relation("X", 1, frozenset({2}))

    def test_bad_names(self):
        for name in ("", "2x", "a b", "a-b"):
            with pytest.raises(ValueError, match="name"):
                Relation(name, 1, frozenset({1}))

    def test_equals_name_reserved_for_builtin(self):
        rel = Relation("=", 2, frozenset({0b00, 0b11}))
        assert rel == EQUALITY

    def test_from_strings_round_trip(self):
        rel = Relation.from_strings("NAE3", ["001", "010", "011", "100", "101", "110"])
        assert rel == NAE3
        assert rel.tuple_strings == ("001", "010", "011", "100", "101", "110")

    def test_from_strings_rejects_mixed_widths(self):
        with pytest.raises(ValueError, match="width"):
            Relation.from_strings("X", ["01", "001"])

    def test_from_strings_rejects_bad_characters(self):
        with pytest.raises(ValueError, match="bad tuple"):
            Relation.from_strings("X", ["02"])

    def test_contains(self):
        assert 0b01 in NEQ
        assert 0b11 not in NEQ

    def test_truth_table(self):
        table = truth_table(NEQ)
        assert table.tolist() == [False, True, True, False]
        with pytest.raises(ValueError):
            table[0] = True


# Unpickles a relation from stdin in a fresh interpreter and checks that it
# hashes as a relation built there does; argv[1] is its hash in the sender.
UNPICKLE_CHECK = """
import pickle, sys
from argcl import Relation, relation_properties
r = pickle.loads(sys.stdin.buffer.read())
twin = Relation(r.name, r.arity, r.tuples)
assert hash(r) != int(sys.argv[1]), "string hashes were not salted differently"
assert hash(r) == hash(twin) == hash((r.name, r.arity, r.tuples))
assert {twin: "found"}[r] == "found"
relation_properties(twin)
hits = relation_properties.cache_info().hits
relation_properties(r)
assert relation_properties.cache_info().hits == hits + 1
"""


class TestRelationHash:
    def test_equal_relations_hash_alike(self):
        for r in CATALOG:
            assert hash(r) == hash(Relation(r.name, r.arity, r.tuples))
            assert hash(r) == hash((r.name, r.arity, r.tuples))

    def test_replace_rehashes(self):
        renamed = dataclasses.replace(OR2, name="OR2B")
        assert hash(renamed) == hash(Relation("OR2B", 2, OR2.tuples))
        narrowed = dataclasses.replace(OR2, tuples=frozenset({0b01}))
        assert hash(narrowed) == hash(Relation("OR2", 2, frozenset({0b01})))

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(NAE3)) == NAE3
        assert hash(pickle.loads(pickle.dumps(NAE3))) == hash(NAE3)

    def test_unpickled_under_another_hash_seed(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.dirname(os.path.dirname(argcl.__file__))
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
        }
        done = subprocess.run(
            [sys.executable, "-c", UNPICKLE_CHECK, str(hash(RPRIME))],
            input=pickle.dumps(RPRIME),
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()


class TestRelationProperties:
    def test_matches_naive_for_all_unary_and_binary(self):
        for rel in itertools.chain(all_relations_of_arity(1), all_relations_of_arity(2)):
            assert relation_properties(rel).as_dict() == naive_flags(rel)

    def test_matches_naive_on_catalog(self):
        for rel in CATALOG:
            assert relation_properties(rel).as_dict() == naive_flags(rel)

    def test_matches_naive_on_random_ternary(self):
        rng = random.Random(20817)
        for i in range(60):
            population = range(8)
            tuples = frozenset(rng.sample(population, rng.randint(1, 7)))
            rel = Relation(f"S{i}", 3, tuples)
            assert relation_properties(rel).as_dict() == naive_flags(rel)

    def test_matches_naive_on_closed_and_random_arity_4_to_6(self):
        # Closures pass every tuple combination through the kernels without
        # an early exit; random relations of up to 63 tuples cover the
        # failing side at the same sizes.
        rng = random.Random(4711)
        for k in (4, 5, 6):
            size = 1 << k
            for flag in CLOSURE_OPS:
                made = 0
                while made < 4:
                    seed = rng.sample(range(size), rng.randint(3, 2 * k))
                    tuples = closure_of(seed, flag)
                    if len(tuples) == size:
                        continue
                    rel = Relation(f"C{made}", k, tuples)
                    flags = naive_flags(rel)
                    assert flags[flag]
                    assert relation_properties(rel).as_dict() == flags
                    made += 1
            for i in range(8):
                tuples = frozenset(rng.sample(range(size), rng.randint(1, size - 1)))
                rel = Relation(f"S{i}", k, tuples)
                assert relation_properties(rel).as_dict() == naive_flags(rel)

    def test_implication_flags(self):
        # imp(t,t) is the all-ones tuple and nimp(t,t) the all-zeros one,
        # so closure under either operation forces the matching constant.
        rep_t = relation_properties(T)
        assert rep_t.in_is0 and not rep_t.in_is1
        rep_f = relation_properties(F)
        assert rep_f.in_is1 and not rep_f.in_is0
        for rel in all_relations_of_arity(2):
            rep = relation_properties(rel)
            if rep.in_is0:
                assert rep.one_valid
            if rep.in_is1:
                assert rep.zero_valid

    def test_selected_flags(self):
        assert relation_properties(OR2).positive
        assert not relation_properties(OR2).zero_valid
        assert relation_properties(NEQ).complementive
        assert relation_properties(NEQ).bijunctive
        assert relation_properties(NEQ).affine
        assert relation_properties(NAE3).complementive
        assert not relation_properties(NAE3).schaefer
        assert not relation_properties(ONE_IN_THREE).schaefer
        assert not relation_properties(ONE_IN_THREE).eps_valid
        assert relation_properties(T).one_valid
        assert relation_properties(F).zero_valid
        assert relation_properties(RPRIME).schaefer

    def test_flags_are_cached(self):
        assert relation_properties(NEQ) is relation_properties(NEQ)


class TestConstraintLanguage:
    def test_sorted_by_name(self):
        lang = ConstraintLanguage.of(T, NEQ)
        assert lang.names == ("NEQ", "T")

    def test_duplicate_names_rejected(self):
        other = Relation("NEQ", 1, frozenset({1}))
        with pytest.raises(ValueError, match="duplicate"):
            ConstraintLanguage.of(NEQ, other)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ConstraintLanguage(())

    def test_equality_cannot_be_declared(self):
        with pytest.raises(ValueError, match="equality"):
            ConstraintLanguage.of(EQUALITY)

    def test_lookup(self):
        lang = ConstraintLanguage.of(NEQ, T)
        assert lang.get("T") is T
        with pytest.raises(KeyError):
            lang.get("MISSING")
        assert NEQ in lang
        assert len(lang) == 2


class TestLanguageProperties:
    def test_base_flags_are_conjunctions(self):
        lang = ConstraintLanguage.of(NEQ, OR2)
        rep = language_properties(lang)
        per = [relation_properties(r) for r in lang]
        for flag in FLAG_NAMES:
            if flag in ("eps_valid", "schaefer"):
                continue
            assert getattr(rep, flag) == all(getattr(p, flag) for p in per)

    def test_eps_needs_a_shared_constant(self):
        # T is only 1-valid and F only 0-valid, so neither constant
        # assignment satisfies both and the language is not eps-valid.
        rep = language_properties(ConstraintLanguage.of(T, F))
        assert not rep.zero_valid
        assert not rep.one_valid
        assert not rep.eps_valid
        assert rep.schaefer

    def test_eps_from_shared_one(self):
        rep = language_properties(ConstraintLanguage.of(T, OR2))
        assert rep.one_valid
        assert rep.eps_valid

    def test_singleton_language_matches_relation(self):
        rep = language_properties(ConstraintLanguage.of(NAE3))
        assert rep.as_dict() == relation_properties(NAE3).as_dict()

    def test_schaefer_can_vanish_in_combination(self):
        # OR2 is dual Horn and bijunctive, XOR-like NEQ is bijunctive and
        # affine; together only bijunctive survives, so still Schaefer.
        rep = language_properties(ConstraintLanguage.of(OR2, NEQ))
        assert rep.bijunctive
        assert rep.schaefer


class TestRelationFiles:
    def test_parse_single_line(self):
        lang = parse_relations("relation NEQ 2 { 01 10 }\n")
        assert lang.names == ("NEQ",)
        assert lang.get("NEQ").tuples == NEQ.tuples

    def test_parse_with_comments_and_blanks(self):
        text = "# header\n\nrelation T 1 { 1 }  # trailing\nrelation F 1 { 0 }\n"
        lang = parse_relations(text)
        assert lang.names == ("F", "T")

    def test_round_trip(self):
        lang = ConstraintLanguage.of(NAE3, T, ONE_IN_THREE)
        text = serialize_relations(lang)
        assert parse_relations(text) == lang

    def test_serialization_is_sorted_and_stable(self):
        a = serialize_relations(ConstraintLanguage.of(T, NEQ))
        b = serialize_relations(ConstraintLanguage.of(NEQ, T))
        assert a == b
        assert a.splitlines()[0] == "relation NEQ 2 { 01 10 }"

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="malformed"):
            parse_relations("relation X 2 01 10\n")

    def test_bad_arity_token(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_relations("relation X two { 01 }\n")

    def test_tuple_width_mismatch(self):
        with pytest.raises(ParseError, match="bad tuple"):
            parse_relations("relation X 2 { 011 }\n")

    def test_equality_not_declarable(self):
        with pytest.raises(ParseError, match="name"):
            parse_relations("relation = 2 { 00 11 }\n")

    def test_duplicate_declaration(self):
        text = "relation T 1 { 1 }\nrelation T 1 { 0 }\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_relations(text)

    def test_empty_file(self):
        with pytest.raises(ParseError, match="no relation"):
            parse_relations("# nothing here\n")

    def test_error_carries_line_number(self):
        try:
            parse_relations("relation A 1 { 1 }\nrelation ? 1 { 0 }\n")
        except ParseError as exc:
            assert exc.line == 2
        else:
            pytest.fail("expected a parse error")
