"""Checks the array kernels against naive loops."""

import random
import tracemalloc

import numpy as np
import pytest

from argcl.kernels import (
    OP_AND,
    OP_IMP,
    OP_MAJ,
    OP_NIMP,
    OP_OR,
    OP_XOR3,
    collapse,
    filter_models,
    pair_closure,
    transpose_codes,
    triple_closure,
)


def naive_filter(n_vars, tables, positions):
    out = []
    for a in range(1 << n_vars):
        ok = True
        for table, pos in zip(tables, positions):
            k = len(pos)
            idx = 0
            for j, p in enumerate(pos):
                idx |= ((a >> (n_vars - 1 - p)) & 1) << (k - 1 - j)
            if not table[idx]:
                ok = False
                break
        out.append(ok)
    return out


def naive_pair(members, table, op, full_mask):
    for a in members:
        for b in members:
            a, b = int(a), int(b)
            if op == OP_AND:
                r = a & b
            elif op == OP_OR:
                r = a | b
            elif op == OP_IMP:
                r = (~a & full_mask) | b
            else:
                r = a & ~b & full_mask
            if not table[r]:
                return False
    return True


def naive_triple(members, table, op):
    ints = [int(m) for m in members]
    for a in ints:
        for b in ints:
            for c in ints:
                r = (a & b) | (a & c) | (b & c) if op == OP_MAJ else a ^ b ^ c
                if not table[r]:
                    return False
    return True


def collapsed(tables, positions):
    """Raw constraints (a table over 2**k rows, one variable index per
    argument) in the collapsed form the kernels take."""
    pairs = [collapse(t, p) for t, p in zip(tables, positions)]
    return [t for t, _ in pairs], [axes for _, axes in pairs]


def filter_raw(n_vars, tables, positions):
    return filter_models(n_vars, *collapsed(tables, positions))


def signature_raw(n_vars, formulas):
    """The codes of formulas given as raw constraints: each formula's
    naive satisfaction row, packed, then one transpose."""
    rows = [np.packbits(naive_filter(n_vars, *f), bitorder="little") for f in formulas]
    width = ((1 << n_vars) + 7) >> 3
    packed = np.array(rows, dtype=np.uint8).reshape(len(formulas), width)
    return transpose_codes(packed, n_vars)


def random_case(rng, max_vars=6, max_constraints=4, max_arity=4):
    """Positions are drawn independently, so they come unsorted and may
    repeat, as in R(x, x, y)."""
    n_vars = rng.randint(0, max_vars)
    tables = []
    positions = []
    for _ in range(rng.randint(0, max_constraints) if n_vars else 0):
        k = rng.randint(1, max_arity)
        rows = [rng.random() < 0.6 for _ in range(1 << k)]
        tables.append(np.array(rows, dtype=np.bool_))
        positions.append(tuple(rng.randrange(n_vars) for _ in range(k)))
    return n_vars, tables, positions


class TestFilterModels:
    def test_frozen_or2(self):
        table = np.array([False, True, True, True])
        assert filter_raw(2, [table], [(0, 1)]).tolist() == [False, True, True, True]

    def test_assignment_bit_order(self):
        # Variable p lives in bit (n_vars - 1 - p) of the assignment index.
        on = np.array([False, True])
        mask = filter_raw(3, [on], [(0,)])
        assert mask.tolist() == [a >= 4 for a in range(8)]
        mask = filter_raw(3, [on], [(2,)])
        assert mask.tolist() == [a % 2 == 1 for a in range(8)]

    def test_no_constraints(self):
        assert filter_raw(3, [], []).all()

    def test_no_variables(self):
        assert filter_raw(0, [], []).tolist() == [True]

    def test_repeated_positions(self):
        # R(x, x, y) reads x for both of its first two arguments.
        table = np.array([True, False, False, True, False, True, True, False])
        for pos in [(0, 0, 1), (1, 1, 0), (0, 1, 0), (1, 0, 1), (2, 2, 2)]:
            got = filter_raw(3, [table], [pos])
            assert got.tolist() == naive_filter(3, [table], [pos])

    def test_unsorted_positions(self):
        table = np.array([False, True, True, False, True, True, False, True])
        for pos in [(2, 0, 1), (1, 2, 0), (2, 1, 0), (3, 0, 2)]:
            got = filter_raw(4, [table], [pos])
            assert got.tolist() == naive_filter(4, [table], [pos])

    def test_implementations_agree(self):
        rng = random.Random(402)
        for _ in range(120):
            n_vars, tables, positions = random_case(rng)
            want = naive_filter(n_vars, tables, positions)
            assert filter_raw(n_vars, tables, positions).tolist() == want

    def test_agrees_up_to_twelve_variables(self):
        rng = random.Random(405)
        for _ in range(30):
            n_vars, tables, positions = random_case(rng, max_vars=12)
            want = naive_filter(n_vars, tables, positions)
            assert filter_raw(n_vars, tables, positions).tolist() == want

    @pytest.mark.parametrize("n_vars", [13, 14, 15, 16])
    def test_agrees_past_the_materialisation_width(self, n_vars):
        # Tables on the first axes, on the last axes (materialised over the
        # trailing six before the AND) and spread out, with repeated and
        # unsorted positions, one call each and then all in one call.
        n = n_vars
        rng = random.Random(406 + n)
        placements = [
            (0, 1),
            (n - 2, n - 1),
            (0, n - 1),
            (n - 1, n - 4, 2),
            (n - 1, 3, n - 1),
            (n - 6, n - 6),
            (n // 2, 1),
        ]
        tables = []
        for pos in placements:
            rows = [rng.random() < 0.6 for _ in range(1 << len(pos))]
            tables.append(np.array(rows, dtype=np.bool_))
            got = filter_raw(n, tables[-1:], [pos])
            assert got.tolist() == naive_filter(n, tables[-1:], [pos])
        got = filter_raw(n, tables, placements)
        assert got.tolist() == naive_filter(n, tables, placements)

    def test_memory_is_one_byte_per_assignment(self):
        # 2**22 assignments take 4 MB as a bool mask; one int64 index
        # array over them would take 32 MB more.
        or2 = np.array([False, True, True, True])
        tracemalloc.start()
        try:
            mask = filter_raw(22, [or2] * 3, [(0, 21), (7, 3), (12, 12)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert mask.sum() == 3 * 3 * 2**17

    def test_dispatcher_matches_mode(self):
        table = np.array([True, False, False, True])
        got = filter_raw(2, [table], [(1, 0)])
        assert got.tolist() == naive_filter(2, [table], [(1, 0)])


class TestCollapse:
    def test_unsorted_arguments(self):
        # IMPL(y, x) over (x, y) holds except at x = 0, y = 1.
        impl = np.array([True, True, False, True])
        got, axes = collapse(impl, (5, 2))
        assert axes == (2, 5)
        assert got.tolist() == [True, False, True, True]

    def test_repeated_argument(self):
        # NAE3(x, y, x) over (x, y) holds exactly where x != y.
        nae3 = np.array([False] + [True] * 6 + [False])
        got, axes = collapse(nae3, (4, 1, 4))
        assert axes == (1, 4)
        assert got.tolist() == [False, True, True, False]


def shifted_naive_codes(n_vars, formulas):
    """Bit j of entry a set iff naive_filter accepts a for formula j."""
    codes = [0] * (1 << n_vars)
    for j, (tables, positions) in enumerate(formulas):
        for a, ok in enumerate(naive_filter(n_vars, tables, positions)):
            codes[a] |= ok << j
    return codes


def random_formula(rng, n_vars, max_constraints=4, max_arity=4):
    """1-max_constraints constraints with unsorted, possibly repeated
    positions, drawn from the last four axes, from axes spread over the
    whole order, or from anywhere."""
    pools = [
        list(range(max(0, n_vars - 4), n_vars)),
        sorted({0, n_vars // 3, 2 * n_vars // 3, n_vars - 1}),
        list(range(n_vars)),
    ]
    tables, positions = [], []
    for _ in range(rng.randint(1, max_constraints)):
        k = rng.randint(1, max_arity)
        tables.append(np.array([rng.random() < 0.7 for _ in range(1 << k)]))
        pool = rng.choice(pools)
        positions.append(tuple(rng.choice(pool) for _ in range(k)))
    return tables, positions


class TestSignatureCodes:
    @pytest.mark.parametrize(
        "n_vars, count",
        [(8, 1), (8, 20), (10, 9), (12, 16), (13, 17), (14, 8), (15, 4), (16, 3)]
        + [(0, 2), (1, 3), (2, 9), (3, 17)],
    )
    def test_agrees_with_shifted_naive_rows(self, n_vars, count):
        # From 14 variables the transpose takes several steps; below 3 a
        # row is shorter than one byte, and 0 variables have one
        # assignment, which every formula without constraints satisfies.
        rng = random.Random(500 + 32 * n_vars + count)
        if n_vars:
            formulas = [random_formula(rng, n_vars) for _ in range(count)]
        else:
            formulas = [([], [])] * count
        got = signature_raw(n_vars, formulas)
        assert got.dtype == np.min_scalar_type((1 << count) - 1)
        assert got.tolist() == shifted_naive_codes(n_vars, formulas)

    @pytest.mark.parametrize("count", [0, 1, 8, 9, 63, 64])
    def test_code_width(self, count):
        # Bit count - 1 is the top bit of the narrowest type for count
        # formulas; the last formula holds everywhere, so it is always set.
        rng = random.Random(count)
        anywhere = ([np.array([True, True])], [(1,)])
        formulas = [random_formula(rng, 3) for _ in range(count - 1)] + [anywhere]
        got = signature_raw(3, formulas[:count])
        assert got.dtype == np.min_scalar_type((1 << count) - 1)
        assert got.tolist() == shifted_naive_codes(3, formulas[:count])
        if count:
            assert (got >> (count - 1) == 1).all()

    def test_rejects_more_than_64_formulas(self):
        with pytest.raises(ValueError):
            signature_raw(2, [([np.array([True, True])], [(0,)])] * 65)


class TestPairClosure:
    def test_or2_closures(self):
        members = np.array([0b01, 0b10, 0b11], dtype=np.int64)
        table = np.array([False, True, True, True])
        assert pair_closure(members, table, OP_OR, 3)
        assert not pair_closure(members, table, OP_AND, 3)

    def test_implication_ops(self):
        # imp(a, a) is all-ones, so OR2 is imp-closed while NAND is not.
        or2 = np.array([0b01, 0b10, 0b11], dtype=np.int64)
        or2_table = np.array([False, True, True, True])
        assert pair_closure(or2, or2_table, OP_IMP, 3)
        nand = np.array([0b00, 0b01, 0b10], dtype=np.int64)
        nand_table = np.array([True, True, True, False])
        assert pair_closure(nand, nand_table, OP_NIMP, 3)
        assert not pair_closure(nand, nand_table, OP_IMP, 3)

    def test_agrees_with_naive(self):
        rng = random.Random(403)
        for _ in range(150):
            arity = rng.randint(1, 4)
            full = (1 << arity) - 1
            size = rng.randint(1, full + 1)
            members = np.array(rng.sample(range(full + 1), size), dtype=np.int64)
            table = np.zeros(full + 1, dtype=np.bool_)
            table[members] = True
            for extra in range(full + 1):
                if rng.random() < 0.2:
                    table[extra] = True
            for op in (OP_AND, OP_OR, OP_IMP, OP_NIMP):
                want = naive_pair(members, table, op, full)
                assert pair_closure(members, table, op, full) == want


class TestTripleClosure:
    def test_parity_relation_is_xor_closed(self):
        members = np.array([0b000, 0b011, 0b101, 0b110], dtype=np.int64)
        table = np.zeros(8, dtype=np.bool_)
        table[members] = True
        assert triple_closure(members, table, OP_XOR3)

    def test_disequality_is_majority_closed(self):
        members = np.array([0b01, 0b10], dtype=np.int64)
        table = np.array([False, True, True, False])
        assert triple_closure(members, table, OP_MAJ)

    def test_one_in_three_fails_both(self):
        members = np.array([0b100, 0b010, 0b001], dtype=np.int64)
        table = np.zeros(8, dtype=np.bool_)
        table[members] = True
        assert not triple_closure(members, table, OP_MAJ)
        assert not triple_closure(members, table, OP_XOR3)

    def test_agrees_with_naive(self):
        rng = random.Random(404)
        for _ in range(100):
            arity = rng.randint(1, 3)
            full = (1 << arity) - 1
            size = rng.randint(1, full + 1)
            members = np.array(rng.sample(range(full + 1), size), dtype=np.int64)
            table = np.zeros(full + 1, dtype=np.bool_)
            table[members] = True
            for op in (OP_MAJ, OP_XOR3):
                want = naive_triple(members, table, op)
                assert triple_closure(members, table, op) == want

