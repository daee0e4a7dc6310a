"""Array kernels for the model masks of relations wider than
`formulas._CNF_ARITY`, formula signatures and closure tests, in vectorized
numpy.

Model filtering ANDs each constraint's truth table, broadcast over an
n-axis view of the assignment mask, into that mask in place: 1 byte per
assignment and no index arrays. It takes each table already collapsed
onto its distinct variables in ascending order (`collapse`), so a
broadcast is one reshape. On a wide mask, a table that sits on the last
axes is first materialised over the trailing six axes, so the AND runs
over 64 contiguous entries at a time instead of one or two.

Signature codes are one bit transpose of the formulas' model bitsets,
packed 8 assignments to a byte: each step of assignments is unpacked to
one byte per formula and assignment, shifted to the formula's bit in the
narrow code type and OR-reduced over the formulas, so the numpy calls per
compile do not grow with the number of formulas.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "collapse",
    "filter_models",
    "transpose_codes",
    "pair_closure",
    "triple_closure",
    "OP_AND",
    "OP_OR",
    "OP_IMP",
    "OP_NIMP",
    "OP_MAJ",
    "OP_XOR3",
]

# Binary coordinate-wise operations on tuple bitmasks.
OP_AND = 0
OP_OR = 1
OP_IMP = 2
OP_NIMP = 3
# Ternary coordinate-wise operations.
OP_MAJ = 0
OP_XOR3 = 1


# ---------------------------------------------------------------------------
# Model filtering: which of the 2**n assignments satisfy every constraint.
#
# Assignment a in [0, 2**n) encodes the variable at sorted position i in bit
# (n-1-i), so ascending integers enumerate assignments lexicographically.
# The flat bool mask (1 byte per assignment) is viewed as an array of shape
# (2,) * n whose axis i is the variable at position i. A constraint is
# (table, positions): positions are the constraint's distinct variable
# indices in ascending order, and table has one row per assignment to them,
# the variable at positions[m] in bit (d-1-m) of the row (`collapse` turns a
# relation's truth table and one variable index per argument into this
# form). The table is reshaped to size 2 on its own axes and size 1 on
# every other axis, and ANDed into the view in place. No per-assignment
# index array is built.
#
# numpy runs that AND as one inner loop per contiguous run of the mask over
# which the table is constant: 2**(n-1-p) entries, p the table's last axis.
# When that run is 16 entries or fewer and the mask has at least 2**12
# entries, the table is first materialised over the trailing _TRAIL_AXES
# axes (size 2 on its own axes and on those, size 1 elsewhere: at most
# 2**(k+6) entries, never more than the mask), so each inner loop covers 64
# contiguous entries. On a one-constraint call with a random table of arity 6
# or 8 on spread axes this took 14 variables from 106 to 24 us, 16 from 387
# to 54 us and 20 from 2292 to 218 us (2-core Xeon VM). Tables that leave
# longer runs, and narrower masks, gained nothing from the copy when
# measured, so they are ANDed as they are.
# ---------------------------------------------------------------------------

_TRAIL_AXES = 6
_TRAIL = np.ones((2,) * _TRAIL_AXES, dtype=np.bool_)
_WIDE = 12


def filter_models(
    n_vars: int,
    tables: list[np.ndarray],
    positions: list[tuple[int, ...]],
) -> np.ndarray:
    """Satisfaction mask over all assignments.

    Args:
        n_vars: number of variables; the result has 2**n_vars entries.
        tables: per-constraint tables (bool, length 2**d), collapsed onto
            the constraint's d distinct variables (`collapse`).
        positions: per-constraint distinct variable indices, ascending.

    Returns:
        Boolean array: entry a is True iff assignment a satisfies every
        constraint.
    """
    sat = np.ones(1 << n_vars, dtype=np.bool_)
    view = sat.reshape((2,) * n_vars)
    for table, pos in zip(tables, positions):
        shape = [1] * n_vars
        for p in pos:
            shape[p] = 2
        t = table.reshape(shape)
        if n_vars >= _WIDE and 2 in shape[n_vars - _TRAIL_AXES + 1 :]:
            t = t & _TRAIL
        view &= t
    return sat


# Assignments per transpose step. The step holds one byte per formula and
# assignment, and one code per formula and assignment in the code type, so
# at 64 formulas of a 64-bit code it takes 4.5 MB whatever the number of
# assignments; steps of 2**12 to 2**14 assignments ran equally fast over
# 10 to 20 variables (2-core Xeon VM), longer ones slower past 16.
_CHUNK = 1 << 13


def transpose_codes(rows: np.ndarray, n_vars: int) -> np.ndarray:
    """Per-assignment bitsets of the formulas each assignment satisfies,
    from per-formula model bitsets.

    Args:
        rows: uint8 array of shape (formulas, ceil(2**n_vars / 8)), at
            most 64 formulas: row j is formula j's model bitset, packed
            little-endian, so bit a % 8 of byte a // 8 says whether
            assignment a satisfies it.
        n_vars: number of variables; the result has 2**n_vars entries.

    Returns:
        Unsigned array in the narrowest type that holds len(rows) bits:
        bit j of entry a is set iff assignment a satisfies formula j.
    """
    if len(rows) > 64:
        raise ValueError(f"{len(rows)} formulas do not fit one 64-bit code")
    size = 1 << n_vars
    dtype = np.min_scalar_type((1 << len(rows)) - 1)
    codes = np.empty(size, dtype=dtype)
    shifts = np.arange(len(rows), dtype=dtype)[:, None]
    for start in range(0, size, _CHUNK):
        count = min(_CHUNK, size - start)
        block = rows[:, start >> 3 : (start + count + 7) >> 3]
        bits = np.unpackbits(block, axis=1, count=count, bitorder="little")
        np.bitwise_or.reduce(
            np.left_shift(bits, shifts, dtype=dtype),
            axis=0,
            out=codes[start : start + count],
        )
    return codes


def collapse(table: np.ndarray, pos: tuple[int, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """A truth table over 2**k rows, argument j in row bit (k-1-j) and read
    from variable index pos[j], as the kernels take it: a table over the
    constraint's d distinct variables in ascending order, and those indices.

    Row r of the collapsed table sets distinct variable m to bit (d-1-m)
    of r, and reads the original row in which each argument takes its
    variable's bit; this one rule sorts unsorted arguments and merges
    repeated ones.
    """
    k = len(pos)
    axes = tuple(sorted(set(pos)))
    d = len(axes)
    rows = np.arange(1 << d)
    idx = 0
    for j, p in enumerate(pos):
        idx = idx | ((rows >> (d - 1 - axes.index(p))) & 1) << (k - 1 - j)
    return table[idx], axes


# ---------------------------------------------------------------------------
# Closure tests over tuple bitmasks.
# ---------------------------------------------------------------------------


def pair_closure(members: np.ndarray, table: np.ndarray, op: int, full_mask: int) -> bool:
    """True iff the relation is closed under the binary coordinate-wise op."""
    m1 = members[:, None]
    m2 = members[None, :]
    if op == OP_AND:
        res = m1 & m2
    elif op == OP_OR:
        res = m1 | m2
    elif op == OP_IMP:
        res = (~m1 & full_mask) | m2
    elif op == OP_NIMP:
        res = m1 & (~m2 & full_mask)
    else:
        raise ValueError(f"unknown binary op {op}")
    return bool(table[res].all())


def triple_closure(members: np.ndarray, table: np.ndarray, op: int) -> bool:
    """True iff the relation is closed under the ternary coordinate-wise op."""
    m1 = members[:, None]
    m2 = members[None, :]
    for c in members:
        if op == OP_MAJ:
            res = (m1 & m2) | (m1 & c) | (m2 & c)
        elif op == OP_XOR3:
            res = m1 ^ m2 ^ c
        else:
            raise ValueError(f"unknown ternary op {op}")
        if not table[res].all():
            return False
    return True
