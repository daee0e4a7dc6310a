"""Array kernels for model filtering and closure tests, in vectorized numpy."""

from __future__ import annotations

import numpy as np

__all__ = [
    "filter_models",
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
# A constraint is (table, positions): table is the relation's truth table
# over 2**k rows, positions maps constraint argument j to a variable index.
# ---------------------------------------------------------------------------


def filter_models(
    n_vars: int,
    tables: list[np.ndarray],
    positions: list[tuple[int, ...]],
) -> np.ndarray:
    """Satisfaction mask over all assignments.

    Args:
        n_vars: number of variables; the result has 2**n_vars entries.
        tables: per-constraint relation truth tables (bool, length 2**k).
        positions: per-constraint variable indices, one per argument.

    Returns:
        Boolean array: entry a is True iff assignment a satisfies every
        constraint.
    """
    count = 1 << n_vars
    sat = np.ones(count, dtype=np.bool_)
    if not tables:
        return sat
    assignments = np.arange(count, dtype=np.int64)
    for table, pos in zip(tables, positions):
        k = len(pos)
        idx = np.zeros(count, dtype=np.int64)
        for j, p in enumerate(pos):
            idx |= ((assignments >> (n_vars - 1 - p)) & 1) << (k - 1 - j)
        sat &= table[idx]
    return sat


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
