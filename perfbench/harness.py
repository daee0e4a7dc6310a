"""Host-speed reference, normalised op timing and run statistics.

The shared host changes speed from one half-second to the next, so a raw
op time says as much about the host as about argcl. The harness therefore
runs a fixed reference loop of its own between ops and scales each op's
time by the reference rate measured around it:

    t_norm = t_raw * local_rate / NOMINAL_REF_RATE

which is the time the op would have taken on a host that runs the
reference at its nominal rate. Only the numpy mix of the reference imports
numpy, so the set-up probe can time the host before argcl is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable, Iterator

# Reference units per second on the nominal host (about the median rate on a
# 2-core Intel Xeon VM). A constant, so normalised figures from different
# runs and commits share one scale.
NOMINAL_REF_RATE = 1500.0

# Ops run in segments of at least this much op time; a reference chunk sits
# between consecutive segments, and the ops of a segment are scaled by the
# mean rate of the chunks on either side.
SEGMENT_S = 0.2

# Reference units per chunk: about 50 ms at the nominal rate, so the
# reference takes roughly a fifth of the time spent on ops.
REF_UNITS = 75

# Reference mixes: interpreter-loop and numpy-loop iterations per unit. Both
# mixes take about 0.7 ms per unit on the nominal host. The host's speed
# changes do not hit interpreter work and numpy reductions alike, so each
# workload is scaled by the mix that resembles its own work.
REF_MIXES = {"python": (1500, 0), "python+numpy": (750, 30)}


def ref_unit(py_iters: int, np_iters: int, rows, other) -> int:
    """One unit of fixed work: dict updates and tuple hashing, then
    and-reductions over boolean arrays that fit in cache."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(py_iters):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i)) & 0xFFFF
    for _ in range(np_iters):
        acc += bool((rows.all(axis=0) & ~other).any())
    return acc + len(table)


def ref_rate(mix: str, units: int = REF_UNITS) -> float:
    """Reference units of the given mix per second, measured now."""
    py_iters, np_iters = REF_MIXES[mix]
    rows = other = None
    if np_iters:
        import numpy as np

        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2, (12, 16384)).astype(np.bool_)
        other = rng.integers(0, 2, 16384).astype(np.bool_)
    start = perf_counter()
    for _ in range(units):
        ref_unit(py_iters, np_iters, rows, other)
    return units / (perf_counter() - start)


def normalise(raw_s: float, rate: float) -> float:
    """Scale a raw duration measured at `rate` to the nominal host speed."""
    return raw_s * rate / NOMINAL_REF_RATE


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass(frozen=True)
class Op:
    """One benchmark call: `run` is timed, `check` judges its result.

    `key` describes the inputs exactly, so two op lists can be compared.
    """

    kind: str
    key: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class OpRecord:
    op: Op
    raw_s: float
    norm_s: float
    result: object
    error: str | None


@dataclass
class Pass:
    """The records of one closed-loop pass and the host measurements."""

    records: list[OpRecord]
    rates: list[float]
    wall_s: float
    cpu_s: float

    @property
    def op_raw_s(self) -> float:
        return sum(r.raw_s for r in self.records)

    @property
    def op_norm_s(self) -> float:
        return sum(r.norm_s for r in self.records)


def run_pass(
    ops: Iterator[Op],
    ref_mix: str,
    *,
    budget_s: float | None = None,
    min_ops: int = 0,
    round_ops: int = 1,
    max_ops: int | None = None,
) -> Pass:
    """Run ops one after another until the stop rule holds.

    With `budget_s` the pass stops at the first multiple of `round_ops` ops
    by which the summed raw op time has reached `budget_s` and at least
    `min_ops` ops ran; with `max_ops` it stops after exactly that many ops. An op that raises is recorded with its error and counts
    as failed; the pass goes on.
    """
    if (budget_s is None) == (max_ops is None):
        raise ValueError("give exactly one of budget_s and max_ops")
    records: list[OpRecord] = []
    rates: list[float] = []
    segment: list[tuple[Op, float, object, str | None]] = []
    seg_time = 0.0
    op_time = 0.0
    wall0 = perf_counter()
    cpu0 = process_time()
    rate_before = ref_rate(ref_mix)
    rates.append(rate_before)

    def done() -> bool:
        count = len(records) + len(segment)
        if max_ops is not None:
            return count >= max_ops
        return op_time >= budget_s and count >= min_ops and count % round_ops == 0

    while not done():
        op = next(ops)
        start = perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an op failure is data, not a harness fault
            result = None
            error = f"{type(exc).__name__}: {exc}"
        raw = perf_counter() - start
        op_time += raw
        seg_time += raw
        segment.append((op, raw, result, error))
        if seg_time >= SEGMENT_S or done():
            rate_after = ref_rate(ref_mix)
            rates.append(rate_after)
            local = (rate_before + rate_after) / 2.0
            for seg_op, seg_raw, seg_result, seg_error in segment:
                records.append(
                    OpRecord(seg_op, seg_raw, normalise(seg_raw, local), seg_result, seg_error)
                )
            rate_before = rate_after
            segment = []
            seg_time = 0.0
    return Pass(
        records=records,
        rates=rates,
        wall_s=perf_counter() - wall0,
        cpu_s=process_time() - cpu0,
    )


def judge(records: list[OpRecord]) -> list[bool]:
    """Per-record verdict: no error and the op's check accepts the result."""
    verdicts = []
    for r in records:
        if r.error is not None:
            verdicts.append(False)
            continue
        try:
            verdicts.append(bool(r.op.check(r.result)))
        except Exception as exc:  # a result the check cannot read is wrong
            r.error = f"check raised {type(exc).__name__}: {exc}"
            verdicts.append(False)
    return verdicts


def end_to_end(p: Pass, verdicts: list[bool]) -> dict[str, float]:
    """Throughput, latency percentiles and the ok fraction of one pass."""
    times_ms = [r.norm_s * 1000.0 for r in p.records]
    p95 = percentile(times_ms, 95.0)
    return {
        "ops_per_s": len(p.records) / p.op_norm_s,
        "op_p50_ms": percentile(times_ms, 50.0),
        "op_p95_ms": p95,
        "ok_frac": sum(verdicts) / len(verdicts),
        "p95_tail_samples": sum(1 for t in times_ms if t > p95),
    }
