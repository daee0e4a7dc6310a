"""argcl benchmark: four seeded closed-loop workloads, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload kb-search --seed 1 --seconds 10 --trace 0

One caller issues each op only after the previous one returned, in a single
process with one BLAS thread. With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json; with --trace 1 it runs a fixed number of ops
untraced, then as many again with per-layer wrappers installed, and reports
the per-layer metrics. Every answer is checked against an independent source.
The last line of stdout is one JSON object; a full record of the run,
with machine details, is written under perfbench/results/.
"""

import os
import sys

# Fixed before the interpreter starts: one BLAS thread, so a matmul does not
# spin on a second core, and one hash seed, so set iteration order, and with
# it every traced count, repeats from run to run.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **FIXED_ENV})

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOAD_NAMES = ("reduction-sweep", "kb-search", "schaefer-scale", "property-sweep")

# Set-up is measured this many times per run, each in a fresh interpreter,
# and the median is reported.
SETUP_PROBES = 5

# A timed run goes on past --seconds until this many ops ran, which leaves
# at least ten samples above the 95th percentile, and then to the end of the
# workload's current round.
MIN_OPS = 220


def import_argcl():
    """Import argcl from this checkout's src/, never from anywhere else."""
    if not (SRC / "argcl" / "__init__.py").is_file():
        raise SystemExit(f"argcl sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import argcl

    if Path(argcl.__file__).resolve().parent != SRC / "argcl":
        raise SystemExit(f"imported argcl from {argcl.__file__}, not from {SRC}")
    return argcl


def machine_info() -> dict:
    import numpy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "argcl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in FIXED_ENV if k != "PYTHONHASHSEED"},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def measure_setup(workload: str) -> tuple[float, list[dict]]:
    """Median normalised set-up seconds over SETUP_PROBES fresh interpreters."""
    import harness

    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    values = [
        harness.normalise(p["import_s"] + p["warmup_s"], p["rate"]) for p in probes
    ]
    return statistics.median(values), probes


def failures(records, verdicts, limit: int = 10) -> list[dict]:
    out = []
    for record, ok in zip(records, verdicts):
        if not ok and len(out) < limit:
            out.append(
                {"kind": record.op.kind, "key": record.op.key[:300], "error": record.error}
            )
    return out


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[bool], dict]:
    import harness
    import workloads

    setup_s, probes = measure_setup(workload)
    spec = workloads.WORKLOADS[workload]
    ops = spec.stream(seed)
    for op in spec.warmup():
        op.run()
    gc.collect()
    timed = harness.run_pass(
        ops, spec.ref_mix, budget_s=seconds, min_ops=MIN_OPS, round_ops=spec.round_ops
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = harness.judge(timed.records)
    e2e = harness.end_to_end(timed, verdicts)
    metrics = {
        "ops_per_s": (e2e["ops_per_s"], "1/s"),
        "op_p50_ms": (e2e["op_p50_ms"], "ms"),
        "op_p95_ms": (e2e["op_p95_ms"], "ms"),
        "ok_frac": (e2e["ok_frac"], "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "ops": len(timed.records),
        "p95_tail_samples": e2e["p95_tail_samples"],
        "harness.ref_rate": statistics.median(timed.rates),
        "harness.cpu_util": timed.cpu_s / timed.wall_s,
        "harness.wall_ops_per_s": len(timed.records) / timed.op_raw_s,
        "setup_probes": probes,
        "failures": failures(timed.records, verdicts),
    }
    return metrics, verdicts, record


def traced_run(workload: str, seed: int, spans_path: Path) -> tuple[dict, list[bool], dict]:
    import harness
    import tracing
    import workloads

    spec = workloads.WORKLOADS[workload]
    # Both passes run the first n_ops ops of the seed's stream, each from a
    # stream of its own, so trace_overhead compares like with like.
    plain_ops, traced_ops = spec.stream(seed), spec.stream(seed)
    for op in spec.warmup():
        op.run()
    n_ops = spec.trace_ops
    gc.collect()
    plain = harness.run_pass(plain_ops, spec.ref_mix, max_ops=n_ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gc.collect()
        traced = harness.run_pass(traced_ops, spec.ref_mix, max_ops=n_ops)
    finally:
        tracer.uninstall()
    verdicts = harness.judge(plain.records + traced.records)
    metrics = tracer.layer_metrics(n_ops)
    metrics["harness.ref_rate"] = (statistics.median(plain.rates), "1/s")
    metrics["harness.wall_ops_per_s"] = (n_ops / plain.op_raw_s, "1/s")
    metrics["harness.cpu_util"] = (plain.cpu_s / plain.wall_s, "ratio")
    metrics["harness.trace_overhead"] = (traced.op_norm_s / plain.op_norm_s, "ratio")
    tracer.write_spans(spans_path)
    record = {
        "ops": n_ops,
        "missing": tracer.missing,
        "spans": len(tracer.span_start),
        "spans_file": spans_path.name,
        "failures": failures(plain.records + traced.records, verdicts),
    }
    return metrics, verdicts, record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_argcl()
    info = machine_info()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, verdicts, record = traced_run(
            args.workload, args.seed, RESULTS / f"{stem}.spans.tsv.gz"
        )
    else:
        metrics, verdicts, record = timed_run(args.workload, args.seed, args.seconds)
    failed = verdicts.count(False)
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    full = {"args": vars(args), "machine": info, **record, **result}
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if record["failures"]:
        print(f"{failed} of {len(verdicts)} ops failed; first: {record['failures'][0]}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
