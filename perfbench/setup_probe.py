"""Measure argcl's set-up once, in a fresh interpreter.

Set-up is `import argcl` plus the workload's warm-up pass; building the
warm-up inputs is the benchmark's own work and is not timed. Prints one
JSON object with the raw seconds and the reference rate around them.

    python3 perfbench/setup_probe.py <workload>
"""

import json
import sys
import time
from pathlib import Path

import harness

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    workload = sys.argv[1]
    sys.path.insert(0, str(SRC))
    # Import and warm-up are interpreter work, so the interpreter reference
    # scales them, measured on both sides over twice the usual chunk.
    rate_before = harness.ref_rate("python", 2 * harness.REF_UNITS)
    start = time.perf_counter()
    import argcl  # noqa: F401  (the import is what is being timed)

    import_s = time.perf_counter() - start
    import workloads

    ops = workloads.WORKLOADS[workload].warmup()
    start = time.perf_counter()
    for op in ops:
        op.run()
    warmup_s = time.perf_counter() - start
    rate_after = harness.ref_rate("python", 2 * harness.REF_UNITS)
    print(
        json.dumps(
            {
                "import_s": import_s,
                "warmup_s": warmup_s,
                "rate": (rate_before + rate_after) / 2.0,
            }
        )
    )


if __name__ == "__main__":
    main()
