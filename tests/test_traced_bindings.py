"""The benchmark tracer's bindings resolve to argcl functions.

perfbench/tracing.py wraps each `module.function` of its TRACED table and
counts those of ORACLES. A function that is renamed, moved or removed is
skipped there (listed as missing), and its per-layer metrics drop out of
a traced run without an error, so this test names it instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [f"{m}.{fn}" for m, fns in tracing.TRACED.items() for fn in fns]
    names += tracing.ORACLES
    unresolved = []
    for name in names:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"argcl.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            unresolved.append(name)
    assert names and not unresolved
