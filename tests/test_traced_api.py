"""The benchmark's span tracer wraps functions by name: keep those names in place."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_functions_resolve_on_home_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, fn_names in spans.TRACED.items():
        home = importlib.import_module(f"cmgames.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(home, fn_name, None)), f"cmgames.{mod_name}.{fn_name}"

