"""The benchmark's tracer wraps pdekit functions by name; each must exist.

perfbench/spans.py is loaded, not changed.  A renamed or deleted layer
would otherwise crash a traced run or leave its layer reading zero.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fn in spans.LAYERS
               if not callable(getattr(importlib.import_module(f"pdekit.{mod}"), fn, None))]
    assert spans.LAYERS and not missing
