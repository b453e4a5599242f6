"""The benchmark's per-layer metrics name public functions and suites of mlap.

``BENCHMARK.json`` lists one metric ``<layer>.<fn>_s`` per traced function
and one ``suites.<id>_s`` per suite; ``perfbench/run.py`` reads every listed
metric, so deleting or renaming a named function or suite breaks every
traced run.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that perfbench/run.py computes from spans rather than reads off one
COMPUTED = {"paths.transitions_per_s"}


def _span_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def _pins():
    layers = _span_layers()
    pins = []
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        if layer in layers and rest.endswith("_s") and metric["name"] not in COMPUTED:
            pins.append((layer, rest[: -len("_s")]))
    return pins


@pytest.mark.parametrize("layer, name", _pins())
def test_benchmark_per_layer_metric_names_a_public_function_or_suite(layer, name):
    if layer == "suites":
        from mlap.suites import _SUITES

        assert name in _SUITES
    else:
        module = importlib.import_module(f"mlap.{layer}")
        fn = getattr(module, name, None)
        assert not name.startswith("_")
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__
