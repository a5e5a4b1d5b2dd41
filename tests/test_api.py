import importlib
import inspect
import json
from pathlib import Path

import nu_analyzer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_public_names_resolve_once():
    names = nu_analyzer.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(nu_analyzer, name), name


def test_traced_functions_stay_public():
    # a per-layer metric <module>.<function>.<leaf> is read off the traced
    # public function; deleting or renaming it drops the metric from the
    # traced benchmark result
    metrics = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = [parts[:2] for parts in metrics if len(parts) == 3]
    assert traced
    for module_name, function_name in traced:
        module = importlib.import_module(
            f"nu_analyzer.{'_graph' if module_name == 'graph' else module_name}"
        )
        function = getattr(module, function_name, None)
        assert not function_name.startswith("_"), function_name
        assert inspect.isfunction(function), f"{module_name}.{function_name}"
        assert function.__module__ == module.__name__, f"{module_name}.{function_name}"
