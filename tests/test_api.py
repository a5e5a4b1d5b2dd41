import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import nu_analyzer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


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


def test_readme_sketch_gives_its_commented_values():
    # every expression line of the README's python sketch whose comment
    # starts with a number must evaluate to that number
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = block.splitlines()
    scope: dict = {}
    got, expected = [], []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), scope)
        comment = re.search(r"#\s*([0-9.]+):", lines[node.lineno - 1])
        if comment:
            got.append(value)
            expected.append(float(comment.group(1)))
    assert expected == [1.0, 1.0, 0.25, 0.25]
    assert got == [pytest.approx(v, rel=1e-9) for v in expected]
