"""The package keeps no mutable state at module level.

Values read from a store are memoized on that store (MemoStore.brackets,
MemoStore.tables) or in the call that reads them; a pure function of
partitions or of a space (schur_polynomial, cohomology.delta,
cohomology.lift, cohomology.bialternant, grassmannian.quantum_cup)
memoizes with functools.cache and returns read-only values.  So the only module-level
container is the constant table of CLI suites.

The last tests hold the module surface to what other files name: the
benchmark's traced functions and the version in pyproject.toml.
"""

import ast
import importlib
import os
import pkgutil
import re

import abelianizer


def test_no_module_level_containers():
    modules = [abelianizer] + [importlib.import_module(f"abelianizer.{info.name}")
                               for info in pkgutil.iter_modules(abelianizer.__path__)]
    found = sorted(
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    )
    assert found == ["abelianizer.cli.SUITE_RUNNERS"]


def test_bench_layers_resolve():
    # the benchmark's --trace 1 wraps the functions of LAYERS by name, so a
    # rename here would surface there only as an AttributeError.  The file
    # is parsed, not imported.
    with open(os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")) as fh:
        layers = next(ast.literal_eval(node.value) for node in ast.parse(fh.read()).body
                      if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS")
    missing = [
        f"{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"abelianizer.{module}"), name, None))
    ]
    assert layers and missing == []


def test_version_matches_pyproject():
    # a regex, not tomllib: Python 3.10 has no tomllib
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as fh:
        (version,) = re.findall(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    assert abelianizer.__version__ == version
