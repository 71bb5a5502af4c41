"""The package keeps no mutable state at module level.

Values read from a store are memoized on that store (MemoStore.brackets,
MemoStore.tables) or in the call that reads them; a pure function of
partitions or of a space (schur_polynomial, cohomology.delta,
cohomology.lift, cohomology.bialternant, grassmannian.quantum_cup)
memoizes with functools.cache and returns read-only values.  So the only module-level
container is the constant table of CLI suites.

The last tests hold the module surface to what other files name: the
benchmark's traced functions and the version in pyproject.toml, and keep
the import of the CLI, paid by every process, free of heavy modules.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys

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


def test_cli_import_leaves_out_heavy_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 10 ms of
    # every CLI process.  Counted against what the bare interpreter (site)
    # has already loaded.
    src = os.path.dirname(os.path.dirname(abelianizer.__file__))
    code = ("import sys; bare = set(sys.modules); import abelianizer.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "abelianizer.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
