"""The package keeps no mutable state at module level.

Values read from a store are memoized on that store (MemoStore.brackets)
or in the call that reads them; a pure function of partitions memoizes
with functools.cache and returns read-only values.  So the only
module-level container is the constant table of CLI suites.
"""

import importlib
import pkgutil

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
