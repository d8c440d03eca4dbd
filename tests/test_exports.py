import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import corpusops
import corpusops.dedup

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(corpusops.__path__, "corpusops.")
    if not info.name.endswith("__main__")
)


def _resolves(module, name: str) -> bool:
    """An attribute of ``module``, or (for a package) a submodule of it."""
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return False
    return hasattr(module, name)


@pytest.mark.parametrize("module_name", ["corpusops", *MODULES])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not _resolves(module, name)]
    assert missing == []


@pytest.mark.parametrize("name", sorted(corpusops.dedup._SUBMODULE))
def test_every_lazy_dedup_name_resolves(name):
    submodule = importlib.import_module(f"corpusops.dedup.{corpusops.dedup._SUBMODULE[name]}")
    assert getattr(submodule, name) is getattr(corpusops.dedup, name)


BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_every_benchmark_lookup_resolves():
    # The traced benchmark drops a layer's metrics when a name it looks up
    # is gone, so a renamed or deleted library name fails here instead.
    tree = ast.parse(BENCH_WORKLOADS.read_text(encoding="utf-8"))
    wanted, near_config = [], None
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lookup":
            module, *names = (ast.literal_eval(arg) for arg in node.args)
            wanted += [(module, name) for name in names]
        elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "NEAR_CONFIG":
            near_config = ast.literal_eval(node.value)
    assert len(wanted) >= 20
    missing = [
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
    config = corpusops.dedup.NearDupConfig(**near_config)
    assert config.shingle_size == 13
