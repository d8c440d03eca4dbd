import importlib
import pkgutil

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
