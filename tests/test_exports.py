import ast
import importlib
import inspect
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


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literals(tree: ast.Module) -> dict:
    """Module-level names a bench file binds to literals."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return found


def test_every_benchmark_lookup_resolves():
    # The traced benchmark drops a layer's metrics when a name it looks up
    # is gone, or a config it builds refuses its arguments, so a renamed or
    # deleted library name or field fails here instead.
    from corpusops.dedup import BloomConfig, NearDupConfig
    from corpusops.packing import PackInput
    from corpusops.runwatch import DetectorTier, MonitorConfig
    from corpusops.transforms import FimConfig

    classes = {cls.__name__: cls for cls in (
        BloomConfig, DetectorTier, FimConfig, MonitorConfig, NearDupConfig, PackInput
    )}
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    wanted, built = [], set()
    for node in ast.walk(tree):
        name = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
        if name == "lookup":
            module, *names = (ast.literal_eval(arg) for arg in node.args)
            wanted += [(module, name) for name in names]
        elif name in classes:
            # Every keyword the traced run passes is a field of the class.
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            inspect.signature(classes[name]).bind_partial(**keywords)
            built.add(name)
    assert len(wanted) >= 20
    missing = [
        f"{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
    assert built == set(classes)

    # Each config as the traced run builds it, from the bench's own values.
    work = _literals(tree)
    gen = _literals(ast.parse((BENCH / "gen.py").read_text(encoding="utf-8")))
    config = NearDupConfig(**work["NEAR_CONFIG"])
    assert config.shingle_size == 13
    monitor = MonitorConfig(
        alert=DetectorTier("alert", *gen["ALERT"]), restart=DetectorTier("restart", *gen["RESTART"]),
        checkpoint_interval=gen["CHECKPOINT_INTERVAL"], total_steps=gen["LOSS_POINTS"],
        webhook="http://127.0.0.1:8000/events",
    )
    assert monitor.z_window == gen["LOSS_POINTS"] // 100
    FimConfig(rng_seed=work["FIM_SEED"], mode_psm_probability=0.5)
    BloomConfig(capacity=1_000, target_fpr=work["FPR"])
    PackInput(id="d0", length=1)
