"""Every callable the end-to-end benchmark's traced pass wraps exists.

``benchmarks/e2e/layers.py`` names program callables as
``module:Class.method`` or ``module:function`` and wraps them by name
for the per-layer breakdown, so a renamed or deleted one would only
fail the traced smoke run. This test resolves each name the way
``LayerTracer`` does — the module, then the method in its owner
class's own ``__dict__`` — and only reads that file.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("e2e_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


TARGETS = sorted(
    (layer, target)
    for layer, targets in _layers().items()
    for target in targets
)


@pytest.mark.parametrize("layer,target", TARGETS, ids=[t for _, t in TARGETS])
def test_layer_target_resolves(layer, target):
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, _, attr = qualname.partition(".")
        owner = getattr(module, class_name)
        assert attr in owner.__dict__, f"{layer}: {target} is not defined on its class"
        assert callable(getattr(owner, attr))
    else:
        assert callable(getattr(module, qualname)), f"{layer}: {target}"
