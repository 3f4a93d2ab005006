"""The benchmark tracer (perfbench/tracer.py) still fits the package it wraps.

The tracer names functions by module and attribute; a rename in the
package would otherwise surface only in the benchmark's own smoke run.
These tests read perfbench and change nothing there.
"""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from stylepair import trainer
from stylepair.styler import GeneratedPairSet

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def bindings():
    """Every (module, attribute) -> value of the loaded stylepair modules."""
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "stylepair" or name.startswith("stylepair.")
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("module,name", [(m, f) for m, fns in tracer.WRAPPED.items()
                                         for f in fns])
def test_every_wrapped_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"stylepair.{module}"), name))


def test_install_wraps_each_function_and_uninstall_restores_every_binding():
    for module in tracer.WRAPPED:
        importlib.import_module(f"stylepair.{module}")
    before = bindings()
    tr = tracer.Tracer("test")
    tr.install()
    try:
        for module, names in tracer.WRAPPED.items():
            mod = sys.modules[f"stylepair.{module}"]
            for name in names:
                assert getattr(mod, name).__wrapped__ is before[(f"stylepair.{module}", name)]
    finally:
        tr.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_training_reports_its_steps():
    rng = np.random.default_rng(0)
    sets = [GeneratedPairSet(clip_ids=np.arange(8), rows=np.arange(8), sims=np.ones(8),
                             threshold=0.0, style_tag=tag, total_candidates=8)
            for tag in ("a", "b")]
    texts = rng.normal(size=(16, 4))
    texts /= np.linalg.norm(texts, axis=1, keepdims=True)
    tr = tracer.Tracer("test")
    tr.install()
    try:
        for mode in (trainer.MODE_IN_STYLE, trainer.MODE_MIXED):
            trainer.train_epochs(trainer.init_adapter(4), sets, lambda idx: (texts[idx],) * 2,
                                 mode=mode, config=trainer.TrainConfig(batch_size=4, epochs=2),
                                 seed=1)
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics([[tr.dump()]])
    assert metrics["trainer.steps"] == 16   # 2 modes x 2 epochs x 4 batches
    for name in ("trainer.step_ms_p50", "trainer.train_epochs.in_style_s",
                 "trainer.train_epochs.mixed_s", "trainer.plan_epoch_s"):
        assert metrics[name] > 0.0, name
