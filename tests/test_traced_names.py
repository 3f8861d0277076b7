"""The per-layer tracer of ``perfbench/`` finds every name it wraps, and puts each back.

``perfbench/tracing.py`` looks up the functions of each layer by name, so
deleting or renaming one of them breaks the traced benchmark; this test makes
that a tier-1 failure. It only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import kickedqubit.cli  # noqa: F401  (the tracer wraps cli.main, so the module must be loaded)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces() -> dict:
    return {
        name: dict(vars(m))
        for name, m in sys.modules.items()
        if m is not None and (name == "kickedqubit" or name.startswith("kickedqubit."))
    }


def test_tracer_wraps_every_layer_name_and_restores_it():
    tracing = load_tracing()
    before = package_namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install()  # an AttributeError here names a traced function that no longer exists
        during = package_namespaces()
    finally:
        tracer.restore()
    for layer, module, names, _ in tracing.LAYERS:
        namespace = f"kickedqubit.{module}"
        for name in names:
            assert during[namespace][name] is not before[namespace][name], f"{layer}: {module}.{name} was not wrapped"
    after = package_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        changed = [attr for attr, value in namespace.items() if after[name].get(attr) is not value]
        assert not changed, f"{name}: {changed} not restored"
