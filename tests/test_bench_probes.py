"""Every function the benchmark probes wrap must exist on the package.

``bench/probes.py`` wraps driftguard functions by module and name from
outside ``src/``. A rename there would only surface when ``bench/run.py
--trace 1`` or ``bench/smoke.py`` runs; this test reads the same tables, so
the rename fails here instead. It imports ``bench/probes.py`` and changes
nothing under ``bench/``.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


@pytest.fixture(scope="module")
def probes():
    sys.path.insert(0, BENCH)
    try:
        yield importlib.import_module("probes")
    finally:
        sys.path.remove(BENCH)


def _target(module: str, owner: str, attr: str):
    mod = importlib.import_module(f"driftguard.{module}")
    if owner:
        # Wrapped in the class dict, as ``probes._replace`` does.
        return vars(getattr(mod, owner))[attr]
    return getattr(mod, attr)


def test_spanned_and_counted_targets_resolve(probes):
    targets = probes.SPANNED + probes.COUNTED
    assert targets
    for name, module, owner, attr in targets:
        assert callable(_target(module, owner, attr)), name


def test_always_on_hooks_resolve(probes):
    # ``Recorder.install`` wraps these two on every pass, traced or not.
    for module, attr in (("pipeline", "run_session"),
                         ("agents", "execution_runner")):
        assert callable(_target(module, "", attr))

