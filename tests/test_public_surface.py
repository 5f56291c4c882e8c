"""Every name a degenpde module exports, and every name the benchmark tracer
wraps, resolves in-process, so a removal that drops one fails here by name."""

import importlib
import importlib.util
import os
import pkgutil

import pytest

import degenpde

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# modules without an __all__
UNLISTED = {"errors", "families"}
MODULES = sorted(m.name for m in pkgutil.iter_modules(degenpde.__path__) if m.name not in UNLISTED)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"degenpde.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", os.path.join(REPO, "bench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from degenpde import cli, montecarlo

    missing = [f"cli.{n}" for names in tracing.CLI_LAYERS.values() for n in names if not hasattr(cli, n)]
    missing += [f"montecarlo.{n}" for n in tracing.MONTECARLO_GLOBALS if not hasattr(montecarlo, n)]
    assert missing == []
