"""The benchmark modules import from their paths.

`benchmarks/` is not collected by the default test run, so a name that a
benchmark imports and the package no longer has would otherwise surface
only when the benchmarks are run.
"""

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = sorted((Path(__file__).resolve().parent.parent / "benchmarks").glob("test_*.py"))


def test_benchmarks_found():
    assert [p.name for p in BENCHMARKS] == ["test_ring_kernels.py"]


@pytest.mark.parametrize("path", BENCHMARKS, ids=[p.stem for p in BENCHMARKS])
def test_benchmark_module_imports(path):
    spec = importlib.util.spec_from_file_location(f"benchmark_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
