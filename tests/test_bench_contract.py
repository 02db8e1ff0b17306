"""The names the benchmark in ``bench/`` relies on exist in the package.

``bench/spans.py`` attributes traced time by function name, so a search or
chunk iterator renamed in ``ripcert`` would silently read zero in the
per-layer metrics instead of failing. These tests fail instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import ripcert
import ripcert.fileio
from ripcert.subsets import ordered_map

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    obj = ripcert
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.fixture(scope="module")
def spans():
    return load("spans")


def test_traced_searches_and_chunk_iterators_exist(spans):
    names = [*spans.SEARCHES, *spans.CHUNK_GENERATORS, *spans.READERS, *spans.NOTES]
    for name in names:
        fn = resolve(name)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == f"ripcert.{name.partition('.')[0]}", name


def test_chunk_iterators_are_generators(spans):
    for name in spans.CHUNK_GENERATORS:
        assert inspect.isgeneratorfunction(resolve(name)), name


def test_ordered_map_takes_positional_arguments():
    assert list(ordered_map(lambda x: 2 * x, [1, 2, 3], 1)) == [2, 4, 6]
    assert list(ordered_map(lambda x: 2 * x, [1, 2, 3], 2)) == [2, 4, 6]


@pytest.mark.parametrize("kind", ["paley29", "gaussian"])
def test_workload_inputs_build_with_the_package(kind, tmp_path, monkeypatch):
    workloads = load("workloads")
    monkeypatch.chdir(tmp_path)
    workloads.build_inputs(kind, 1, ripcert)
    frame = ripcert.fileio.read_matrix(tmp_path / "frame.mat")
    assert frame.matrix.is_real()
    if kind == "paley29":
        assert (frame.m, frame.n) == (15, 30)
        assert np.isclose(frame.coherence, 1 / np.sqrt(29), atol=1e-12)
