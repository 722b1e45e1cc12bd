import importlib.util
import os
import random
import sys

import pytest

from permflow.basetypes import BaseType, PermUniverse
from permflow.lattice import Lattice, load_lattice
from permflow.traces import Trace

SEED = int(os.environ.get("PERMFLOW_SEED", "20260810"))
WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by path: the benchmark's systems."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def two_point() -> Lattice:
    return load_lattice(["L", "H"], [("L", "H")])


@pytest.fixture(scope="session")
def diamond() -> Lattice:
    return load_lattice(
        ["L", "l1", "l2", "H"],
        [("L", "l1"), ("L", "l2"), ("l1", "H"), ("l2", "H")],
    )


@pytest.fixture(scope="session")
def chain3() -> Lattice:
    return load_lattice(["L", "M", "H"], [("L", "M"), ("M", "H")])


@pytest.fixture(scope="session")
def uni_p() -> PermUniverse:
    return PermUniverse(("p",))


@pytest.fixture(scope="session")
def uni_pq() -> PermUniverse:
    return PermUniverse(("p", "q"))


def bt(lattice: Lattice, *level_names: str) -> BaseType:
    """Base type from per-permission-set level names, mask order."""
    n = len(level_names).bit_length() - 1
    assert 1 << n == len(level_names)
    return BaseType(lattice, n, tuple(lattice.level(x) for x in level_names))


def random_basetype(rnd: random.Random, lattice: Lattice, nperms: int) -> BaseType:
    return BaseType(
        lattice,
        nperms,
        tuple(rnd.randrange(len(lattice)) for _ in range(1 << nperms)),
    )


def random_trace(rnd: random.Random, nperms: int) -> Trace:
    pos = neg = 0
    for i in range(nperms):
        roll = rnd.random()
        if roll < 1 / 3:
            pos |= 1 << i
        elif roll < 2 / 3:
            neg |= 1 << i
    return Trace(pos, neg)


# A small family of genuinely different lattices for randomized testing.
def lattice_family() -> list[Lattice]:
    return [
        load_lattice(["L", "H"], [("L", "H")]),
        load_lattice(["L", "M", "H"], [("L", "M"), ("M", "H")]),
        load_lattice(
            ["L", "l1", "l2", "H"],
            [("L", "l1"), ("L", "l2"), ("l1", "H"), ("l2", "H")],
        ),
        # N5, the pentagon
        load_lattice(
            ["bot", "a", "b", "c", "top"],
            [("bot", "a"), ("a", "top"), ("bot", "b"), ("b", "c"), ("c", "top")],
        ),
        # M3, the diamond with three atoms
        load_lattice(
            ["bot", "x", "y", "z", "top"],
            [("bot", "x"), ("bot", "y"), ("bot", "z"), ("x", "top"), ("y", "top"), ("z", "top")],
        ),
    ]
