import hypothesis
import pytest

from mobius_lattice import FqField, Matrix, closure, overgroup_interval
from mobius_lattice.cli import preset_generators

hypothesis.settings.register_profile("suite", max_examples=40, deadline=None)
hypothesis.settings.load_profile("suite")


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run the multi-minute instances")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: takes minutes, needs --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def _group(kind, n, q):
    return closure(preset_generators(kind, n, FqField(q)))


@pytest.fixture(scope="session")
def gl22():
    f2 = FqField(2)
    return closure([Matrix.from_rows(f2, [[1, 1], [0, 1]]),
                    Matrix.from_rows(f2, [[0, 1], [1, 0]])])


@pytest.fixture(scope="session")
def gl23():
    return _group("GL", 2, 3)


@pytest.fixture(scope="session")
def sl23():
    return _group("SL", 2, 3)


@pytest.fixture(scope="session")
def gl32():
    return _group("GL", 3, 2)


@pytest.fixture(scope="session")
def gl25():
    return _group("GL", 2, 5)


@pytest.fixture(scope="session")
def corpus(gl22, gl23, sl23, gl32):
    """The acceptance corpus with precomputed full subgroup lists."""
    out = []
    for name, group in [("GL(2,2)", gl22), ("GL(2,3)", gl23),
                        ("SL(2,3)", sl23), ("GL(3,2)", gl32)]:
        subs = overgroup_interval(group, group.trivial_subgroup())
        out.append((name, group, subs))
    return out
