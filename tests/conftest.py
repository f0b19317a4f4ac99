from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import relcomplex as rc
import oracles

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def circle4():
    return oracles.circle4_poset()


@pytest.fixture
def circle6():
    return oracles.circle6_poset()


@pytest.fixture
def crown_relation():
    return oracles.crown_closed_relation()


@pytest.fixture
def boundary2():
    return rc.complex_from_facets("abc", [("a", "b"), ("a", "c"), ("b", "c")])


@pytest.fixture
def full2():
    return oracles.full_complex("abc")


def _corpus():
    circle4 = oracles.circle4_poset()
    circle6 = oracles.circle6_poset()
    return [
        rc.complex_from_facets("a", [("a",)]),
        rc.complex_from_facets("ab", [("a",), ("b",)]),
        rc.complex_from_facets("ab", [("a", "b")]),
        rc.complex_from_facets("abc", [("a", "b"), ("b", "c")]),
        rc.complex_from_facets("abc", [("a", "b"), ("a", "c"), ("b", "c")]),
        oracles.full_complex("abc"),
        oracles.full_complex("abcd"),
        oracles.boundary_simplex("abcd"),
        oracles.projective_plane(),
        rc.poset_dowker_complex(circle4, False, "k"),
        rc.poset_dowker_complex(circle4, False, "l"),
        rc.poset_dowker_complex(circle4, True, "k"),
        rc.order_complex(circle4),
        rc.poset_dowker_complex(circle6, False, "k"),
        rc.order_complex(circle6),
    ]


@pytest.fixture(scope="session")
def corpus():
    return _corpus()


def corpus_cases():
    return _corpus()
