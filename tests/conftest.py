import random

import pytest

from slc import formulas as F
from slc.cli import corpus_path
from slc.testgen import TestInput


@pytest.fixture(autouse=True)
def fresh_names():
    F.reset_names()
    yield


@pytest.fixture
def bst_spec():
    return F.parse_spec(corpus_path("bst.sl").read_text())


@pytest.fixture
def bst_pre(bst_spec):
    return bst_spec.preconditions["remove"]


def _random_baseline(entry_params, count, int_min=-64, int_max=63, seed=0):
    """Reference-typed parameters stay null; scalars are drawn uniformly.
    The weak baseline spec-driven generation is compared against."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        bindings = {}
        for name, ptype in entry_params:
            if ptype == "int":
                bindings[name] = rng.randint(int_min, int_max)
            elif ptype == "bool":
                bindings[name] = rng.random() < 0.5
            else:
                bindings[name] = None
        out.append(TestInput({}, bindings, provenance=f"baseline:{i}"))
    return out


@pytest.fixture
def random_baseline():
    """The random-scalar baseline generator: (entry parameters, count,
    int_min, int_max, seed) -> that many TestInputs."""
    return _random_baseline
