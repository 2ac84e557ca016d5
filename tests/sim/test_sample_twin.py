"""``RandomStream.sample`` against the interpreter's ``random.Random.sample``.

The stream writes the library's two branches out on the generator's
bound ``getrandbits``: a pool of the population when it is small, and a
set of picked positions once ``n > 21 + 4**ceil(log(3k, 4))``.  Both
streams below start from the same seed; every call must return the
same picks, leave the same generator state and raise the same error.
"""

import math
import random
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import RandomStream


def set_branch(n, k):
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return n > setsize


def outcome(sample, population, k):
    """The picks, or the error's type and text."""
    with warnings.catch_warnings():
        # Python 3.10 still samples a set, with a DeprecationWarning.
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            return sample(population, k)
        except (TypeError, ValueError) as error:
            return type(error), str(error)


def twins(seed):
    ours = RandomStream(seed, "sample-twin")
    library = random.Random()
    library.setstate(ours._rng.getstate())
    return ours, library


@st.composite
def sizes(draw):
    n = draw(
        st.one_of(st.integers(0, 64), st.integers(0, 30_000))
    )
    k = draw(st.one_of(st.integers(0, min(n, 12)), st.integers(0, n)))
    return n, k


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    size=sizes(),
    as_list=st.booleans(),
    calls=st.integers(1, 3),
)
@example(seed=0, size=(2000, 400), as_list=False, calls=2)
@example(seed=1, size=(30_000, 3), as_list=False, calls=1)
@example(seed=2, size=(22, 5), as_list=True, calls=1)
@example(seed=3, size=(21, 5), as_list=True, calls=1)
@example(seed=4, size=(0, 0), as_list=False, calls=1)
@example(seed=5, size=(85, 6), as_list=False, calls=1)
@example(seed=6, size=(86, 6), as_list=False, calls=1)
def test_sample_matches_the_library(seed, size, as_list, calls):
    n, k = size
    population = list(range(100, 100 + n)) if as_list else range(n)
    ours, library = twins(seed)
    for __ in range(calls):
        assert ours.sample(population, k) == library.sample(population, k)
        assert ours._rng.getstate() == library.getstate()


def test_both_branches_are_drawn():
    assert not set_branch(2000, 400)
    assert set_branch(30_000, 400)
    assert set_branch(22, 5) and not set_branch(21, 5)
    assert set_branch(86, 6) and not set_branch(85, 6)


@pytest.mark.parametrize(
    "population, k",
    [
        (range(5), 6),
        (range(5), -1),
        (range(0), 1),
        (range(5), 2.0),
        (range(5), "2"),
        ({1: "a", 2: "b"}, 1),
        ({1, 2, 3}, 2),
        (iter(range(5)), 2),
        (None, 0),
    ],
)
def test_sample_fails_as_the_library_does(population, k):
    ours, library = twins(7)
    assert outcome(ours.sample, population, k) == outcome(
        library.sample, population, k
    )
    assert ours._rng.getstate() == library.getstate()
