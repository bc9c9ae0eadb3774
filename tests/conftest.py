import numpy as np
import pytest

from roundfair import validate_instance


def random_instance(rng, n=2, max_rounds=20, min_rounds=1):
    """A random normalized instance: each agent's column is a Dirichlet draw."""
    T = int(rng.integers(min_rounds, max_rounds + 1))
    columns = rng.dirichlet(np.ones(T), size=n)
    return validate_instance(columns.T, require_normalized=True)


def random_instances(seed, count, n=2, max_rounds=20):
    rng = np.random.default_rng(seed)
    return [random_instance(rng, n=n, max_rounds=max_rounds) for _ in range(count)]


def late_trip_values(rng, rounds):
    """Two agents where agent 1 slightly out-values agent 0 on the first 90%
    of rounds and wants nothing after; agent 0 is near uniform.  For p >= 2.7
    agent 0's guard binds late in that first stretch."""
    stretch = int(0.9 * rounds)
    a = rng.gamma(200.0, size=rounds)
    b = rng.gamma(200.0, size=rounds)
    b[stretch:] = 0.0
    return np.column_stack([a / a.sum(), b / b.sum()])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
