import random

import pytest

from lamkit.flat_surface import build_double_polygon

_CACHE = {}


@pytest.fixture
def surface():
    """Factory fixture: surface(g) with per-session caching.

    Pinned to 128 bits so the frozen tolerances hold regardless of any
    LAMKIT_PRECISION override in the environment.
    """

    def get(g, precision=128):
        key = (g, precision)
        if key not in _CACHE:
            _CACHE[key] = build_double_polygon(g, precision=precision)
        return _CACHE[key]

    return get


@pytest.fixture
def mixed_word():
    """README's 50 alternating ``TA^k TB^k`` tokens, 1 <= |k| <= 50, seeded."""
    rng = random.Random(0)
    tokens = (f"{sym}^{rng.choice((-1, 1)) * rng.randint(1, 50)}" for sym in ("TA", "TB") * 25)
    return " ".join(tokens)
