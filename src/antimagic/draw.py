"""Exact ``random.Random`` draws from ``getrandbits`` alone.

``shuffle(rng, x)`` puts ``x`` in the order ``rng.shuffle(x)`` would and
leaves ``rng`` in the same state; ``below(rng, n)`` returns what
``rng.randrange(n)`` would.  Both draw as CPython's ``_randbelow`` does
on 3.10 to 3.13: ``k = n.bit_length()`` bits from ``getrandbits``,
redrawn while the value is n or more.  The shuffle holds k fixed over
each run of positions that share it, so per item it makes one call, to
the C method ``getrandbits``, where ``random.shuffle`` calls the Python
method ``_randbelow``, which then calls ``getrandbits``.
"""

from __future__ import annotations

import random


def shuffle(rng: random.Random, x: list) -> None:
    """Fisher-Yates from the end: position i swaps with j drawn from
    0..i, exactly as ``rng.shuffle(x)``."""
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i with (i + 1) of k bits
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: uniform in 0..n - 1, for n >= 1."""
    if n < 1:
        raise ValueError(f"empty range below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r
