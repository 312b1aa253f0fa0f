"""Reference implementations that the tests compare the library against.

Each one is a direct loop over the definition, written without the
library's table arithmetic, so that an agreement between the two is
evidence rather than a tautology.
"""

from typing import Sequence, Tuple

from maxtherm.shift import DepthKFunction, ShiftSpace


def word_metric(u: Sequence[int], v: Sequence[int], space: ShiftSpace) -> float:
    """gamma^(first differing 0-based position); 0 if the words are equal."""
    if len(u) != len(v):
        raise ValueError("words must have equal length")
    for i, (a, b) in enumerate(zip(u, v)):
        if a != b:
            return space.gamma ** i
    return 0.0


def index_word(idx: int, depth: int, d: int) -> Tuple[int, ...]:
    """The word of symbols 1..d whose base-d code is ``idx``."""
    out = []
    for _ in range(depth):
        out.append(idx % d + 1)
        idx //= d
    return tuple(reversed(out))


def maxplus_birkhoff(f: DepthKFunction, orbit: Sequence[int], n: int) -> float:
    """Running max of f over the first n shift iterates of one orbit, one
    window at a time."""
    if len(orbit) < n + max(f.depth, 1) - 1:
        raise ValueError("orbit too short")
    best = float("-inf")
    for i in range(n):
        code = 0
        for s in orbit[i : i + f.depth]:
            code = code * f.space.d + (s - 1)
        best = max(best, float(f.values[code]))
    return best
