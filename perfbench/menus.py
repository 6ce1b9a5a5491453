"""Pair menus the `cochain` workload draws from.

These are the benchmark's own copy of the menus of the test suite's random
pair generator (rational line coefficients, rational rotations of the
cyclic su(2) basis, half-turn sign patterns), so that editing the tests
cannot change what the benchmark measures.  Everything here is plain
Python data; turning it into pairs happens in workloads.py.
"""

from fractions import Fraction as F

LINE_COEFFS = [-2, -1, 1, 1, 2, F(1, 2), F(-3, 2)]

# rational rotations: automorphisms of the cyclic su(2) basis
ROTATIONS = [
    [[F(3, 5), F(-4, 5), 0], [F(4, 5), F(3, 5), 0], [0, 0, 1]],
    [[1, 0, 0], [0, F(5, 13), F(-12, 13)], [0, F(12, 13), F(5, 13)]],
    [[F(8, 17), 0, F(15, 17)], [0, 1, 0], [F(-15, 17), 0, F(8, 17)]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
]

# adjoint images of the half-turn rotations about each su(2) axis
SIGN_PATTERNS = [(1, -1, -1), (-1, 1, -1), (-1, -1, 1)]


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return v


def random_line(rng, n, lo, hi):
    """A rational line supported on 1 to 3 coordinates in [lo, hi)."""
    v = [F(0)] * n
    picked = rng.sample(range(lo, hi), min(hi - lo, rng.choice([1, 2, 2, 3])))
    for i in picked:
        v[i] = F(rng.choice(LINE_COEFFS))
    return v


def diagonal_su2(n, s1, s2, rotation):
    """Basis of the su(2) embedded diagonally in the blocks at s1 and s2."""
    vectors = []
    for i in range(3):
        v = unit(n, s1 + i)
        for a in range(3):
            v[s2 + a] = F(rotation[a][i])
        vectors.append(v)
    return vectors


def su2_sign_generator(n, start, pattern):
    """Ad of a half-turn: the given +-1 pattern on the su(2) block at start."""
    gen = [unit(n, i) for i in range(n)]
    for a in range(3):
        gen[start + a][start + a] = F(pattern[a])
    return gen
