"""Seed-derived random streams, one per purpose.

Every stochastic quantity in the package draws from a generator built by
`substream`, keyed by the user seed and a purpose tag: user placement,
shadowing, Monte Carlo channels and each verification check have their own
stream. Distinct keys give statistically independent streams, so no two
purposes share bits, even under equal seeds. The trial index is a position
inside a stream, not part of its key: placement and shadowing give every
trial a fixed number of uniforms, so `uniform_rows` reaches trial i by
advancing the generator, and a run builds each stream once. Stream
(seed, purpose, i) is child i of (seed, purpose), as Generator.spawn gives it.

STREAM_LAYOUT numbers this mapping from seeds to draws; any change that
moves a seeded output bumps it.
"""

import numpy as np

STREAM_LAYOUT = 6

# Purpose tags: the second half of every stream key.
PLACEMENT = 0
SHADOWING = 1
CHANNEL = 2
ZF_CHECK = 3
SINR_CHECK = 4


def substream(seed: int, purpose: int, *child: int) -> np.random.Generator:
    """Return the PCG64 generator of stream (seed, purpose, *child).

    The seed must be a nonnegative integer; it may exceed 64 bits.
    """
    if seed < 0 or min((purpose, *child)) < 0:
        raise ValueError("seed and stream key must be nonnegative")
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, (purpose, *child))))))


def uniform_rows(seed: int, purpose: int, start: int, stop: int, width: int) -> np.ndarray:
    """Rows [start, stop) of `width` uniforms on [0, 1) each, from stream (seed, purpose).

    Row i holds words [i * width, (i + 1) * width) of the stream, so it is the
    same whatever range it is drawn in: one double per PCG64 step, and the
    generator is advanced past the rows before start.
    """
    rng = substream(seed, purpose)
    rng.bit_generator.advance(start * width)
    return rng.random((stop - start, width))
