"""Deterministic, splittable randomness.

Every stochastic choice in the package (sub-sampling, split normals,
intercepts, rotation angles, synthetic data) flows through :class:`RngStream`
so that a single 64-bit seed reproduces a whole run bit-for-bit.

A stream is a keyed Philox counter-based generator: the 128-bit Philox key
is ``(seed, stream_index)``, so the pair fully names the sequence and two
streams built from the same pair are identical. :func:`derive_stream` is the
one way to derive a child stream: it hashes ``(parent.stream_index, index)``
with a SplitMix64-style finalizer. Derivation is a pure function of those two
values, so siblings may be created in any order, or from different threads,
without affecting one another.

Every count, seed and index the package takes from a caller passes
:func:`_check_integer`: a Python or numpy integer is one, a float or a bool is
not, even when its value is whole. :func:`_check_count` adds a lower bound.

The Gaussian and uniform transforms are the ones numpy's ``Generator``
applies on top of the Philox bit stream; :data:`RNG_FAMILY` records the
generator family and numpy version so serialized models state exactly which
bit-level convention they were built under.

Bounded integers (:func:`choose_indices`' swap targets) follow numpy's own
rule for ``Generator.integers(i, n)``, applied in Python ints to the 64-bit
Philox words: for a span ``s = n - i <= 2**32``, take the next 32-bit half
``u``, reject while ``(u * s) & 0xFFFFFFFF < (2**32 - s) % s``, and return
``i + (u * s >> 32)``; a span of 1 draws nothing. A long run of draws
applies the rule in uint64 arrays, which is exact: ``u * s < 2**64``. A
32-bit draw takes the low half of a fresh word and keeps the high half as
the next one. The kept
half lives in the stream's own slot: float64 draws read whole words and
never touch it, so it carries from one call to the next, as numpy's does.
Spans above ``2**32`` go through ``Generator.integers``, whose 64-bit rule
reads whole words and leaves the half alone. Values and stream state equal
numpy's bit for bit. A float32 or other 32-bit numpy draw on ``_gen`` would
read numpy's own kept half, not this one, so none is made.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: 32-bit draws from which ``RngStream._fisher_yates`` takes its swap
#: targets in one uint64 pass instead of one by one. At n = 20,000 the pass
#: took 1.1-1.3x the scalar loop's time for 24-32 draws, 0.86-0.95x for 48,
#: 0.83-0.86x for 64 and 0.44-0.55x for 256 (a subsample of psi = 256).
_VECTOR_DRAWS = 48

#: Generator family identifier embedded in serialized models.
RNG_FAMILY = f"numpy-philox4x64/{np.__version__}"


def _mix64(a: int, b: int) -> int:
    """Hash two 64-bit words into one.

    For fixed ``a`` this is injective in ``b`` (odd multiplier followed by
    the bijective SplitMix64 finalizer), so the children of one parent never
    collide with each other.
    """
    x = (a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9 + 0xD1B54A32D192ED03) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _check_integer(name: str, value) -> int:
    """``value`` as a Python int, or ValueError naming ``name``; floats and
    bools are not integers."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")
    return int(value)


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as a Python int of at least ``minimum``, or ValueError naming ``name``."""
    value = _check_integer(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def _check_u64(name: str, value) -> int:
    value = _check_integer(name, value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
    return value


class RngStream:
    """One deterministic random stream.

    A stream is single-owner state: do not share one across concurrent
    tasks. Fan out by deriving one child per task first; derivation never
    touches the parent's draw state.

    Besides numpy's generator, a stream holds the high 32-bit half of the
    last word a bounded draw split, pending for the next bounded draw (see
    the module docstring). Only :meth:`_fisher_yates` reads or sets it; a
    float32 or other 32-bit numpy draw on ``_gen`` would bypass it.
    """

    __slots__ = ("seed", "stream_index", "_gen", "_half")

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = _check_u64("seed", seed)
        self.stream_index = _check_u64("stream_index", stream_index)
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._half = None

    # Raw draw primitives: they advance state and nothing else, so callers
    # validate their arguments.

    def standard_normal(self, size=None, out=None):
        return self._gen.standard_normal(size, out=out)

    def random(self, size=None, out=None):
        """Doubles uniform on [0, 1): the draws ``uniform`` scales, one per entry."""
        return self._gen.random(size, out=out)

    def uniform(self, lo, hi, size=None):
        return self._gen.uniform(lo, hi, size)

    def _fisher_yates(self, n: int, k: int) -> list[int]:
        """The first k slots of range(n) after k partial Fisher-Yates swaps.

        Swap i exchanges slots i and j_i, j_i drawn uniform on [i, n) by the
        bounded rule of the module docstring, so the targets are those of
        ``Generator.integers(np.arange(k), n)``. The words the 32-bit draws
        need come in one ``random_raw`` call; each rejection reads one more
        word later, which is next in the stream, so none is lost. From
        ``_VECTOR_DRAWS`` 32-bit draws up, the targets are taken in one
        uint64 pass over those words, unless some draw could be rejected,
        when the same halves go through the scalar loop. The swaps run over a
        sparse table of the slots moved so far: O(k) work, no length-n index
        array.
        """
        gen = self._gen
        raw = gen.bit_generator.random_raw
        # Spans above 2**32 come first, at i < n - 2**32, and are drawn before
        # any word is fetched. Span 1, at i = n - 1, draws nothing.
        targets = [int(gen.integers(i, n)) for i in range(min(k, n - 2**32))] if n > 2**32 else []
        start, drawn = len(targets), k - (k == n)
        halves = [] if self._half is None else [self._half]
        short = drawn - start - len(halves)
        words = raw((short + 1) // 2) if short > 0 else None
        if drawn - start >= _VECTOR_DRAWS:  # then at least one word was fetched
            table = np.empty(len(halves) + 2 * len(words), dtype=np.uint64)
            table[:len(halves)] = halves
            table[len(halves)::2], table[len(halves) + 1::2] = words & _MASK32, words >> 32
            spans = np.arange(n - start, n - drawn, -1, dtype=np.uint64)
            m = table[:drawn - start] * spans  # below 2**64: a half is below 2**32, a span at most 2**32
            if not ((m & _MASK32) < spans).any():  # no draw can be rejected
                targets += (np.arange(start, drawn, dtype=np.uint64) + (m >> 32)).tolist()
            halves = table.tolist()
        elif words is not None:
            for word in words.tolist():
                halves += (word & _MASK32, word >> 32)
        ready = len(targets)
        p = ready - start  # halves used: all 32-bit draws if the uint64 pass took them, else none
        moved: dict[int, int] = {}
        out = []
        for i in range(drawn):
            if i < ready:
                j = targets[i]
            else:
                s = n - i
                m = halves[p] * s
                p += 1
                if (m & _MASK32) < s:  # only then can it fall below the threshold
                    threshold = (2**32 - s) % s
                    while (m & _MASK32) < threshold:
                        if len(halves) - p < drawn - i:  # the redraw took a half the fetch counted on
                            word = raw()
                            halves += (word & _MASK32, word >> 32)
                        m = halves[p] * s
                        p += 1
                j = i + (m >> 32)
            # Slot i is final once swapped: every later target is above it.
            out.append(moved.get(j, j))
            moved[j] = moved.get(i, i)
        if drawn < k:
            out.append(moved.get(drawn, drawn))
        self._half = halves[p] if p < len(halves) else None
        return out

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_index={self.stream_index})"


def make_rng(seed: int) -> RngStream:
    """Root stream (stream_index 0) for a 64-bit unsigned seed."""
    return RngStream(seed, 0)


def derive_stream(parent: RngStream, index: int) -> RngStream:
    """Child stream of ``parent``, a pure function of (seed, stream_index,
    index); independent of how many siblings exist."""
    return RngStream(parent.seed, _mix64(parent.stream_index, _check_u64("index", index)))


def fold_seed(seed: int, index: int) -> int:
    """Derive an independent child seed, e.g. one per probe level.

    Same mixing rule as :func:`derive_stream`, for call sites that take a
    plain seed rather than a stream.
    """
    return _mix64(_check_u64("seed", seed), _check_u64("index", index))


def choose_indices(rng: RngStream, n: int, k: int) -> np.ndarray:
    """k distinct indices uniform over range(n), by partial Fisher-Yates.

    Swap i exchanges slots i and j_i with j_i uniform on [i, n), drawn by
    numpy's bounded-integer rule from the stream's Philox words (see the
    module docstring): the same values, and the same stream state after,
    as ``Generator.integers(np.arange(k), n)``. A draw may leave the high
    half of a word pending on the stream for its next call; a float32 or
    other 32-bit numpy draw on the stream's ``_gen`` would bypass it.
    """
    if k < 0 or k > n:
        raise ValueError(f"cannot choose {k} indices from {n}")
    return np.array(rng._fisher_yates(n, k), dtype=np.int64)


def subsample(rng: RngStream, data: np.ndarray, psi: int) -> np.ndarray:
    """psi rows drawn uniformly without replacement; input left unmodified."""
    data = np.asarray(data)
    n = data.shape[0]
    psi = _check_count("psi", psi, 1)
    if psi > n:
        raise ValueError(f"insufficient data: psi={psi} exceeds dataset size {n}")
    return data[choose_indices(rng, n, psi)]
