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
applies on top of the Philox bit stream. :data:`RNG_FAMILY` names the draw
contract serialized models are built under, ``eif-philox/2``: the key scheme
and :func:`derive_stream`; numpy's normal, ``random`` and ``uniform``
transforms over Philox; :func:`choose_indices`' bounded rule, its
``Generator.integers`` path for spans above ``2**32`` included; and the draw
order and zero rules of ``forest._draw_splits``: Fisher-Yates zeroes at an
intermediate level, and at level 0 each node's first largest ``|z|`` kept
(``eif-philox/1`` zeroed level 0 by Fisher-Yates too). A change to what any
stream consumes, or to what a build makes of the draws, bumps the contract
id. NEP 19 lets numpy change a transform in a feature release, so the module
checks, once on import, that the running numpy still makes the draws: a
SHA-256 over draws from fixed keys must equal ``_CONTRACT_SHA256``. If it
does not, :data:`RNG_FAMILY` is ``numpy-philox4x64/{numpy version}``, so no
model claims a contract that its numpy does not meet.

Bounded integers (:func:`choose_indices`' swap targets) follow numpy's own
rule for ``Generator.integers(i, n)``, applied in Python ints to the 64-bit
Philox words: for a span ``s = n - i <= 2**32``, take the next 32-bit half
``u``, reject while ``(u * s) & 0xFFFFFFFF < (2**32 - s) % s``, and return
``i + (u * s >> 32)``; a span of 1 draws nothing. A long run of draws
applies the rule in uint64 arrays, which is exact: ``u * s < 2**64``. A
32-bit draw takes the low half of a fresh word and keeps the high half as
the next one. The kept half lives in the stream's own slot, which only
:func:`choose_indices` reads or writes: float64 draws read whole words and
never touch it, so it carries from one call to the next, as numpy's does.
Spans above ``2**32`` go through ``Generator.integers``, whose 64-bit rule
reads whole words and leaves the half alone. Values and stream state equal
numpy's bit for bit. A float32 or other 32-bit numpy draw on ``_gen`` would
read numpy's own kept half, not this one, so none is made.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: 32-bit draws from which :func:`choose_indices` takes its swap
#: targets in one uint64 pass instead of one by one. At n = 20,000 the pass
#: took 1.1-1.3x the scalar loop's time for 24-32 draws, 0.86-0.95x for 48,
#: 0.83-0.86x for 64 and 0.44-0.55x for 256 (a subsample of psi = 256).
_VECTOR_DRAWS = 48


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
    the module docstring). Only :func:`choose_indices` reads or sets it; a
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


def choose_indices(rng: RngStream, n: int, k: int) -> list[int]:
    """k distinct indices uniform over range(n): the first k slots of
    range(n) after k partial Fisher-Yates swaps.

    Swap i exchanges slots i and j_i, j_i drawn uniform on [i, n) by the
    bounded rule of the module docstring: the same values, and the same
    stream state after, as ``Generator.integers(np.arange(k), n)``. A draw
    may leave the high half of a word pending on the stream for its next
    call. The words the 32-bit draws need come in one ``random_raw`` call;
    each rejection reads one more word later, which is next in the stream,
    so none is lost. From ``_VECTOR_DRAWS`` 32-bit draws up, the targets are
    taken in one uint64 pass over those words, unless some draw could be
    rejected, when the same halves go through the scalar loop. The swaps run
    over a sparse table of the slots moved so far: O(k) work, no length-n
    index array.
    """
    if k < 0 or k > n:
        raise ValueError(f"cannot choose {k} indices from {n}")
    gen = rng._gen
    raw = gen.bit_generator.random_raw
    # Spans above 2**32 come first, at i < n - 2**32, and are drawn before
    # any word is fetched. Span 1, at i = n - 1, draws nothing.
    targets = [int(gen.integers(i, n)) for i in range(min(k, n - 2**32))] if n > 2**32 else []
    start, drawn = len(targets), k - (0 < k == n)
    halves = [] if rng._half is None else [rng._half]
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
    rng._half = halves[p] if p < len(halves) else None
    return out


def subsample(rng: RngStream, data: np.ndarray, psi: int) -> np.ndarray:
    """psi rows drawn uniformly without replacement; input left unmodified."""
    data = np.asarray(data)
    n = data.shape[0]
    psi = _check_count("psi", psi, 1)
    if psi > n:
        raise ValueError(f"insufficient data: psi={psi} exceeds dataset size {n}")
    return data[choose_indices(rng, n, psi)]


#: SHA-256 of the draws :func:`_meets_contract` takes, recorded under numpy 2.4.6.
_CONTRACT_SHA256 = "9ff528d5a3be3fc03abc42602eca38443bf0339ed6183ba6266d3400465174dd"


def _meets_contract() -> bool:
    """Whether the running numpy makes the draws of the ``eif-philox``
    contract: 16,384 normals (enough to reach the ziggurat's rare paths),
    ``random`` and ``uniform`` doubles, and bounded draws at n = 20,000 and
    above ``2**32``, all from one derived stream of a fixed key."""
    stream = derive_stream(make_rng(1), 2)
    draws = np.concatenate([stream.standard_normal(16_384), stream.random(64), stream.uniform(-3.0, 5.0, 64),
                            choose_indices(stream, 20_000, 256), choose_indices(stream, 2**32 + 2, 3)])
    return hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest() == _CONTRACT_SHA256


#: The draw contract named in serialized models (see the module docstring).
RNG_FAMILY = "eif-philox/2" if _meets_contract() else f"numpy-philox4x64/{np.__version__}"
