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

The Gaussian, uniform and bounded-integer transforms are the ones numpy's
``Generator`` applies on top of the Philox bit stream. :data:`RNG_FAMILY`
names the draw contract serialized models are built under, ``eif-philox/4``:
the key scheme and :func:`derive_stream`; numpy's normal, ``random``,
``uniform`` and ``integers`` transforms over Philox, the last through
:func:`choose_indices`; and the draw order and zero rules of
``forest._draw_splits``: a tree draws the splits of its nodes at one depth
together, left to right, all their normals, then at an intermediate level
all their keys, then any redraws, then all their intercepts; at an
intermediate level each node zeroes the coordinates of its smallest uniform
keys, and at level 0 it keeps its first largest ``|z|``. ``eif-philox/3``
drew a tree's splits node by node, in preorder; ``eif-philox/2`` also
zeroed intermediate levels by a Fisher-Yates draw, and ``eif-philox/1``
level 0 as well. A change to what any stream consumes, or to what a build
makes of the draws, bumps the contract id. NEP 19 lets numpy change a
transform in a feature release, so the module checks, once on import, that
the running numpy still makes the draws: a SHA-256 over draws from fixed
keys must equal ``_CONTRACT_SHA256``.
If it does not, :data:`RNG_FAMILY` is ``numpy-philox4x64/{numpy version}``,
so no model claims a contract that its numpy does not meet.

For a span of at most ``2**32`` numpy's bounded rule reads half a Philox
word and keeps the other half pending in the bit generator for the next such
draw; float64 draws read whole words and leave it alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


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
    touches the parent's draw state. All draw state is that of the numpy
    ``Generator`` in ``_gen``.
    """

    __slots__ = ("seed", "stream_index", "_gen")

    def __init__(self, seed: int, stream_index: int = 0):
        self.seed = _check_u64("seed", seed)
        self.stream_index = _check_u64("stream_index", stream_index)
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

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

    Swap i exchanges slots i and j_i, j_i uniform on [i, n); the targets are
    one ``Generator.integers(np.arange(k), n)`` call. The swaps run over a
    sparse table of the slots moved so far: O(k) work, no length-n index
    array.
    """
    if k < 0 or k > n:
        raise ValueError(f"cannot choose {k} indices from {n}")
    moved: dict[int, int] = {}
    out = []
    for i, j in enumerate(rng._gen.integers(np.arange(k), n).tolist()):
        # Slot i is final once swapped: every later target is above it.
        out.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
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
RNG_FAMILY = "eif-philox/4" if _meets_contract() else f"numpy-philox4x64/{np.__version__}"
