"""Deterministic, splittable random streams.

The generator is counter-based: the k-th raw word of a stream is a bit-mix of
(seed, stream_id, k), so any draw can be produced without generating its
predecessors and any parallel schedule sees the same values.  The mix is the
SplitMix64 finalizer (Stafford variant 13) applied to a per-stream base offset
plus counter * golden-gamma.

A stream id may also be an array of ids: the stream is then a block of
streams that share one counter, and every draw gains a leading row axis whose
row r is bit-identical to the same draw on the scalar stream ``ids[r]``.
Simulators draw a whole block of instances (or SPDE steps) at once this way,
about ``_BUDGET`` draws at a time, so that a block stays in a core's L2 cache;
any counter range can be drawn on its own, so a path may draw in chunks.

Conventions, fixed for reproducibility:

* uniforms are ``((word >> 11) + 0.5) * 2**-53`` -- open interval (0, 1);
* one Gaussian consumes two counter slots (Box-Muller, cosine branch);
* one stable variate consumes two counter slots (Chambers-Mallows-Stuck);
* Poisson event times consume one slot per exponential inter-arrival,
  including the final draw that overshoots the horizon.

Streams are cheap value objects.  A single instance must not be shared by
concurrent callers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SizeError
from .specs import _check_stable_shape

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_U64 = np.uint64
# Draws per block of streams; simulators size their row tiles to it, so that
# a block's words, floats and numpy temporaries (128 KiB each) stay in L2.
_BUDGET = 1 << 14
# Most slots per row in one round of Poisson draws (128 MiB of float64).
_SLOT_BLOCK_MAX = 1 << 24
_GOLDEN_U = _U64(_GOLDEN)
_MIX_A_U = _U64(_MIX_A)
_MIX_B_U = _U64(_MIX_B)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int, mod 2**64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U64(30))) * _MIX_A_U
    z = (z ^ (z >> _U64(27))) * _MIX_B_U
    return z ^ (z >> _U64(31))


def _check_u64(value: int, name: str) -> int:
    if not 0 <= int(value) <= _MASK64:
        raise DomainError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return int(value)


def derive_seed(seed: int, *salts: int) -> int:
    """Derive a child seed by hash-chaining salts onto a parent seed.

    Used to give independent sub-experiments (figures, generations) their own
    seed without coordinating stream ids.
    """
    h = _mix64(_check_u64(seed, "seed") + _GOLDEN)
    for salt in salts:
        h = _mix64(h ^ ((int(salt) + _GOLDEN) & _MASK64))
    return h


class RngStream:
    """One deterministic stream, identified by (seed, stream_id), or a block
    of streams sharing one counter when ``stream_id`` is an integer array.

    ``counter`` is the index of the next raw word; samplers advance it.
    Re-creating the stream replays the identical sequence.
    """

    __slots__ = ("seed", "stream_id", "counter", "_base")

    def __init__(self, seed: int, stream_id, counter: int = 0):
        self.seed = _check_u64(seed, "seed")
        self.counter = _check_u64(counter, "counter")
        ids = np.asarray(stream_id)
        if ids.dtype.kind not in "iu" or ids.ndim > 1 or (ids.size and ids.min() < 0):
            raise DomainError("stream_id must be a 64-bit unsigned integer or a "
                              f"1-D array of them, got {stream_id!r}")
        self.stream_id = ids if ids.ndim else int(ids)
        base = _U64(_mix64(self.seed + _GOLDEN))
        self._base = _mix64_array(
            base ^ (np.atleast_1d(ids).astype(np.uint64) + _GOLDEN_U)).reshape(ids.shape)

    def __repr__(self) -> str:
        return (f"RngStream(seed={self.seed}, stream_id={self.stream_id}, "
                f"counter={self.counter})")

    def _words(self, n: int) -> np.ndarray:
        """Next n raw 64-bit words; advances the counter by n."""
        ctr = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return _mix64_array(self._base[..., None] + ctr * _GOLDEN_U)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms on the open interval (0, 1); one counter slot each."""
        if n < 0:
            raise SizeError(f"sample count must be >= 0, got {n}")
        w = self._words(n)
        return ((w >> _U64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def substream(seed: int, stream_id) -> RngStream:
    """Stream at counter 0; a pure function of (seed, stream_id).  An array
    of ids gives the block of those streams."""
    return RngStream(seed, stream_id)


def sample_gaussian(stream: RngStream, n: int) -> np.ndarray:
    """n independent standard-normal variates (Box-Muller, cosine branch)."""
    u = stream.uniforms(2 * _checked_count(n))
    return np.sqrt(-2.0 * np.log(u[..., 0::2])) * np.cos(2.0 * np.pi * u[..., 1::2])


def sample_stable(stream: RngStream, alpha: float, beta: float, n: int) -> np.ndarray:
    """n standard stable variates (unit scale, zero location shift).

    Chambers-Mallows-Stuck construction in the one-parameterization: the
    alpha = 1 case uses its closed form, every other alpha the general
    formula.  alpha = 2 reduces to Normal(0, 2); alpha = 1, beta = 0 is
    standard Cauchy.  A skewed alpha with ``0 < |alpha - 1| < 1e-6`` is
    refused: it is the S1 parameterization's pole.
    """
    _check_stable_shape(alpha, beta)
    u = stream.uniforms(2 * _checked_count(n))
    angle = np.pi * (u[..., 0::2] - 0.5)     # uniform on (-pi/2, pi/2)
    expo = -np.log(u[..., 1::2])             # exponential(1)
    if alpha == 1.0:
        half_pi = 0.5 * np.pi
        t1 = (half_pi + beta * angle) * np.tan(angle)
        if beta == 0.0:
            return (2.0 / np.pi) * t1
        t2 = beta * np.log((half_pi * expo * np.cos(angle)) / (half_pi + beta * angle))
        return (2.0 / np.pi) * (t1 - t2)
    skew = beta * math.tan(0.5 * np.pi * alpha)
    shift = math.atan(skew) / alpha
    scale = (1.0 + skew * skew) ** (0.5 / alpha)
    turned = alpha * (angle + shift)
    num = np.sin(turned)
    den = np.cos(angle) ** (1.0 / alpha)
    tail = (np.cos(angle - turned) / expo) ** ((1.0 - alpha) / alpha)
    return scale * num / den * tail


def sample_poisson_events(stream: RngStream, rate: float, horizon: float) -> np.ndarray:
    """Sorted event times in (0, horizon] with exponential inter-arrivals,
    on a single stream."""
    if np.ndim(stream.stream_id):
        raise DomainError("Poisson events need a single stream, not a block")
    if rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {rate}")
    if horizon <= 0.0:
        raise DomainError(f"horizon must be > 0, got {horizon}")
    if rate == 0.0:
        return np.empty(0, dtype=np.float64)
    times: list[np.ndarray] = []
    elapsed = 0.0
    block = _poisson_slot_block(rate, horizon)
    while True:
        gaps = -np.log(stream.uniforms(block)) / rate
        arrival = elapsed + np.cumsum(gaps)
        over = np.nonzero(arrival > horizon)[0]
        if over.size:
            consumed = int(over[0]) + 1
            stream.counter -= block - consumed  # hand back unused slots
            times.append(arrival[: over[0]])
            break
        times.append(arrival)
        elapsed = float(arrival[-1])
    return np.concatenate(times) if len(times) > 1 else times[0]


def _poisson_slot_block(rate: float, horizon: float) -> int:
    """Slots per round of Poisson draws: 1.5 times the expected count, refused
    past ``_SLOT_BLOCK_MAX`` before anything is drawn."""
    slots = rate * horizon * 1.5
    if not slots < _SLOT_BLOCK_MAX:
        raise SizeError(f"rate {rate} over horizon {horizon} needs {slots:.6g} Poisson "
                        f"slots per round of draws, more than {_SLOT_BLOCK_MAX}")
    return max(16, int(slots) + 1)


def _checked_count(n: int) -> int:
    if n < 0:
        raise SizeError(f"sample count must be >= 0, got {n}")
    return int(n)
