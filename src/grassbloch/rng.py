"""Counter-based splittable random numbers.

Every draw is a pure function of (seed, stream words..., counter), built on the
splitmix64 finalizer. Trials, optimizer starts and draw slots each get their own
substream, so results do not depend on batch size, worker count or evaluation
order. All of it runs on wrapping uint64 numpy arrays. Complex normal draws are
unit variance; the channel applies the noise scale sigma, in
`channel._receive` alone.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_U_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_U_SALT = np.uint64(0xD1B54A32D192ED03)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# 2**-53: maps the top 53 bits of a uint64 to [0, 1)
_INV53 = 1.0 / float(1 << 53)


def _mix64_vec(x: np.ndarray, out=None) -> np.ndarray:
    """The splitmix64 finalizer of each word, into `out`, a uint64 array of
    x's shape that may be `x` itself, or else into a new array that leaves
    `x` as it was."""
    if out is None:
        out = np.empty(np.shape(x), dtype=np.uint64)
    x = np.add(x, _U_GOLDEN, out=out)
    t = np.empty_like(x)
    np.right_shift(x, _U30, out=t)
    x ^= t
    x *= _M1
    np.right_shift(x, _U27, out=t)
    x ^= t
    x *= _M2
    np.right_shift(x, _U31, out=t)
    x ^= t
    return x


def _word(w: int) -> np.ndarray:
    """An integer, masked to 64 bits, as a 1-element uint64 array."""
    return np.array([int(w) & _MASK], dtype=np.uint64)


def stream_key_vec(seed: int, *words) -> np.ndarray:
    """Derive 64-bit substream keys from a seed and stream coordinates.

    Each of `words` may be an int or a uint64 array, and the keys, a uint64
    array, broadcast over the array words; with int words only it has shape
    (1,). Integer words fold as 1-element arrays, so wrapping uint64 math
    gives the same bits as the 64-bit masked integer recurrence.
    """
    key = _mix64_vec(_word(seed))
    for w in words:
        w = _word(w) if isinstance(w, (int, np.integer)) else np.asarray(w, dtype=np.uint64)
        key = _mix64_vec(key ^ (w * _U_SALT))
    return key


def raw(key, counter) -> np.ndarray:
    """64-bit output for (key, counter); both may be uint64 arrays."""
    k = np.asarray(key, dtype=np.uint64)
    c = np.asarray(counter, dtype=np.uint64)
    return _mix64_vec(k + c * _U_GOLDEN)


def uniform(key, counter) -> np.ndarray:
    """Uniform draw in [0, 1) for (key, counter)."""
    return (raw(key, counter) >> _U11).astype(np.float64) * _INV53


def complex_normal(key, counter, out=None) -> np.ndarray:
    """Unit-variance circularly symmetric complex normal draws via Box-Muller.

    One draw consumes counters `counter` and `counter + 1`, and its real and
    imaginary parts each have variance 1/2. The draws take the shape of `key`
    and `counter` broadcast together, and go to `out` when it is given, a
    complex128 array of that shape, which is returned.
    """
    k = np.asarray(key, dtype=np.uint64)
    c = np.asarray(counter, dtype=np.uint64)
    # the `raw` words of counters c and c + 1 (c * golden + golden, wrapping),
    # mixed in one chain; views are 0-d arrays for a scalar key and counter,
    # since they are written in place
    x = np.empty((2, *np.broadcast_shapes(k.shape, c.shape)), dtype=np.uint64)
    step = np.multiply(c, _U_GOLDEN, out=np.empty(c.shape, dtype=np.uint64))
    np.add(k, step, out=x[0, ...])
    step += _U_GOLDEN
    np.add(k, step, out=x[1, ...])
    _mix64_vec(x, out=x)
    x >>= _U11
    u = x.astype(np.float64)
    u1, u2 = u[0, ...], u[1, ...]
    u1 += 1.0  # (0, 1]: safe as a log() argument
    u1 *= _INV53
    u2 *= _INV53  # uniform: [0, 1)
    if out is None:
        out = np.empty(u1.shape, dtype=np.complex128)
    r = np.log(u1, out=u1)
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    u2 *= 2.0 * np.pi
    np.multiply(np.cos(u2, out=out.real), r, out=out.real)
    np.multiply(np.sin(u2, out=out.imag), r, out=out.imag)
    return out


def uniform_index(key, counter, n: int) -> np.ndarray:
    """Uniform integer draw in [0, n)."""
    idx = np.floor(uniform(key, counter) * n).astype(np.int64)
    # floor(u * n) can only reach n through rounding; clamp for safety.
    return np.minimum(idx, n - 1)
