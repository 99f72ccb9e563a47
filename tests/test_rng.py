import numpy as np

from grassbloch import rng

MASK = (1 << 64) - 1
SALT = 0xD1B54A32D192ED03


def splitmix_reference(x):
    """Straight-line splitmix64 finalizer on Python integers: the oracle."""
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def reference_key(seed, *words):
    """The substream key folded word by word with splitmix_reference."""
    key = splitmix_reference(seed & MASK)
    for w in words:
        key = splitmix_reference(key ^ ((w & MASK) * SALT & MASK))
    return key


def test_mix64_matches_reference():
    xs = (0, 1, 42, 2**32, 2**63, MASK)
    words = np.array(xs, dtype=np.uint64)
    got = rng._mix64_vec(words)
    assert [int(g) for g in got] == [splitmix_reference(x) for x in xs]
    assert [int(w) for w in words] == list(xs)  # the input is left as it was


def test_stream_key_scalar_vector_agree():
    for seed in (0, 7, -1, -12345, 123456789, 2**63 + 5, 2**70 + 3):
        for words in [(), (0,), (3,), (1, 2), (5, 0, 9), (-4, 2**64 + 1)]:
            key = rng.stream_key_vec(seed, *words)
            assert key.shape == (1,) and key.dtype == np.uint64
            assert int(key[0]) == reference_key(seed, *words)


def test_stream_key_vec_elementwise():
    trials = np.arange(64, dtype=np.uint64)
    keys = rng.stream_key_vec(11, 2, trials)
    for t in (0, 1, 33, 63):
        assert int(keys[t]) == reference_key(11, 2, t)
    keys = rng.stream_key_vec(-3, trials, 5)
    assert keys.shape == (64,)
    for t in (0, 1, 33, 63):
        assert int(keys[t]) == reference_key(-3, t, 5)


def test_streams_differ():
    a = rng.stream_key_vec(1, 0, 0)
    b = rng.stream_key_vec(1, 0, 1)
    c = rng.stream_key_vec(1, 1, 0)
    d = rng.stream_key_vec(2, 0, 0)
    assert len({int(k[0]) for k in (a, b, c, d)}) == 4


def test_uniform_range_and_determinism():
    keys = rng.stream_key_vec(3, 1, np.arange(10000, dtype=np.uint64))
    u = rng.uniform(keys, 5)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, rng.uniform(keys, 5))
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_complex_normal_moments():
    keys = rng.stream_key_vec(9, 0, np.arange(200000, dtype=np.uint64))
    z = rng.complex_normal(keys, 0)
    assert abs(z.mean()) < 0.02
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.015
    # circular symmetry: pseudo-variance vanishes
    assert abs(np.mean(z * z)) < 0.015


def test_uniform_index_bounds():
    keys = rng.stream_key_vec(5, 0, np.arange(50000, dtype=np.uint64))
    idx = rng.uniform_index(keys, 0, 7)
    assert idx.min() >= 0 and idx.max() <= 6
    counts = np.bincount(idx, minlength=7)
    assert counts.min() > 0


def reference_complex_normal(key, counter):
    """Unit-variance Box-Muller as first written, one temporary per step."""
    # the top 53 bits of counter's word, mapped to (0, 1]: a safe log() argument
    u1 = ((rng.raw(key, counter) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    assert np.all(u1 > 0.0) and np.all(u1 <= 1.0)
    c2 = np.asarray(counter, dtype=np.uint64) + np.uint64(1)
    u2 = rng.uniform(key, c2)
    r = np.sqrt(-np.log(u1))
    ang = (2.0 * np.pi) * u2
    return r * np.cos(ang) + 1j * (r * np.sin(ang))


def test_complex_normal_matches_reference():
    keys = rng.stream_key_vec(4, 1, np.arange(3000, dtype=np.uint64))[:, None]
    ctr = 1 + 2 * np.arange(5, dtype=np.uint64)
    expected = reference_complex_normal(keys, ctr)
    assert np.array_equal(rng.complex_normal(keys, ctr).view(np.uint64),
                          expected.view(np.uint64))
    # a scalar key and counter give one draw
    assert complex(rng.complex_normal(keys[7, 0], 3)) == complex(
        reference_complex_normal(keys[7, 0], 3))
    # drawn into part of `out`
    out = np.full((3100, 5), np.nan, dtype=np.complex128)
    got = rng.complex_normal(keys, ctr, out=out[:3000])
    assert np.shares_memory(got, out) and np.all(np.isnan(out[3000:]))
    assert np.array_equal(out[:3000].view(np.uint64), expected.view(np.uint64))


def test_complex_normal_scalar_and_one_element_key_agree():
    # optimizer starts key their start noise with int words only: a (1,) key
    # broadcast over 3C counters draws what its 0-d element draws
    key = rng.stream_key_vec(0, 0x5048, 3)
    ctr = 2 * np.arange(3 * 100, dtype=np.uint64)
    one = rng.complex_normal(key, ctr)
    zero_d = rng.complex_normal(key[0], ctr)
    assert one.shape == zero_d.shape == (300,)
    assert np.array_equal(one.view(np.uint64), zero_d.view(np.uint64))


def test_complex_normal_one_chain_matches_two_raw_chains():
    # both counters of a draw go through one mix; counter + 1 wraps at 2^64
    keys = rng.stream_key_vec(8, 3, np.arange(40, dtype=np.uint64))
    for ctr in (np.uint64(0), np.uint64(2**64 - 1), np.uint64(2**63),
                np.array([2**64 - 2, 2**64 - 1, 7], dtype=np.uint64)[:, None]):
        got = rng.complex_normal(keys, ctr)
        want = reference_complex_normal(keys, ctr)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
