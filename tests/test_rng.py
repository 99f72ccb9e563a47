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
    got = rng._mix64_vec(np.array(xs, dtype=np.uint64))
    assert [int(g) for g in got] == [splitmix_reference(x) for x in xs]


def test_stream_key_scalar_vector_agree():
    for seed in (0, 7, -1, -12345, 123456789, 2**63 + 5, 2**70 + 3):
        for words in [(), (0,), (3,), (1, 2), (5, 0, 9), (-4, 2**64 + 1)]:
            key = rng.stream_key_vec(seed, *words)
            assert isinstance(key, np.uint64)
            assert int(key) == reference_key(seed, *words)


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
    assert len({int(a), int(b), int(c), int(d)}) == 4


def test_uniform_range_and_determinism():
    keys = rng.stream_key_vec(3, 1, np.arange(10000, dtype=np.uint64))
    u = rng.uniform(keys, 5)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.array_equal(u, rng.uniform(keys, 5))
    # crude uniformity: mean near 1/2, variance near 1/12
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_uniform_open_never_zero():
    keys = rng.stream_key_vec(3, 2, np.arange(2000, dtype=np.uint64))
    u = rng.uniform_open(keys, 0)
    assert np.all(u > 0.0) and np.all(u <= 1.0)


def test_complex_normal_moments():
    keys = rng.stream_key_vec(9, 0, np.arange(200000, dtype=np.uint64))
    z = rng.complex_normal(keys, 0, variance=2.0)
    assert abs(z.mean()) < 0.02
    assert abs(np.mean(np.abs(z) ** 2) - 2.0) < 0.03
    # circular symmetry: pseudo-variance vanishes
    assert abs(np.mean(z * z)) < 0.03


def test_uniform_index_bounds():
    keys = rng.stream_key_vec(5, 0, np.arange(50000, dtype=np.uint64))
    idx = rng.uniform_index(keys, 0, 7)
    assert idx.min() >= 0 and idx.max() <= 6
    counts = np.bincount(idx, minlength=7)
    assert counts.min() > 0
