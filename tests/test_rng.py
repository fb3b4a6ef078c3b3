import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from stokit import (DomainError, RngStream, sample_gaussian,
                    sample_poisson_events, sample_stable, substream)


def test_substream_is_pure():
    a = sample_gaussian(substream(42, 0), 100)
    b = sample_gaussian(substream(42, 0), 100)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_differ():
    a = sample_gaussian(substream(42, 0), 1000)
    b = sample_gaussian(substream(42, 1), 1000)
    assert np.any(a != b)


def test_replay_after_recreation():
    s = substream(42, 7)
    first = sample_gaussian(s, 10)
    again = sample_gaussian(substream(42, 7), 10)
    np.testing.assert_array_equal(first, again)


def test_batching_invariance():
    s = substream(9, 3)
    whole = sample_gaussian(s, 10)
    s2 = substream(9, 3)
    split = np.concatenate([sample_gaussian(s2, 4), sample_gaussian(s2, 6)])
    np.testing.assert_array_equal(whole, split)


@given(st.integers(0, 2**64 - 1),
       st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
       st.integers(0, 20))
def test_block_rows_match_scalar_streams(seed, ids, n):
    block = substream(seed, np.array(ids, dtype=np.uint64))
    rows = sample_gaussian(block, n)
    assert rows.shape == (len(ids), n)
    assert block.counter == 2 * n
    for r, stream_id in enumerate(ids):
        scalar = substream(seed, stream_id)
        assert rows[r].tobytes() == sample_gaussian(scalar, n).tobytes()
        assert scalar.counter == 2 * n


# Each sampler with the (alpha, beta) branches of `sample_stable`: the
# alpha = 1 closed form with and without skew, alpha = 2 and a general alpha.
_SAMPLERS = {
    "gaussian": sample_gaussian,
    "stable(1, 0)": lambda s, n: sample_stable(s, 1.0, 0.0, n),
    "stable(1, 0.5)": lambda s, n: sample_stable(s, 1.0, 0.5, n),
    "stable(2, -0.3)": lambda s, n: sample_stable(s, 2.0, -0.3, n),
    "stable(1.5, 0.7)": lambda s, n: sample_stable(s, 1.5, 0.7, n),
}


@given(st.sampled_from(sorted(_SAMPLERS)), st.integers(0, 2**64 - 1),
       st.one_of(st.integers(0, 2**64 - 1),
                 st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4)),
       st.integers(0, 40))
def test_samplers_consume_two_slots_per_variate(name, seed, ids, n):
    # Box-Muller and Chambers-Mallows-Stuck each take two counter slots per
    # variate, on a single stream and on a block of streams; the draw after
    # them is the draw of a fresh stream started at counter 2n.
    sample = _SAMPLERS[name]
    stream_id = np.array(ids, dtype=np.uint64) if isinstance(ids, list) else ids
    stream = substream(seed, stream_id)
    with np.errstate(all="ignore"):
        sample(stream, n)
        assert stream.counter == 2 * n
        after = sample(stream, 3)
        fresh = sample(RngStream(seed, stream_id, counter=2 * n), 3)
    assert stream.counter == 2 * n + 6
    assert after.tobytes() == fresh.tobytes()


def test_block_stream_ids_validated():
    for ids in ([-1, 2], [0.5, 1.0], [[0, 1]]):
        with pytest.raises(DomainError):
            substream(3, np.array(ids))


def test_uniforms_open_interval():
    u = substream(7, 0).uniforms(10**5)
    assert u.min() > 0.0 and u.max() < 1.0


def test_gaussian_empty():
    assert sample_gaussian(substream(1, 0), 0).size == 0


def test_gaussian_moments():
    z = sample_gaussian(substream(1, 0), 10**5)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.03


def test_gaussian_moment_sweep():
    # CLT bounds 4/sqrt(n) and 6/sqrt(n) must hold for >= 95 of 100 seeds.
    n = 10**4
    fails = 0
    for seed in range(100):
        z = sample_gaussian(substream(seed, 0), n)
        if abs(z.mean()) >= 4.0 / np.sqrt(n) or abs(z.var() - 1.0) >= 6.0 / np.sqrt(n):
            fails += 1
    assert fails <= 5


def test_stable_gaussian_reduction():
    x = sample_stable(substream(1, 0), 2.0, 0.0, 10**5)
    ks = stats.kstest(x, "norm", args=(0.0, np.sqrt(2.0))).statistic
    assert ks < 0.02


def test_stable_cauchy_case():
    x = sample_stable(substream(1, 0), 1.0, 0.0, 10**5)
    q25, q50, q75 = np.quantile(x, [0.25, 0.5, 0.75])
    # standard Cauchy quantiles tan(pi*(p - 1/2)): median 0, IQR 2
    assert abs(q50) < 0.02
    assert abs((q75 - q25) - 2.0) < 0.05


def test_stable_skewed_is_finite():
    x = sample_stable(substream(3, 1), 1.55, 0.2, 10**5)
    assert np.all(np.isfinite(x))


def test_stable_rejects_bad_params():
    with pytest.raises(DomainError):
        sample_stable(substream(1, 0), 2.5, 0.0, 10)
    with pytest.raises(DomainError):
        sample_stable(substream(1, 0), 0.0, 0.0, 10)
    with pytest.raises(DomainError):
        sample_stable(substream(1, 0), 1.5, 1.5, 10)


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 9e-7, 1.0 - 9e-7])
def test_stable_refuses_the_s1_pole_when_skewed(alpha):
    """Near alpha = 1 a skewed S1 draw jumps by ~1e8 from the closed form at
    alpha = 1 (medians of 20001 draws: 0.21 at 1, -3.2e8 at 1 + 1e-9)."""
    with pytest.raises(DomainError, match="S1 pole"):
        sample_stable(substream(1, 0), alpha, 0.5, 10)
    symmetric = sample_stable(substream(1, 0), alpha, 0.0, 20001)
    assert abs(np.median(symmetric)) < 0.05
    assert abs(np.median(sample_stable(substream(1, 0), 1.0, 0.5, 20001)) - 0.21) < 0.05


def test_stable_deterministic():
    a = sample_stable(substream(5, 2), 1.7, -0.3, 1000)
    b = sample_stable(substream(5, 2), 1.7, -0.3, 1000)
    np.testing.assert_array_equal(a, b)


def test_poisson_zero_rate():
    assert sample_poisson_events(substream(1, 0), 0.0, 10.0).size == 0


def test_poisson_times_sorted_and_bounded():
    t = sample_poisson_events(substream(4, 0), 5.0, 20.0)
    assert np.all(np.diff(t) > 0)
    assert t.size == 0 or (t[0] > 0.0 and t[-1] <= 20.0)


def test_poisson_mean_count():
    counts = np.array([
        sample_poisson_events(substream(seed, 0), 3.0, 100.0).size
        for seed in range(200)
    ])
    assert abs(counts.mean() - 300.0) < 1.5
    assert abs(counts.var(ddof=1) - 300.0) < 0.15 * 300.0


def test_poisson_rejects_bad_params():
    with pytest.raises(DomainError):
        sample_poisson_events(substream(1, 0), -1.0, 10.0)
    with pytest.raises(DomainError):
        sample_poisson_events(substream(1, 0), 1.0, 0.0)


def test_poisson_rejects_block_stream():
    with pytest.raises(DomainError):
        sample_poisson_events(substream(1, np.arange(3)), 1.0, 10.0)


def test_poisson_consumption_replays():
    s = substream(11, 0)
    first = sample_poisson_events(s, 2.0, 50.0)
    after = sample_gaussian(s, 5)
    s2 = substream(11, 0)
    np.testing.assert_array_equal(first, sample_poisson_events(s2, 2.0, 50.0))
    np.testing.assert_array_equal(after, sample_gaussian(s2, 5))


def test_seed_out_of_range():
    with pytest.raises(DomainError):
        substream(-1, 0)
    with pytest.raises(DomainError):
        substream(2**64, 0)
