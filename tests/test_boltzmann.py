import json

import numpy as np
import pytest
from scipy import integrate, stats

from qenm import boltzmann
from qenm.boltzmann import (BucketKey, MBParams, bucket_velocities, discretize_two_bucket,
                            prf64, thermal_velocities)
from qenm.reference import (alpha, bucket_assignment, cdf_table, discretize_k_bucket,
                            inverse_cdf_bucket, lemma1_rel_fluctuation, mean_kinetic,
                            sample_kinetic_energies)


def gaussian_moment(order: int, sigma: float) -> float:
    dens = stats.norm(scale=sigma).pdf
    val, _ = integrate.quad(lambda v: v**order * dens(v), -8 * sigma, 8 * sigma,
                            epsabs=1e-13)
    return val


def test_two_bucket_unit_choice():
    disc = discretize_two_bucket(MBParams(m=1.0, T=1.0, k_B=1.0))
    assert disc.probabilities == (0.5, 0.5)
    assert disc.velocities == (1.0, -1.0)
    assert disc.matched_moments == (0, 1, 2, 3)


def test_two_bucket_moments_match_gaussian():
    params = MBParams(m=2.0, T=3.0, k_B=1.0)
    disc = discretize_two_bucket(params)
    for order in range(4):
        assert disc.moment(order) == pytest.approx(
            gaussian_moment(order, params.sigma), abs=1e-9)
    # fourth moment intentionally disagrees: sigma^4 vs 3 sigma^4
    assert disc.moment(4) == pytest.approx(params.sigma**4)


def test_two_bucket_zero_temperature():
    disc = discretize_two_bucket(MBParams(T=0.0))
    assert disc.probabilities == (1.0,)
    assert disc.velocities == (0.0,)


def test_k_bucket_two_is_conditional_means():
    params = MBParams(m=1.0, T=1.0, k_B=1.0)
    disc = discretize_k_bucket(params, 2)
    expect = np.sqrt(2.0 / np.pi)   # half-Gaussian conditional mean
    assert abs(disc.velocities[0]) == pytest.approx(expect, abs=1e-7)
    assert disc.velocities[0] == pytest.approx(-disc.velocities[1], abs=1e-12)
    assert disc.matched_moments == (0, 1)


@pytest.mark.parametrize("k", [2, 3, 4, 8, 16])
def test_k_bucket_first_moments_exact(k):
    disc = discretize_k_bucket(MBParams(m=1.5, T=0.8), k)
    assert sum(disc.probabilities) == pytest.approx(1.0, abs=1e-14)
    assert disc.moment(1) == pytest.approx(0.0, abs=1e-12)


def test_k_bucket_second_moment_error_decreases():
    params = MBParams(m=1.0, T=1.0)
    errors = [abs(discretize_k_bucket(params, k).moment(2) - params.sigma**2)
              for k in (2, 4, 8, 16, 32)]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_k_bucket_rejects_small_k():
    with pytest.raises(ValueError):
        discretize_k_bucket(MBParams(), 1)


def test_bucket_assignment_zero_key():
    key = BucketKey(s=0, r=0, n=4)
    assert all(bucket_assignment(j, key) == 0 for j in range(16))


def test_bucket_assignment_low_bit_parity():
    key = BucketKey(s=1, r=0, n=4)
    assert all(bucket_assignment(j, key) == (j & 1) for j in range(16))


def test_bucket_assignment_uniform_over_keys():
    rng = np.random.default_rng(17)
    n = 6
    trials = 10_000
    for j in (0, 5, 37):
        ones = sum(bucket_assignment(j, BucketKey.random(n, rng)) for _ in range(trials))
        sigma = np.sqrt(trials * 0.25)
        assert abs(ones - trials / 2) <= 3.0 * sigma


def test_bucket_velocities_layout():
    disc = discretize_two_bucket(MBParams())
    key = BucketKey(s=1, r=0, n=3)
    vels = bucket_velocities(8, key, disc)
    assert vels[0] == disc.velocities[0] and vels[1] == disc.velocities[1]


def test_bucket_velocities_match_scalar_assignment():
    disc = discretize_two_bucket(MBParams(m=1.0, T=2.0))
    rng = np.random.default_rng(17)
    for n in range(1, 14):
        keys = [BucketKey(0, 1, n), BucketKey((1 << n) - 1, 0, n),
                *(BucketKey.random(n, rng) for _ in range(3))]
        for key in keys:
            for n_nodes in (1 << n, (1 << n) // 2 + 1):
                expect = [disc.velocities[bucket_assignment(j, key)] for j in range(n_nodes)]
                assert bucket_velocities(n_nodes, key, disc).tolist() == expect


@pytest.mark.parametrize("T", [0.0, 2.0])
@pytest.mark.parametrize("sites", [[1, 4, 5, 17, 40, 63], np.arange(0, 64, 3)])
def test_thermal_velocities_rows_are_bucket_velocities_on_sites(T, sites):
    params = MBParams(m=1.5, T=T)
    disc = discretize_two_bucket(params)
    rng = np.random.default_rng(5)
    keys = [BucketKey.random(6, rng) for _ in range(3)]
    vel = thermal_velocities(params, keys, 64, sites)
    assert vel.shape == (3, 64)
    off = np.setdiff1d(np.arange(64), sites)
    for row, key in zip(vel, keys):
        assert row[sites].tolist() == bucket_velocities(64, key, disc)[sites].tolist()
        assert not row[off].any()
    assert (disc.k == 1) == (T == 0.0)
    assert vel[:, sites].any() == (T > 0.0)     # one bucket at T = 0: every velocity is 0


def test_lemma1_values():
    assert lemma1_rel_fluctuation(2, 8) == pytest.approx(0.35355339059327373)
    assert mean_kinetic(MBParams(m=1.0, T=1.0, k_B=1.0, D=3), 1) == pytest.approx(1.5)
    assert alpha(MBParams(D=2), 8) == pytest.approx(4.0)


def test_lemma1_monte_carlo():
    params = MBParams(m=1.0, T=1.0, D=2)
    ks = sample_kinetic_energies(params, 16, 20_000, seed=3)
    r_hat = ks.std(ddof=1) / ks.mean()
    rng = np.random.default_rng(5)
    boot = []
    for _ in range(200):
        idx = rng.integers(0, len(ks), len(ks))
        boot.append(ks[idx].std(ddof=1) / ks[idx].mean())
    se = np.std(boot, ddof=1)
    assert abs(r_hat - lemma1_rel_fluctuation(2, 16)) <= 3.0 * se


def test_median_split_kinetic_energy_is_deterministic():
    # every sample has |v| = sigma, so K is exactly N D k_B T / 2
    params = MBParams(m=2.0, T=1.3, D=2)
    disc = discretize_two_bucket(params)
    rng = np.random.default_rng(0)
    n = 32
    total = 0.0
    for axis in range(params.D):
        key = BucketKey.random(5, rng)
        vels = bucket_velocities(n, key, disc)
        total += 0.5 * params.m * float(np.sum(vels**2))
    assert total == pytest.approx(mean_kinetic(params, n), rel=1e-12)


def test_prf_deterministic_and_spread():
    outs = {prf64(42, i) for i in range(64)}
    assert len(outs) == 64
    assert prf64(42, 7) == prf64(42, 7)
    assert prf64(42, 7) != prf64(43, 7)


def test_vectorised_prf64_equals_the_scalar_mix():
    i = np.arange(1000, dtype=np.uint64)
    for key in (0, (1 << 64) - 1, -12345):
        bits = prf64(key, i)
        assert bits.dtype == np.uint64
        assert [int(b) for b in bits] == [prf64(key, j) for j in range(1000)]


def test_prf_uniform_reads_the_top_bits_of_prf64():
    u = boltzmann.prf_uniform(-7, 40, 25)
    assert u.shape == (40, 25) and u.min() >= -1.0 and u.max() < 1.0
    top = [prf64(-7, j) >> 11 for j in range(1000)]
    assert u.ravel().tolist() == [b * 2.0**-52 - 1.0 for b in top]
    assert abs(u.mean()) < 0.1 and np.array_equal(u, boltzmann.prf_uniform(-7, 40, 25))


def test_key_stream_draws_numpys_pcg64_integers():
    # 2**32 and 2**64 + 5 take two and three words of seed entropy; after each 1 << n draw
    # below 2**32, integers(0, 2) takes the buffered high half of its 64-bit draw, and
    # 1 << 40 and 1 << 63 take the 64-bit path
    mismatches = []
    for seed in [*range(300), 2**31 - 1, 2**32, 2**64 + 5]:
        for n in range(64):
            ours, theirs = boltzmann.KeyStream(seed), np.random.default_rng(seed)
            for high in (1 << n, 2, 1 << n, 1 << 40, 2, 1 << 63, 3, 1 << n):
                if ours.integers(0, high) != int(theirs.integers(0, high)):
                    mismatches.append((seed, n, high))
        ours, theirs = boltzmann.KeyStream(seed), np.random.default_rng(seed)
        if [ours.integers(-5, 11) for _ in range(20)] != theirs.integers(-5, 11, 20).tolist():
            mismatches.append((seed, -5, 11))
    assert not mismatches, mismatches[:10]


def test_key_stream_draws_numpys_bucket_keys():
    for seed in (0, 7, 2**31 - 1):
        stream, rng = boltzmann.KeyStream(seed), np.random.default_rng(seed)
        for n in (5, 9, 31, 32, 33, 40):
            assert BucketKey.random(n, stream) == BucketKey.random(n, rng)


def test_key_stream_refuses_what_numpy_refuses():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        boltzmann.KeyStream(-1)
    with pytest.raises(ValueError):
        boltzmann.KeyStream(0).integers(3, 3)


def test_inverse_cdf_bucket_basic():
    cdf = cdf_table([0.5, 0.5], scale=100)
    assert inverse_cdf_bucket(10, cdf) == 0
    assert inverse_cdf_bucket(60, cdf) == 1


def test_inverse_cdf_boundary_goes_next():
    cdf = cdf_table([0.5, 0.5], scale=100)   # boundaries at 50, 100
    assert inverse_cdf_bucket(49, cdf) == 0
    assert inverse_cdf_bucket(50, cdf) == 1  # strict inequality


def test_inverse_cdf_empirical_frequencies():
    probs = [0.2, 0.3, 0.5]
    cdf = cdf_table(probs)
    n = 100_000
    counts = np.zeros(3, dtype=int)
    for i in range(n):
        counts[inverse_cdf_bucket(prf64(9, i), cdf)] += 1
    for b, p in enumerate(probs):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[b] - n * p) <= 3.0 * sigma


def test_bucket_spec_json_roundtrip(tmp_path):
    disc = discretize_two_bucket(MBParams())
    blob = json.dumps(boltzmann.bucket_spec_json(disc))
    data = json.loads(blob)
    assert data["k"] == 2 and data["matched_moments"] == [0, 1, 2, 3]
