import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab.blocks import BLOCK_VALUES
from bdrlab.calib import (CalibrationConfig, equal_mass_edges,
                          heteroscedastic_loss, r_ece)
from bdrlab.cli import _calib_scenario


def _phi2(z):
    """P(|Z| <= z) for a standard normal."""
    return math.erf(z / math.sqrt(2.0))


def test_loss_zero_residual_unit_variance():
    n = 7
    assert heteroscedastic_loss(np.zeros(n), np.zeros(n), np.ones(n)) == 0.0


def test_loss_doubling_variance_with_zero_residuals():
    n = 10
    base = heteroscedastic_loss(np.zeros(n), np.zeros(n), np.ones(n))
    doubled = heteroscedastic_loss(np.zeros(n), np.zeros(n), np.full(n, 2.0))
    assert doubled - base == pytest.approx(n * 0.5 * np.log(2.0))


def test_loss_per_position_optimum_is_squared_residual():
    # grid search over sigma^2 for a single residual r: minimum at r^2
    for r in (0.3, 1.0, 2.5):
        grid = np.linspace(0.01 * r**2, 10 * r**2, 20000)
        vals = [heteroscedastic_loss([r], [0.0], [v]) for v in grid]
        best = grid[int(np.argmin(vals))]
        assert best == pytest.approx(r**2, rel=0.01)
        at_opt = heteroscedastic_loss([r], [0.0], [r**2])
        assert at_opt == pytest.approx(0.5 + 0.5 * np.log(r**2))


def test_loss_validation():
    with pytest.raises(ValueError):
        heteroscedastic_loss([0.0], [0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        heteroscedastic_loss([0.0], [0.0], [0.0])


def test_equal_mass_bins_remainder_to_earliest():
    edges = equal_mass_edges(23, 10)
    assert np.diff(edges).tolist() == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]
    assert edges[0] == 0 and edges[-1] == 23


def test_r_ece_zero_errors():
    rng = np.random.default_rng(0)
    s = rng.uniform(0.5, 2.0, 1000)
    assert r_ece(np.zeros(1000), s) == pytest.approx(0.32)


def test_r_ece_well_calibrated_small():
    rng = np.random.default_rng(1)
    s = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 10**5))
    e = rng.normal(0.0, s)
    assert r_ece(e, s) < 0.01


def test_r_ece_sigma_overestimated_matches_normal_cdf_oracle():
    rng = np.random.default_rng(2)
    s = np.exp(rng.uniform(np.log(0.2), np.log(5.0), 10**5))
    e = rng.normal(0.0, s)
    z = CalibrationConfig().one_sigma_quantile
    oracle = _phi2(2.0 * z) - 0.68
    assert oracle == pytest.approx(0.273, abs=0.002)
    assert r_ece(e, 2.0 * s) == pytest.approx(oracle, abs=0.01)


def test_r_ece_validation():
    with pytest.raises(ValueError):
        r_ece(np.zeros(5), np.ones(5), CalibrationConfig(num_bins=10))
    with pytest.raises(ValueError):
        CalibrationConfig(num_bins=1)


@pytest.mark.parametrize("num_bins", [2.5, 10.0, True, np.nan, "10"])
def test_calibration_config_rejects_non_integer_bins(num_bins):
    with pytest.raises(ValueError, match="integer"):
        CalibrationConfig(num_bins=num_bins)


def test_calibration_config_sets_only_the_bin_count():
    assert CalibrationConfig(num_bins=np.int64(3)).num_bins == 3
    assert CalibrationConfig().one_sigma_quantile == 0.9945
    with pytest.raises(TypeError):
        CalibrationConfig(one_sigma_quantile=np.nan)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_r_ece_rejects_non_finite_errors(bad):
    e = np.zeros(20)
    e[7] = bad
    with pytest.raises(ValueError, match="errors"):
        r_ece(e, np.ones(20))


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_r_ece_rejects_invalid_sigmas(bad):
    s = np.ones(20)
    s[7] = bad
    with pytest.raises(ValueError, match="sigmas"):
        r_ece(np.zeros(20), s)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_r_ece_permutation_and_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    n = 200
    s = rng.uniform(0.5, 3.0, n)
    e = rng.normal(0.0, s)
    base = r_ece(e, s)
    assert 0.0 <= base <= 0.68
    perm = rng.permutation(n)
    assert r_ece(e[perm], s[perm]) == pytest.approx(base)
    assert r_ece(3.5 * e, 3.5 * s) == pytest.approx(base)


def oracle_r_ece(errors, sigmas, cfg=CalibrationConfig(), return_bins=False):
    """r_ece as it was before it ran in blocks, kept as an oracle: full-size
    hit, sigma^2 and sigma^2-from-the-key arrays, one sort."""
    e = np.asarray(errors, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    n = e.shape[-1]
    hit = np.abs(e) <= cfg.one_sigma_quantile * s
    key = (s**2).view(np.uint64)
    key <<= 1
    key |= hit
    key.sort()
    svar = (key >> 1).view(float)
    edges = equal_mass_edges(n, cfg.num_bins)
    hits_upto = [0]
    below, lo_done = 0, 0
    for edge in edges[1:-1]:
        x = svar[edge]
        lo = int(np.searchsorted(svar, x, side="left"))
        below += np.count_nonzero(key[lo_done:lo] & 1)
        lo_done = lo
        tied = 0
        if edge > lo:
            equal = s**2 == x
            stop = np.flatnonzero(equal)[edge - lo - 1] + 1
            tied = np.count_nonzero(hit[:stop] & equal[:stop])
        hits_upto.append(below + tied)
    hits_upto.append(np.count_nonzero(hit))
    total = 0.0
    rows = []
    for m in range(cfg.num_bins):
        size = int(edges[m + 1] - edges[m])
        cov = float((hits_upto[m + 1] - hits_upto[m]) / size)
        total += size / n * abs(cov - 0.68)
        rows.append((size, float(np.mean(svar[edges[m]:edges[m + 1]])), cov))
    if return_bins:
        return total, rows
    return total


B = BLOCK_VALUES
# lengths at the block edges: one short of a block, one block, one past it,
# and two blocks plus a short last one
BLOCK_EDGE_SIZES = [B - 1, B, B + 1, 2 * B + 3]
# where a run of equal sigma lies: nowhere, everywhere (three values in
# random order), across a bin edge inside block 0, across the first block
# boundary inside a bin, and across both
SIGMA_SHAPES = ["distinct", "levels", "bin_edge", "block_edge", "both"]


def _pairs(seed: int, n: int, num_bins: int, shape: str):
    """(errors, sigmas) of n pairs whose sigmas take the shape."""
    rng = np.random.default_rng(seed)
    s = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    if shape == "levels":
        s = rng.integers(1, 4, n) * 0.5
    elif shape != "distinct":
        edges = equal_mass_edges(n, num_bins)
        size = n // num_bins
        run = min(1000, size // 4)
        # a run of `run` pairs by index, all given the sigma of rank r: at a
        # bin edge the run's ranks cross it, mid-bin they stay in the bin
        j = int(rng.integers(1, num_bins))
        r = edges[j] if shape in ("bin_edge", "both") else edges[j] - size // 2
        start = B - run // 2 if shape in ("block_edge", "both") else 100
        s[start:start + run] = np.sort(s)[r]
    e = rng.normal(0.0, s)
    e[rng.random(n) < 0.1] = 0.0
    # errors on the coverage bound itself, which count as hits
    on = rng.random(n) < 0.05
    e[on] = CalibrationConfig.one_sigma_quantile * s[on]
    return e, s


def _check_against_oracle(seed, n, num_bins, shape):
    e, s = _pairs(seed, n, num_bins, shape)
    cfg = CalibrationConfig(num_bins=num_bins)
    got = r_ece(e, s, cfg, return_bins=True)
    assert repr(got) == repr(oracle_r_ece(e, s, cfg, return_bins=True))
    assert repr(r_ece(e, s, cfg)) == repr(got[0])


@pytest.mark.parametrize("num_bins", [7, 100])
@pytest.mark.parametrize("shape", SIGMA_SHAPES)
@pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
def test_blocked_r_ece_is_the_oracle_at_block_edges(n, shape, num_bins):
    # at 100 bins each of the "levels" runs crosses some 33 bin edges
    _check_against_oracle(n, n, num_bins, shape)


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(BLOCK_EDGE_SIZES + [10, 37, 1000]),
       st.sampled_from([2, 3, 7, 10]), st.sampled_from(SIGMA_SHAPES))
@settings(max_examples=40, deadline=None)
def test_blocked_r_ece_is_the_oracle_bit_for_bit(seed, n, num_bins, shape):
    _check_against_oracle(seed, n, num_bins, shape)


def test_r_ece_holds_no_full_size_temporary():
    # the sort key is the one array of n values: 4 MB here, against 8.9 MB
    # when hit, |e|, z * sigma and sigma^2 were full size
    e, s = _calib_scenario("sigma_x2", 500_000, 1)
    tracemalloc.start()
    try:
        r_ece(e, s, return_bins=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * e.size * np.dtype(np.uint64).itemsize


@pytest.mark.parametrize("shape", [(2, 20), ()])
def test_r_ece_rejects_a_non_series(shape):
    with pytest.raises(ValueError, match="1-D"):
        r_ece(np.zeros(shape), np.ones(shape))
