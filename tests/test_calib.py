import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab.calib import (CalibrationConfig, equal_mass_edges,
                          heteroscedastic_loss, r_ece)


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
