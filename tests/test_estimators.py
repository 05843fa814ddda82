import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdrlab import estimators
from bdrlab.estimators import (FIT_CHUNK_VALUES, FIT_MAX_INCREMENT, FIT_STEP,
                               BDRLossConfig, FitConfig, _curvature_bound,
                               bdr_loss_smoothed, bdr_loss_smoothed_grad,
                               extract_boundaries, fit_distance,
                               fit_distances, moving_average, nms_1d,
                               quadratic_peak_offset)
from bdrlab.stats import SWEEP_FIT
from bdrlab.synth import (NoiseSpec, TimeGrid, make_distance_field,
                          make_kernel_features, sample_noise_matrix)


# --- loss -------------------------------------------------------------------

def test_loss_perfect_prediction_is_zero():
    d = np.arange(-5.0, 5.0)
    assert bdr_loss_smoothed(d, d) == 0.0


def test_loss_constant_offset():
    # outside the Huber band every residual of 1 costs 1 - delta/2
    d = np.arange(-5.0, 5.0)
    delta = BDRLossConfig().huber_delta
    assert bdr_loss_smoothed(d, d + 1.0) == pytest.approx(1.0 - delta / 2)


def test_loss_single_jump_penalty():
    T = 20
    d = np.arange(T, dtype=float)  # slope 1 at stride 1
    dh = d.copy()
    dh[10:] += 2.0  # one adjacent pair jumps by 3
    cfg = BDRLossConfig(alpha=0.1)
    # half the positions are off by 2, outside the Huber band
    expected = ((2.0 - cfg.huber_delta / 2) / 2
                + cfg.alpha * (3 - 1) ** 2 / (T - 1))
    assert bdr_loss_smoothed(d, dh, cfg=cfg) == pytest.approx(expected)


def test_loss_length_mismatch():
    with pytest.raises(ValueError):
        bdr_loss_smoothed(np.zeros(5), np.zeros(6))


def test_loss_stride_scaled_reference():
    # slope-2 series at stride 2 is at the unit-slope reference: no penalty
    d = 2.0 * np.arange(10.0)
    assert bdr_loss_smoothed(d, d, stride=2.0) == 0.0
    assert bdr_loss_smoothed(d, d, stride=1.0) > 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    cfg = BDRLossConfig(alpha=0.3, huber_delta=0.05)
    d = rng.normal(0, 2, 30)
    dh = rng.normal(0, 2, 30)
    g = bdr_loss_smoothed_grad(d, dh, cfg=cfg)
    eps = 1e-5
    checked = 0
    for i in rng.choice(30, size=100):
        e = np.zeros(30)
        e[i] = eps
        num = (bdr_loss_smoothed(d, dh + e, cfg=cfg)
               - bdr_loss_smoothed(d, dh - e, cfg=cfg)) / (2 * eps)
        if abs(num) > 1e-8:
            assert abs(g[i] - num) / abs(num) < 1e-4
            checked += 1
    assert checked > 50


def test_smoothed_loss_broadcasts_one_prediction_over_targets():
    rng = np.random.default_rng(1)
    cfg = BDRLossConfig(alpha=0.7)
    targets = rng.normal(0, 3, (5, 40))
    dh = rng.normal(0, 3, 40)
    loss = bdr_loss_smoothed(targets, dh, 2.0, cfg)
    grad = bdr_loss_smoothed_grad(targets, dh, 2.0, cfg)
    assert loss.shape == (5,) and grad.shape == (5, 40)
    for k, d in enumerate(targets):
        assert loss[k] == bdr_loss_smoothed(d, dh, 2.0, cfg)
        assert np.array_equal(grad[k], bdr_loss_smoothed_grad(d, dh, 2.0, cfg))


# --- fitter -----------------------------------------------------------------

def test_fit_noiseless_is_fixed_point():
    grid = TimeGrid(stride=1.0, num_positions=50)
    d = make_distance_field(grid, [25.0])
    fitted = fit_distance(d, grid)
    assert bdr_loss_smoothed(d, fitted) < 1e-6


def test_fit_alpha_zero_tracks_observations():
    grid = TimeGrid(stride=1.0, num_positions=30)
    obs = np.linspace(-3, 3, 30) + 0.3 * np.sin(np.arange(30))
    cfg = FitConfig(loss=BDRLossConfig(alpha=0.0, huber_delta=0.01))
    fitted = fit_distance(obs, grid, cfg)
    assert np.max(np.abs(fitted - obs)) <= 0.02


def test_fit_improves_over_raw_observations():
    grid = TimeGrid(stride=1.0, num_positions=100)
    clean = make_distance_field(grid, [50.0])
    cfg = FitConfig(loss=BDRLossConfig(alpha=4.0))
    wins = 0
    for seed in range(100):
        obs = clean + sample_noise_matrix(NoiseSpec(scale=0.5), seed, 1, 100)[0]
        fitted = fit_distance(obs, grid, cfg)
        if bdr_loss_smoothed(clean, fitted) < bdr_loss_smoothed(clean, obs):
            wins += 1
    assert wins >= 95


def test_fit_loss_monotone_batch_matches_single(monkeypatch):
    # stride 2 makes obs / 2 and fit / 2 exact, so the loss below is the
    # fitter's own grid-unit loss; chunks of 128 rows of 40 make the 300
    # rows cross two chunk edges and end on a 44-row chunk
    monkeypatch.setattr(estimators, "FIT_CHUNK_VALUES", 128 * 40)
    grid = TimeGrid(stride=2.0, num_positions=40)
    rng = np.random.default_rng(5)
    obs = rng.normal(0, 4, (300, 40)).cumsum(axis=1)
    fits = []
    for k in (0, 10, 50, 300):
        monkeypatch.setattr(estimators, "FIT_ITERATIONS", k)
        fits.append(fit_distance(obs, grid))
    assert np.array_equal(fits[0], obs)
    losses = np.array([bdr_loss_smoothed(obs / 2.0, f / 2.0) for f in fits])
    assert np.all(np.diff(losses, axis=0) <= 0.0)
    assert np.all(losses[-1] < losses[0])
    batch = fits[-1]  # the default 300 steps
    for k in (0, 1, 2, 127, 128, 255, 256, 299):
        assert np.array_equal(batch[k], fit_distance(obs[k], grid))
    assert np.array_equal(fit_distance(obs[:3], grid), batch[:3])


@pytest.mark.parametrize("T", [2, 3, 40, 200])
@pytest.mark.parametrize("alpha", [0.0, 0.1, 4.0, 50.0])
@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_curvature_bound_holds_on_random_row_pairs(T, alpha, delta):
    # ||grad f(d) - grad f(e)|| <= L ||d - e|| per row. Pairs near the
    # target reach the Huber band's curvature; wide, rough pairs the hinge's.
    rng = np.random.default_rng([T, int(10 * alpha), int(100 * delta)])
    cfg = BDRLossConfig(alpha=alpha, huber_delta=delta)
    o = rng.normal(0.0, 3.0, (200, T))
    scale = np.repeat([delta, 1.0, 5.0, 20.0], 50)[:, None]
    d = o + scale * rng.normal(0.0, 1.0, (200, T))
    e = d + scale * rng.normal(0.0, 1.0, (200, T))
    # row 0 is the worst case: a zigzag pair inside the Huber band whose
    # increments all pass the hinge, apart along the top eigenvector of D^T D
    zigzag = (-1.0) ** np.arange(T)
    o[0], d[0], e[0] = 3.0 * zigzag, 3.0 * zigzag, (3.0 + delta / 2) * zigzag
    dg = (bdr_loss_smoothed_grad(o, d, 1.0, cfg)
          - bdr_loss_smoothed_grad(o, e, 1.0, cfg))
    ratio = np.linalg.norm(dg, axis=1) / np.linalg.norm(d - e, axis=1)
    bound = _curvature_bound(T, alpha, delta)
    assert np.all(ratio <= bound * (1 + 1e-12))  # slack for rounding
    if T >= 40:  # the zigzag reaches the bound up to its two end columns
        assert ratio[0] >= 0.95 * bound


def _noisy_block(T, stride, rho, rows, seed):
    """`rows` noisy distance rows of T positions on a grid of `stride`,
    boundary mid-row, and the grid."""
    grid = TimeGrid(stride=stride, num_positions=T)
    noise = sample_noise_matrix(NoiseSpec(rho=rho), seed, rows, T)
    return grid.times() - T / 2 * stride + stride * noise, grid


def _losses_before_each_step(monkeypatch, blocks, cfg):
    """Fit `blocks` of (observations, grid) in one fit_distances pass and
    return, per block, the (steps, rows) grid-unit losses of the fit
    obs + e before each step, e being the residual the kernel steps from,
    in float64. The blocks must fit in one chunk."""
    build, losses = estimators._smoothed_grad_kernel, []

    def spy(*args):
        residual, views, step = build(*args)

        def spied_step():
            losses.append([bdr_loss_smoothed(obs, obs + view, 1.0, cfg.loss)
                           for (obs, _), view in zip(blocks, views)])
            return step()

        return residual, views, spied_step

    monkeypatch.setattr(estimators, "_smoothed_grad_kernel", spy)
    estimators.fit_distances(*zip(*blocks), cfg)
    return [np.array(block) for block in zip(*losses)]


def _assert_loss_does_not_rise(losses, T):
    # Each loss sums 2T - 1 non-negative rounded terms, so it is rounded by
    # up to about 2T eps of itself, and the difference of two by 4T eps. The
    # steps run in float32, whose roundings perturb the fit by about eps32
    # of its values; once a row has converged, where the loss is flat to
    # first order, that moves each term by about eps32^2 of itself. A rise
    # within both is rounding.
    eps, eps32 = np.finfo(float).eps, float(np.finfo(np.float32).eps)
    slack = 4 * T * (eps + eps32 ** 2)
    assert np.all(np.diff(losses, axis=0) <= slack * losses[:-1])
    assert np.all(losses[-1] < losses[0])


@pytest.mark.parametrize("T", [10, 50, 100, 132])
@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_fit_loss_does_not_rise_where_the_bound_halves_the_step(monkeypatch,
                                                               T, rho):
    cfg = FitConfig(loss=BDRLossConfig(alpha=4.0))
    assert FIT_STEP * _curvature_bound(T, 4.0, 0.01) >= 2.0  # step halved
    grid = TimeGrid(stride=1.0, num_positions=T)
    obs = (grid.times() - T / 2
           + sample_noise_matrix(NoiseSpec(rho=rho), T, 100, T))
    [losses] = _losses_before_each_step(monkeypatch, [(obs, grid)], cfg)
    assert losses.shape == (300, 100)  # the loss before each step
    _assert_loss_does_not_rise(losses, T)
    # the same rows in one chunk with rows of 37 and of 2T positions, each
    # length with its own step size
    blocks = [(obs, grid)] + [_noisy_block(n, 1.0, rho, 40, n)
                              for n in (37, 2 * T)]
    mixed = _losses_before_each_step(monkeypatch, blocks, cfg)
    assert np.array_equal(mixed[0], losses)
    for block, (o, _) in zip(mixed, blocks):
        assert block.shape == (300, len(o))
        _assert_loss_does_not_rise(block, o.shape[-1])


def _chunk_rows(monkeypatch, *shapes):
    """The row counts of each chunk a one-step fit of zero blocks of
    `shapes` builds its kernel for: one list per chunk, one count per run
    of one block's rows."""
    build, built = estimators._smoothed_grad_kernel, []

    def spy(target_incs, *args):
        built.append([len(inc) for inc in target_incs])
        return build(target_incs, *args)

    monkeypatch.setattr(estimators, "_smoothed_grad_kernel", spy)
    monkeypatch.setattr(estimators, "FIT_ITERATIONS", 1)
    estimators.fit_distances(
        [np.zeros(shape) for shape in shapes],
        [TimeGrid(stride=1.0, num_positions=2)] * len(shapes))
    return built


@pytest.mark.parametrize("rows,chunks", [(1, [1]), (128, [128]),
                                         (129, [128, 1]),
                                         (300, [128, 128, 44])])
def test_fit_builds_the_kernel_once_per_chunk(monkeypatch, rows, chunks):
    # a chunk holds FIT_CHUNK_VALUES // T rows, 128 rows of this T
    T = FIT_CHUNK_VALUES // 128
    assert _chunk_rows(monkeypatch, (rows, T)) == [[n] for n in chunks]
    # a block of rows half as long after them fills the last chunk's room,
    # two rows to each row left out of it, then chunks of its own
    room = 2 * (128 - chunks[-1])
    last = [chunks[-1], room] if room else [chunks[-1]]
    assert (_chunk_rows(monkeypatch, (rows, T), (room + 256 + 3, T // 2))
            == [[n] for n in chunks[:-1]] + [last, [256], [3]])


@pytest.mark.parametrize("T,rows,chunks", [
    (20, 2 * (FIT_CHUNK_VALUES // 20) + 1, [FIT_CHUNK_VALUES // 20] * 2 + [1]),
    (FIT_CHUNK_VALUES + 1, 2, [1, 1])])
def test_fit_chunks_hold_a_fixed_number_of_values(monkeypatch, T, rows,
                                                  chunks):
    # short rows fill a chunk with many, a row longer than a chunk is a
    # chunk of its own
    assert _chunk_rows(monkeypatch, (rows, T)) == [[n] for n in chunks]


FIT_LENGTHS = (2, 3, 10, 37, 50, 132, 200, 800, 3000)
FIT_STRIDES = (1.0, 0.7, 8.0)


@pytest.mark.parametrize("rho", [0.0, 0.6])
def test_fit_distances_equal_each_block_fitted_alone(rho):
    # every length with 1, 7 and 25 rows, the strides taking turns; the
    # blocks fill several chunks, mixing lengths in each, and the 25 rows
    # of 3000 span two
    blocks = [_noisy_block(T, FIT_STRIDES[(i + j) % 3], rho, rows, 10 * i + j)
              for i, T in enumerate(FIT_LENGTHS)
              for j, rows in enumerate((1, 7, 25))]
    fits = fit_distances(*zip(*blocks), SWEEP_FIT)
    assert len(fits) == len(blocks)
    for fit, (obs, grid) in zip(fits, blocks):
        assert fit.tobytes() == fit_distance(obs, grid, SWEEP_FIT).tobytes()


def test_fit_distances_keep_each_blocks_shape():
    one, grid1 = _noisy_block(50, 1.0, 0.0, 1, 1)
    cube, grid3 = _noisy_block(40, 0.7, 0.6, 6, 2)
    cube = cube.reshape(2, 3, 40)
    rows, grid2 = _noisy_block(37, 8.0, 0.0, 4, 3)
    fits = fit_distances([one[0], cube, rows], [grid1, grid3, grid2])
    assert [f.shape for f in fits] == [(50,), (2, 3, 40), (4, 37)]
    for fit, obs, grid in zip(fits, [one[0], cube, rows],
                              [grid1, grid3, grid2]):
        assert np.array_equal(fit, fit_distance(obs, grid))


def _kernel_runs(monkeypatch):
    """The (rows, T) of each run of every kernel a fit builds, one list
    per chunk."""
    build, built = estimators._smoothed_grad_kernel, []

    def spy(target_incs, *args):
        built.append([(len(inc), inc.shape[-1] + 1) for inc in target_incs])
        return build(target_incs, *args)

    monkeypatch.setattr(estimators, "_smoothed_grad_kernel", spy)
    return built


@pytest.mark.parametrize("chunk_values,shapes,chunks", [
    # one chunk splits a length's rows
    (100, [(7, 40)], [[(2, 40)], [(2, 40)], [(2, 40)], [(1, 40)]]),
    # one chunk holds rows of three lengths
    (400, [(3, 10), (2, 37), (4, 50)], [[(3, 10), (2, 37), (4, 50)]]),
    # one row longer than a chunk is a chunk of its own, between rows that
    # share one
    (30, [(2, 10), (1, 37), (3, 10)],
     [[(2, 10)], [(1, 37)], [(3, 10)]]),
    # two blocks of one length with another between them: three runs, the
    # kernel lays the two of one length side by side
    (1000, [(2, 10), (3, 37), (4, 10)], [[(2, 10), (3, 37), (4, 10)]])])
def test_fit_distances_chunks_pack_rows_in_block_order(monkeypatch,
                                                        chunk_values, shapes,
                                                        chunks):
    blocks = [_noisy_block(T, FIT_STRIDES[k % 3], 0.6, rows, k)
              for k, (rows, T) in enumerate(shapes)]
    alone = [fit_distance(obs, grid) for obs, grid in blocks]
    monkeypatch.setattr(estimators, "FIT_CHUNK_VALUES", chunk_values)
    built = _kernel_runs(monkeypatch)
    fits = fit_distances(*zip(*blocks))
    assert built == chunks
    for fit, want in zip(fits, alone):
        assert fit.tobytes() == want.tobytes()


def test_fit_distances_refuse_a_block_beyond_the_float32_bound(monkeypatch):
    grid = TimeGrid(stride=1.0, num_positions=40)
    jump = np.nextafter(FIT_MAX_INCREMENT, np.inf)
    good, _ = _noisy_block(40, 1.0, 0.0, 3, 4)
    # the refused block shares a chunk with a good one, or comes after a
    # chunk that has already stepped
    for chunk_values in (FIT_CHUNK_VALUES, 120):
        monkeypatch.setattr(estimators, "FIT_CHUNK_VALUES", chunk_values)
        with pytest.raises(ValueError, match=re.escape(
                f"observations must change by at most "
                f"{FIT_MAX_INCREMENT:.3g} strides per grid step")):
            fit_distances([good, _jump_rows(40, jump)], [grid, grid])


def test_fit_distances_take_one_grid_per_block():
    obs, grid = _noisy_block(10, 1.0, 0.0, 2, 5)
    assert fit_distances([], []) == []
    for grids in ([], [grid, grid]):
        with pytest.raises(ValueError, match="grids"):
            fit_distances([obs], grids)


@pytest.mark.parametrize("sizes,groups", [
    ([], []),
    # the benchmark's long_ar1 blocks: 25 rows of T = 50 to 800 share one
    ([25 * T for T in (50, 100, 200, 400, 800)], [[0, 1, 2, 3, 4]]),
    # a block past what is left of a chunk starts a group, and one larger
    # than a chunk stands alone
    ([25 * 37, 25 * 61, 25 * 3000, 10], [[0, 1], [2], [3]]),
    # blocks that fill one chunk exactly share it, one more value does not
    ([FIT_CHUNK_VALUES - 10, 10, 1], [[0, 1], [2]])])
def test_fit_groups_share_a_pass_up_to_one_chunk(sizes, groups):
    assert estimators.fit_groups(sizes) == groups


def test_fit_memory_is_the_output_plus_one_chunk():
    # each chunk is fitted in one pass, so beside its output the fit holds
    # one chunk's increments and kernel arrays, not batch-sized ones
    grid = TimeGrid(stride=1.0, num_positions=200)
    obs = (grid.times() - 100.0
           + sample_noise_matrix(NoiseSpec(), 7, 2000, 200))
    tracemalloc.start()
    try:
        fit = fit_distance(obs, grid, SWEEP_FIT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fit.nbytes + 3 * 2**20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grad_kernel_steps_in_the_residuals_dtype(dtype):
    residual, (view,), step = estimators._smoothed_grad_kernel(
        [np.full((3, 9), 1.5)], dtype, 1.0, 4.0, 0.01, [0.5])
    assert view.shape == (3, 10) and view.dtype == dtype
    assert residual.dtype == dtype and view.base is residual
    assert not residual.any()
    view[...] = np.linspace(-1.0, 1.0, 30).reshape(3, 10)
    assert step().dtype == dtype
    # runs of two lengths step in one dtype too
    residual, views, step = estimators._smoothed_grad_kernel(
        [np.full((3, 9), 1.5), np.full((2, 4), -0.5)], dtype, 1.0, 4.0, 0.01,
        [0.5, 1.0])
    assert [v.shape for v in views] == [(3, 10), (2, 5)]
    assert residual.dtype == dtype and residual.size == 40
    assert step().dtype == dtype


@pytest.mark.parametrize("loss", [bdr_loss_smoothed, bdr_loss_smoothed_grad])
@pytest.mark.parametrize("shape", [(), (0,), (1,), (3, 1), (2, 0)])
def test_losses_reject_fewer_than_two_positions(loss, shape):
    with pytest.raises(ValueError, match="at least 2 positions"):
        loss(np.zeros(shape), np.zeros(shape))


@pytest.mark.parametrize("kwargs", [{"alpha": -0.1}, {"alpha": np.nan},
                                    {"alpha": np.inf}, {"huber_delta": 0.0},
                                    {"huber_delta": -0.01},
                                    {"huber_delta": np.nan},
                                    {"huber_delta": np.inf}])
def test_loss_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        BDRLossConfig(**kwargs)


def test_fit_configs_accept_edge_values():
    assert BDRLossConfig(alpha=0.0).alpha == 0.0
    assert FitConfig(loss=BDRLossConfig(alpha=0.0)).loss.alpha == 0.0


def test_fit_rejects_non_finite():
    grid = TimeGrid(stride=1.0, num_positions=10)
    obs = np.zeros(10)
    obs[3] = np.nan
    with pytest.raises(ValueError):
        fit_distance(obs, grid)


def _jump_rows(T, jump):
    """A zigzag whose every increment is +-jump, and a step of one jump."""
    zigzag = jump * (np.arange(T) % 2)
    step = jump * (np.arange(T) >= T // 2)
    return np.stack([zigzag, step])


@pytest.mark.parametrize("alpha", [0.0, 0.1, 4.0, 50.0])
@pytest.mark.parametrize("T", [2, 3, 40, 200])
def test_fit_takes_increments_up_to_the_float32_bound(alpha, T):
    grid = TimeGrid(stride=1.0, num_positions=T)
    obs = _jump_rows(T, FIT_MAX_INCREMENT)
    cfg = FitConfig(loss=BDRLossConfig(alpha=alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow would warn
        fit = fit_distance(obs, grid, cfg)
    assert np.all(np.isfinite(fit))


@pytest.mark.parametrize("stride", [1.0, 0.5])
def test_fit_rejects_increments_above_the_float32_bound(monkeypatch, stride):
    grid = TimeGrid(stride=stride, num_positions=40)
    jump = np.nextafter(FIT_MAX_INCREMENT, np.inf) * stride
    obs = np.concatenate([np.zeros((3, 40)), _jump_rows(40, jump)])
    for rows in (obs[3:4], obs[4:], obs):
        with pytest.raises(ValueError, match="strides per grid step"):
            fit_distance(rows, grid)
    # one row per chunk: the first over-range row comes after three chunks
    # that have already stepped
    monkeypatch.setattr(estimators, "FIT_CHUNK_VALUES", 40)
    with pytest.raises(ValueError, match="strides per grid step"):
        fit_distance(obs, grid)


@pytest.mark.parametrize("obs", [np.full(10, 1e300),
                                 np.tile([-1.5e292, 1.5e292], 5)])
def test_fit_rejects_observations_that_overflow_in_strides(obs):
    # in strides the observations, or else their increments, overflow
    grid = TimeGrid(stride=1e-16, num_positions=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="strides per grid step"):
            fit_distance(obs, grid)


@pytest.mark.parametrize("shape", [(), (1,), (3, 1), (2, 0)])
def test_fit_rejects_fewer_than_two_positions(shape):
    grid = TimeGrid(stride=1.0, num_positions=10)
    with pytest.raises(ValueError, match="at least 2 positions"):
        fit_distance(np.zeros(shape), grid)


def test_fit_offset_equivariance():
    grid = TimeGrid(stride=1.0, num_positions=60)
    clean = make_distance_field(grid, [30.0])
    obs = clean + sample_noise_matrix(NoiseSpec(scale=0.3), 9, 1, 60)[0]
    f0 = fit_distance(obs, grid)
    f1 = fit_distance(obs + 2.0, grid)
    assert np.max(np.abs((f1 - f0) - 2.0)) < 0.05


# --- extraction -------------------------------------------------------------

def test_extraction_interpolation_example():
    grid = TimeGrid(stride=1.0, num_positions=4)
    out = extract_boundaries(np.array([-2.0, -1.0, 0.5, 1.5]), grid)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(1 + 1 / 1.5, abs=1e-4)


def test_extraction_exact_on_grid():
    grid = TimeGrid(stride=1.0, num_positions=100)
    d = make_distance_field(grid, [25.0])
    out = extract_boundaries(d, grid)
    assert np.allclose(out, [25.0], atol=1e-12)


def test_extraction_threshold_rejects_weak_crossing():
    grid = TimeGrid(stride=1.0, num_positions=4)
    out = extract_boundaries(np.array([-0.3, -0.2, 0.2, 0.3]), grid)
    assert out.size == 0


def test_extraction_multi_boundary_exactness():
    grid = TimeGrid(stride=1.0, num_positions=200)
    bounds = [20.0, 61.5, 103.0, 144.25, 185.0]
    d = make_distance_field(grid, bounds)
    out = extract_boundaries(d, grid)
    assert out.shape == (5,)
    assert np.max(np.abs(out - bounds)) < 1e-9


def test_extraction_stride_scaling():
    grid = TimeGrid(stride=4.0, num_positions=50)
    d = make_distance_field(grid, [100.0])
    out = extract_boundaries(d, grid)
    assert np.allclose(out, [100.0], atol=1e-9)


def _per_row(batch, grid):
    """(row, position) of extract_boundaries called on each row alone."""
    found = [extract_boundaries(d, grid) for d in batch]
    return (np.concatenate([np.full(len(p), k) for k, p in enumerate(found)]),
            np.concatenate(found))


def _ascending_steps(T, at):
    """A row of -1 that jumps to +1 after each index of `at` and falls back
    to -1 two samples later: an ascending crossing of strength 2 at k + 0.5
    for each k, and a descending one after it."""
    d = -np.ones(T)
    for k in at:
        d[k + 1:k + 3] = 1.0
    return d


def test_batched_extraction_equals_per_row_on_crafted_rows():
    grid = TimeGrid(stride=1.0, num_positions=30)
    t = grid.times()
    rows = np.array([
        t - 40.0,                       # no crossing
        t - 12.3,                       # one crossing
        12.3 - t,                       # one descending jump, no boundary
        t - 10.0,                       # an exact 0.0: two candidates at 10
        _ascending_steps(30, [10, 13]),  # equal strength, 3 apart: earlier
        _ascending_steps(30, [5, 20]),   # equal strength, 15 apart: both
    ])
    row, pos = extract_boundaries(rows, grid)
    want_row, want_pos = _per_row(rows, grid)
    assert np.array_equal(row, want_row) and np.array_equal(pos, want_pos)
    assert row.tolist() == [1, 3, 4, 5, 5]
    assert pos[0] == pytest.approx(12.3, abs=1e-12)
    assert pos[1:].tolist() == [10.0, 10.5, 5.5, 20.5]
    # rows alone give the same positions, and a batch of one the same pair
    assert np.array_equal(extract_boundaries(rows[3], grid), [10.0])
    one_row, one_pos = extract_boundaries(rows[4:5], grid)
    assert one_row.tolist() == [0] and one_pos.tolist() == [10.5]


def test_batched_extraction_of_rows_without_crossings():
    grid = TimeGrid(stride=2.0, num_positions=5)
    row, pos = extract_boundaries(-np.ones((3, 5)), grid)
    assert row.size == 0 and pos.size == 0
    assert extract_boundaries(-np.ones(5), grid).shape == (0,)
    with pytest.raises(ValueError, match="2-D batch"):
        extract_boundaries(-np.ones((2, 2, 5)), grid)


def test_batched_extraction_equals_per_row_on_noisy_fits(monkeypatch):
    # heavy-tailed noise: many fitted rows hold several candidates, some
    # none, at a stride that scales the threshold and the positions
    grid = TimeGrid(stride=2.0, num_positions=120)
    obs = (make_distance_field(grid, [119.0])
           + 2.0 * sample_noise_matrix(NoiseSpec(family="student_t", nu=1.2,
                                                 scale=1.0), 11, 2000, 120))
    dhat = fit_distance(obs, grid, FitConfig(BDRLossConfig(alpha=4.0)))
    nms_rows = []
    nms = estimators.nms_1d
    monkeypatch.setattr(estimators, "nms_1d",
                        lambda pos, *a: nms_rows.append(len(pos)) or nms(pos, *a))
    row, pos = extract_boundaries(dhat, grid)
    assert len(nms_rows) > 0 and min(nms_rows) >= 2
    want_row, want_pos = _per_row(dhat, grid)
    assert np.array_equal(row, want_row) and np.array_equal(pos, want_pos)
    assert 0 < len(set(row.tolist())) < 2000
    assert np.bincount(row).max() >= 2


def test_nms_suppression_and_ties():
    assert nms_1d([10, 12], [2.0, 1.0], 5) == [10.0]
    assert nms_1d([10, 20], [2.0, 1.0], 5) == [10.0, 20.0]
    assert nms_1d([12, 10], [2.0, 2.0], 5) == [10.0]  # tie -> earlier
    # arrays work as well as lists; accepted positions come back ascending
    kept = nms_1d(np.array([10.0, 16.0]), np.array([1.0, 2.0]), 5)
    assert kept == [10.0, 16.0]


def test_nms_window_validation():
    with pytest.raises(ValueError):
        nms_1d([0], [1.0], 0)
    # NaN fails every comparison, so it must not slip past the range check
    with pytest.raises(ValueError, match="window must be >= 1"):
        nms_1d([1, 10, 20], [1, 2, 3], float("nan"))


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.1, 5)),
                min_size=1, max_size=15))
@settings(max_examples=100, deadline=None)
def test_nms_spacing_property(cands):
    kept = nms_1d([p for p, _ in cands], [s for _, s in cands], 5)
    for a, b in zip(kept, kept[1:]):
        assert b - a > 5


# --- classification-peak helpers --------------------------------------------

def test_moving_average_simple():
    out = moving_average(np.array([0.0, 3.0, 0.0, 0.0]), 3)
    assert np.allclose(out, [1.0, 1.0, 1.0, 0.0])


def test_quadratic_peak_offset_clip_and_flat():
    assert quadratic_peak_offset(0.0, 0.0, 0.0) == 0.0
    assert abs(quadratic_peak_offset(0.9999, 1.0, 0.9)) <= 0.5


@pytest.mark.parametrize("window", range(1, 15))
def test_moving_average_batch_matches_per_row_convolve(window):
    rows = np.clip(np.random.default_rng(window).laplace(0.5, 0.5, (70, 40)),
                   0.0, 1.0)
    want = np.stack([np.convolve(r, np.ones(window) / window, mode="same")
                     for r in rows])
    got = moving_average(rows, window)
    assert got.shape == rows.shape
    assert np.max(np.abs(got - want)) <= 1e-15
    # one row alone gives the same values as the same row of the batch
    assert np.array_equal(moving_average(rows[3], window), got[3])


def test_quadratic_peak_offset_elementwise_over_arrays():
    rng = np.random.default_rng(12)
    ym, y0, yp = rng.uniform(0.0, 1.0, (3, 500))
    ym[:50] = y0[:50] = yp[:50] = 0.7  # flat: offset 0
    got = quadratic_peak_offset(ym, y0, yp)
    want = [quadratic_peak_offset(a, b, c) for a, b, c in zip(ym, y0, yp)]
    assert got.shape == (500,)
    assert np.array_equal(got, want)
    assert np.all(got[:50] == 0.0)
