import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracespaces import (
    DyadicSystem,
    GridFunction,
    GridSpec,
    apply_block,
    build_system,
    partition_check,
    random_band_limited,
    smooth_step,
)


def test_smooth_step_endpoints_and_midpoint():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    assert smooth_step(0.5) == 0.5  # symmetric profile, exact half


def test_smooth_step_monotone():
    x = np.linspace(-0.5, 1.5, 901)
    y = smooth_step(x)
    assert np.all(np.diff(y) >= 0.0)


def test_generator_plateau_and_support(system):
    assert system.generator(0.0) == 1.0
    assert system.generator(1.0) == 1.0
    assert system.generator(-1.0) == 1.0
    assert system.generator(1.25) == 0.5
    assert system.generator(1.5) == 0.0
    assert system.generator(5.0) == 0.0


def test_partition_is_exactly_one(system):
    xi = np.linspace(-256.0, 256.0, 4097)
    assert partition_check(system, xi) == 0.0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(xi=st.floats(-256.0, 256.0))
def test_partition_pointwise(system, xi):
    assert partition_check(system, np.array([xi])) == 0.0


def test_block_supports_disjoint_beyond_neighbors(system):
    xi = np.linspace(-300.0, 300.0, 6001)
    symbols = system.symbols(xi)
    for k in range(len(symbols)):
        for l in range(k + 2, len(symbols)):
            assert np.max(np.abs(symbols[k] * symbols[l])) == 0.0


def test_block_zero_covers_low_frequencies(system):
    xi = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_array_equal(system.symbols(xi)[0], np.ones_like(xi))


@pytest.mark.parametrize("max_block", [4, 8, 9])
def test_symbols_are_generator_differences(grid, max_block):
    """Row k of the table is phi_hat(xi/2^k) - phi_hat(xi/2^{k-1}), bit for
    bit, at grid frequencies and at random ones."""
    sys = build_system(max_block)
    top = 2.0 ** (max_block + 1)
    for xi in (grid.frequencies(), np.random.default_rng(7).uniform(-top, top, 3000)):
        table = sys.symbols(xi)
        assert table.shape == (max_block + 1, xi.size)
        want = [sys.generator(xi)] + [
            sys.generator(xi / 2.0 ** k) - sys.generator(xi / 2.0 ** (k - 1))
            for k in range(1, max_block + 1)]
        np.testing.assert_array_equal(table.view(np.uint64), np.stack(want).view(np.uint64))


def test_apply_block_rejects_index_outside_system(grid, system):
    f = random_band_limited(grid, (-8.0, 8.0), seed=1)
    for k in (-1, system.max_block + 1):
        with pytest.raises(ValueError):
            apply_block(system, k, f)


def test_reconstruction_exact_on_single_precision_coefficients(grid, system):
    f = random_band_limited(grid, (-250.0, 250.0), seed=99)
    f = GridFunction(grid, f.coeffs.astype(np.complex64).astype(complex))
    total = np.zeros_like(f.coeffs)
    for k in range(system.max_block + 1):
        total = total + apply_block(system, k, f).coeffs
    np.testing.assert_array_equal(total, f.coeffs)


def test_reconstruction_close_on_double_precision(grid, system):
    f = random_band_limited(grid, (-250.0, 250.0), seed=100)
    total = np.zeros_like(f.coeffs)
    for k in range(system.max_block + 1):
        total = total + apply_block(system, k, f).coeffs
    np.testing.assert_allclose(total, f.coeffs, atol=1e-12)


def test_covers(system):
    assert system.covers(200.0)
    assert system.covers(256.0)
    assert not system.covers(300.0)


@pytest.mark.parametrize("n_samples, half_width, depth",
                         [(1024, 1.0, 8), (64, 1.0, 4), (2048, 1.0, 9), (1024, 2.0, 7)])
def test_depth_follows_the_grid(n_samples, half_width, depth):
    grid = GridSpec(half_width, n_samples)
    system = DyadicSystem.for_grid(grid)
    assert system.max_block == depth
    assert type(system.max_block) is int
    # the shallowest system covering every representable frequency
    top = grid.nyquist - grid.fundamental
    assert system.covers(top) and not build_system(depth - 1).covers(top)


def test_build_system_validation():
    with pytest.raises(Exception):
        build_system(-1)
    # a depth that is no integer would give blocks that no K names
    for depth in (2.5, float("nan"), 0, "8"):
        with pytest.raises(ValueError, match="integer >= 1"):
            DyadicSystem(depth)


@pytest.mark.parametrize("n_samples, half_width", [(1024, 1.0), (64, 0.25), (2048, 20.0)])
def test_grid_symbols_are_the_symbols_at_every_bin(n_samples, half_width):
    """The per-grid table holds symbols(xi) at each bin, bit for bit, is
    read-only and is built once per (system, grid); block projection reads
    its rows."""
    grid = GridSpec(half_width, n_samples)
    system = DyadicSystem.for_grid(grid)
    table = system.grid_symbols(grid)
    assert table.shape == (system.max_block + 1, n_samples) and not table.flags.writeable
    assert DyadicSystem(system.max_block).grid_symbols(GridSpec(half_width, n_samples)) is table
    xi = grid.frequencies()
    np.testing.assert_array_equal(table, system.symbols(xi))
    for j in (0, 1, n_samples // 2 - 1, n_samples // 2 + 1, n_samples - 1):
        np.testing.assert_array_equal(table[:, j], system.symbols([xi[j]])[:, 0])
    f = random_band_limited(grid, (-grid.top, grid.top), seed=3)
    for k in (0, system.max_block):
        np.testing.assert_array_equal(apply_block(system, k, f).coeffs[:, 0],
                                      system.symbols(xi)[k] * f.coeffs[:, 0])
