import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tracespaces import (
    GridFunction,
    GridSpec,
    QuadratureMesh,
    random_band_limited,
    weighted_lp_norm,
)
from tracespaces import grid as grid_module
from tracespaces.grid import (
    _MAX_TABLE_BYTES,
    _ONE_THREAD_MACS,
    _SYNTH_ROWS,
    GridError,
    _blocked_product,
)


def test_grid_spec_basics(grid):
    assert grid.n_samples == 1024
    assert grid.fundamental == pytest.approx(0.5)
    assert grid.nyquist == pytest.approx(256.0)


def test_value_at_zero_matches_coefficient_sum(grid):
    f = GridFunction.from_coeff_map(grid, {1.0: [2.0], -3.5: [1.0 + 1j]})
    assert f.value_at_zero == pytest.approx(3.0 + 1j)


def test_single_mode_samples(grid):
    f = GridFunction.from_coeff_map(grid, {2.0: [1.0]})
    t = grid.sample_points()
    np.testing.assert_allclose(f.samples[:, 0], np.exp(2j * np.pi * 2.0 * t),
                               atol=1e-12)


def test_derivative_of_single_mode(grid):
    xi = 3.0
    f = GridFunction.from_coeff_map(grid, {xi: [1.0]})
    df = f.derivative(1)
    np.testing.assert_allclose(df.coeffs, 2j * np.pi * xi * f.coeffs, atol=1e-12)


@pytest.mark.parametrize("n, half_width", [(64, 1.0), (1024, 0.75), (4096, 10.0)])
def test_active_frequencies_are_read_only_and_match_the_grid(n, half_width):
    """The active frequencies and the band edge are computed once, bitwise
    as the grid's signed frequencies of the active bins."""
    grid = GridSpec(half_width, n)
    f = random_band_limited(grid, (-0.2 * grid.nyquist, 0.3 * grid.nyquist), seed=4, dim=2)
    want = grid.frequencies()[f.active_indices]
    got = f.active_frequencies()
    np.testing.assert_array_equal(got, want)
    assert got is f.active_frequencies() and not got.flags.writeable
    assert f.max_frequency == float(np.max(np.abs(want)))
    assert GridFunction(grid, np.zeros(n)).max_frequency == 0.0


def test_construction_copies_the_callers_coefficients(grid):
    """Given a C-contiguous complex array, 2-d or 1-d, the function keeps a
    read-only copy: the caller's array stays writable and unaliased, and
    writing to it does not change the function."""
    for c in (np.zeros((grid.n_samples, 1), dtype=complex), np.zeros(grid.n_samples, dtype=complex)):
        c[1] = 1.0
        f = GridFunction(grid, c)
        assert c.flags.writeable and not np.shares_memory(c, f.coeffs)
        c[2] = 1.0
        np.testing.assert_array_equal(f.active_indices, [1])
        assert f.coeffs[2, 0] == 0.0 and not f.coeffs.flags.writeable


def test_coefficients_without_columns_are_rejected(grid):
    """A function takes at least one column: none would leave every norm
    nothing to reduce."""
    for coeffs in (np.zeros((grid.n_samples, 0)), np.zeros((grid.n_samples, 1, 2))):
        with pytest.raises(GridError, match="dim >= 1"):
            GridFunction(grid, coeffs)
    with pytest.raises(GridError, match="dim >= 1"):
        random_band_limited(grid, (-4.0, 4.0), seed=1, dim=0)


def test_from_samples_round_trip(grid):
    f = random_band_limited(grid, (-20.0, 20.0), seed=1)
    g = GridFunction.from_samples(grid, f.samples)
    np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-12)


def test_seed_and_band_stability_across_resolutions():
    coarse = GridSpec(1.0, 1024)
    fine = GridSpec(1.0, 2048)
    f = random_band_limited(coarse, (-8.0, 8.0), seed=(7, 3))
    g = random_band_limited(fine, (-8.0, 8.0), seed=(7, 3))
    np.testing.assert_array_equal(f.active_frequencies(), g.active_frequencies())
    for xi in f.active_frequencies():
        np.testing.assert_array_equal(f.coeffs[coarse.freq_to_index(xi)],
                                      g.coeffs[fine.freq_to_index(xi)])


def test_band_outside_nyquist_rejected(grid):
    with pytest.raises(Exception):
        random_band_limited(grid, (-300.0, 300.0), seed=0)


@pytest.mark.parametrize("band", [(math.nan, 4.0), (-4.0, math.nan), (-math.inf, 4.0),
                                  (-4.0, math.inf)])
def test_band_edge_not_finite_rejected(grid, band):
    """A NaN or infinite edge is a GridError that names the band, not
    int(nan)'s "cannot convert float NaN to integer"."""
    with pytest.raises(GridError, match="band edges must be finite"):
        random_band_limited(grid, band, seed=0)


def test_band_edge_within_slack_of_nyquist_rejected():
    # 256 - 1e-12 lies inside (-Nyquist, Nyquist) but rounds onto the Nyquist bin
    with pytest.raises(GridError, match="below the Nyquist frequency"):
        random_band_limited(GridSpec(1.0, 1024), (-1.0, 256 - 1e-12), 1)


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.5, 1.0])
def test_quadrature_weights_nonnegative(grid, gamma):
    mesh = QuadratureMesh.for_band(grid, 24.0)
    w = mesh.weights(gamma)
    assert np.all(w >= 0.0)
    total = 2.0 / (gamma + 1.0)  # int_{-1}^{1} |t|^gamma dt
    assert np.sum(w) == pytest.approx(total, rel=1e-10)


@pytest.mark.parametrize("half_width, cells", [(0.75, 36), (1.0, 96), (1.0, 192), (2.0, 384),
                                               (10.0, 960)])
def test_adjacent_cells_share_their_edge_node(half_width, cells):
    """Each distinct node is stored once: 6 M + 1 strictly increasing
    nodes, and cell c's four, nodes[_cells[c]], run from its left edge to
    its right one, both exact, with the two between within one rounding of
    a + (b - a) u, u = 1/3, 2/3."""
    mesh = QuadratureMesh(half_width, cells)
    assert mesh.nodes.size == 6 * cells + 1
    assert np.all(np.diff(mesh.nodes) > 0)
    assert mesh._cells.shape == (2 * cells, 4)
    edges = np.concatenate([-mesh.pos_edges[:0:-1], mesh.pos_edges])
    a, b = edges[:-1, None], edges[1:, None]
    got = mesh.nodes[mesh._cells]
    np.testing.assert_array_equal(got[:, [0, 3]], np.hstack([a, b]))
    np.testing.assert_allclose(got, a + (b - a) * np.linspace(0.0, 1.0, 4), rtol=0.0,
                               atol=2 * np.spacing(half_width))


@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.5])
@pytest.mark.parametrize("interval", [None, (-0.37, 0.61), (0.2, 0.9)])
def test_weights_sum_the_per_cell_weights_at_shared_nodes(gamma, interval):
    """The weight of a node shared by two cells is the sum of its weights in
    each; the intervals cut cells."""
    mesh = QuadratureMesh(1.0, 96)
    lo, hi = (-1.0, 1.0) if interval is None else interval
    neg = mesh._cell_basis_weights(gamma, max(-hi, 0.0), max(-lo, 0.0))
    pos = mesh._cell_basis_weights(gamma, max(lo, 0.0), max(hi, 0.0))
    want = np.zeros(mesh.nodes.size)
    for c, w in enumerate(np.concatenate([neg[::-1, ::-1], pos])):
        want[3 * c: 3 * c + 4] += w
    got = mesh.weights(gamma) if interval is None else mesh.weights_on_interval(gamma, lo, hi)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("gamma", [-0.5, 0.0, 1.5])
@pytest.mark.parametrize("half_width, cells, lo, hi", [(1.0, 384, 0.0, 1.0), (1.0, 384, 0.05, 0.3),
                                                       (10.0, 1920, 0.5, 3.0001)])
def test_cell_weights_match_adaptive_quadrature(half_width, cells, lo, hi, gamma):
    """Cells 1 and 5-7, where t^gamma is analytic but the cell is wide
    against its distance from 0, and every cell that lo or hi cuts: each
    cell's weights equal its monomial moments, integrated adaptively in the
    local coordinate over the cell's part of [lo, hi], times the Lagrange
    matrix, to 1e-13 of the cell's largest weight."""
    mesh = QuadratureMesh(half_width, cells)
    a, b = mesh.pos_edges[:-1], mesh.pos_edges[1:]
    cut = np.flatnonzero(((a < lo) & (lo < b)) | ((a < hi) & (hi < b)))
    w = mesh._cell_basis_weights(gamma, lo, hi)
    for c in sorted({1, 5, 6, 7, *cut}):
        h = b[c] - a[c]
        u0, u1 = (np.clip([lo, hi], a[c], b[c]) - a[c]) / h
        moments = [h * integrate.quad(lambda u: (a[c] + h * u) ** gamma * u ** j, u0, u1,
                                      epsabs=0.0, epsrel=2e-14)[0] for j in range(4)]
        want = np.array(moments) @ mesh._lagrange.T
        np.testing.assert_allclose(w[c], want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


def test_sup_norm_keeps_its_values_on_shared_nodes(grid):
    """p = inf reads each cell's cubic through _cells; the maxima keep the
    values this 96-cell mesh gave when a graded mesh kind still existed
    beside it."""
    mesh = QuadratureMesh(1.0, 96)
    f = random_band_limited(grid, (-8.0, 8.0), seed=11, dim=3)
    mags = np.abs(f.evaluate(mesh.nodes)).T
    assert mags.shape == (3, 6 * mesh.n_cells + 1)
    want = {None: (9.374317398463901, 9.71277733445066, 11.130662471467156),
            (-0.37, 0.61): (9.374317398463901, 8.865200643470585, 11.130662471467156),
            (0.2, 0.9): (9.278842589494879, 9.71277733445066, 9.04168852527123),
            (-1.0, -0.999): (6.824387879508865, 5.991215607160117, 2.1363038561354837)}
    for interval, values in want.items():
        np.testing.assert_allclose(mesh.lp_norm(mags, math.inf, 0.0, interval), values,
                                   rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_quadrature_against_polynomial_closed_form(grid, gamma):
    mesh = QuadratureMesh.for_band(grid, 4.0)
    vals = mesh.nodes ** 2
    want = 2.0 / (gamma + 3.0)  # int |t|^gamma t^2 over [-1, 1]
    assert mesh.integrate(vals, gamma) == pytest.approx(want, rel=1e-10)


def test_interval_integration_splits_whole_axis(grid):
    mesh = QuadratureMesh.for_band(grid, 4.0)
    vals = np.cos(mesh.nodes)
    whole = mesh.integrate(vals, 0.5)
    left = mesh.integrate(vals, 0.5, interval=(-1.0, 0.0))
    right = mesh.integrate(vals, 0.5, interval=(0.0, 1.0))
    assert left + right == pytest.approx(whole, rel=1e-12)


def test_weighted_lp_norm_of_constant(grid):
    f = GridFunction.from_coeff_map(grid, {0.0: [3.0]})
    got = weighted_lp_norm(f, 2.0, 0.0)
    assert got == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-8)


def test_weighted_sup_norm(grid):
    f = GridFunction.from_coeff_map(grid, {1.0: [2.0]})
    got = weighted_lp_norm(f, math.inf, 0.0)
    assert got == pytest.approx(2.0, rel=1e-6)


def test_sup_norm_on_interval_keeps_to_it(grid):
    """|1 + 0.8 exp(i pi t)| falls from 1.8 at t = 0 to 0.2 at t = 1, so its
    supremum over [0.5, 1] is |1 + 0.8 i| = 1.28, not the 1.8 of [-1, 1]."""
    f = GridFunction.from_coeff_map(grid, {0.0: [1.0], 0.5: [0.8]})
    got = weighted_lp_norm(f, math.inf, 0.0, interval=(0.5, 1.0))
    assert got == pytest.approx(math.hypot(1.0, 0.8), rel=2e-3)
    assert weighted_lp_norm(f, math.inf, 0.0) == pytest.approx(1.8, rel=1e-6)
    # the maximum of the interpolant, not of the nodes: t = 0.5 is no node
    # of these meshes, and the node maximum is 2.7e-3 low at 256 cells
    for cells in (64, 128, 256, 512):
        got = weighted_lp_norm(f, math.inf, 0.0, mesh=QuadratureMesh(1.0, cells),
                               interval=(0.5, 1.0))
        assert got == pytest.approx(math.hypot(1.0, 0.8), rel=1e-9)


@pytest.mark.parametrize("p, gamma", [(1.0, 0.0), (2.0, 0.5), (3.5, -0.4)])
def test_lp_norm_of_a_row_does_not_depend_on_the_rows_stacked_with_it(p, gamma):
    """On a 12001-node mesh every row of a 61-row bank has bitwise the norm
    it has alone: a BLAS product's summation order would follow the
    stack."""
    mesh = QuadratureMesh(20.0, 2000)
    assert mesh.nodes.size == 12001
    mags = np.random.default_rng(17).random((61, mesh.nodes.size))
    stacked = mesh.lp_norm(mags, p, gamma)
    alone = np.array([mesh.lp_norm(row, p, gamma) for row in mags])
    np.testing.assert_array_equal(stacked, alone)
    np.testing.assert_array_equal(mesh.lp_norm(mags[:9], p, gamma), alone[:9])


def test_norm_rejects_mesh_of_another_half_width(grid):
    """A mesh on [-2, 2] or [-0.5, 0.5] would integrate e^{2 pi i t} of the
    grid on [-1, 1] over the wrong interval (2.0 and 1.0, not sqrt 2)."""
    f = GridFunction.from_coeff_map(grid, {1.0: [1.0]})
    assert weighted_lp_norm(f, 2.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    for half_width in (2.0, 0.5):
        with pytest.raises(GridError):
            weighted_lp_norm(f, 2.0, 0.0, mesh=QuadratureMesh(half_width, 64))
        # the nodes would not be the points of the grid's DFT
        with pytest.raises(GridError, match="half-width"):
            QuadratureMesh(half_width, 64).synthesize(grid, f.active_indices, f.coeffs[f.active_indices])


@pytest.mark.parametrize("half_width, cells", [(math.inf, 8), (math.nan, 8), (-1.0, 8),
                                               (0.0, 8), (1.0, 4.7), (1.0, 8.0), (1.0, 3)])
def test_mesh_rejects_bad_half_width_and_cell_count(half_width, cells):
    with pytest.raises(GridError):
        QuadratureMesh(half_width, cells)


def test_weight_and_interval_validation(grid, mesh):
    """A NaN weight power and an interval that is not an ordered piece of
    [-L, L] are rejected, not turned into a NaN or a clipped norm."""
    f = GridFunction.from_coeff_map(grid, {0.0: [1.0], 0.5: [0.8]})
    for p in (2.0, math.inf):
        with pytest.raises(ValueError):
            weighted_lp_norm(f, p, math.nan, mesh=mesh)
    with pytest.raises(ValueError):
        mesh.weights_on_interval(math.nan, -1.0, 1.0)
    for lo, hi in ((-5.0, 5.0), (0.5, -0.5), (math.nan, 0.5)):
        with pytest.raises(ValueError):
            mesh.weights_on_interval(0.3, lo, hi)
        for p in (2.0, math.inf):
            with pytest.raises(ValueError):
                weighted_lp_norm(f, p, 0.3, mesh=mesh, interval=(lo, hi))


def test_for_band_shares_one_mesh_per_key(grid):
    mesh = QuadratureMesh.for_band(grid, 24.0)
    assert QuadratureMesh.for_band(grid, 24.0) is mesh
    assert QuadratureMesh.for_band(grid, 23.99) is mesh  # same cell count
    assert QuadratureMesh.for_band(grid, 48.0) is not mesh
    f = random_band_limited(grid, (-24.0, 24.0), seed=2)
    assert QuadratureMesh.for_function(f) is f.mesh is QuadratureMesh.for_band(grid, f.max_frequency)


def test_for_band_sizes_meshes_by_cells_per_wavelength():
    """6 cells per wavelength of the band on each side: ceil(6 band L)
    cells, rounded up to a 5-smooth count, each L / M wide, and never fewer
    than the constructor's 4; a product that is an integer in exact
    arithmetic takes that integer."""
    for band, half_width, cells in (
            (8.0, 1.0, 48), (16.0, 1.0, 96), (24.0, 1.0, 144), (32.0, 1.0, 192), (64.0, 1.0, 384),
            (24.0, 2.0, 288), (0.0, 1.0, 6), (0.1, 0.25, 4),
            # 67 = 67 and 626 = 2 x 313 round up to 72 and 640
            (8.5, 1.3, 72), (104.3, 1.0, 640),
            # 6 (32 / L) L rounds to 192 + 3e-14 here
            (32.0 / 0.19, 0.19, 192), (32.0 / 0.49, 0.49, 192)):
        grid = GridSpec(half_width, 1024)
        mesh = QuadratureMesh.for_band(grid, band)
        assert (mesh.n_cells, mesh.grading) == (cells, 1.0)
        np.testing.assert_allclose(np.diff(mesh.pos_edges), half_width / cells, rtol=1e-12)
        assert half_width / cells <= 1.0 / (6 * max(band, 1.0)) * (1.0 + 1e-12)
    # at L = 0.25 band 1 asks for 2 cells, below the constructor's floor
    assert QuadratureMesh.for_band(GridSpec(0.25, 1024), 1.0).n_cells == 4
    with pytest.raises(GridError, match="at least 4 cells"):
        QuadratureMesh(0.25, 3)


@pytest.mark.parametrize("band", [math.nan, math.inf, -1.0])
def test_for_band_rejects_a_band_not_finite_and_nonnegative(grid, band):
    with pytest.raises(GridError, match="band must be finite"):
        QuadratureMesh.for_band(grid, band)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 50))
def test_norm_homogeneity(scale, seed):
    grid = GridSpec(1.0, 256)
    f = random_band_limited(grid, (-10.0, 10.0), seed=seed)
    base = weighted_lp_norm(f, 2.0, 0.3)
    scaled = weighted_lp_norm(GridFunction(f.grid, scale * f.coeffs), 2.0, 0.3)
    assert scaled == pytest.approx(scale * base, rel=1e-10)


@pytest.mark.parametrize("n,cells,dim", [(1024, 512, 6), (1024, 1536, 3), (8, 64, 2),
                                         (256, 512, 1), (2048, 512, 2), (4096, 256, 2)])
def test_mesh_synthesis_matches_dense_evaluation(n, cells, dim):
    """synthesize against dense exp synthesis on the full band, which takes
    the FFT, folded where the band is wider than the mesh's period (N =
    4096 on 1537 nodes); the bound covers the rounding of the dense phase
    t * xi itself."""
    grid = GridSpec(1.0, n)
    mesh = QuadratureMesh(1.0, cells)
    edge = grid.nyquist - grid.fundamental
    f = random_band_limited(grid, (-edge, edge), seed=(n, dim), dim=dim)
    assert f.active_indices.size == n - 1
    dense = f.evaluate(mesh.nodes)
    got = mesh.synthesize(grid, f.active_indices, f.coeffs[f.active_indices])
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("n,cells,dim,band", [
    (1024, 512, 6, (90.0, 127.5)), (1024, 1536, 2, (200.0, 255.5)),
    (2048, 512, 3, (-100.0, -40.0)), (4096, 256, 1, (-1023.5, -960.0)),
    (1024, 512, 1, (-64.0, 64.0)),
])
def test_narrow_sets_off_the_mode_table_match_dense_evaluation(n, cells, dim, band):
    """Sets of up to 257 bins, stacked nine times past _FFT_MAX_COLUMNS
    columns, take the FFT when they lie past their mesh's band, on a mesh
    over the table cap (1536 cells) or span 256 bins or more; same bound
    as on the full band."""
    grid = GridSpec(1.0, n)
    mesh = QuadratureMesh(1.0, cells)
    f = random_band_limited(grid, band, seed=(n, dim), dim=dim)
    f = GridFunction(grid, np.tile(f.coeffs, 9))
    assert f.active_indices.size <= 257
    dense = f.evaluate(mesh.nodes)
    got = mesh.synthesize(grid, f.active_indices, f.coeffs[f.active_indices])
    assert ("modes", grid) not in mesh._cache
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def _exact_phase_synthesis(f, t):
    """Dense synthesis with each phase t * xi_k formed exactly as p + e
    (Dekker's product) and reduced mod 1 before exp, so that only the
    rounding of exp and of the sum remains.  Runs in chunks of 256 points."""
    def split(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    xi = f.active_frequencies()
    xh, xl = split(xi)
    out = []
    for start in range(0, t.size, 256):
        tt = t[start:start + 256, None]
        p = tt * xi
        th, tl = split(tt)
        e = ((th * xh - p) + th * xl + tl * xh) + tl * xl
        out.append(np.exp((2j * np.pi) * ((p - np.round(p)) + e)) @ f.coeffs[f.active_indices])
    return np.concatenate(out)


def _bins(f):
    """f's active bins k, signed, in the order of its active indices."""
    return np.rint(f.active_frequencies() / f.grid.fundamental).astype(int)


@pytest.mark.parametrize("band", [(-10.0, 10.0), (-64.0, 63.5), (-255.5, 255.5)])
def test_synthesis_path_does_not_depend_on_stacked_columns(grid, band):
    """A column synthesized alone takes the FFT, which treats each column
    on its own: inside a stack of 300 a set of 256 bins or more takes it
    too and gives the same column bit for bit, while a narrow set takes
    the mode table (past _FFT_MAX_COLUMNS), so the two differ by the
    paths' own gap, within 5e-15 of the largest value."""
    f = random_band_limited(grid, band, seed=5, dim=300)
    active, coeffs = f.active_indices, f.coeffs[f.active_indices]
    for mesh in (QuadratureMesh(1.0, 512),
                 QuadratureMesh(1.0, QuadratureMesh.for_band(grid, 32.0).n_cells)):
        stacked = mesh.synthesize(grid, active, coeffs)
        scale = np.max(np.abs(stacked))
        for j in (0, 299):
            alone = mesh.synthesize(grid, active, coeffs[:, j:j + 1])[:, 0]
            np.testing.assert_array_equal(
                alone, mesh._synthesize_fft(_bins(f), coeffs[:, j:j + 1])[:, 0])
            if active.size >= 256:
                np.testing.assert_array_equal(alone, stacked[:, j])
            else:
                assert np.max(np.abs(alone - stacked[:, j])) <= 5e-15 * scale
        assert (("modes", grid) in mesh._cache) == (active.size < 256)


def test_mesh_synthesis_sparse_and_empty_active_sets(grid, mesh):
    f = GridFunction.from_coeff_map(grid, {-255.5: [1.0], -3.0: [2.0j], 0.0: [0.5],
                                           17.5: [-1.0], 255.5: [3.0]})
    dense = f.evaluate(mesh.nodes)
    got = mesh.synthesize(grid, f.active_indices, f.coeffs[f.active_indices])
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
    empty = mesh.synthesize(grid, np.array([], dtype=int), np.zeros((0, 4)))
    assert empty.shape == (mesh.nodes.size, 4) and not np.any(empty)


def _synthesize(mesh, f):
    return mesh.synthesize(f.grid, f.active_indices, f.coeffs[f.active_indices])


_NARROW = {
    "crossing-zero": lambda grid: random_band_limited(grid, (-10.0, 10.0), seed=11),
    "sparse": lambda grid: GridFunction.from_coeff_map(
        grid, {-31.5: [1.0], -3.0: [2.0j], 0.0: [0.5], 17.5: [-1.0], 32.0: [3.0]}),
    "dim-3": lambda grid: random_band_limited(grid, (-12.0, 24.0), seed=12, dim=3),
    # the fold's edges on the band-32 mesh's table, kb = 64 bins
    "one-sided-negative": lambda grid: random_band_limited(grid, (-30.0, -5.0), seed=15, dim=2),
    "one-sided-positive": lambda grid: random_band_limited(grid, (5.0, 30.0), seed=16),
    "lone-bin-0": lambda grid: GridFunction.from_coeff_map(grid, {0.0: [1.5 - 0.5j]}),
    "lone-bin-minus-kb": lambda grid: GridFunction.from_coeff_map(grid, {-32.0: [0.5 + 2.0j]}),
}


@pytest.mark.parametrize("case", list(_NARROW))
def test_narrow_sets_in_band_take_the_mode_table(grid, case):
    """A set spanning fewer than 256 bins inside the mesh's band is one
    product over a slice of the mesh's mode table above _FFT_MAX_COLUMNS
    columns, as at the seminorm's 399; with fewer it takes the FFT.  Either
    path is within 2e-14 of the largest value of dense synthesis with exact
    phases."""
    f = _NARROW[case](grid)
    cells = QuadratureMesh.for_band(grid, 32.0).n_cells
    stacked = GridFunction(grid, np.tile(f.coeffs, 399 // f.dim))
    for g in (f, stacked):
        mesh = QuadratureMesh(1.0, cells)
        assert mesh._band_bins(grid) == 64
        got = _synthesize(mesh, g)
        table = g.dim > grid_module._FFT_MAX_COLUMNS
        assert table == (g is stacked)
        assert (("modes", grid) in mesh._cache) == table
        if not table:
            np.testing.assert_array_equal(
                got, mesh._synthesize_fft(_bins(g), g.coeffs[g.active_indices]))
        want = _exact_phase_synthesis(g, mesh.nodes)
        assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("half_width, n, band", [(20.0, 4096, 4.0), (1.3, 2048, 24.0),
                                                  (4.0, 4096, 16.0), (1.0, 1024, 32.0)])
def test_mode_table_matches_the_fft_at_the_dft_points(half_width, n, band):
    """Node j of a mesh is the DFT point j / 6M, so the mode table's phase
    of bin k there is j k / 6M cycles, reduced in integers: nine columns
    of a lone bin at 0, +-1 and the six bins at each band edge take the
    table within 2e-15 of the FFT."""
    grid = GridSpec(half_width, n)
    mesh = QuadratureMesh.for_band(grid, band)
    kb = mesh._band_bins(grid)
    coeffs = np.ones((1, 9), dtype=complex)
    for k in [0, 1, -1, *range(kb - 5, kb + 1), *range(-kb, -kb + 6)]:
        got = mesh.synthesize(grid, np.array([k % n]), coeffs)
        assert np.max(np.abs(got - mesh._synthesize_fft(np.array([k]), coeffs))) <= 2e-15
    assert ("modes", grid) in mesh._cache


@pytest.mark.parametrize("case", ["past-the-band", "span-256", "over-the-cap"])
def test_sets_off_the_table_take_the_fft_bitwise(grid, case):
    """A stack of more than _FFT_MAX_COLUMNS columns on a set past the
    mesh's band, on one spanning 256 bins or more, or on any set over a
    mesh whose table would exceed _MAX_TABLE_BYTES takes the FFT, bit for
    bit, and the mesh builds no mode table for it."""
    band, f = {
        "past-the-band": (8.0, random_band_limited(grid, (20.0, 30.0), seed=13, dim=12)),
        "span-256": (64.0, GridFunction.from_coeff_map(grid, {-64.0: [1.0] * 9, 63.5: [2.0] * 9})),
        "over-the-cap": (200.0, random_band_limited(grid, (-10.0, 10.0), seed=14, dim=9)),
    }[case]
    active, coeffs = f.active_indices, f.coeffs[f.active_indices]
    mesh = QuadratureMesh(1.0, QuadratureMesh.for_band(grid, band).n_cells)
    table_bytes = 16 * mesh.nodes.size * (2 * mesh._band_bins(grid) + 1)
    assert (table_bytes > _MAX_TABLE_BYTES) == (case == "over-the-cap")
    np.testing.assert_array_equal(mesh.synthesize(grid, active, coeffs),
                                  mesh._synthesize_fft(_bins(f), coeffs))
    assert ("modes", grid) not in mesh._cache


@pytest.mark.parametrize("half_width, n, cells", [(0.25, 1024, 64), (1.0, 1024, 97),
                                                  (20.0, 16384, 150)])
@pytest.mark.parametrize("case", ["crossing-zero", "one-sided", "lone-bin", "span-6M",
                                  "span-6M-plus-1"])
def test_fft_synthesis_matches_exact_phases(half_width, n, cells, case):
    """On a mesh of M cells a side, a set takes one inverse DFT of length
    6M, within 2e-14 of the largest value of dense synthesis at the DFT's
    points (see _assert_exact_at_the_dft_points): spanning at most 6M bins,
    and 6M + 1, whose two end bins fold onto one row.  M = 97 makes 6M =
    582 not a product of small primes."""
    period = 6 * cells
    first = -period // 2 + 7
    lo, hi = {"crossing-zero": (-40, 25), "one-sided": (-300, -90), "lone-bin": (first, first),
              "span-6M": (first, first + period - 1),
              "span-6M-plus-1": (first, first + period)}[case]
    _assert_exact_at_the_dft_points(half_width, n, cells, np.arange(lo, hi + 1))


@pytest.mark.parametrize("half_width", [0.25, 1.0, 20.0])
@pytest.mark.parametrize("case", ["span-6M-plus-1", "span-2x6M-plus-3", "full-band-4096"])
def test_fft_folds_sets_wider_than_the_period(half_width, case):
    """Bins k and k + 6M take equal values at every DFT point, so a set
    spanning more than 6M bins is summed mod 6M and stays exact: one more
    bin than the period, two periods and three bins, and the full band of
    N = 4096 (4095 bins, as an orbit's) onto the 582-point period of 97
    cells, each within 2e-14 of the largest value."""
    period = 6 * 97
    first = -period // 2 + 7
    bins = {"span-6M-plus-1": np.arange(first, first + period + 1),
            "span-2x6M-plus-3": np.arange(first, first + 2 * period + 3),
            "full-band-4096": np.arange(-2047, 2048)}[case]
    assert bins.size > period
    _assert_exact_at_the_dft_points(half_width, 4096, 97, bins)


def _assert_exact_at_the_dft_points(half_width, n, cells, bins):
    """The FFT path, bit for bit, on random coefficients at the signed
    bins, is within 2e-14 of the largest value of dense synthesis at the
    DFT's points -L + n L / (3M) with exact phases k (n - 3M) / (6M) mod 1,
    formed in integers; its nodes at -L and L are one period apart."""
    grid = GridSpec(half_width, n)
    mesh = QuadratureMesh(half_width, cells)
    period = 6 * cells
    rng = np.random.default_rng((n, cells, bins.size))
    coeffs = np.zeros((n, 2), dtype=complex)
    coeffs[bins % n] = rng.standard_normal((bins.size, 2)) + 1j * rng.standard_normal(
        (bins.size, 2))
    f = GridFunction(grid, coeffs)
    got = _synthesize(mesh, f)
    np.testing.assert_array_equal(got, mesh._synthesize_fft(_bins(f), f.coeffs[f.active_indices]))
    cycles = np.multiply.outer(np.arange(period + 1) - period // 2, bins) % period
    want = np.exp((2j * np.pi / period) * cycles) @ coeffs[bins % n]
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 2e-14 * scale
    assert np.max(np.abs(got[0] - got[-1])) <= 2e-14 * scale


@pytest.mark.parametrize("half_width, cells", [(1.0, 4), (1.0, 192), (0.25, 97), (20.0, 960),
                                               (0.1, 7), (400.0, 12000)])
def test_uniform_nodes_are_the_dft_points(half_width, cells):
    """A mesh's nodes are L (n - 3M) / (3M), n = 0..6M: the points
    -L + n L / (3M) of a DFT of length 6M over [-L, L), each within one
    rounding of the exact point, exactly symmetric about an exact 0, with
    the cell edges, +-L among them, exact."""
    mesh = QuadratureMesh(half_width, cells)
    m3 = 3 * cells
    n = np.arange(2 * m3 + 1)
    np.testing.assert_array_equal(mesh.nodes, half_width * ((n - m3) / m3))
    np.testing.assert_allclose(mesh.nodes, -half_width + n * half_width / m3,
                               rtol=0, atol=2 * np.spacing(half_width))
    np.testing.assert_array_equal(mesh.nodes, -mesh.nodes[::-1])
    assert mesh.nodes[m3] == 0.0 and mesh.nodes[-1] == half_width
    np.testing.assert_array_equal(mesh.nodes[m3::3], mesh.pos_edges)


def test_narrow_synthesis_does_not_depend_on_call_order(grid):
    """Each narrow set gives bitwise the same values on a fresh mesh, again
    on the same mesh, and after other sets on it."""
    fs = [make(grid) for make in _NARROW.values()]
    cells = QuadratureMesh.for_band(grid, 32.0).n_cells
    fresh = [_synthesize(QuadratureMesh(1.0, cells), f) for f in fs]
    mesh = QuadratureMesh(1.0, cells)
    for f, want in [*zip(fs, fresh), *zip(fs[::-1], fresh[::-1]), *zip(fs, fresh)]:
        np.testing.assert_array_equal(_synthesize(mesh, f), want)


def _element_offsets(view: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Flat indices into the C-contiguous float64 array base of every
    element of view, a strided view into it."""
    idx = np.indices(view.shape).reshape(view.ndim, -1)
    addresses = view.ctypes.data + np.asarray(view.strides) @ idx
    return (addresses - base.ctypes.data) // 8


@pytest.mark.parametrize("n, k, m", [
    (1, 34, 798),             # one row
    (577, 199, 1),            # one column
    (37, 8, 12),              # fewer rows than _SYNTH_ROWS
    (577, 34, 798),           # the seminorm's synthesis on a 577-node mesh
    (577, 199, 60),           # its scale integral
    (2305, 126, 72),          # a dim-6 request on a 2305-node mesh
    (5, 4000, 300),           # one row, the columns split
    (3, 2**17 + 3, 2),        # one column per block is the floor
])
def test_blocked_product_tiles_its_output_within_the_limit(monkeypatch, n, k, m):
    """_blocked_product's BLAS products cover its output once each, stay
    within _ONE_THREAD_MACS and _SYNTH_ROWS rows, and agree with the
    unblocked product to 4 ulp of its largest value.  Past a thousand
    terms the entries are small integers, whose sums are exact in any
    order: there two summation orders of normal draws differ by tens of
    ulp."""
    rng = np.random.default_rng((n, k, m))
    a, b = rng.standard_normal((n, k)), rng.standard_normal((k, m))
    if k > 1000:
        a, b = np.round(8 * a), np.round(8 * b)
    writes, macs, matmul = [], [], np.matmul

    def recorded(x, y, out):
        writes.append(out)
        macs.append(x.shape[-2] * x.shape[-1] * y.shape[-1])
        assert x.shape[-2] <= _SYNTH_ROWS
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", recorded)
    got = _blocked_product(a, b)
    monkeypatch.undo()
    hits = np.bincount(np.concatenate([_element_offsets(w, got) for w in writes]),
                       minlength=n * m)
    np.testing.assert_array_equal(hits, np.ones(n * m, dtype=int))
    assert max(macs) <= _ONE_THREAD_MACS
    ref = a @ b
    assert np.max(np.abs(got - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))
