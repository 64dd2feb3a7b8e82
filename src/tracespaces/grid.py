"""Band-limited functions on a truncated periodic line, with quadrature
against power weights.

The computable model: the interval [-L, L] with periodic identification,
N equispaced samples, and trigonometric polynomials

    f(t) = sum_k c_k exp(2 pi i xi_k t),      xi_k = k / (2 L),

with every active frequency strictly below the Nyquist frequency
Xi = N / (4 L).  Coefficients c_k take values in C^dim, so the same grid
carries scalar functions and functions valued in a finite spectral model
of a Banach space.  All norm computations reduce to integrals

    int_{-L}^{L} |t|^gamma g(t) dt,

evaluated by integrating the weight exactly against a piecewise-polynomial
interpolant of the smooth factor g (never by blind quadrature of the
product, which loses the |t|^gamma singularity for gamma < 0); p = inf takes
that interpolant's maximum.  f's mesh, QuadratureMesh.for_function(f), has 12
cells per wavelength of f's top frequency on each side, and no floor: one
error budget sizes every mesh (see _CELLS_PER_WAVE).

Every evaluation at quadrature nodes goes through one kernel,
QuadratureMesh.synthesize, which has two paths; the size of the active
set alone picks one (_NUFFT_MIN_MODES = 256), so a function's node values
never depend on what is stacked with it or computed before it.

- Narrow sets: writing a signed frequency index as k + N/2 = a B + b with
  B = isqrt(N), the mesh keeps, per GridSpec, the phase tables
  exp(2 pi i t b / (2L)) for b < B and exp(2 pi i t (a B - N/2) / (2L))
  for every a, so the mode matrix of any active set is a gathered product
  of two table columns, built in fixed row chunks and multiplied at once
  by a stacked coefficient matrix; no exp runs per call.  The tables hold
  (B + N/B) complex values per node: 3 MB for 3073 nodes at N = 1024.
- Wide sets: a type-2 NUFFT (Dutt & Rokhlin 1993; Barnett, Magland & af
  Klinteberg 2019).  The coefficients are divided by the Fourier
  transform of an exponential-of-semicircle kernel, placed on a 2N grid
  and inverse transformed, one FFT per column; each node then gathers the
  16 grid values its kernel reaches and sums them against its 16 kernel
  values, 64 nodes per numpy contraction.  The mesh keeps the 16 grid
  columns (int32) and kernel values (float64) per node and the N divisors
  per GridSpec: 192 bytes per node, 1.8 MB for 9217 nodes.  Its error is
  about 4e-15 of the largest value, below that of dense synthesis, whose
  phases t * xi round.

A narrow active set's mode matrix is kept only once it is asked for twice
in a row, as the functions of a seeded family, which share one active
set, ask for it: the mesh remembers the (grid, active bins) of its last
phase-table call, a second call on the same set builds the matrix into a
kept array, and later calls multiply from it; a call on any other set
drops it.  The product is the same chunked matmul either way, so every
value is bitwise the same, and a stream of distinct sets keeps nothing.
At most one matrix lives per mesh, nodes x modes with fewer than 256
modes and at most _MAX_KEPT_BYTES (24 MiB): 2.6 MiB at 1729 nodes x 97
modes.  All else derived is kept under explicit keys by one memo, _memo:
node values and what follows from them on the GridFunction
(GridFunction.cached), weights, phase tables and NUFFT plans on the mesh.
GridFunction.evaluate stays dense synthesis at arbitrary points, the
reference for both paths.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy loads these on first use; loading them here keeps that in start-up
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

__all__ = [
    "GridError",
    "GridSpec",
    "GridFunction",
    "QuadratureMesh",
    "random_band_limited",
]


class GridError(ValueError):
    """Raised for out-of-band frequencies and malformed grid parameters."""


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for the truncated periodic domain [-L, L].

    half_width is L; n_samples must be a power of two (>= 8) so the
    spectral transforms are exact FFTs.  The representable frequencies
    are the integer multiples of 1/(2L) strictly below the Nyquist
    frequency N/(4L); the unpaired Nyquist bin stays empty.
    """

    half_width: float = 1.0
    n_samples: int = 1024

    def __post_init__(self):
        if not (0 < self.half_width < math.inf):
            raise GridError(f"half_width must be finite and positive, got {self.half_width}")
        n = self.n_samples
        if n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"n_samples must be a power of two >= 8, got {n}")

    @property
    def nyquist(self) -> float:
        return self.n_samples / (4.0 * self.half_width)

    @property
    def fundamental(self) -> float:
        """Smallest positive representable frequency, 1/(2L)."""
        return 1.0 / (2.0 * self.half_width)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n_samples

    def sample_points(self) -> np.ndarray:
        n = self.n_samples
        return -self.half_width + self.spacing * np.arange(n)

    def frequencies(self) -> np.ndarray:
        """Frequencies in FFT index order (index j holds k = j or j - N)."""
        n = self.n_samples
        k = np.fft.fftfreq(n, d=1.0 / n)  # signed integer index
        return k * self.fundamental

    def freq_to_index(self, xi: float) -> int:
        k = xi / self.fundamental
        ki = int(round(k))
        if abs(k - ki) > 1e-9:
            raise GridError(f"frequency {xi} is not a multiple of 1/(2L) = {self.fundamental}")
        if abs(ki) >= self.n_samples // 2:
            raise GridError(
                f"frequency {xi} is not strictly below the Nyquist frequency {self.nyquist}"
            )
        return ki % self.n_samples


def _memo(cache: dict, key: tuple, compute):
    """cache[key], computed once by compute() and stored read-only (an
    array, or each array of a tuple, frozen).  The key holds by value every
    input of compute() but the cache owner's data, so that no result
    depends on what was computed before it."""
    got = cache.get(key)
    if got is None:
        got = compute()
        for array in got if isinstance(got, tuple) else (got,):
            array.flags.writeable = False
        cache[key] = got
    return got


def _alternating_signs(n: int) -> np.ndarray:
    s = np.ones(n)
    s[1::2] = -1.0
    return s


class GridFunction:
    """A band-limited function on a GridSpec, stored as exact Fourier
    coefficients.

    Coefficients are a complex array of shape (N, dim) in FFT index
    order.  Construction from a coefficient map keeps the coefficients
    exact; construction from samples projects onto the band (the empty
    Nyquist bin is enforced).  The sample values are synthesized on first
    read.  Instances are immutable.
    """

    def __init__(self, grid: GridSpec, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=complex)
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.shape[0] != grid.n_samples:
            raise GridError("coefficient array length must equal n_samples")
        nyq = grid.n_samples // 2
        if np.any(coeffs[nyq] != 0):
            raise GridError("Nyquist bin must stay empty: the unpaired mode is not band-limited")
        self.grid = grid
        self._coeffs = coeffs
        self._coeffs.flags.writeable = False
        active = np.flatnonzero(np.any(coeffs != 0, axis=1))
        self._active = active
        self._cache: dict[tuple, np.ndarray] = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeff_map(cls, grid: GridSpec, coeff_map: dict) -> "GridFunction":
        vals = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in coeff_map.values()]
        dim = vals[0].shape[0] if vals else 1
        c = np.zeros((grid.n_samples, dim), dtype=complex)
        for xi, v in zip(coeff_map.keys(), vals):
            if v.shape[0] != dim:
                raise GridError("all coefficient values must share one dimension")
            c[grid.freq_to_index(float(xi))] += v
        return cls(grid, c)

    @classmethod
    def from_samples(cls, grid: GridSpec, samples: np.ndarray) -> "GridFunction":
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[0] != grid.n_samples:
            raise GridError("sample array length must equal n_samples")
        alt = _alternating_signs(grid.n_samples)[:, None]
        coeffs = alt * np.fft.fft(samples, axis=0) / grid.n_samples
        coeffs[grid.n_samples // 2] = 0.0  # project off the unpaired Nyquist mode
        return cls(grid, coeffs)

    # -- basic data ---------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def samples(self) -> np.ndarray:
        n = self.grid.n_samples
        return self.cached(("samples",), lambda: n * np.fft.ifft(
            self._coeffs * _alternating_signs(n)[:, None], axis=0))

    @property
    def dim(self) -> int:
        return self._coeffs.shape[1]

    @property
    def active_indices(self) -> np.ndarray:
        return self._active

    def active_frequencies(self) -> np.ndarray:
        """The active modes' frequencies k / (2L), signed, read-only and
        computed once."""
        n = self.grid.n_samples
        return self.cached(("active-frequencies",), lambda: np.where(
            self._active < n // 2, self._active, self._active - n) * self.grid.fundamental)

    @functools.cached_property
    def max_frequency(self) -> float:
        if self._active.size == 0:
            return 0.0
        return float(np.max(np.abs(self.active_frequencies())))

    @property
    def value_at_zero(self) -> np.ndarray:
        """Sample value at t = 0 (a grid point)."""
        return self.samples[self.grid.n_samples // 2]

    # -- algebra ------------------------------------------------------

    def multiplied(self, factors: np.ndarray) -> "GridFunction":
        """New function with coefficients factors[j] * c[j] (FFT order)."""
        factors = np.asarray(factors)
        if factors.shape != (self.grid.n_samples,):
            raise GridError("factor array must have one entry per frequency bin")
        return GridFunction(self.grid, self._coeffs * factors[:, None])

    def derivative(self, order: int = 1) -> "GridFunction":
        xi = self.grid.frequencies()
        return self.multiplied((2j * np.pi * xi) ** order)

    # -- evaluation ---------------------------------------------------

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Values at arbitrary points, shape (len(t), dim).

        Exact synthesis over the active modes; cost O(len(t) * n_active).
        """
        t = np.asarray(t, dtype=float)
        if self._active.size == 0:
            return np.zeros(t.shape + (self.dim,), dtype=complex)
        xi = self.active_frequencies()
        e = np.exp((2j * np.pi) * np.multiply.outer(t, xi))
        return e @ self._coeffs[self._active]

    def cached(self, key: tuple, compute) -> np.ndarray:
        """The array derived from this function under `key`, computed once
        by compute(); see _memo."""
        return _memo(self._cache, key, compute)


# ---------------------------------------------------------------------
# quadrature against |t|^gamma
# ---------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # shifted to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


# The largest mode matrix a mesh keeps, in bytes.  The suites keep at most
# 2.6 MiB at the pinned config and 10.2 MiB at L = 2 (3457 nodes x 193 modes);
# a band near Nyquist on its own 18397-node mesh would keep 31.4 MiB, and the
# shared-mesh cache holds eight meshes.
_MAX_KEPT_BYTES = 24 * 2**20

# Node rows per mode-matrix chunk of the phase-table product: a chunk of
# 255 modes, the most that path takes, stays near 1 MB, inside the cache.
_SYNTH_ROWS = 256

# QuadratureMesh.synthesize takes the NUFFT from this many active modes up
# and the phase-table product below it.  Measured with the numpy spread at
# 1536, 2304 and 3072 nodes (the ORBIT_BAND mesh, bands 24 and 32, with four
# stored nodes per cell) and N = 1024 and 4096, against a product that
# builds its mode matrix: at 256 modes the NUFFT takes 0.24-0.60 of the
# product's time for 1 to 6 columns, 0.83-3.0 for 54 and 2.1-6.6 for 300;
# at 128 modes 0.76-1.17 for 1 to 6 columns and 1.6-11 from 54 on; at 512
# modes 0.18-0.31 for 1 to 6 and 0.33-3.3 from 54 on.  A kept mode matrix
# favours the product more.
# No cut-off wins everywhere and moving it moves values at rounding level,
# so it stays; a full band (1023 modes, 54 columns, 1536 nodes, N = 1024)
# takes 6.8 ms by the NUFFT against 53 ms by the product.  Those meshes now
# store 1153, 1729 and 2305 nodes; both paths cost the same per node, so the
# ratios, and the cut-off, stand.
_NUFFT_MIN_MODES = 256

# The NUFFT's kernel exp(beta (sqrt(1 - z^2) - 1)), z in [-1, 1], spans
# _NUFFT_WIDTH cells of a twice oversampled grid, with beta = 2.30 width
# for that oversampling (Barnett, Magland & af Klinteberg 2019).  Against
# phases computed exactly its error is about 4e-15 of the largest value.
_NUFFT_WIDTH = 16
_NUFFT_BETA = 2.30 * _NUFFT_WIDTH
# The kernel's Fourier transform is taken by the midpoint rule at a quarter
# cell: exact to rounding, since the kernel is smooth inside [-1, 1] and
# below 1e-16 at its ends.  Gauss-Legendre is not: at 64 nodes it is off
# by 2e-15 to 8e-15, which would bias every NUFFT value by as much.
_NUFFT_FT_STEP = 2.0 / (4 * _NUFFT_WIDTH)
_NUFFT_FT_NODES = -1.0 + _NUFFT_FT_STEP * (np.arange(4 * _NUFFT_WIDTH) + 0.5)


# Nodes per gather-and-contract step of the NUFFT's spread: the gathered
# (64, 16, 2 columns) block stays under 1 MB up to 54 columns.
_SPREAD_ROWS = 64


def _nufft_kernel(z: np.ndarray) -> np.ndarray:
    return np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))


# QuadratureMesh.for_band: cells per wavelength of the top frequency on
# each side, and the cell count it never exceeds.  The one error budget:
# doubling every mesh moves no baseline-compared value by more than 1e-3, a
# tenth of the 0.01 baseline tolerance.  Measured over every suite at the
# pinned config, the largest relative move from halving the cells per
# wavelength 48 -> 24 -> 12 -> 6 was 4.3e-5, 1.7e-4 and 8.2e-4 at seed 2024
# (3.5e-5, 3.1e-4 and 8.0e-4 at seed 9001): about 4 times per halving, so
# second order in the cell count, not the (h xi)^4 of a cubic interpolant
# alone.  12 keeps the budget with a margin of 3; 6 does not.  There is no
# floor: raising the band-8 and band-16 meshes to 256 cells moves no value
# by more than 1.1e-4.
_CELLS_PER_WAVE = 12
_MAX_CELLS = 20000


def _lagrange_monomial_matrix(order: int) -> np.ndarray:
    """Row n: monomial coefficients (in the local coordinate u in [0,1])
    of the Lagrange basis polynomial through equispaced nodes."""
    nodes = np.linspace(0.0, 1.0, order + 1)
    mat = np.zeros((order + 1, order + 1))
    for n in range(order + 1):
        poly = np.poly1d([1.0])
        for m in range(order + 1):
            if m != n:
                poly *= np.poly1d([1.0, -nodes[m]]) / (nodes[n] - nodes[m])
        mat[n, : poly.order + 1] = poly.coefficients[::-1]
    return mat


class QuadratureMesh:
    """Symmetric cell mesh on [-L, L], graded toward t = 0.

    Positive-side cell edges are L*(i/M)^grading; the negative side
    mirrors them.  Each cell carries order+1 equispaced interpolation
    nodes, its two edges among them, and adjacent cells share the node
    at their common edge: nodes holds each distinct node once, ascending,
    order * 2M + 1 of them, and _cells[c] indexes cell c's nodes into it.
    Node positions are weight-independent, so a function's node values
    can be reused across every gamma.
    """

    grading = 2.0
    order = 3  # piecewise-cubic interpolant

    def __init__(self, half_width: float, n_cells: int):
        if not (0 < half_width < np.inf and isinstance(n_cells, int | np.integer) and n_cells >= 4):
            raise GridError("need a finite positive half-width and an integer count of at "
                            f"least 4 cells per side, got {half_width} and {n_cells}")
        self.half_width = float(half_width)
        self.n_cells = int(n_cells)
        order = self.order
        edges = half_width * (np.arange(n_cells + 1) / n_cells) ** self.grading
        self.pos_edges = edges
        u = np.linspace(0.0, 1.0, order + 1)[:-1]  # a cell's nodes but its right edge
        a, b = edges[:-1], edges[1:]
        pos = np.append((a[:, None] + (b - a)[:, None] * u[None, :]).ravel(), edges[-1])
        # ascending: the mirrored positive nodes, then t = 0 and the positive ones
        self.nodes = np.concatenate([-pos[:0:-1], pos])
        self._cells = order * np.arange(2 * n_cells)[:, None] + np.arange(order + 1)
        self._lagrange = _lagrange_monomial_matrix(order)
        # weights per gamma, phase tables and NUFFT plans per GridSpec; see _memo
        self._cache: dict[tuple, np.ndarray | tuple] = {}
        # (grid, active bins) of the last phase-table call, and the mode
        # matrix of that set once it has been asked for twice in a row
        self._kept_modes: tuple[tuple | None, np.ndarray | None] = (None, None)

    @property
    def key(self) -> tuple:
        """The defining values of the mesh: equal keys, equal nodes and weights."""
        return (self.half_width, self.n_cells)

    def __repr__(self):
        return f"QuadratureMesh(L={self.half_width}, cells={self.n_cells})"

    @classmethod
    def for_band(cls, grid: GridSpec, band_max: float, min_cells: int = 4) -> "QuadratureMesh":
        """Mesh resolving oscillation up to |xi| = band_max: ceil(12
        max(band_max, 1) L) cells per side (_CELLS_PER_WAVE per wavelength),
        graded toward 0, at least min_cells and at most _MAX_CELLS.  One
        shared instance per key, so its tables and weights are built once.
        A band that is not finite and >= 0 is a GridError."""
        if not 0.0 <= band_max < math.inf:
            raise GridError(f"band must be finite and >= 0, got {band_max}")
        need = int(math.ceil(_CELLS_PER_WAVE * max(band_max, 1.0) * grid.half_width))
        return _shared_mesh(grid.half_width, min(max(need, min_cells), _MAX_CELLS))

    @classmethod
    def for_function(cls, f: GridFunction) -> "QuadratureMesh":
        return cls.for_band(f.grid, f.max_frequency)

    # -- synthesis ----------------------------------------------------

    def _phase_table(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """(fine, coarse) phases at the nodes for k + N/2 = a B + b:
        fine[:, b] = exp(2 pi i t b / (2L)), coarse[:, a] = exp(2 pi i t
        (a B - N/2) / (2L)), with B = isqrt(N)."""
        def build():
            n = grid.n_samples
            width = math.isqrt(n)
            fine_k = np.arange(width)
            coarse_k = width * np.arange(-(-n // width)) - n // 2
            return tuple(np.exp((2j * np.pi) * np.multiply.outer(self.nodes, k * grid.fundamental))
                         for k in (fine_k, coarse_k))

        return _memo(self._cache, ("phase", grid), build)

    def _nufft_plan(self, grid: GridSpec) -> tuple:
        """(cols, vals, deconv): per node, the _NUFFT_WIDTH columns of the
        oversampled 2N grid that the kernel reaches and the kernel's value
        at each, both (n_nodes, _NUFFT_WIDTH); and 1 / (the kernel's Fourier
        transform) at each bin of grid, in FFT order."""
        def build():
            n = grid.n_samples
            fine = 2 * n
            half = 0.5 * _NUFFT_WIDTH
            s = self.nodes * (fine * grid.fundamental)  # node positions in fine cells
            cols = np.ceil(s - half).astype(np.int64)[:, None] + np.arange(_NUFFT_WIDTH)
            vals = _nufft_kernel((cols - s[:, None]) / half)
            # int_{-half}^{half} kernel(x / half) exp(-2 pi i k x / fine) dx
            omega = np.fft.fftfreq(n, 1.0 / n) * (2.0 * np.pi * half / fine)
            ft = (half * _NUFFT_FT_STEP) * (np.cos(np.multiply.outer(omega, _NUFFT_FT_NODES))
                                            @ _nufft_kernel(_NUFFT_FT_NODES))
            return (cols % fine).astype(np.int32), vals, 1.0 / ft

        return _memo(self._cache, ("nufft", grid), build)

    def _synthesize_nufft(self, grid: GridSpec, active: np.ndarray,
                          coeffs: np.ndarray) -> np.ndarray:
        """Type-2 NUFFT: deconvolve the coefficients, place them on the 2N
        grid, one inverse FFT per column, and interpolate onto the nodes:
        per _SPREAD_ROWS nodes, gather the _NUFFT_WIDTH grid rows each node
        reaches and contract them with its kernel values (real and
        imaginary parts at once, on the float view)."""
        cols, vals, deconv = self._nufft_plan(grid)
        n = grid.n_samples
        padded = np.zeros((2 * n, coeffs.shape[1]), dtype=complex)
        padded[np.where(active < n // 2, active, active + n)] = coeffs * deconv[active, None]
        on_grid = np.fft.ifft(padded, axis=0, norm="forward").view(float)
        out = np.empty((self.nodes.size, on_grid.shape[1]))
        for start in range(0, self.nodes.size, _SPREAD_ROWS):
            rows = slice(start, start + _SPREAD_ROWS)
            np.einsum("nw,nwc->nc", vals[rows], on_grid[cols[rows]], out=out[rows])
        return out.view(complex)

    def _mode_chunks(self, grid: GridSpec, active: np.ndarray):
        """(rows, modes) per _SYNTH_ROWS node rows, modes[i, j] = exp(2 pi i
        nodes[rows][i] xi_{active[j]}): gathered from the phase tables, or
        read from the kept matrix of a set asked for twice in a row."""
        key = (grid, active.tobytes())
        kept_key, kept = self._kept_modes
        if key == kept_key and kept is not None:
            for start in range(0, self.nodes.size, _SYNTH_ROWS):
                rows = slice(start, start + _SYNTH_ROWS)
                yield rows, kept[rows]
            return
        # a second call in a row keeps the matrix it builds, once it is whole
        # and if its complex values (16 bytes each) fit under _MAX_KEPT_BYTES;
        # any other call drops the kept matrix and remembers its set only
        keep = key == kept_key and 16 * self.nodes.size * active.size <= _MAX_KEPT_BYTES
        self._kept_modes = (key, None)
        kept = np.empty((self.nodes.size, active.size), dtype=complex) if keep else None
        fine, coarse = self._phase_table(grid)
        n = grid.n_samples
        a, b = np.divmod((active + n // 2) % n, fine.shape[1])  # k + N/2 = a B + b
        for start in range(0, self.nodes.size, _SYNTH_ROWS):
            rows = slice(start, start + _SYNTH_ROWS)
            modes = np.take(fine[rows], b, axis=1)
            modes *= np.take(coarse[rows], a, axis=1)
            if keep:
                kept[rows] = modes
            yield rows, modes
        if keep:
            self._kept_modes = (key, kept)

    def synthesize(self, grid: GridSpec, active: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of sum_j coeffs[j] exp(2 pi i xi_{active[j]} t),
        shape (n_nodes, ncols).

        active holds FFT-order bin indices of grid and coeffs has one row
        per active bin; its columns are independent functions, so stacking
        several functions on one active set costs one product.  The size
        of the active set alone picks the path, so a function's values
        never depend on what is stacked with it or computed before it.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if active.size == 0:
            return np.zeros((self.nodes.size, coeffs.shape[1]), dtype=complex)
        if active.size >= _NUFFT_MIN_MODES:
            return self._synthesize_nufft(grid, active, coeffs)
        out = np.empty((self.nodes.size, coeffs.shape[1]), dtype=complex)
        for rows, modes in self._mode_chunks(grid, active):
            np.matmul(modes, coeffs, out=out[rows])
        return out

    # -- moment machinery ---------------------------------------------

    def _cell_basis_weights(self, gamma: float, lo: float, hi: float) -> np.ndarray:
        """w[cell, node] = int_{lo}^{hi} t^gamma * lagrange_node(t; cell [a,b]) dt
        for the positive cells 0 <= a < b and 0 <= lo <= hi."""
        a, b = self.pos_edges[:-1], self.pos_edges[1:]
        h = b - a
        order = self.order
        w = np.zeros((a.size, order + 1))
        # moments m_j = int t^gamma ((t - a)/h)^j dt, j = 0..order
        full = (hi >= b - 1e-300) & (lo <= a + 1e-300)
        thin = (h < 0.3 * a) & full  # cancellation regime: Gauss in the local coordinate
        if np.any(thin):
            at, ht = a[thin], h[thin]
            tg = (at[:, None] + ht[:, None] * _GL_NODES[None, :]) ** gamma
            lag_at_gl = self._lagrange @ np.vander(_GL_NODES, order + 1, increasing=True).T
            w[thin] = (tg * _GL_WEIGHTS[None, :]) @ lag_at_gl.T * ht[:, None]
        rest = ~thin
        if np.any(rest):
            ar, hr = a[rest], h[rest]
            lor, hir = np.maximum(lo, ar), np.minimum(hi, b[rest])
            live = hir > lor
            m = np.zeros((ar.size, order + 1))
            # I_i = int_lo^hi t^{gamma+i} dt, exact; gamma + i + 1 > 0 for gamma > -1
            powers = np.arange(order + 1)
            ii = np.zeros((ar.size, order + 1))
            with np.errstate(invalid="ignore"):
                for i in powers:
                    e = gamma + i + 1.0
                    ii[live, i] = (hir[live] ** e - lor[live] ** e) / e
            for j in powers:
                acc = np.zeros(ar.size)
                for i in range(j + 1):
                    acc += math.comb(j, i) * (-ar) ** (j - i) * ii[:, i]
                m[:, j] = acc
            scale = np.where(hr > 0, hr, 1.0)[:, None] ** powers[None, :]
            w[rest] = (m / scale) @ self._lagrange.T
        return w

    def weights(self, gamma: float) -> np.ndarray:
        """Node weights so that sum(w * g(nodes)) = int |t|^gamma * interp(g) dt."""
        return _memo(self._cache, ("weights", gamma),
                     lambda: self.weights_on_interval(gamma, -self.half_width, self.half_width))

    def weights_on_interval(self, gamma: float, lo: float, hi: float) -> np.ndarray:
        """Weights for int_{[lo,hi]} |t|^gamma * interp(g) dt (subset of [-L, L])."""
        if not gamma > -1:
            raise GridError(f"weight exponent must exceed -1, got gamma={gamma}")
        self._check_interval(lo, hi)
        pos, neg = (max(lo, 0.0), max(hi, 0.0)), (max(-hi, 0.0), max(-lo, 0.0))
        wp = self._cell_basis_weights(gamma, *pos)
        # negative side: [lo, hi] reflected onto [|hi|, |lo|]; a symmetric interval mirrors wp
        wn = wp if neg == pos else self._cell_basis_weights(gamma, *neg)
        # per-cell weights, summed where adjacent cells share a node
        w = np.concatenate([wn[::-1, ::-1], wp])
        return np.bincount(self._cells.ravel(), weights=w.ravel(), minlength=self.nodes.size)

    def _check_interval(self, lo: float, hi: float) -> None:
        if not -self.half_width <= lo <= hi <= self.half_width:
            raise GridError(f"interval ({lo}, {hi}) is not an ordered subinterval of "
                            f"[-{self.half_width}, {self.half_width}]")

    def integrate(self, node_values: np.ndarray, gamma: float,
                  interval: tuple[float, float] | None = None) -> float:
        w = self.weights(gamma) if interval is None else self.weights_on_interval(gamma, *interval)
        return float(np.real(np.dot(w, node_values)))

    def lp_norm(self, mags: np.ndarray, p: float, gamma: float,
                interval: tuple[float, float] | None = None) -> np.ndarray:
        """(int |t|^gamma mags^p dt)^{1/p} along the last (node) axis, over
        [-L, L] or [lo, hi]; p = inf gives the maximum there of the cubic
        interpolant of mags, at cell ends and the cubics' critical points."""
        lo, hi = (-self.half_width, self.half_width) if interval is None else interval
        if not math.isinf(p):
            w = self.weights(gamma) if interval is None else self.weights_on_interval(gamma, lo, hi)
            return np.maximum(mags ** p @ w, 0.0) ** (1.0 / p)
        self._check_interval(lo, hi)
        cells = self.nodes[self._cells]
        meets = (cells[:, -1] >= lo) & (cells[:, 0] <= hi)
        a, b = cells[meets, 0], cells[meets, -1]
        u_lo, u_hi = (np.clip((x - a) / (b - a), 0.0, 1.0) for x in (lo, hi))
        # each cell's cubic in u, and the roots of its derivative (finite stand-ins)
        c = mags[..., self._cells[meets]] @ self._lagrange
        qa, qb, qc = 3.0 * c[..., 3], 2.0 * c[..., 2], c[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            qq = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4.0 * qa * qc), qb))
            crit = [np.clip(np.nan_to_num(r), u_lo, u_hi) for r in (qq / qa, qc / qq)]
        u = np.stack(np.broadcast_arrays(u_lo, u_hi, *crit), axis=-1)
        vals = c[..., 3, None]
        for j in (2, 1, 0):
            vals = vals * u + c[..., j, None]
        return np.max(vals, axis=(-2, -1))


# Safe to share, because a mesh's nodes follow from its key and all else
# it holds is a cache keyed exactly; the bound keeps the phase tables and
# NUFFT plans of meshes no longer in use (1216 bytes per node at N = 1024:
# 1.4 MB on the 1153-node orbit mesh, 22 MB on the 18397 nodes of a band
# near Nyquist) from piling up.
@functools.lru_cache(maxsize=8)
def _shared_mesh(half_width: float, n_cells: int) -> QuadratureMesh:
    return QuadratureMesh(half_width, n_cells)


# ---------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------


def random_band_limited(grid: GridSpec, band: tuple[float, float], seed,
                        dim: int = 1) -> GridFunction:
    """Seeded function with i.i.d. standard complex normal coefficients on
    every representable frequency inside [band[0], band[1]]."""
    lo, hi = band
    if hi < lo:
        raise GridError("band must be ordered")
    if hi >= grid.nyquist or lo <= -grid.nyquist:
        raise GridError("band must lie strictly inside (-Nyquist, Nyquist)")
    klo = int(math.ceil(lo / grid.fundamental - 1e-9))
    khi = int(math.floor(hi / grid.fundamental + 1e-9))
    if khi < klo:
        raise GridError("band contains no representable frequency")
    # an edge within the 1e-9 slack of Nyquist rounds onto the Nyquist bin
    if klo <= -(grid.n_samples // 2) or khi >= grid.n_samples // 2:
        raise GridError("band must stay below the Nyquist frequency")
    rng = np.random.default_rng(seed)
    ks = np.arange(klo, khi + 1)
    vals = (rng.standard_normal((ks.size, dim)) + 1j * rng.standard_normal((ks.size, dim)))
    vals /= math.sqrt(2.0)
    c = np.zeros((grid.n_samples, dim), dtype=complex)
    c[ks % grid.n_samples] = vals
    return GridFunction(grid, c)
