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

evaluated by integrating the weight against a piecewise-cubic interpolant
of the smooth factor g (never by blind quadrature of the product, which
loses the |t|^gamma singularity for gamma < 0): in closed form on the cell
at t = 0, and by Gauss-Legendre on every other cell, where t^gamma is
analytic; p = inf takes that interpolant's maximum.  Every norm of f
that names no mesh takes f.mesh, with 6 cells per wavelength of f's top
frequency at its widest cell on each side and no floor above 4 cells: one
error budget sizes every mesh (see _CELLS_PER_WAVE).  A band-limited
function's mesh is uniform, ceil(6 band L) cells a side; an orbit's mesh,
of the band trace.ORBIT_BAND, and the extension suite's mesh for reflected
functions are graded toward t = 0 with twice the cells, since extending
across t = 0 leaves a joint of finite smoothness there, and a grading pays
only near such a point.

Every evaluation at quadrature nodes goes through one kernel,
QuadratureMesh.synthesize, which has three paths; the mesh, the grid, the
active set and the column count alone pick one, so a function's node
values never depend on what is computed before it.  On a uniform mesh
they can depend, at rounding level, on how many columns are stacked with
it, since the column count picks between the FFT and the mode table.

- FFT, on a uniform mesh of M cells a side, for a set whose signed bins
  span at most 6M: the nodes -L + n L / (3M), n = 0..6M, are the points of
  a DFT of length 6M over the period 2L, so the node values are one
  inverse FFT of length 6M of (-1)^k c_k, the bins folded mod 6M, with
  node 6M equal to node 0 (_synthesize_fft).  It is exact to rounding: no
  kernel, no deconvolution, no 2N grid.
- Mode table, for a set whose signed bins lo..hi span fewer than
  _NUFFT_MIN_MODES (256) and lie inside the band the mesh resolves, kb =
  n_cells / (grading _CELLS_PER_WAVE L) bins: on a graded mesh always, on a
  uniform one when it has more than _FFT_MAX_COLUMNS (8) columns, as the
  seminorm's hundreds do and a norm request's few do not.  Per GridSpec the mesh
  keeps one real table of cos and sin of 2 pi t k / (2L) at its nodes,
  interleaved, for every bin 0 <= k <= kb, each phase reduced mod 1 from
  the exact product (_cycles).  The set is folded onto bins k >= 0: with
  a_k = c_k + c_-k and b_k = c_k - c_-k,

      sum_k c_k e^{i theta k t} = sum_{k >= 0} a_k cos theta k t + i b_k sin theta k t,

  so its values are one real product of the table's columns for the bins
  min(|lo|, |hi|)..max(|lo|, |hi|) (from 0 when the set crosses 0) with the
  (a_k, i b_k) rows, read as complex; no exp runs per call.  The product
  is _blocked_product, whose BLAS products of at most 2^18 multiply-adds
  (_ONE_THREAD_MACS) OpenBLAS runs on the calling thread; the difference
  seminorm's scale integral takes it too.  The table is built on the first
  call that takes it, in row blocks, and never when the complex table of
  every signed bin would exceed _MAX_TABLE_BYTES (24 MiB).
- NUFFT, for every other set: on a graded mesh, one too wide or past the
  mesh's band or over the table cap; on a uniform mesh, one spanning more
  than 6M bins.  A type-2 NUFFT (Dutt & Rokhlin 1993; Barnett, Magland &
  af Klinteberg 2019): the coefficients are divided by the Fourier
  transform of an exponential-of-semicircle kernel, placed on a 2N grid
  and inverse transformed, one FFT per column; each node then gathers the
  16 grid values its kernel reaches and sums them against its 16 kernel
  values, in blocks of nodes sized by the column count (_spread_rows).
  The mesh keeps the 16 grid columns (int32) and kernel values (float64)
  per node and the N divisors per GridSpec: 192 bytes per node, 1.8 MB for
  9217 nodes.  Its error is about 4e-15 of the largest value, below that
  of dense synthesis, whose phases t * xi round.

All derived data is kept under explicit keys by one memo, _memo: node
values and what follows from them on the GridFunction
(GridFunction.cached), and weights, mode tables, NUFFT plans and the
difference seminorm's h-rules on the mesh (QuadratureMesh.cached).
GridFunction.evaluate stays dense synthesis at arbitrary points, the
reference for every path.
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
    def top(self) -> float:
        """Largest representable frequency, one fundamental below Nyquist."""
        return self.nyquist - self.fundamental

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
        # a copy: the caller's array stays writable
        self._adopt(grid, np.array(coeffs, dtype=complex, order="C", ndmin=1))

    @classmethod
    def _owning(cls, grid: GridSpec, coeffs: np.ndarray):
        """A cls over coeffs itself when it is a complex C-contiguous array,
        not a copy: for the constructors, whose array was just built or is
        read-only, and which no one writes after."""
        f = cls.__new__(cls)
        GridFunction._adopt(f, grid, np.asarray(coeffs, dtype=complex, order="C"))
        return f

    def _adopt(self, grid: GridSpec, coeffs: np.ndarray) -> None:
        """Take coeffs, a complex C-contiguous array, as the coefficients
        and make it read-only."""
        if coeffs.ndim == 1:
            coeffs = coeffs[:, None]
        if coeffs.ndim != 2 or coeffs.shape[1] == 0:
            raise GridError("coefficients must be one column or an (N, dim) array with "
                            f"dim >= 1, got shape {coeffs.shape}")
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
        return cls._owning(grid, c)

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
        return cls._owning(grid, coeffs)

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
    def mesh(self) -> "QuadratureMesh":
        """The mesh of every norm of f that names none: its band's uniform
        mesh."""
        return QuadratureMesh.for_band(self.grid, self.max_frequency)

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
        return GridFunction._owning(self.grid, self._coeffs * factors[:, None])

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

# The Gauss rule of every mesh cell off t = 0.  Cell 1 of a graded mesh
# spans [a, 4 a], so the branch point of t^gamma at 0 lies on its Bernstein
# ellipse rho = 3 and the error falls like 3^(-2 n): the worst relative
# error over cells >= 1 is 4.5e-11 at 12 points, 1.2e-14 at 16 and 1.1e-14
# at 24.  Cell 1 of a uniform mesh spans [a, 2 a], where rho = 3 + 2 sqrt 2
# and the error falls like 5.8^(-2 n), to rounding at 16 points.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # shifted to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


# The cap on a mesh's mode table per GridSpec, in bytes; a mesh over it
# synthesizes every set by the FFT if uniform and by the NUFFT if graded.
# It is checked on the bytes of a complex table of every signed bin, 16
# n_nodes (2 kb + 1), about 64 n_cells^2 on a uniform mesh and 32 n_cells^2
# on a graded one, so meshes of up to 626 and 887 cells a side may keep
# one.  The real table a mesh keeps takes 16 n_nodes (kb + 1), about half
# of that, and is built only when some call takes it: in the default report
# the band-8 and band-16 meshes build one (75 and 298 KB), at L = 2 the
# band-8 and band-16 meshes (298 KB and 1.1 MB), and the fresh-functions
# benchmark's band-32 mesh 1.1 MB; the shared-mesh cache holds eight meshes.
_MAX_TABLE_BYTES = 24 * 2**20

# Node rows per block of the mode table's build, and the most rows of one
# product of _blocked_product.
_SYNTH_ROWS = 64

# The most multiply-adds (rows x k x columns) in one BLAS product of
# _blocked_product: 65536 x GEMM_MULTITHREAD_THRESHOLD (4), the bound
# below which OpenBLAS runs a gemm on the calling thread on every CPU.  A
# larger product can take a second thread, which spins while it waits and
# slows badly when another process wants that core.  Replaying the
# scalar-families suites' 305 synthesis and 100 scale products at two BLAS
# threads (medians of 15 rounds, two replays): 64-row blocks and whole
# scale products, as before, took 165 and 153 ms of wall and 309 and 283 ms
# of CPU time; the helper took 183 and 163 ms of both.  10^6 stays on one
# thread only where OpenBLAS takes its small-matrix path (SkylakeX, not
# every CPU), and its 137 and 162 ms lay inside the quartiles of 2^18's, so
# the portable bound stays.
_ONE_THREAD_MACS = 2**18

# The widest set, in signed bins, QuadratureMesh.synthesize may take the
# mode table for; a wider set takes the FFT on a uniform mesh, within 6M
# bins, and the NUFFT on a graded one.  On graded meshes the NUFFT's time
# over the folded product's, measured on meshes of 1153, 1729 and 2305
# nodes (N = 1024) for 1, 6, 54 and 300 columns, on sets centred on 0 (K =
# span / 2 folded bins) and one-sided (K = span), at one and two BLAS
# threads: at a span of 128 bins 0.74-7.5 centred and 0.65-5.2 one-sided
# (the NUFFT wins only at one column); at 256 bins 0.68-4.5 and 0.42-2.8
# (the NUFFT wins at one column, and one-sided up to 54 at some sizes); at
# 512 bins 0.40-2.5 and 0.28-1.1 (the NUFFT wins at most sizes below 300
# columns).  No other cut-off wins everywhere, and moving it moves values
# at rounding level, so it stays.
_NUFFT_MIN_MODES = 256

# On a uniform mesh a narrow set of at most this many columns takes the FFT,
# and one of more the mode table.  Timing both paths at every synthesis call
# of the three benchmark workloads where both apply (434 calls on meshes of
# 37 to 1153 nodes, 1 to 399 columns, two BLAS threads), the FFT won at few
# columns and the table at the seminorm's hundreds: 0.40-0.46 against
# 0.60-0.66 ms at 373-399 columns on the 289-node band-8 mesh.  Over those
# calls this cut took 68.9 ms, the table alone 78.6 ms, the FFT alone 87.1
# ms, and a four-constant cost model in nodes, bins and columns 66.4 ms, a
# gap too small to carry that model.
_FFT_MAX_COLUMNS = 8

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


def _spread_rows(ncols: int) -> int:
    """Nodes per gather-and-contract step of the NUFFT's spread: the
    largest power of two, and at least 64, whose gathered block (rows,
    _NUFFT_WIDTH, 2 ncols) of float64 fits 1 MiB: 2048 nodes at 2 columns,
    1024 at 3, 64 from 33 columns on.  At 120001 nodes (L = 400, N = 8192)
    that took a 2-column call from 69-84 to 19-32 ms and a 3-column call
    from 64-85 to 36-43 ms, with the gather as np.take."""
    rows = 64
    while 2 * rows * _NUFFT_WIDTH * 16 * ncols <= 2**20:
        rows *= 2
    return rows


def _blocked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real 2-d a (n, k) and b (k, m), as BLAS products of at
    most _ONE_THREAD_MACS multiply-adds each, which OpenBLAS runs on the
    calling thread: blocks of every column and as many rows as fit, at
    most _SYNTH_ROWS, or of one row and as many columns as fit when one
    row of every column is past the limit (one column at the least, so
    only a k past the limit passes it).  The full blocks and the shorter
    last one each go to numpy as one stacked matmul, so numpy, not Python,
    loops over the blocks.  The blocks follow from the shapes alone, so no
    value depends on the BLAS thread count."""
    (n, k), m = a.shape, b.shape[1]
    rows = max(min(_SYNTH_ROWS, _ONE_THREAD_MACS // (k * m)), 1)
    cols = max(min(m, _ONE_THREAD_MACS // (rows * k)), 1)
    out = np.empty((n, m))
    for r0, r1 in ((0, n - n % rows), (n - n % rows, n)):
        for c0, c1 in ((0, m - m % cols), (m - m % cols, m)):
            if r1 > r0 and c1 > c0:
                r, c = min(rows, r1 - r0), min(cols, c1 - c0)
                np.matmul(a[r0:r1].reshape(-1, 1, r, k),
                          b[:, c0:c1].reshape(k, -1, c).swapaxes(0, 1),
                          out=out[r0:r1, c0:c1].reshape(-1, r, (c1 - c0) // c, c).swapaxes(1, 2))
    return out


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of x into a 26-bit high part and the exact rest."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _cycles(t: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """outer(t, xi) less its nearest integer, with the product formed
    exactly (Dekker) before it is rounded: the phase in cycles in [-1/2,
    1/2], off by one rounding of itself, where t * xi alone carries the
    rounding of the whole product, up to kb / 2 cycles in a mode table."""
    p = np.multiply.outer(t, xi)
    (th, tl), (xh, xl) = _split(t[:, None]), _split(xi)
    rest = ((th * xh - p) + th * xl + tl * xh) + tl * xl  # t xi - p, exactly
    return (p - np.round(p)) + rest


def _nufft_kernel(z: np.ndarray) -> np.ndarray:
    return np.exp(_NUFFT_BETA * (np.sqrt(1.0 - z * z) - 1.0))


# QuadratureMesh.for_band: cells per wavelength of the top frequency at a
# mesh's widest cell on each side, and the cell count it never exceeds.  The
# widest cell sets a band-limited integrand's error, so a uniform mesh of
# ceil(6 band L) cells, each L / M wide, matches a graded one of twice that,
# whose last cell is about 2 L / M (Schwab, p- and hp-Finite Element
# Methods, 1998); grading pays only near the joint at t = 0 of an orbit or
# a reflected function.  The one error budget: doubling every mesh moves no
# baseline-compared value by more than 1e-3, a tenth of the 0.01 baseline
# tolerance.  Measured over every suite at the pinned config, the largest
# relative move from halving the cells per wavelength 48 -> 24 -> 12 -> 6
# -> 3 on the uniform meshes alone was 1.1e-5, 4.2e-5, 2.3e-4 and 1.4e-3 at
# seed 2024 (1.9e-5, 8.1e-5, 8.0e-5 and 5.3e-4 at seed 9001), and on the
# graded meshes alone 2.1e-6, 1.8e-5, 9.2e-5 and 8.2e-4 (3.1e-6, 3.5e-5,
# 8.4e-5 and 8.0e-4): second order in the cell count or better, not the
# (h xi)^4 of a cubic interpolant alone.  6 keeps the budget with a margin
# of 4; 3 does not.  There is no floor above the constructor's 4 cells:
# raising the band-8 and band-16 graded meshes to 256 cells moved no value
# by more than 1.1e-4.
_CELLS_PER_WAVE = 6
# On graded meshes the cap binds past band x L = 1667, on uniform ones past
# 3333.  Against meshes at the grid's top frequency with no cap (24570 graded
# cells a side at L = 400, N = 8192, 49146 at L = 1000, N = 16384) it moves no semigroup case by more than 6.5e-8 and
# no extension case by 8e-15, relative, and keeps semigroup at L = 1000,
# N = 16384 at 2.3-2.8 s and 180 MB, not 5.6-6.3 s and 357 MB (2 cores).
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
    """Symmetric cell mesh on [-L, L], graded toward t = 0 or uniform.

    Positive-side cell edges are L*(i/M)^grading, with grading 2 (graded,
    the constructor's default) or 1 (uniform); the negative side mirrors
    them.  Each cell carries order+1 equispaced interpolation
    nodes, its two edges among them, and adjacent cells share the node
    at their common edge: nodes holds each distinct node once, ascending,
    order * 2M + 1 of them, and _cells[c] indexes cell c's nodes into it.
    A uniform mesh's nodes are L j / (3M), j = -3M..3M, the points of a DFT
    of length 6M.  Node positions are weight-independent, so a function's
    node values can be reused across every gamma.
    """

    order = 3  # piecewise-cubic interpolant

    def __init__(self, half_width: float, n_cells: int, graded: bool = True):
        if not (0 < half_width < np.inf and isinstance(n_cells, int | np.integer) and n_cells >= 4):
            raise GridError("need a finite positive half-width and an integer count of at "
                            f"least 4 cells per side, got {half_width} and {n_cells}")
        self.half_width = float(half_width)
        self.n_cells = int(n_cells)
        self.grading = 2.0 if graded else 1.0
        order = self.order
        edges = half_width * (np.arange(n_cells + 1) / n_cells) ** self.grading
        self.pos_edges = edges
        if graded:
            u = np.linspace(0.0, 1.0, order + 1)[:-1]  # a cell's nodes but its right edge
            a, b = edges[:-1], edges[1:]
            pos = np.append((a[:, None] + (b - a)[:, None] * u[None, :]).ravel(), edges[-1])
            # ascending: the mirrored positive nodes, then t = 0 and the positive ones
            self.nodes = np.concatenate([-pos[:0:-1], pos])
        else:
            # t_j = L j / (3M), j = -3M..3M: the points of a DFT of length 6M
            # over the period 2L, each one correctly rounded quotient times L,
            # so 0, +-L and the cell edges are exact and the nodes symmetric
            j = np.arange(-order * n_cells, order * n_cells + 1)
            self.nodes = half_width * (j / (order * n_cells))
        self._cells = order * np.arange(2 * n_cells)[:, None] + np.arange(order + 1)
        self._lagrange = _lagrange_monomial_matrix(order)
        # weights per gamma, mode tables and NUFFT plans per GridSpec and the
        # seminorm's h-rules; see cached
        self._cache: dict[tuple, np.ndarray | tuple] = {}

    @property
    def key(self) -> tuple:
        """The defining values of the mesh: equal keys, equal nodes and weights."""
        return (self.half_width, self.n_cells, self.grading)

    def __repr__(self):
        return (f"QuadratureMesh(L={self.half_width}, cells={self.n_cells}, "
                f"grading={self.grading})")

    def cached(self, key: tuple, compute):
        """The array, or tuple of arrays, derived from this mesh under
        `key`, computed once by compute(); see _memo."""
        return _memo(self._cache, key, compute)

    @classmethod
    def for_band(cls, grid: GridSpec, band_max: float, min_cells: int = 4,
                 graded: bool = False) -> "QuadratureMesh":
        """Mesh resolving oscillation up to |xi| = band_max with
        _CELLS_PER_WAVE cells per wavelength at its widest cell: uniform,
        ceil(6 max(band_max, 1) L) cells per side, or, for a function with a
        joint at t = 0, graded toward 0 with twice that, ceil(12 max(band_max,
        1) L).  At most _MAX_CELLS and at least min_cells: the constructor's
        4 (L = 0.25 asks for 2 or 3), which only bench/test_bench.py
        overrides.  One shared instance per key, so its tables and weights
        are built once.  A band that is not finite and >= 0 is a GridError."""
        if not 0.0 <= band_max < math.inf:
            raise GridError(f"band must be finite and >= 0, got {band_max}")
        grading = 2.0 if graded else 1.0
        need = int(math.ceil(grading * _CELLS_PER_WAVE * max(band_max, 1.0) * grid.half_width))
        return _shared_mesh(grid.half_width, min(max(need, min_cells), _MAX_CELLS), graded)

    @staticmethod
    def for_function(f: GridFunction) -> "QuadratureMesh":
        """f's own mesh, f.mesh."""
        return f.mesh

    # -- synthesis ----------------------------------------------------

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

        return self.cached(("nufft", grid), build)

    def _synthesize_nufft(self, grid: GridSpec, active: np.ndarray,
                          coeffs: np.ndarray) -> np.ndarray:
        """Type-2 NUFFT: deconvolve the coefficients, place them on the 2N
        grid, one inverse FFT per column, and interpolate onto the nodes:
        per _spread_rows(ncols) nodes, gather the _NUFFT_WIDTH grid rows
        each node reaches and contract them with its kernel values (real
        and imaginary parts at once, on the float view)."""
        cols, vals, deconv = self._nufft_plan(grid)
        n = grid.n_samples
        padded = np.zeros((2 * n, coeffs.shape[1]), dtype=complex)
        padded[np.where(active < n // 2, active, active + n)] = coeffs * deconv[active, None]
        on_grid = np.fft.ifft(padded, axis=0, norm="forward").view(float)
        out = np.empty((self.nodes.size, on_grid.shape[1]))
        step = _spread_rows(coeffs.shape[1])
        for start in range(0, self.nodes.size, step):
            rows = slice(start, start + step)
            np.einsum("nw,nwc->nc", vals[rows], np.take(on_grid, cols[rows], axis=0),
                      out=out[rows])
        return out.view(complex)

    def _synthesize_fft(self, bins: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """On a uniform mesh of M cells a side, whose nodes t_n = -L + n L /
        (3M), n = 0..6M, are the points of a DFT of length P = 6M over the
        period 2L: sum_k c_k exp(i pi k t_n / L) = sum_k (-1)^k c_k exp(2 pi
        i k n / P), one inverse DFT of the signed bins k folded mod P into
        the output; node P takes node 0's value.  The bins must
        span at most P, so that no two fold onto one."""
        period = self.nodes.size - 1
        out = np.zeros((period + 1, coeffs.shape[1]), dtype=complex)
        out[bins % period] = np.where((bins % 2 == 1)[:, None], -coeffs, coeffs)
        out[:period] = np.fft.ifft(out[:period], axis=0, norm="forward")
        out[period] = out[0]
        return out

    def _band_bins(self, grid: GridSpec) -> int:
        """kb: the band the mesh resolves, n_cells / (grading
        _CELLS_PER_WAVE L), in bins of grid, at most N/2 - 1 (1e-9 absorbs
        the rounding of an exact quotient)."""
        bins = self.n_cells / (self.grading * _CELLS_PER_WAVE * self.half_width) / grid.fundamental
        return min(int(bins + 1e-9), grid.n_samples // 2 - 1)

    def _mode_table(self, grid: GridSpec, kb: int) -> np.ndarray:
        """table[:, 2k] = cos(2 pi t k / (2L)) and table[:, 2k + 1] = sin(2 pi
        t k / (2L)) at the nodes for every bin 0 <= k <= kb, built in
        _SYNTH_ROWS row blocks on first use."""
        def build():
            xi = np.arange(kb + 1) * grid.fundamental
            table = np.empty((self.nodes.size, 2 * kb + 2))
            for start in range(0, self.nodes.size, _SYNTH_ROWS):
                rows = slice(start, start + _SYNTH_ROWS)
                phase = (2.0 * np.pi) * _cycles(self.nodes[rows], xi)
                np.cos(phase, out=table[rows, 0::2])
                np.sin(phase, out=table[rows, 1::2])
            return table

        return self.cached(("modes", grid), build)

    def synthesize(self, grid: GridSpec, active: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Values at the nodes of sum_j coeffs[j] exp(2 pi i xi_{active[j]} t),
        shape (n_nodes, ncols).

        active holds FFT-order bin indices of grid and coeffs has one row
        per active bin; its columns are independent functions, so stacking
        several functions on one active set costs one call.  The mesh, the
        grid, the active set and the column count alone pick the path (see
        the module docstring): a set spanning fewer than _NUFFT_MIN_MODES
        signed bins inside the mesh's band and table cap is folded onto bins
        k >= 0 and is one real product over a slice of the mode table, on a
        graded mesh always and on a uniform one above _FFT_MAX_COLUMNS
        columns; any other set spanning at most 6M bins on a uniform mesh is
        one inverse FFT of length 6M, and the rest the NUFFT.  So a
        function's values never depend on what is computed before it.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if active.size == 0:
            return np.zeros((self.nodes.size, coeffs.shape[1]), dtype=complex)
        n = grid.n_samples
        bins = np.where(active < n // 2, active, active - n)
        lo, hi = int(bins.min()), int(bins.max())
        kb = self._band_bins(grid)
        # a uniform mesh's 6M + 1 nodes hold one period of 6M bins
        fft = self.grading == 1.0 and hi - lo + 1 < self.nodes.size
        narrow = (hi - lo + 1 < _NUFFT_MIN_MODES and -kb <= lo <= hi <= kb
                  and 16 * self.nodes.size * (2 * kb + 1) <= _MAX_TABLE_BYTES)
        if narrow and fft:
            narrow = coeffs.shape[1] > _FFT_MAX_COLUMNS
        if not narrow:
            if fft:
                return self._synthesize_fft(bins, coeffs)
            return self._synthesize_nufft(grid, active, coeffs)
        table = self._mode_table(grid, kb)
        kmin = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        kmax = max(abs(lo), abs(hi))
        # c_k at k >= 0 and c_-k at k > 0, on the bins kmin..kmax
        pos = np.zeros((kmax - kmin + 1, coeffs.shape[1]), dtype=complex)
        neg = np.zeros_like(pos)
        up = bins >= 0
        pos[bins[up] - kmin] = coeffs[up]
        neg[-bins[~up] - kmin] = coeffs[~up]
        # rows a_k and i b_k, interleaved as the table's cos and sin columns
        rhs = np.empty((2 * pos.shape[0], coeffs.shape[1]), dtype=complex)
        np.add(pos, neg, out=rhs[0::2])
        np.multiply(1j, pos - neg, out=rhs[1::2])
        return _blocked_product(table[:, 2 * kmin:2 * kmax + 2], rhs.view(float)).view(complex)

    # -- moment machinery ---------------------------------------------

    def _cell_basis_weights(self, gamma: float, lo: float, hi: float) -> np.ndarray:
        """w[cell, node] = int_{lo}^{hi} t^gamma * lagrange_node(t; cell [a,b]) dt
        for the positive cells 0 <= a < b and 0 <= lo <= hi, from the moments
        m_j = int t^gamma ((t - a)/h)^j dt over each cell's part [p, q] of
        [lo, hi]: in closed form on the cell at t = 0, and by one Gauss rule
        in the local coordinate on every other cell, where t^gamma is analytic."""
        a, b = self.pos_edges[:-1], self.pos_edges[1:]
        h = b - a
        powers = np.arange(self.order + 1)
        p, q = np.clip(lo, a, b), np.clip(hi, a, b)  # p = q where a cell misses [lo, hi]
        m = np.empty((a.size, powers.size))
        e = gamma + powers + 1.0  # > 0 for gamma > -1
        m[0] = (q[0] ** e - p[0] ** e) / (e * h[0] ** powers)
        u = ((p - a) / h)[1:, None] + ((q - p) / h)[1:, None] * _GL_NODES
        wt = (q - p)[1:, None] * _GL_WEIGHTS * (a[1:, None] + h[1:, None] * u) ** gamma
        m[1:] = np.einsum("ck,ckj->cj", wt, np.polynomial.polynomial.polyvander(u, self.order))
        return m @ self._lagrange.T

    def weights(self, gamma: float) -> np.ndarray:
        """Node weights so that sum(w * g(nodes)) = int |t|^gamma * interp(g) dt."""
        L = self.half_width
        return self.cached(("weights", gamma), lambda: self.weights_on_interval(gamma, -L, L))

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
        interpolant of mags, at cell ends and the cubics' critical points.

        Each row sums in numpy's fixed order, not by a BLAS product, whose
        order follows the rows stacked with it and the thread count, and
        its root is taken in an array, as numpy's scalar power rounds
        otherwise: so a row's norm is bitwise the same alone, in any batch
        and at any number of BLAS threads."""
        lo, hi = (-self.half_width, self.half_width) if interval is None else interval
        if not math.isinf(p):
            w = self.weights(gamma) if interval is None else self.weights_on_interval(gamma, lo, hi)
            total = np.maximum(np.sum(mags ** p * w, axis=-1, keepdims=True), 0.0)
            return (total ** (1.0 / p))[..., 0]
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


# Safe to share, because a mesh's nodes follow from its key (half-width, cell
# count and grading) and all else it holds is a cache keyed exactly; the
# bound keeps the mode tables (at most _MAX_TABLE_BYTES each) and NUFFT plans
# (192 bytes per node) of meshes no longer in use from piling up.  The
# default report uses all eight.
@functools.lru_cache(maxsize=8)
def _shared_mesh(half_width: float, n_cells: int, graded: bool) -> QuadratureMesh:
    return QuadratureMesh(half_width, n_cells, graded)


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
    return GridFunction._owning(grid, c)
