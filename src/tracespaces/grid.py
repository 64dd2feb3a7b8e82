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
analytic; p = inf takes that interpolant's maximum.  Every mesh is
uniform: M cells a side, with its nodes at L j / (3M), j = -3M..3M, the
points of a DFT of length 6M over the period 2L.  Every norm of f that
names no mesh takes f.mesh, with 6 cells per wavelength of f's top
frequency and no floor above 4 cells: one error budget sizes every mesh
(see _CELLS_PER_WAVE).  A band-limited function's mesh has ceil(6 band L)
cells a side, rounded up to a 5-smooth count so that the FFT of its period
is fast; an orbit's mesh and the extension suite's mesh for reflected
functions, whose extension across t = 0 leaves a joint of finite
smoothness there, take twice the cells of their band (trace.ORBIT_BAND in
the orbit time unit max(L, 1), and 32).

Every evaluation at quadrature nodes goes through one kernel,
QuadratureMesh.synthesize, which has one path and keeps no table: the
nodes -L + n L / (3M), n = 0..6M, are the points of a DFT of length 6M over
the period 2L, so the node values are one inverse FFT of length 6M of
(-1)^k c_k, in place in the output, with node 6M equal to node 0.  Bins k
and k + 6M take equal values at every DFT point, so the signed bins are
summed mod 6M, in a fixed order, and the FFT is exact to rounding at the
nodes for a set of any span.  Each column is transformed on its own, so a
function's node values are bitwise the same whatever is computed before
it, whatever columns are stacked with it and whatever the output's layout.

All derived data is kept under explicit keys by one memo, _memo: node
values and what follows from them on the GridFunction
(GridFunction.cached), and weights and the difference seminorm's h-rules
on the mesh (QuadratureMesh.cached).
GridFunction.evaluate stays dense synthesis at arbitrary points, the
reference for synthesis.
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

# The Gauss rule of every mesh cell off t = 0.  The cell nearest 0, cell 1,
# spans [a, 2 a], so the branch point of t^gamma at 0 lies on its Bernstein
# ellipse rho = 3 + 2 sqrt 2 and the error falls like 5.8^(-2 n), to
# rounding at 16 points; every other cell lies farther from 0 against its
# width.  No cell [a, 4 a], whose rho = 3 set the 16, is left: 12 points
# would do, but 16 keeps every weight as it is.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # shifted to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


# QuadratureMesh.for_band: cells per wavelength of the top frequency on
# each side, and the cell count it never exceeds.  Every mesh is uniform,
# its cells L / M wide, so one grading serves every function; an orbit or a
# reflected function, whose extension across t = 0 leaves a joint there,
# asks for twice the band, and so twice the cells, of a band-limited
# function.  The one error budget: doubling every mesh moves no
# baseline-compared value by more than 1e-3, a tenth of the 0.01 baseline
# tolerance.  Measured over every suite at the pinned config, the largest
# relative move from halving the cells per wavelength 48 -> 24 -> 12 -> 6
# -> 3 was 1.1e-5, 4.2e-5, 2.3e-4 and 1.7e-3 at seed 2024 (1.9e-5, 8.1e-5,
# 1.0e-4 and 1.7e-3 at seed 9001): second order in the cell count or
# better, not the (h xi)^4 of a cubic interpolant alone.  6 keeps the
# budget with a margin of 4; 3 does not.  There is no floor above the
# constructor's 4 cells: raising every mesh to 256 cells moved no value by
# more than 3.2e-4 (2.9e-4 at seed 9001).
_CELLS_PER_WAVE = 6
# A band-limited function's mesh reaches the cap past band x L = 3280.5
# (6 band L past 19683 = 3^9, the 5-smooth count below it), an orbit's,
# 192 max(L, 1) cells a side, past L = 102.5, and the extension suite's,
# 384 L, past L = 51.3.  It was set on the graded orbit meshes of
# an earlier layout: against meshes at the grid's top frequency with no cap
# (24570 graded cells a side at L = 400, N = 8192, 49146 at L = 1000, N =
# 16384) it moved no semigroup case by more than 6.5e-8 and no extension
# case by 8e-15, relative, and kept semigroup at L = 1000, N = 16384 at
# 2.3-2.8 s and 180 MB, not 5.6-6.3 s and 357 MB (2 cores).
_MAX_CELLS = 20000


def _five_smooth(n: int) -> int:
    """The least count >= n with no prime factor above 5, for 1 <= n <=
    _MAX_CELLS = 2^5 5^4: the least that divides 30^20.  The FFT of a
    period 6M is slow where M has a large prime factor: 9 columns of a
    129-bin set at N = 2048 took 1.80 ms on 626 cells (2 x 313), 0.91 on 640."""
    while 30**20 % n:
        n += 1
    return n


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
    """Symmetric uniform cell mesh on [-L, L].

    Positive-side cell edges are L i / M, i = 0..M; the negative side
    mirrors them.  Each cell carries order+1 equispaced interpolation
    nodes, its two edges among them, and adjacent cells share the node
    at their common edge: nodes holds each distinct node once, ascending,
    order * 2M + 1 of them, L j / (3M), j = -3M..3M, the points of a DFT of
    length 6M, and _cells[c] indexes cell c's nodes into it.  Node
    positions are weight-independent, so a function's node values can be
    reused across every gamma.
    """

    order = 3  # piecewise-cubic interpolant
    # the cell edges' exponent; constant since every mesh is uniform, and
    # kept because the benchmark's span recorder keys meshes by it
    grading = 1.0

    def __init__(self, half_width: float, n_cells: int):
        if not (0 < half_width < np.inf and isinstance(n_cells, int | np.integer) and n_cells >= 4):
            raise GridError("need a finite positive half-width and an integer count of at "
                            f"least 4 cells per side, got {half_width} and {n_cells}")
        self.half_width = float(half_width)
        self.n_cells = int(n_cells)
        order = self.order
        self.pos_edges = half_width * (np.arange(n_cells + 1) / n_cells)
        # t_j = L j / (3M), j = -3M..3M: the points of a DFT of length 6M
        # over the period 2L, each one correctly rounded quotient times L,
        # so 0, +-L and the cell edges are exact and the nodes symmetric
        j = np.arange(-order * n_cells, order * n_cells + 1)
        self.nodes = half_width * (j / (order * n_cells))
        self._cells = order * np.arange(2 * n_cells)[:, None] + np.arange(order + 1)
        self._lagrange = _lagrange_monomial_matrix(order)
        # weights per gamma and the seminorm's h-rules; see cached
        self._cache: dict[tuple, np.ndarray | tuple] = {}

    @property
    def key(self) -> tuple:
        """The defining values of the mesh: equal keys, equal nodes and weights."""
        return (self.half_width, self.n_cells)

    def __repr__(self):
        return f"QuadratureMesh(L={self.half_width}, cells={self.n_cells})"

    def cached(self, key: tuple, compute):
        """The array, or tuple of arrays, derived from this mesh under
        `key`, computed once by compute(); see _memo."""
        return _memo(self._cache, key, compute)

    @classmethod
    def for_band(cls, grid: GridSpec, band_max: float, min_cells: int = 4) -> "QuadratureMesh":
        """Mesh resolving oscillation up to |xi| = band_max with
        _CELLS_PER_WAVE cells per wavelength: ceil(6 max(band_max, 1) L)
        cells per side, the 1e-9 absorbing the rounding of a product that
        is an integer in exact arithmetic, such as an orbit's band 32 / L
        times L, rounded up to a 5-smooth count (_five_smooth).  At most
        _MAX_CELLS and at least min_cells: the constructor's 4 (L = 0.25
        asks for 2), which only bench/test_bench.py overrides.  One shared
        instance per key, so its weights and h-rules are built once.  A band
        that is not finite and >= 0 is a GridError."""
        if not 0.0 <= band_max < math.inf:
            raise GridError(f"band must be finite and >= 0, got {band_max}")
        need = int(math.ceil(_CELLS_PER_WAVE * max(band_max, 1.0) * grid.half_width - 1e-9))
        return _shared_mesh(grid.half_width, _five_smooth(min(max(need, min_cells), _MAX_CELLS)))

    @staticmethod
    def for_function(f: GridFunction) -> "QuadratureMesh":
        """f's own mesh, f.mesh."""
        return f.mesh

    # -- synthesis ----------------------------------------------------

    def synthesize(self, grid: GridSpec, active: np.ndarray, coeffs: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Values at the nodes of sum_j coeffs[j] exp(2 pi i xi_{active[j]} t),
        shape (n_nodes, ncols), written into out when it is given (a complex
        array of that shape, as numpy's out), else into a new C-ordered array.

        active holds FFT-order bin indices of grid and coeffs has one row
        per active bin; its columns are independent functions, so stacking
        several functions on one active set costs one call.  The nodes t_n =
        -L + n L / (3M), n = 0..6M, are the points of a DFT of length P = 6M
        over the period 2L: sum_k c_k exp(i pi k t_n / L) = sum_k (-1)^k c_k
        exp(2 pi i k n / P), one inverse DFT of the signed bins k folded mod
        P, run in place along out's node axis; node P takes node 0's value.
        Bins k and k + P take equal values at every DFT point, so the fold is
        exact for a set of any span: lap j, the bins lo + j P .. lo + (j + 1)
        P - 1, lands on distinct rows, and the laps are added in turn from j
        = 0.  Each column is transformed on its own, so its values do not
        depend on the columns stacked with it; out's layout sets only the
        stride of the transform (the transpose of a C-ordered (ncols, n_nodes)
        array makes each column contiguous), not its values.  A grid of
        another half-width than the mesh's is a GridError: the nodes would not
        be the points of its DFT.
        """
        if grid.half_width != self.half_width:
            raise GridError(f"mesh half-width {self.half_width} != grid's {grid.half_width}")
        coeffs = np.asarray(coeffs, dtype=complex)
        period = self.nodes.size - 1
        out = np.empty((period + 1, coeffs.shape[1]), dtype=complex) if out is None else out
        out[...] = 0.0
        if active.size == 0:
            return out
        n = grid.n_samples
        bins = np.where(active < n // 2, active, active - n)
        signed = coeffs * (1.0 - 2.0 * (bins % 2))[:, None]  # (-1)^k, exact
        lap = (bins - int(bins.min())) // period
        if lap.any():
            for j in range(int(lap.max()) + 1):
                out[bins[lap == j] % period] += signed[lap == j]
        else:
            out[bins % period] = signed
        np.fft.ifft(out[:period], axis=0, norm="forward", out=out[:period])
        out[period] = out[0]
        return out

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


# Safe to share, because a mesh's nodes follow from its key (half-width and
# cell count) and all else it holds is a cache keyed exactly: weights per
# gamma and the seminorm's h-rules, a few node vectors each, so the bound
# keeps little alive on meshes no longer in use.  The default report uses
# eight: band-limited meshes of 6 to 144 cells, the orbits' 192 and the
# extension suite's 384.
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GridError(f"band edges must be finite, got {band}")
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
