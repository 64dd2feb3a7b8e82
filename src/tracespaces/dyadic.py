"""Smooth dyadic frequency decomposition.

The generator phi_hat is an even C^inf bump with phi_hat = 1 on |xi| <= 1
and phi_hat = 0 on |xi| >= 3/2, built from the standard exp(-1/x) smooth
step.  Blocks:

    block 0:      phi_hat(xi)
    block k >= 1: phi_hat(xi / 2^k) - phi_hat(xi / 2^{k-1})

so block k >= 1 is supported in 2^{k-1} <= |xi| <= 3 * 2^{k-1}, blocks two
apart have disjoint supports, and the sum over k = 0..K telescopes to
phi_hat(xi / 2^K), identically 1 for |xi| <= 2^K.  Applying a block to a
band-limited function multiplies each Fourier coefficient by the block
symbol value, which is exact on coefficients.

`DyadicSystem.symbols(xi)` builds the table of every block at given
frequencies in one pass; the partition check and the dyadic suite's
sampled frequencies read its rows.  On a grid's own bins the bump is
evaluated once: `DyadicSystem.grid_symbols(grid)` is the read-only
(K+1) x N table symbols(grid.frequencies()), one per (system, grid)
behind a small cache, and block projection, the dyadic suite's
reconstruction and the B/F norms index its columns.  `DyadicSystem.for_grid`
is the one owner of the depth K: the grid's band fixes it.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec

__all__ = ["DyadicSystem", "build_system", "apply_block", "partition_check", "smooth_step"]

_SNAP = float(2 ** 26)


def smooth_step(x):
    """C^inf monotone step: 0 for x <= 0, 1 for x >= 1, exp(-1/x) profile.

    smooth_step(1/2) = 1/2 by symmetry.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    if np.any(mid):
        xm = x[mid]
        h0 = np.exp(-1.0 / xm)
        h1 = np.exp(-1.0 / (1.0 - xm))
        out[mid] = h0 / (h0 + h1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DyadicSystem:
    """Dyadic partition generated by a smooth bump; max_block is the largest
    usable block index K (the partition sums to 1 on |xi| <= 2^K)."""

    max_block: int = 8

    def __post_init__(self):
        # an integer, so that equal systems have equal keys and K + 1 blocks;
        # a bool is an Integral, but True is no depth
        if (isinstance(self.max_block, bool) or not isinstance(self.max_block, numbers.Integral)
                or self.max_block < 1):
            raise ValueError(f"max_block must be an integer >= 1, got {self.max_block!r}")

    @classmethod
    def for_grid(cls, grid: GridSpec) -> "DyadicSystem":
        """The shallowest system (K >= 1) whose blocks cover every
        representable frequency of the grid, |xi| <= 2^K."""
        depth = 1
        while 2 ** depth < grid.top:
            depth += 1
        return cls(depth)

    def generator(self, xi):
        """phi_hat(xi): 1 for |xi| <= 1, 0 for |xi| >= 3/2, smooth between.

        Values are snapped to the grid 2^-26 * {0, ..., 2^26}.  Snapping
        keeps the bump within 2^-27 of the smooth profile while making the
        telescoped block sums exactly 1.0 and block-times-coefficient
        products exact whenever the coefficients carry at most 26
        significant bits (the difference of two 26-bit grid values has at
        most 26 significant bits, so each product fits in a double).
        """
        a = np.abs(np.asarray(xi, dtype=float))
        g = smooth_step((1.5 - a) / 0.5)
        snapped = np.round(np.asarray(g) * _SNAP) / _SNAP
        return snapped if snapped.ndim else float(snapped)

    def symbols(self, xi) -> np.ndarray:
        """(max_block+1, len(xi)) table of the block multipliers at the
        frequencies xi: row k is phi_hat(xi / 2^k) - phi_hat(xi / 2^{k-1}),
        row 0 is phi_hat(xi)."""
        xi = np.asarray(xi, dtype=float)
        scaled = xi / 2.0 ** np.arange(self.max_block + 1)[:, None]
        return np.diff(self.generator(scaled), axis=0, prepend=0.0)

    def grid_symbols(self, grid: GridSpec) -> np.ndarray:
        """symbols(grid.frequencies()): the read-only (max_block+1, N) table
        of every block at every bin of grid in FFT order, built once per
        (system, grid)."""
        return _grid_symbols(self, grid)

    def covers(self, xi_max: float) -> bool:
        return xi_max <= 2.0 ** self.max_block


# Safe to share, as the table is read-only and follows from its key; the
# bound keeps the tables of systems and grids no longer in use from piling
# up: (K+1) N doubles each, 72 KiB at the pinned config (K = 8, N = 1024)
# and 1.9 MiB at K = 14, N = 16384.
@functools.lru_cache(maxsize=8)
def _grid_symbols(sys: DyadicSystem, grid: GridSpec) -> np.ndarray:
    table = sys.symbols(grid.frequencies())
    table.flags.writeable = False
    return table


def build_system(max_block: int = 8) -> DyadicSystem:
    return DyadicSystem(max_block=max_block)


def apply_block(sys: DyadicSystem, k: int, f: GridFunction) -> GridFunction:
    """Frequency projection S_k f, exact on coefficients."""
    if not 0 <= k <= sys.max_block:
        raise ValueError(f"block index {k} outside 0..{sys.max_block}")
    return f.multiplied(sys.grid_symbols(f.grid)[k])


def partition_check(sys: DyadicSystem, xi_samples) -> float:
    """sup |sum_{k=0}^{K} block_k(xi) - 1| over the given frequencies.

    Meaningful for |xi| <= 2^K, where the telescoped sum is exactly 1.
    """
    xi = np.asarray(xi_samples, dtype=float)
    if xi.size == 0:
        return 0.0
    return float(np.max(np.abs(np.sum(sys.symbols(xi), axis=0) - 1.0)))
