"""Workload definitions: which suites a suite pass runs, and the seeded
request stream of ``fresh-functions`` with its reference oracle.

All grids stay at the pinned configuration (N = 1024, L = 1, max block 8,
family 50); other grid sizes crash inside the suites today.
"""

from __future__ import annotations

import math

import numpy as np

# The suites split by the layers they load.  scalar-families norms
# band-limited scalar families that share one active set and are normed in
# many specs, so evaluation reuse is high and the difference seminorm runs;
# operator-orbits norms few vector-valued orbits filling the band in
# interpolation spaces, so the batched interpolation norm and large-matrix
# synthesis dominate and the difference seminorm is idle.
SUITES = {
    "scalar-families": ("dyadic", "norms", "hardy", "extension", "sobolev", "mixed",
                        "counterexample"),
    "operator-orbits": ("trace-f", "trace-b", "semigroup", "stefan"),
}

WORKLOADS = tuple(SUITES) + ("fresh-functions",)

PINNED_SEED = 2024
PINNED_HASH = "fbabbcc70e09"
BASELINE_TOLERANCE = 0.01

# fresh-functions: one shared mesh on the band [-32, 32]
FRESH_BAND = 32.0
FRESH_REQUESTS = 120
FRESH_MIN_MODES, FRESH_MAX_MODES = 4, 120
FRESH_DIM = 6
ORACLE_SAMPLE = 16
ORACLE_RTOL = 1e-10


def fresh_setting():
    """Grid, dyadic system and the one shared mesh of ``fresh-functions``."""
    from tracespaces.dyadic import build_system
    from tracespaces.grid import GridSpec, QuadratureMesh

    grid = GridSpec(1.0, 1024)
    return grid, build_system(8), QuadratureMesh.for_band(grid, FRESH_BAND)


def fresh_requests(grid, seed, count=FRESH_REQUESTS):
    """Seeded requests ``(coeffs, spec)`` on distinct random sub-bands.

    The cost classes are fixed and only their order and contents are
    drawn, so the total work of a stream barely moves with the seed: the
    mode counts are evenly spaced over [FRESH_MIN_MODES, FRESH_MAX_MODES],
    and three of each ten requests, spread evenly over those counts, are
    dim-6 in an interpolation space with r cycling through 1, 2, inf.
    """
    from tracespaces.operators import MultiplierOperator
    from tracespaces.spaces import InterpNormInner, SpaceSpec

    rng = np.random.default_rng((seed, 1))
    kmax = int(round(FRESH_BAND / grid.fundamental))  # band edge in bins
    span = FRESH_MAX_MODES - FRESH_MIN_MODES
    modes = FRESH_MIN_MODES + (np.arange(count) * span) // max(count - 1, 1)
    interp = np.array([(i % 10) in (0, 3, 6) for i in range(count)])
    # r by rank among the interpolation requests, so each r gets the same
    # spread of mode counts at every seed
    r_of = {i: (1.0, 2.0, math.inf)[rank % 3] for rank, i in enumerate(np.flatnonzero(interp))}
    taken = set()
    requests = []
    for i in rng.permutation(count):
        width = int(modes[i])
        while True:
            klo = int(rng.integers(-kmax, kmax - width + 2))
            if (klo, width) not in taken:
                taken.add((klo, width))
                break
        dim = FRESH_DIM if interp[i] else 1
        coeffs = np.zeros((grid.n_samples, dim), dtype=complex)
        ks = np.arange(klo, klo + width) % grid.n_samples
        coeffs[ks] = (rng.standard_normal((width, dim))
                      + 1j * rng.standard_normal((width, dim))) / math.sqrt(2.0)
        inner = None
        if interp[i]:
            interior = np.exp(rng.uniform(math.log(0.5), math.log(16.0), FRESH_DIM - 2))
            eigs = np.concatenate([[0.5, 16.0], interior])
            inner = InterpNormInner(MultiplierOperator.diagonal(rng.permutation(eigs)),
                                    alpha=float(rng.uniform(0.2, 0.9)), r=r_of[i])
        spec = SpaceSpec(kind=("B", "F")[int(rng.integers(2))],
                         s=float(rng.choice([0.0, 0.5, 1.0, 1.5])),
                         p=float(rng.choice([1.5, 2.0, 3.0])),
                         q=float(rng.choice([1.0, 2.0, math.inf])),
                         gamma=float(rng.choice([-0.5, 0.0, 0.5, 1.5])),
                         inner=inner)
        requests.append((coeffs, spec))
    return requests


def oracle_indices(seed, count=FRESH_REQUESTS):
    """Seeded subsample of request indices the oracle recomputes."""
    rng = np.random.default_rng((seed, 2))
    return sorted(int(i) for i in rng.choice(count, size=min(ORACLE_SAMPLE, count), replace=False))


def oracle_norm(grid, sys, mesh, coeffs, spec):
    """B or F norm recomputed block by block through independent public
    calls: ``apply_block``, ``GridFunction.evaluate``, the mesh weights and
    ``integrate``, and the inner space's ``batch_norm``."""
    from tracespaces.dyadic import apply_block
    from tracespaces.grid import GridFunction
    from tracespaces.spaces import EuclideanInner, ScalarInner

    f = GridFunction(grid, coeffs)
    inner = spec.inner or (ScalarInner() if f.dim == 1 else EuclideanInner(f.dim))
    mags = np.stack([inner.batch_norm(apply_block(sys, k, f).evaluate(mesh.nodes))
                     for k in range(sys.max_block + 1)])
    scales = 2.0 ** (spec.s * np.arange(sys.max_block + 1))
    if spec.kind == "B":
        blocks = np.maximum(mags ** spec.p @ mesh.weights(spec.gamma), 0.0) ** (1.0 / spec.p)
        return float(_lq(scales * blocks, spec.q, axis=0))
    pointwise = _lq(scales[:, None] * mags, spec.q, axis=0)
    return float(max(mesh.integrate(pointwise ** spec.p, spec.gamma), 0.0) ** (1.0 / spec.p))


def _lq(arr, q, axis):
    if math.isinf(q):
        return np.max(arr, axis=axis)
    return np.sum(arr ** q, axis=axis) ** (1.0 / q)


def relative_error(value, reference):
    if reference == 0.0:
        return abs(value)
    return abs(value / reference - 1.0)
