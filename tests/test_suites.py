import math

import pytest

from tracespaces import SUITE_ORDER, GridSpec, SuiteConfig, run_suite
from tracespaces.report import config_hash, render_reports


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n_samples=101)  # odd grids have no centered zero sample
    with pytest.raises(ValueError):
        SuiteConfig(n_samples=32)
    with pytest.raises(ValueError):
        SuiteConfig(n_samples=96)  # even, but the spectral grid needs a power of two
    for half_width in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            SuiteConfig(half_width=half_width)
        with pytest.raises(ValueError):  # GridError is a ValueError
            GridSpec(half_width, 1024)
    with pytest.raises(ValueError):
        SuiteConfig(family_size=1)


def test_config_dict_round_trips_hashable_fields():
    cfg = SuiteConfig(seed=5)
    d = cfg.config_dict()
    assert d["seed"] == 5
    assert set(d) == {"half_width", "n_samples", "max_block", "seed",
                      "family_size"}


@pytest.mark.parametrize("n_samples, half_width, depth",
                         [(1024, 1.0, 8), (64, 1.0, 4), (2048, 1.0, 9), (1024, 2.0, 7)])
def test_dyadic_depth_follows_the_grid(n_samples, half_width, depth):
    cfg = SuiteConfig(half_width=half_width, n_samples=n_samples)
    assert cfg.system().max_block == depth
    assert cfg.config_dict()["max_block"] == depth
    assert type(cfg.config_dict()["max_block"]) is int


def test_default_config_keeps_the_pinned_hash():
    assert config_hash(SuiteConfig().config_dict()) == "fbabbcc70e09"


def test_families_stay_below_nyquist():
    cfg = SuiteConfig(n_samples=64)
    grid = cfg.grid()
    (f,) = cfg.family(grid, 24.0, 1, stream=1)
    assert f.max_frequency == grid.nyquist - grid.fundamental


def test_registry_covers_all_runners():
    assert len(SUITE_ORDER) == 11
    assert SUITE_ORDER[0] == "dyadic"


def test_seeded_families_are_reproducible():
    cfg = SuiteConfig()
    grid = cfg.grid()
    a = cfg.family(grid, 8.0, 3, stream=2)
    b = cfg.family(grid, 8.0, 3, stream=2)
    for f, g in zip(a, b):
        assert (f.coeffs == g.coeffs).all()


def test_suite_rerun_is_bitwise_identical():
    cfg = SuiteConfig(family_size=4)
    one = render_reports([run_suite("dyadic", cfg), run_suite("hardy", cfg)])
    two = render_reports([run_suite("dyadic", cfg), run_suite("hardy", cfg)])
    assert one == two


# At N = 64 the spectral time derivative of the stefan orbit is off by
# 0.77 (0.28 at 128, 3.2e-3 at 512) against its bound 1e-3, and at N = 1024,
# L = 2 by 1.27e-3: it needs N / (2 L) >= 512 samples per unit length, a
# resolution floor of the model, not a raise.  At L = 2 every mesh above the
# 256-cell floor has twice the cells it has at L = 1.
def _sweep_case(n, half_width, name):
    id_ = f"{n}-{name}" if half_width == 1.0 else f"{n}-L{half_width:g}-{name}"
    marks = ()
    if name == "stefan" and n / (2 * half_width) < 512:
        marks = pytest.mark.xfail(strict=True, reason="stefan dt_trace_error is above 1e-3 "
                                  "below N / (2 L) = 512")
    return pytest.param(n, half_width, name, marks=marks, id=id_)


_SWEEP = [_sweep_case(n, half_width, name)
          for n, half_width in ((64, 1.0), (2048, 1.0), (1024, 2.0)) for name in SUITE_ORDER]


@pytest.mark.parametrize("n_samples, half_width, suite", _SWEEP)
def test_every_suite_runs_across_grids(n_samples, half_width, suite):
    report = run_suite(suite, SuiteConfig(half_width=half_width, n_samples=n_samples,
                                          family_size=2))
    failed = [c.case_id for c in report.cases if c.compare == "bound" and not c.passed]
    assert failed == []
