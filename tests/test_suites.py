import pytest

from tracespaces import SUITE_ORDER, SuiteConfig, run_suite
from tracespaces.report import render_reports


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
    with pytest.raises(ValueError):
        SuiteConfig(half_width=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(family_size=1)


def test_config_dict_round_trips_hashable_fields():
    cfg = SuiteConfig(seed=5)
    d = cfg.config_dict()
    assert d["seed"] == 5
    assert set(d) == {"half_width", "n_samples", "max_block", "seed",
                      "family_size"}


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
