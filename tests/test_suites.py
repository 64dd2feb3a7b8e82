import math
import weakref

import numpy as np
import pytest
from scipy.special import gammaincc

from tracespaces import (
    SUITE_ORDER,
    DyadicSystem,
    GridSpec,
    QuadratureMesh,
    SpaceSpec,
    SuiteConfig,
    norm_equivalence_ratio,
    run_all,
    run_suite,
)
from tracespaces import grid as grid_module
from tracespaces.grid import GridError
from tracespaces import suites as suites_module
from tracespaces.report import VerificationReport, config_hash, render_reports
from tracespaces.suites import (_DIFFNORM_PARAMS, _UPPER_GAMMA_RATIO, _single_plateau_modes,
                               diffnorm_windows)


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


@pytest.mark.parametrize("field, value", [("n_samples", 1024.0), ("n_samples", True),
                                          ("seed", 1.5), ("seed", False),
                                          ("family_size", 2.5), ("family_size", "50")])
def test_config_rejects_non_integer_fields(field, value):
    """n_samples, seed and family_size must be integers, not bools: a float
    or a bool is a ValueError that names the field, before any other check;
    a numpy integer is kept as an int, so the config hashes."""
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SuiteConfig(**{field: value})
    config = SuiteConfig(**{field: np.int64(64)})
    assert type(getattr(config, field)) is int
    want = config_hash(SuiteConfig(**{field: 64}).config_dict())
    assert config_hash(config.config_dict()) == want


def test_config_dict_round_trips_hashable_fields():
    cfg = SuiteConfig(seed=5)
    d = cfg.config_dict()
    assert d["seed"] == 5
    assert set(d) == {"half_width", "n_samples", "max_block", "seed",
                      "family_size"}


# the default grid and the sweep grids of test_every_suite_runs_across_grids
@pytest.mark.parametrize("n_samples, half_width, depth",
                         [(1024, 1.0, 8), (64, 1.0, 4), (2048, 1.0, 9), (1024, 2.0, 7)])
def test_dyadic_depth_follows_the_grid(n_samples, half_width, depth):
    cfg = SuiteConfig(half_width=half_width, n_samples=n_samples)
    assert cfg.config_dict()["max_block"] == DyadicSystem.for_grid(cfg.grid()).max_block == depth
    assert type(cfg.config_dict()["max_block"]) is int


def test_default_config_keeps_the_pinned_hash():
    assert config_hash(SuiteConfig().config_dict()) == "fbabbcc70e09"


def test_families_stay_below_nyquist():
    cfg = SuiteConfig(n_samples=64)
    grid = cfg.grid()
    (f,) = cfg.family(24.0, 1, stream=1)
    assert f.max_frequency == grid.top == grid.nyquist - grid.fundamental


def test_registry_covers_all_runners():
    assert len(SUITE_ORDER) == 11
    assert SUITE_ORDER[0] == "dyadic"


def test_seeded_families_are_reproducible():
    cfg = SuiteConfig()
    a = cfg.family(8.0, 3, stream=2)
    b = cfg.family(8.0, 3, stream=2)
    for f, g in zip(a, b):
        assert (f.coeffs == g.coeffs).all()


def test_suite_rerun_is_bitwise_identical():
    cfg = SuiteConfig(family_size=4)
    one = render_reports([run_suite("dyadic", cfg), run_suite("hardy", cfg)])
    two = render_reports([run_suite("dyadic", cfg), run_suite("hardy", cfg)])
    assert one == two


# At N = 64 the spectral time derivative of the stefan orbit is off by
# 0.77 (0.28 at 128, 3.2e-3 at 512) against its bound 1e-3: a resolution
# floor of the model in N, not a raise.  Its time unit follows L, so at
# N = 1024 it passes at every L (7.9e-5 at L = 2, 6.0e-5 at L = 10).  At
# L = 2 every mesh has twice the cells it has at L = 1.
def _sweep_case(n, half_width, name):
    id_ = f"{n}-{name}" if half_width == 1.0 else f"{n}-L{half_width:g}-{name}"
    marks = ()
    if name == "stefan" and n < 1024:
        marks = pytest.mark.xfail(strict=True, reason="stefan dt_trace_error is above 1e-3 "
                                  "below N = 1024")
    return pytest.param(n, half_width, name, marks=marks, id=id_)


_SWEEP = [_sweep_case(n, half_width, name)
          for n, half_width in ((64, 1.0), (2048, 1.0), (1024, 2.0), (1024, 0.75))
          for name in SUITE_ORDER]
_SWEEP.append(_sweep_case(1024, 10.0, "extension"))
# the orbit time unit max(L, 1) at L > 1, which the stefan ladder and the
# semigroup plateau need to pass at these configs
_SWEEP += [_sweep_case(1024, 10.0, "stefan"), _sweep_case(1024, 20.0, "stefan"),
           _sweep_case(64, 4.0, "semigroup"), _sweep_case(1024, 200.0, "semigroup")]


@pytest.mark.parametrize("n_samples, half_width, suite", _SWEEP)
def test_every_suite_runs_across_grids(n_samples, half_width, suite):
    report = run_suite(suite, SuiteConfig(half_width=half_width, n_samples=n_samples,
                                          family_size=2))
    failed = [c.case_id for c in report.cases if c.compare == "bound" and not c.passed]
    assert failed == []


@pytest.mark.parametrize("half_width", [0.25, 0.75, 1.3, 10.0])
def test_mixed_runs_where_two_l_is_not_an_integer(half_width):
    """The single-mode check floors its modes onto the multiples of
    1/(2L), so a frequency of 1 need not lie on the lattice; every bound
    case passes with its bound unchanged."""
    report = run_suite("mixed", SuiteConfig(half_width=half_width, family_size=2))
    assert len(report.cases) == 7
    assert [c.case_id for c in report.cases if c.compare == "bound" and not c.passed] == []


def test_shared_draw_diffnorm_windows_equal_per_parameter_recomputation():
    """diffnorm_windows norms one draw of the family through every parameter
    set; each window equals its own recomputation on a fresh draw."""
    cfg = SuiteConfig(family_size=4)
    got = diffnorm_windows(cfg)
    assert len(got) == len(_DIFFNORM_PARAMS)
    for (s, p, q, gamma, m), window in zip(_DIFFNORM_PARAMS, got):
        spec = SpaceSpec("F", s, p, q, gamma)
        ratios = [norm_equivalence_ratio(f, spec, m) for f in cfg.family(8.0, 4, stream=2)]
        assert window == (min(ratios), max(ratios))


def test_doubling_every_mesh_keeps_the_error_budget(monkeypatch):
    """The budget that sizes every mesh: at twice the cells per wavelength
    every bound case of every suite still passes, and no baseline-compared
    value moves by more than 1e-3 of itself, a tenth of the baseline
    tolerance."""
    _assert_doubling_keeps_the_error_budget(monkeypatch, SuiteConfig(family_size=2))


def test_doubling_keeps_the_error_budget_off_the_pinned_config(monkeypatch):
    """The same budget at L = 2, where no baselines are pinned, so only this
    check holds the values of the baseline-compared cases."""
    _assert_doubling_keeps_the_error_budget(monkeypatch,
                                            SuiteConfig(half_width=2.0, family_size=2))


_ALL_BUT_EXTENSION = tuple(name for name in SUITE_ORDER if name != "extension")


@pytest.mark.parametrize("half_width, n_samples, names", [
    pytest.param(0.5, 1024, SUITE_ORDER, id="0.5-1024"),
    pytest.param(20.0, 4096, SUITE_ORDER, id="20-4096"),
    pytest.param(0.25, 1024, _ALL_BUT_EXTENSION, id="0.25-1024"),
    pytest.param(0.25, 1024, ("extension",), id="0.25-1024-extension", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="extension raises below L = 0.5: its sample points end at a fixed t = -0.05 "
               "and its stencil steps are absolute")),
])
def test_doubling_keeps_the_error_budget_across_l(monkeypatch, half_width, n_samples, names):
    """The same budget at L = 0.5, 0.25 and 20, where an orbit's mesh keeps
    the cells of its time unit max(L, 1); measured worst moves 2.8e-4,
    8.8e-4 and 5.8e-5."""
    _assert_doubling_keeps_the_error_budget(
        monkeypatch, SuiteConfig(half_width=half_width, n_samples=n_samples, family_size=2),
        names)


def _assert_doubling_keeps_the_error_budget(monkeypatch, config, names=SUITE_ORDER):
    def baseline_values():
        store: dict = {}
        reports = [run_suite(name, config, store) for name in names]
        failed = [(r.suite, c.case_id) for r in reports for c in r.cases
                  if c.compare == "bound" and not c.passed]
        assert failed == []
        return {(r.suite, c.case_id): c.value for r in reports for c in r.cases
                if c.compare == "baseline"}

    coarse = baseline_values()
    cells = QuadratureMesh.for_band(config.grid(), 8.0).n_cells
    monkeypatch.setattr(grid_module, "_CELLS_PER_WAVE", 2 * grid_module._CELLS_PER_WAVE)
    assert QuadratureMesh.for_band(config.grid(), 8.0).n_cells == 2 * cells
    fine = baseline_values()
    assert fine.keys() == coarse.keys()
    moves = {key: abs(fine[key] / coarse[key] - 1.0) for key in coarse}
    assert max(moves.values()) <= 1e-3, max(moves.items(), key=lambda kv: kv[1])


def _count_trace_ratios(monkeypatch):
    """Stub every suite but trace-f and trace-b, and count the suites'
    trace_continuity_ratio calls by kind."""
    calls = []
    ratio = suites_module.trace_continuity_ratio

    def counted(problem, u, kind="F", r=1.0):
        calls.append(kind)
        return ratio(problem, u, kind=kind, r=r)

    monkeypatch.setattr(suites_module, "trace_continuity_ratio", counted)
    for name in SUITE_ORDER:
        if name not in ("trace-f", "trace-b"):
            monkeypatch.setitem(suites_module._RUNNERS, name,
                                lambda config, name=name: VerificationReport(name, {}))
    return calls


def test_one_run_computes_the_trace_pass_once(monkeypatch):
    """3 sets x 3 q x 3 draws x 3 r ratios per kind in one run_all; a
    second run_all on the same config instance computes the pass again,
    so a setting changed between runs reaches both trace suites."""
    calls = _count_trace_ratios(monkeypatch)
    config = SuiteConfig(family_size=2)
    first = render_reports(run_all(config))
    assert sorted(calls) == ["B"] * 81 + ["F"] * 81
    assert render_reports(run_all(config)) == first
    assert len(calls) == 2 * 162


def test_trace_suites_alone_or_reordered_render_the_same():
    """trace-b alone, and trace-b before trace-f in one store, render the
    trace-b and trace-f reports of the default order byte for byte."""
    config = SuiteConfig()
    store = {}
    default = {name: render_reports([run_suite(name, config, store)])
               for name in ("trace-f", "trace-b")}
    assert store == {("trace-ratio-cases", config): {}}
    assert render_reports([run_suite("trace-b", config)]) == default["trace-b"]
    store = {}
    for name in ("trace-b", "trace-f"):
        assert render_reports([run_suite(name, config, store)]) == default[name]


def test_run_all_reports_a_raising_suite_and_runs_the_rest(monkeypatch, capsys):
    """run_suite turns a runner's exception into a report of one failed
    `error` case, so run_all returns every suite's report."""
    def raising(config):
        raise GridError("band must lie strictly inside (-Nyquist, Nyquist)")

    for name in SUITE_ORDER:
        monkeypatch.setitem(suites_module._RUNNERS, name,
                            lambda config, *store, name=name: VerificationReport(name, {}))
    monkeypatch.setitem(suites_module._RUNNERS, "extension", raising)
    reports = run_all(SuiteConfig(family_size=2))
    assert [r.suite for r in reports] == list(SUITE_ORDER)
    failed = reports[SUITE_ORDER.index("extension")]
    assert [(c.case_id, c.value, c.bound, c.passed) for c in failed.cases] == [
        ("error", 1.0, 0.0, False)]
    assert failed.config == SuiteConfig(family_size=2).config_dict()
    assert all(r.cases == [] for r in reports if r is not failed)
    assert "extension: error: GridError: band must lie" in capsys.readouterr().err


@pytest.mark.parametrize("a", [1.0, 1.5])
def test_upper_gamma_ratio_closed_forms_match_scipy(a):
    """The semigroup plateau's closed forms of Q(a, x) agree with scipy's
    gammaincc to 1e-12 up to x = 700, where e^{-x} is still a normal float."""
    xs = np.geomspace(1e-3, 700.0, 241)
    got = np.array([_UPPER_GAMMA_RATIO[a](float(x)) for x in xs])
    np.testing.assert_allclose(got, gammaincc(a, xs), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("half_width, n_samples, kept", [
    (4.0, 64, [8, 16, 31]),
    (20.0, 256, [40, 80, 127]),
    (40.0, 256, [80, 127]),
    (50.0, 256, [100]),
])
def test_mixed_caps_its_single_modes_below_nyquist(half_width, n_samples, kept):
    """Where N <= 16 L the single modes 1, 2 and 4 reach Nyquist; each is
    capped below it, as the families are, and kept while the cap leaves it
    on a plateau.  `kept` lists the modes in multiples of 1/(2L).  At
    L = 40, N = 256 the modes 2 and 4 both cap to 1.5875, on block 1's
    plateau, and the second is dropped; at L = 50, N = 256 both cap to 1.27,
    in the band between blocks 0 and 1, and are dropped."""
    grid = GridSpec(half_width, n_samples)
    assert _single_plateau_modes(grid) == [k * grid.fundamental for k in kept]
    report = run_suite("mixed", SuiteConfig(half_width=half_width, n_samples=n_samples,
                                            family_size=2))
    assert len(report.cases) == 7
    assert [c.case_id for c in report.cases if c.compare == "bound" and not c.passed] == []


@pytest.mark.parametrize("suite", ["norms", "mixed", "sobolev"])
def test_suites_hold_one_family_draw_at_a_time(suite, monkeypatch):
    """Each draw goes through every case that uses it before the next is
    drawn, so at most two draws are alive: the current one and the one
    being drawn."""
    live = weakref.WeakSet()
    counts = []
    draw = suites_module.random_band_limited

    def counted(*args, **kwargs):
        f = draw(*args, **kwargs)
        live.add(f)
        counts.append(len(live))
        return f

    monkeypatch.setattr(suites_module, "random_band_limited", counted)
    report = run_suite(suite, SuiteConfig(family_size=4))
    assert [c.case_id for c in report.cases if c.case_id == "error"] == []
    assert len(counts) >= 8
    assert max(counts) <= 2
