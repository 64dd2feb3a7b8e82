import json

import pytest

from tracespaces import suites
from tracespaces.cli import build_parser, main
from tracespaces.grid import GridError


def test_parser_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--suite", "nonsense"])


def test_pin_then_check_round_trip(tmp_path):
    base = ["--suite", "counterexample", "--suite", "stefan",
            "--baseline-dir", str(tmp_path / "b")]
    assert main(base + ["--pin-baselines"]) == 0

    out = tmp_path / "report.json"
    assert main(base + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [d["suite"] for d in doc] == ["counterexample", "stefan"]
    assert all(c["passed"] for d in doc for c in d["cases"]
               if c["compare"] != "info")


def test_check_without_baselines_fails(tmp_path):
    code = main(["--suite", "stefan", "--baseline-dir", str(tmp_path / "none"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    by_id = {c["case_id"]: c for c in doc["cases"]}
    assert by_id["dt_ratio"]["passed"] is False  # baseline missing
    assert by_id["degenerate_line_rejected"]["passed"] is True


def test_csv_output(tmp_path):
    main(["--suite", "counterexample", "--baseline-dir", str(tmp_path / "b"),
          "--pin-baselines"])
    out = tmp_path / "report.csv"
    main(["--suite", "counterexample", "--baseline-dir", str(tmp_path / "b"),
          "--format", "csv", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "suite,case_id,value,bound,pass"
    assert all(line.startswith("counterexample,") for line in lines[1:])


def test_custom_config_separates_baselines(tmp_path):
    bdir = str(tmp_path / "b")
    assert main(["--suite", "counterexample", "--baseline-dir", bdir,
                 "--pin-baselines"]) == 0
    # a different seed hashes to a different baseline key, so the check
    # cannot silently reuse the default-config pin
    code = main(["--suite", "stefan", "--seed", "77", "--baseline-dir", bdir,
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--grid-n", "96"], ["--grid-l", "0"], ["--family-size", "1"], ["--seed", "-1"],
    ["--baseline-tolerance", "nan"], ["--baseline-tolerance", "inf"],
    ["--baseline-tolerance", "-0.01"], ["--grid-l", "inf"],
])
def test_bad_config_is_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "counterexample"] + flags)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_raising_suite_gives_failed_report(tmp_path, capsys, monkeypatch):
    def raising(config):
        raise GridError("band must lie strictly inside (-Nyquist, Nyquist)")

    monkeypatch.setitem(suites._RUNNERS, "norms", raising)
    base = ["--suite", "norms", "--suite", "hardy", "--baseline-dir", str(tmp_path / "b")]
    out = tmp_path / "r.json"
    assert main(base + ["--out", str(out)]) == 1
    assert "norms: error: GridError: " in capsys.readouterr().err
    doc = {d["suite"]: d["cases"] for d in json.loads(out.read_text())}
    assert [(c["case_id"], c["value"], c["bound"], c["passed"]) for c in doc["norms"]] == [
        ("error", 1.0, 0.0, False)]
    assert all(c["passed"] for c in doc["hardy"])

    # the suite that raised is not pinned; the other one is
    assert main(base + ["--pin-baselines"]) == 1
    assert [p.name for p in (tmp_path / "b").glob("*/*.json")] == ["hardy.json"]


def test_dyadic_band_follows_the_grid(tmp_path):
    assert main(["--grid-n", "128", "--suite", "dyadic",
                 "--baseline-dir", str(tmp_path / "b"),
                 "--out", str(tmp_path / "r.json")]) == 0


def test_repeated_suite_runs_once_in_first_order(tmp_path, monkeypatch):
    calls = []
    for name in ("counterexample", "stefan"):
        runner = suites._RUNNERS[name]
        monkeypatch.setitem(suites._RUNNERS, name,
                            lambda config, name=name, runner=runner: calls.append(name)
                            or runner(config))
    out = tmp_path / "r.json"
    main(["--suite", "stefan", "--suite", "counterexample", "--suite", "stefan",
          "--suite", "counterexample", "--baseline-dir", str(tmp_path / "b"), "--out", str(out)])
    assert calls == ["stefan", "counterexample"]
    assert [d["suite"] for d in json.loads(out.read_text())] == ["stefan", "counterexample"]


@pytest.mark.parametrize("out, message", [("missing/r.json", "no such directory"),
                                          (".", "it is a directory")])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, out, message):
    """Checked before any suite runs, so a long run cannot end in a traceback."""
    calls = []
    monkeypatch.setitem(suites._RUNNERS, "counterexample", lambda config: calls.append(config))
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "counterexample", "--baseline-dir", str(tmp_path / "b"),
              "--out", str(tmp_path / out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err
    assert calls == []
