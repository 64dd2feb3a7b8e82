import json

import pytest

from tracespaces.cli import build_parser, main


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


@pytest.mark.parametrize("flags", [["--grid-n", "96"], ["--grid-l", "0"], ["--family-size", "1"]])
def test_bad_config_is_a_usage_error(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "counterexample"] + flags)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
