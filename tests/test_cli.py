import json
from pathlib import Path

import pytest

from quadpair.cli import main
from quadpair.densities import ExperimentResult

PAIRS = Path(__file__).resolve().parents[1] / "pairs"
TOY2 = str(PAIRS / "toy_n2.pair")
TOY3 = str(PAIRS / "toy_n3.pair")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_expsum_trivial_identity(capsys):
    code, out, _ = run(capsys, "expsum", "--pair", TOY2, "--d", "1", "--q", "1",
                       "--m", "0,0")
    assert code == 0
    assert "direct    = 1+0i" in out
    assert "agree = yes" in out


def test_expsum_rho_three_on_toy(capsys):
    # S_{3,1}(0) counts zeros of the pair mod 3, normalized: exactly 1 here
    code, out, _ = run(capsys, "expsum", "--pair", TOY2, "--d", "3", "--q", "1",
                       "--m", "0,0")
    assert code == 0
    assert "direct    = 1+0i" in out


def test_expsum_json_payload(capsys):
    code, out, _ = run(capsys, "expsum", "--pair", TOY2, "--d", "3", "--q", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["direct"]["re"] == pytest.approx(1.0, abs=1e-9)
    assert payload["m"] == [0, 0]


def test_expsum_malformed_pair_file(tmp_path, capsys):
    bad = tmp_path / "bad.pair"
    bad.write_text("this is not a pair file\n", encoding="utf-8")
    code, _, err = run(capsys, "expsum", "--pair", str(bad))
    assert code == 2
    assert "error:" in err


def test_expsum_wrong_m_length(capsys):
    code, _, err = run(capsys, "expsum", "--pair", TOY2, "--m", "1,2,3")
    assert code == 2
    assert "components" in err


def test_expsum_resource_guard(capsys):
    code, _, err = run(capsys, "expsum", "--pair", TOY2, "--q", "101",
                       "--guard", "100")
    assert code == 3
    assert "resource guard" in err


def test_empty_csv_list_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--pair", TOY3, "--B", ""])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--workers", "1"),
    ("experiment", "--pair", TOY3, "--B", "4", "--workers", "2"),
])
def test_workers_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_experiment_missing_B(capsys):
    code, _, err = run(capsys, "experiment", "--pair", TOY3)
    assert code == 2
    assert "--B is required" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gauss", "--seed", "7")
    assert code == 0
    assert out.startswith("verify suite=gauss seed=7\n")
    assert "result: PASS" in out
    assert out.count("PASS") >= 3  # one per check plus the verdict line


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "multiplicativity",
                       "--seed", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    assert payload["passed"] == payload["total"] == len(payload["checks"])
    assert all(c["pass"] for c in payload["checks"])


def test_verify_deterministic_for_fixed_seed(capsys):
    args = ("verify", "--suite", "gauss", "--seed", "42")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_experiment_writes_csv_and_density_json(tmp_path, capsys):
    out_path = tmp_path / "toy3.csv"
    code, out, err = run(capsys, "experiment", "--pair", TOY3, "--B", "4,6",
                         "--p-max", "7", "--k-max", "2", "--out", str(out_path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ExperimentResult.CSV_HEADER
    assert len(lines) == 3
    assert out_path.read_text(encoding="utf-8") == out
    jpath = out_path.with_suffix(".density.json")
    assert jpath.exists()
    report = json.loads(jpath.read_text(encoding="utf-8"))
    assert report["sigma_inf"] > 0
    assert report["c_truncated"] > 0
    assert "wrote" in err


def test_experiment_flags_uncertified_factors(capsys):
    # at k_max = 2 on toy_n3 sigma_2 has not stabilized and sigma_3, sigma_5
    # have not converged; the table on stdout is the same with or without
    argv = ("experiment", "--pair", TOY3, "--B", "4,6", "--p-max", "7",
            "--k-max", "2")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ("warning: c_trunc uses uncertified factors: "
                   "sigma_2 (k=2, not stabilized), sigma_3 (k=2, not converged), "
                   "sigma_5 (k=2, not converged)\n")
    assert out.startswith(ExperimentResult.CSV_HEADER + "\n")


def test_experiment_replot_round_trip(tmp_path, capsys):
    out_path = tmp_path / "toy3.csv"
    _, original, _ = run(capsys, "experiment", "--pair", TOY3, "--B", "4,6",
                         "--p-max", "7", "--k-max", "2", "--out", str(out_path))
    code, replotted, _ = run(capsys, "experiment", "--replot", str(out_path))
    assert code == 0
    assert replotted == original


def test_replot_rejects_foreign_csv(tmp_path, capsys):
    stray = tmp_path / "stray.csv"
    stray.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    code, _, err = run(capsys, "experiment", "--replot", str(stray))
    assert code == 2
    assert "expected header" in err


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("golden, argv", [
    ("verify_all_seed5.txt",
     ("verify", "--suite", "all", "--seed", "5")),
    ("experiment_shipped.json",
     ("experiment", "--pair", str(PAIRS / "shipped_n5.pair"), "--B", "8,12,16,20",
      "--p-max", "31", "--k-max", "5", "--format", "json")),
])
def test_report_matches_golden_bytes(capsys, golden, argv):
    # regenerate a golden file only for an intended change of the report:
    # python -m quadpair.cli <argv> > tests/golden/<file>
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_experiment_json_is_strict_below_p_max_3(tmp_path, capsys):
    # no odd prime to fit the tail on: it is written as null, not Infinity
    out_path = tmp_path / "shipped.csv"
    shipped = str(PAIRS / "shipped_n5.pair")
    code, out, _ = run(capsys, "experiment", "--pair", shipped, "--B", "8",
                       "--p-max", "2", "--format", "json", "--out", str(out_path))
    assert code == 0
    payload = _strict_json(out)
    assert payload["report"]["tail_diagnostic"] is None
    assert payload["report"]["primes"] == []
    sidecar = out_path.with_suffix(".density.json").read_text(encoding="utf-8")
    assert _strict_json(sidecar) == payload["report"]
