import csv
import io
import json
import os
import re
from fractions import Fraction

import pytest

from crossings.cli import _HANDLERS, _parse_n_values, main


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_q_command_with_verify(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSING_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "q", "--m", "5", "--verify")
    assert code == 0
    assert "self-pair cost 4" in out
    assert "ok:" in out
    assert list(tmp_path.iterdir()) == []


def test_q_refuses_cache_dir(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["q", "--m", "4", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


def test_orbits_command_prints_census(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--m", "6", "--verify")
    assert code == 0
    assert "20 / 17" in out
    assert "ok: census matches the reference" in out


def test_coeffs_command(store, capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--m", "5", "--cache-dir", str(store))
    assert code == 0
    assert "7 classes" in out
    assert (store / "coeffs_5_single.bin").exists()


def test_beta_command_stream_and_result(store, capsys, tmp_path):
    result_path = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys, "beta", "--m", "5", "--cache-dir", str(store), "--json", str(result_path)
    )
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["m"] == 5
    assert result["beta"] == pytest.approx(1.9270509831, abs=1e-9)
    assert result["certified_bound"] == pytest.approx(1.9270509831, abs=1e-9)
    assert result["rank"] == 1
    assert result["eigenvector"] == pytest.approx([0.5477225575, 0.3385111569], abs=1e-4)
    assert result["rounds"] >= 1 and result["total_time"] > 0
    assert result["status"] == "optimal"
    assert json.loads(result_path.read_text()) == result
    records = [json.loads(line) for line in err.strip().splitlines()]
    for record in records:
        assert set(record) == {"round", "active", "objective", "max_violation",
                               "wall_time_ms", "iterations", "status"}
        assert record["iterations"] >= 1
        assert record["status"] in ("optimal", "stalled", "max_iter")
    assert result["iterations"] == sum(r["iterations"] for r in records)
    assert records[-1]["status"] == result["status"]


def test_alpha_command(store, capsys):
    code, out, _ = run_cli(capsys, "alpha", "--m", "4", "--cache-dir", str(store))
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["alpha"] == pytest.approx(1.0, abs=1e-9)
    assert result["blocks"] == [1, 1, 1]
    assert result["status"] == "optimal"
    assert result["iterations"] >= 1


def test_certify_command(store, capsys):
    code, out, _ = run_cli(capsys, "certify", "--m", "4", "--cache-dir", str(store))
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert result["psd_verified"] is True
    assert result["status"] == "optimal"
    assert result["iterations"] >= 1
    assert result["certified_bound"] == pytest.approx(1.0, abs=1e-9)
    num, den = result["value"].split("/")
    assert abs(Fraction(int(num), int(den)) - 1) < Fraction(1, 10**9)


def test_bounds_command_from_table(store, capsys, tmp_path):
    table = {
        "alpha": {"10": "9.7411403685"},
        "beta": {
            "10": "9.6866252078",
            "11": "11.9987919703",
            "12": "14.5115811776",
            "13": "17.3135089904",
        },
    }
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "bounds", "--from-table", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "bound", "source", "certified"]
    body = {(int(r[0]), int(r[1])): (int(r[2]), r[3]) for r in rows[1:]}
    assert body[(10, 10)] == (388, "alpha")
    assert body[(11, 11)] == (589, "beta")
    assert body[(12, 12)] == (865, "beta")
    assert body[(13, 13)] == (1229, "beta")
    assert "cr(K_{13,n}) >= 8.65675 n^2 - 18 n" in err


def test_bounds_command_computes_a_level(store, capsys):
    code, out, _ = run_cli(capsys, "bounds", "--m", "4", "--cache-dir", str(store), "--n", "5..7")
    assert code == 0
    rows = [r for r in csv.reader(io.StringIO(out))][1:]
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [
        (4, 5, 8), (4, 6, 12), (4, 7, 18)
    ]


def test_bounds_needs_input(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "error:" in err


def test_verify_command(store, capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--cache-dir", str(store))
    assert code == 0
    assert out.count("ok:") >= 4


def test_threads_flag_sets_environment(store, capsys, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    code, _, _ = run_cli(capsys, "coeffs", "--m", "4", "--cache-dir", str(store), "--threads", "2")
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_cache_dir_env_fallback(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CROSSING_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run_cli(capsys, "coeffs", "--m", "4")
    assert code == 0
    assert (tmp_path / "envcache" / "coeffs_4_single.bin").exists()


def test_every_command_leaves_only_coefficient_tables(capsys, tmp_path, monkeypatch):
    # a cache holds only files that some command reads back: the COFA
    # tables and their checksum sidecars; q takes no --cache-dir, so it
    # gets the same directory through the environment
    monkeypatch.setenv("CROSSING_CACHE_DIR", str(tmp_path))
    for command in _HANDLERS:
        argv = [command, "--m", "4"]
        if command != "q":
            argv += ["--cache-dir", str(tmp_path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (command, err)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names, "no command wrote a table"
    for name in names:
        assert re.fullmatch(r"coeffs_4_(single|full)\.bin(\.crc32)?", name), name


def test_parse_n_values():
    assert _parse_n_values("10..13", []) == [10, 11, 12, 13]
    assert _parse_n_values("7", []) == [7]
    assert _parse_n_values("10,12", []) == [10, 12]
    assert _parse_n_values(None, [4, 5]) == [4, 5]


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
