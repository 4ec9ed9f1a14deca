import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import crossings
from crossings import cache, cli
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


def _alpha_result(result):
    assert result["alpha"] == pytest.approx(1.0, abs=1e-9)
    assert result["blocks"] == [1, 1, 1]
    assert result["classes"] == 3


def _beta_result(result):
    assert result["beta"] == pytest.approx(1.9270509831, abs=1e-9)
    assert result["certified_bound"] == pytest.approx(1.9270509831, abs=1e-9)
    assert result["rank"] == 1
    assert result["eigenvector"] == pytest.approx([0.5477225575, 0.3385111569], abs=1e-4)


def _certify_result(result):
    assert result["psd_verified"] is True
    assert result["certified_bound"] == pytest.approx(1.0, abs=1e-9)
    num, den = result["value"].split("/")
    assert abs(Fraction(int(num), int(den)) - 1) < Fraction(1, 10**9)
    assert isinstance(result["worst_class"], int)


# solve command -> (level, check of the fields only that command adds)
SOLVES = {"alpha": (4, _alpha_result), "beta": (5, _beta_result), "certify": (4, _certify_result)}


@pytest.mark.parametrize("command", SOLVES)
def test_solve_command_stream_and_result(command, store, capsys, tmp_path):
    m, check = SOLVES[command]
    result_path = tmp_path / "out.json"
    code, out, err = run_cli(
        capsys, command, "--m", str(m), "--cache-dir", str(store), "--json", str(result_path)
    )
    assert code == 0
    result = json.loads(out.strip().splitlines()[-1])
    check(result)
    assert {"m", "certified_bound", "status", "rounds", "iterations", "total_time"} <= set(result)
    assert result["m"] == m
    assert result["status"] == "optimal"
    assert result["rounds"] >= 1 and result["total_time"] > 0
    assert json.loads(result_path.read_text()) == result
    records = [json.loads(line) for line in err.strip().splitlines()]
    assert [r["round"] for r in records] == list(range(1, result["rounds"] + 1))
    for record in records:
        assert set(record) == {"round", "active", "objective", "max_violation",
                               "wall_time_ms", "iterations", "status"}
        assert record["iterations"] >= 1
        assert record["status"] in ("optimal", "stalled", "max_iter")
    assert result["iterations"] == sum(r["iterations"] for r in records)
    assert records[-1]["status"] == result["status"]


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


def test_bounds_keeps_the_stronger_of_table_and_computed_level(store, capsys, tmp_path):
    # the tabled full optimum at m=7 beats the computed single block (about
    # 4.3107), and a weaker tabled value gives way to the computed one
    path = tmp_path / "levels.json"
    for table, want, row in [({"alpha": {"7": "4.3593154947"}}, "2.17965 n^2 - 4.5 n   [alpha;",
                              ["7", "7", "76", "alpha", "True"]),
                             ({"beta": {"7": "4"}}, "2.15536 n^2 - 4.5 n   [beta;",
                              ["7", "7", "75", "beta", "True"])]:
        path.write_text(json.dumps(table))
        code, out, err = run_cli(capsys, "bounds", "--from-table", str(path), "--m", "7",
                                 "--cache-dir", str(store))
        assert code == 0 and want in err, err
        assert list(csv.reader(io.StringIO(out)))[1:] == [row]


def test_bounds_needs_input(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "error:" in err


def test_bounds_refuses_bad_column_counts_and_tables(capsys, tmp_path):
    table = tmp_path / "levels.json"
    table.write_text('{"10": "9.6866252078"}')
    for bad in ("1x", "13..10", ","):
        code, out, err = run_cli(capsys, "bounds", "--from-table", str(table), "--n", bad)
        assert code == 2 and "error: --n" in err and out == ""
    # not JSON, then JSON that is not a table: a list, a level that is not an
    # integer, a value that is not a number
    for text in ('{"10": "9.6866252078"', '[1, 2]', '{"x": "1.5"}', '{"beta": {"10": "abc"}}'):
        table.write_text(text)
        code, out, err = run_cli(capsys, "bounds", "--from-table", str(table))
        assert code == 2 and f"error: --from-table {table}" in err and out == "", text


def test_bounds_refuses_negative_column_counts(store, capsys):
    code, out, err = run_cli(capsys, "bounds", "--m", "4", "--cache-dir", str(store), "--n=-3..0")
    assert code == 2 and "error: column count" in err and out == ""


def test_solve_reports_an_unwritable_json_path(store, capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "beta", "--m", "4", "--cache-dir", str(store),
                             "--json", str(path))
    assert code == 2 and f"error: --json {path}" in err
    # the solve itself finished and printed its result
    assert json.loads(out.strip().splitlines()[-1])["m"] == 4
    assert not path.exists()


def test_verify_command(store, capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--cache-dir", str(store))
    assert code == 0
    assert out.count("ok:") >= 4


def test_verify_reads_cached_tables_through_their_header(capsys, tmp_path):
    # a level-5 table with its own matching trailer, copied under the level-8
    # name: its checksum passes, its header does not
    code, _, _ = run_cli(capsys, "coeffs", "--m", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    src = tmp_path / "coeffs_5_single.bin"
    (tmp_path / "coeffs_8_single.bin").write_bytes(src.read_bytes())
    code, out, err = run_cli(capsys, "verify", "--m", "8", "--cache-dir", str(tmp_path))
    assert code == 6
    assert "coeffs_8_single.bin: bad m (got 5, want 8)" in err
    assert "cache files pass" not in out


def test_verify_skips_a_stale_table_that_a_solve_rebuilds(capsys, tmp_path):
    # a table of an older format version is no fault of the cache: the next
    # solve rebuilds it, so verify names it and checks the current files only
    code, _, _ = run_cli(capsys, "alpha", "--m", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    path = tmp_path / "coeffs_5_full.bin"
    data = bytearray(path.read_bytes())
    data[4] = 2
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "verify", "--m", "5", "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert "skip: coeffs_5_full.bin is of an older format" in out
    assert "ok: 0 cache files pass" in out  # checked before run_single writes one
    code, _, _ = run_cli(capsys, "alpha", "--m", "5", "--cache-dir", str(tmp_path))
    assert code == 0 and path.read_bytes()[4] > 2


def test_verify_checks_the_tables_on_disk_before_its_solve(capsys, tmp_path):
    # the single-block solve of verify writes coeffs_5_single.bin when it is
    # missing or stale; the cache check reads the disk before that solve, so
    # the table it writes is never counted as one that passed
    path = tmp_path / "coeffs_5_single.bin"
    for stale in (False, True):
        if stale:
            data = bytearray(path.read_bytes())
            data[4] = 3
            path.write_bytes(bytes(data))
        code, out, err = run_cli(capsys, "verify", "--m", "5", "--cache-dir", str(tmp_path))
        assert (code, err) == (0, "") and path.exists() and not cache.is_stale(path)
        assert ("skip: coeffs_5_single.bin is of an older format" in out) == stale
        assert "ok: 0 cache files pass" in out and "ok: single-block optimum" in out
        assert out.index("cache files pass") < out.index("single-block optimum")
    code, out, _ = run_cli(capsys, "verify", "--m", "5", "--cache-dir", str(tmp_path))
    assert code == 0 and "ok: 1 cache files pass" in out


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
    # tables, each one file; q takes no --cache-dir, so it gets the same
    # directory through the environment
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
        assert re.fullmatch(r"coeffs_4_(single|full)\.bin", name), name


def test_cold_coeffs_does_not_load_numpy_ma(tmp_path):
    # np.unique without indices imports numpy.ma on first use in numpy 2,
    # several milliseconds of every fresh process that builds tables
    src = str(Path(crossings.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "from crossings.cli import main\n"
              f"main(['coeffs', '--m', '5', '--cache-dir', {str(tmp_path)!r}])\n"
              "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert "m=5: 7 classes" in out
    assert out.splitlines()[-1] == "False"


def test_parse_n_values():
    assert _parse_n_values("10..13") == [10, 11, 12, 13]
    assert _parse_n_values("7") == [7]
    assert _parse_n_values("10,12") == [10, 12]
    assert _parse_n_values(None) == []


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    # the parser is built on the first call and shared by the later ones
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        for m in (4, 5, 4):
            assert run_cli(capsys, "q", "--m", str(m))[0] == 0
    finally:
        cli._build_parser.cache_clear()
    assert built.count("crossings") == 1


def recorded_handlers(monkeypatch) -> list:
    """Replace every handler by one that records its namespace."""
    seen = []
    for command in _HANDLERS:
        monkeypatch.setitem(_HANDLERS, command, lambda args: seen.append(args) or 0)
    return seen


def test_options_of_one_call_are_absent_from_the_next(monkeypatch, tmp_path):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    seen = recorded_handlers(monkeypatch)
    path = str(tmp_path / "result.json")
    assert main(["beta", "--m", "5", "--json", path, "--threads", "2"]) == 0
    assert main(["coeffs", "--m", "5"]) == 0
    assert main(["beta", "--m", "6"]) == 0
    first, second, third = seen
    assert (first.json, first.threads) == (path, 2)
    assert not hasattr(second, "json") and (second.m, second.threads) == (5, None)
    assert (third.m, third.json, third.threads) == (6, None, None)


def test_a_refused_argv_leaves_the_next_call_intact(monkeypatch, capsys):
    seen = recorded_handlers(monkeypatch)
    for argv in (["q", "--m", "7", "--verify", "--bogus"], ["certify", "--m", "x"], ["bounds", "--n"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["q", "--m", "5"]) == 0
    (args,) = seen
    assert vars(args) == {"command": "q", "m": 5, "threads": None, "verify": False}
