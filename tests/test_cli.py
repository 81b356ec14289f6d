"""End-to-end command-line behaviour, including exit codes."""

import json
import os
import subprocess
import sys

import pytest

from sgcensus import cli
from sgcensus.census import CheckpointMismatchError
from sgcensus.cli import parse_int_list

WITNESS = "1..12,19,21,24,25"


# the subprocess imports the same sgcensus as these tests
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cli.__file__))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sgcensus", *args],
        capture_output=True, text=True, env=env,
    )


def test_parse_int_list():
    assert parse_int_list("1..4,9") == [1, 2, 3, 4, 9]
    assert parse_int_list("7") == [7]
    with pytest.raises(ValueError):
        parse_int_list("5..3")
    with pytest.raises(ValueError):
        parse_int_list("")
    with pytest.raises(ValueError):
        parse_int_list("1,x")


def test_enumerate_count():
    r = run_cli("enumerate", "--genus", "3", "--count-only")
    assert r.returncode == 0
    assert r.stdout.strip() == "4"


def test_enumerate_streams_gap_sets():
    r = run_cli("enumerate", "--genus", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["1,2", "1,3"]


def test_enumerate_other_emit_modes():
    gens = run_cli("enumerate", "--genus", "2", "--emit", "gens")
    assert gens.stdout.splitlines() == ["3,4,5", "2,5"]
    kunz = run_cli("enumerate", "--genus", "2", "--emit", "kunz")
    assert kunz.stdout.splitlines() == ["1,1", "2"]
    # the full semigroup has no coordinates: one empty line
    nat = run_cli("enumerate", "--genus", "0", "--emit", "kunz")
    assert nat.stdout == "\n"


def test_enumerate_bad_genus():
    assert run_cli("enumerate", "--genus", "-1").returncode == 2
    assert run_cli("enumerate", "--genus", "31").returncode == 3


def test_classify_buchweitz_witness():
    r = run_cli("classify", "--gaps", WITNESS)
    assert r.returncode == 0
    rec = json.loads(r.stdout)
    assert rec["genus"] == 16
    assert rec["class"] == "low"
    assert rec["buchweitz"]["fails_any"] is True
    assert rec["buchweitz"]["first_failure"] == 2
    assert rec["buchweitz"]["tests"][0]["size"] == 46
    assert rec["type_ak"] is None


def test_classify_from_generators():
    r = run_cli("classify", "--gens", "3,5,7")
    rec = json.loads(r.stdout)
    assert rec["gaps"] == [1, 2, 4]
    assert rec["class"] == "low"
    assert rec["eisenbud_harris"] is True
    assert rec["kunz"] == [2, 1]


def test_classify_reports_mid_type():
    r = run_cli("classify", "--gaps", "1,2,4,5,7")
    rec = json.loads(r.stdout)
    assert rec["class"] == "mid"
    assert rec["type_ak"] == {"k": 1, "a": [0]}


def test_classify_invalid_gap_set():
    r = run_cli("classify", "--gaps", "1,2,5,8")
    assert r.returncode == 4
    assert "4 + 4 = 8" in r.stderr
    assert r.stdout == ""


def test_classify_argument_errors():
    assert run_cli("classify").returncode == 2
    assert run_cli(
        "classify", "--gaps", "1,2", "--gens", "3,4,5"
    ).returncode == 2
    assert run_cli("classify", "--gens", "4,6").returncode == 2
    assert run_cli("classify", "--gaps", "1,2", "--nb-cap", "1").returncode == 2


def test_census_csv_and_summary(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("census", "--gmax", "8", "--out", str(out))
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert summary["g_max"] == 8
    assert summary["epsilon"] == "1/21"
    assert summary["nb_n_cap"] == 8
    assert summary["m_threshold"] == 420
    assert summary["rows"] == 8
    assert summary["format"] == "csv"
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert lines[0].startswith("g,N,ordinary,")


def test_census_jsonl(tmp_path):
    out = tmp_path / "rows.jsonl"
    r = run_cli("census", "--gmax", "6", "--out", str(out), "--format", "jsonl")
    assert r.returncode == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [d["g"] for d in rows] == list(range(1, 7))
    assert rows[5]["N"] == 23


def test_census_threads_deterministic(tmp_path):
    one = tmp_path / "one.csv"
    four = tmp_path / "four.csv"
    run_cli("census", "--gmax", "12", "--out", str(one), "--threads", "1")
    run_cli("census", "--gmax", "12", "--out", str(four), "--threads", "4")
    assert one.read_bytes() == four.read_bytes()


def test_census_threads_env_default(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("census", "--gmax", "4", "--out", str(out),
                env_extra={"SGCENSUS_THREADS": "3"})
    assert json.loads(r.stdout)["threads"] == 3


def test_census_resume_and_mismatch(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "census.ckpt"
    run_cli("census", "--gmax", "8", "--out", str(out),
            "--checkpoint", str(ck))
    fresh = out.read_bytes()
    r = run_cli("census", "--gmax", "10", "--out", str(out),
                "--checkpoint", str(ck))
    assert r.returncode == 0
    assert out.read_bytes()[: len(fresh)] == fresh  # old rows unchanged
    plain = tmp_path / "plain.csv"
    run_cli("census", "--gmax", "10", "--out", str(plain))
    assert out.read_bytes() == plain.read_bytes()

    bad = run_cli("census", "--gmax", "10", "--out", str(out),
                  "--checkpoint", str(ck), "--eps", "1/7")
    assert bad.returncode == 6
    assert "hash" in bad.stderr


def test_census_resource_and_io_errors(tmp_path):
    assert run_cli("census", "--gmax", "40",
                   "--out", str(tmp_path / "x.csv")).returncode == 3
    r = run_cli("census", "--gmax", "4", "--out", "/no-such-dir/x.csv")
    assert r.returncode == 5
    assert "cannot write" in r.stderr


def test_census_unwritable_out_fails_before_walk(tmp_path, monkeypatch):
    def must_not_run(cfg):
        raise AssertionError("census walked before the output path was checked")

    monkeypatch.setattr(cli, "run_census", must_not_run)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(["census", "--gmax", "4", "--out", str(out)]) == 5


def test_census_failed_run_keeps_existing_out(tmp_path, monkeypatch):
    out = tmp_path / "rows.csv"
    out.write_text("earlier rows\n")

    def mismatch(cfg):
        raise CheckpointMismatchError("stale checkpoint")

    monkeypatch.setattr(cli, "run_census", mismatch)
    assert cli.main(["census", "--gmax", "4", "--out", str(out)]) == 6
    assert out.read_text() == "earlier rows\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


def test_census_damaged_checkpoint_row_exit_code(tmp_path):
    out = tmp_path / "rows.csv"
    ck = tmp_path / "census.ckpt"
    assert run_cli("census", "--gmax", "6", "--out", str(out),
                   "--checkpoint", str(ck)).returncode == 0
    lines = ck.read_text().splitlines()
    row = json.loads(lines[3])
    row["mult_hist"] = 5
    lines[3] = json.dumps(row)
    ck.write_text("\n".join(lines) + "\n")
    r = run_cli("census", "--gmax", "6", "--out", str(out), "--checkpoint", str(ck))
    assert r.returncode == 6
    assert "Traceback" not in r.stderr


def test_verify_suites_pass():
    for suite, gmax in (("fib", "12"), ("kunz", "9"), ("zhao", "9"),
                        ("weightmid", "9"), ("qbinom", "10"), ("recurrence", "10")):
        r = run_cli("verify", suite, "--gmax", gmax)
        assert r.returncode == 0, (suite, r.stdout, r.stderr)
        rec = json.loads(r.stdout)
        assert rec["ok"] is True
        assert rec["failure_count"] == 0


def test_verify_komeda_needs_depth():
    r = run_cli("verify", "komeda", "--gmax", "10")
    assert r.returncode == 1
    rec = json.loads(r.stdout)
    assert rec["ok"] is False
    assert "16..25" in rec["error"]


def test_verify_unknown_suite():
    assert run_cli("verify", "bogus").returncode == 2


def test_no_arguments_is_usage_error():
    assert run_cli().returncode == 2
