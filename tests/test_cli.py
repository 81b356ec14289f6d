"""End-to-end command-line behaviour, including exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from sgcensus import census, cli
from sgcensus.census import CheckpointMismatchError
from sgcensus.cli import parse_int_list

WITNESS = "1..12,19,21,24,25"


# the subprocess imports the same sgcensus as these tests
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cli.__file__))


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (PACKAGE_ROOT, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sgcensus", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
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


def test_absurd_nb_cap_refused_at_once(tmp_path):
    # F = 2g-1 leaves every n up to the cap in play
    r = run_cli("classify", "--gens", "2,41", "--nb-cap", "1000000000", timeout=20)
    assert r.returncode == 2
    assert "cap must be between 2 and 64" in r.stderr
    out = tmp_path / "rows.csv"
    assert run_cli("census", "--gmax", "3", "--out", str(out), "--nb-cap", "65").returncode == 2
    assert not out.exists()
    top = run_cli("classify", "--gens", "2,41", "--nb-cap", "64", timeout=20)
    assert json.loads(top.stdout)["buchweitz"]["capped"] is True


def test_census_csv_and_summary(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("census", "--gmax", "8", "--out", str(out))
    assert r.returncode == 0
    summary = json.loads(r.stdout)
    assert list(summary) == ["g_max", "epsilon", "nb_n_cap", "m_threshold",
                             "genus_mult_ratio", "weight_beta_flags", "threads",
                             "checkpoint", "config_hash", "rows", "out", "format"]
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


# sha256 of the CSV that `sgcensus census --gmax 20` writes, taken
# before the gap sumsets were carried down the tree
CENSUS20_SHA256 = "ffc894856dfd3920ec4667b12973a9ed2c9e7afc9430f2dad6c012f248dff8f7"
CENSUS20_CAP3_SHA256 = "259b6e389427d016417356e7fe0403ef19100f89937529548068733dd35c97cc"
# and of `sgcensus census --gmax 20 --format jsonl`
CENSUS20_JSONL_SHA256 = "d213f8c299678bfd8c14691d56414f9625e0e31aa2df227161e62f5c5a4e32f4"


@pytest.mark.parametrize("args, digest", [
    (("--threads", "1"), CENSUS20_SHA256),
    (("--threads", "2"), CENSUS20_SHA256),
    (("--threads", "2", "--checkpoint", "census.ckpt"), CENSUS20_SHA256),
    (("--nb-cap", "3"), CENSUS20_CAP3_SHA256),
    (("--format", "jsonl"), CENSUS20_JSONL_SHA256),
    (("--format", "jsonl", "--threads", "2"), CENSUS20_JSONL_SHA256),
], ids=["threads1", "threads2", "checkpoint", "nb-cap-3", "jsonl", "jsonl-threads2"])
def test_census_output_pinned(tmp_path, args, digest):
    out = tmp_path / "rows.csv"
    args = [str(tmp_path / a) if a.endswith(".ckpt") else a for a in args]
    r = run_cli("census", "--gmax", "20", "--out", str(out), *args)
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_census_threads_env_default(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("census", "--gmax", "4", "--out", str(out),
                env_extra={"SGCENSUS_THREADS": "3"})
    assert json.loads(r.stdout)["threads"] == 3


def test_census_threads_env_read_per_call(tmp_path, monkeypatch, capsys):
    # one worker walks in this process, whatever the thread count
    monkeypatch.setattr(census.os, "cpu_count", lambda: 1)
    seen = []
    for env, flags in (("1", ["--threads", "2"]), ("1", []), ("3", [])):
        monkeypatch.setenv(cli.THREADS_ENV, env)
        out = tmp_path / f"rows{len(seen)}.csv"
        assert cli.main(["census", "--gmax", "4", "--out", str(out), *flags]) == 0
        seen.append(json.loads(capsys.readouterr().out)["threads"])
    assert seen == [2, 1, 3]


def test_import_loads_no_pool_and_builds_no_parser():
    code = ("import sys, sgcensus.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules], sgcensus.cli._parser.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[] 0"


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
    # a nonpositive epsilon is refused before the output file is made;
    # "--eps -1/3" reads as a missing value, "--eps=-1/3" reaches the check
    for eps in (["--eps", "0"], ["--eps", "-1/3"], ["--eps=-1/3"]):
        r = run_cli("census", "--gmax", "4", "--out", str(tmp_path / "x.csv"), *eps)
        assert r.returncode == 2, eps
        assert not (tmp_path / "x.csv").exists()
    r = run_cli("census", "--gmax", "4", "--out", "/no-such-dir/x.csv")
    assert r.returncode == 5
    assert "cannot write" in r.stderr


def test_census_eps_help_names_the_equals_form(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--help"])
    assert exc.value.code == 0
    assert "--eps=VALUE" in " ".join(capsys.readouterr().out.split())


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


def test_census_non_utf8_checkpoint_exit_code(tmp_path):
    ck = tmp_path / "census.ckpt"
    ck.write_bytes(b"\xff\xfe{}\n")
    r = run_cli("census", "--gmax", "4", "--out", str(tmp_path / "rows.csv"),
                "--checkpoint", str(ck))
    assert r.returncode == 6
    assert "Traceback" not in r.stderr
    assert ck.read_bytes() == b"\xff\xfe{}\n"


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
