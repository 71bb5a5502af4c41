import hashlib
import importlib.util
import json
import os
import socket
import subprocess
import sys

import pytest

from abelianizer import cli
from abelianizer.abelian_gw import MemoStore
from abelianizer.cli import RunConfig, main, run_suites

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRUNCATED_CACHE = f"{MemoStore.VERSION}\n2,4|1,0|3.2;3.1;1.0\n"


def run_cli(argv):
    return main(argv)


def test_invariant_command(capsys):
    code = run_cli(["invariant", "--k", "2", "--n", "4",
                    "--parts", "[1];[2,1];[2,2]", "--d", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == "1/1" and out["oracle"] == "1/1"


def test_invariant_four_point_oracle(capsys):
    code = run_cli(["invariant", "--k", "2", "--n", "4",
                    "--parts", "[1];[2,1];[2,2];[1]", "--d", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["oracle"] is not None and out["value"] == out["oracle"]


def test_invariant_dimension_violating_zero(capsys):
    code = run_cli(["invariant", "--k", "2", "--n", "4",
                    "--parts", "[1];[1];[1]", "--d", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["value"] == "0/1"


# sha256 of each command's stdout, recorded at version 0.3.2: the numbers
# leave the package as Fractions, so a value handed out as an int would print
# 0 in place of 0/1 and change the digest
@pytest.mark.parametrize("argv, digest", [
    ("table --k 2 --n 2 --side abelian --max-degree 1 --format csv",
     "17190dbe010f4cf8efe96db82b21e693359011bd52c8fff5edb4d4a315e9ef44"),
    ("table --k 2 --n 3 --side abelian --max-degree 2 --max-insertions 5 --format csv",
     "b7a4e2fa7db0681ca54e63939a81abe82a137131e29ad79e9740e211ff214a5e"),
    ("table --k 2 --n 4 --max-degree 2 --max-insertions 4 --format csv",
     "a43c1a338aa96ec9780e00ed41ad1db4cddf74573e20888fbf355d91920eee9b"),
    ("invariant --k 2 --n 4 --parts [2,1];[2,1];[2,1];[2,2] --d 2",
     "deb935f7641557edba1d0640314df06d23d6836fac29fd14cc9e7246770aa96f"),
    # recorded at version 0.5.0, before the formula trees were contracted
    # from the leaves: 6-point and 5-point invariants
    ("table --k 2 --n 4 --max-degree 2 --max-insertions 6 --format csv",
     "3c8142917c32093de31d2975509f46102fec510f02db88d17ad16304e2bab38a"),
    ("table --k 2 --n 5 --max-degree 2 --max-insertions 5 --format csv",
     "8e6bea144446c1e44dd5b433750a1b452735b895d63c411b1cbb84438384cf05"),
], ids=["abelian-2-2", "abelian-2-3", "grass-2-4", "invariant-2-4", "grass-2-4-six", "grass-2-5-five"])
def test_cli_output_pinned(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    assert run_cli(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_invariant_usage_error_out_of_box():
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[3];[2,1]", "--d", "1"])
    assert exc.value.code == 2


def test_verify_two_point(capsys):
    code = run_cli(["verify", "--k", "2", "--n", "4", "--suite", "two-point",
                    "--max-degree", "2"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert reports[0]["schema"] == "report v1"
    assert reports[0]["passed"] is True
    assert reports[0]["violations"] == []


@pytest.mark.parametrize("flags", [["--format", "csv"], ["--format", "json"], ["--out", "x.json"]])
def test_invariant_rejects_unread_flags(flags, tmp_path, monkeypatch):
    # invariant prints one JSON record to stdout; it reads neither flag
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,2]",
                 "--d", "1"] + flags)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_csv():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--k", "2", "--n", "4", "--suite", "martin", "--format", "csv"])
    assert exc.value.code == 2


def test_verify_markdown_out(tmp_path):
    out = tmp_path / "report.md"
    assert run_cli(["verify", "--k", "2", "--n", "4", "--suite", "martin",
                    "--format", "markdown", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "| suite | instances | passed | wall time (s) |"
    assert lines[2].startswith("| martin | 8 | True |")


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--k", "2", "--n", "4", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_box_suite_needs_grassmannian():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--k", "2", "--n", "2", "--suite", "martin"])
    assert exc.value.code == 2


def test_verify_abelian_suite_allows_self_product(capsys):
    code = run_cli(["verify", "--k", "2", "--n", "2", "--suite", "wdvv-abelian",
                    "--max-degree", "1", "--max-insertions", "4"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0 and reports[0]["passed"]


def test_cache_version_error(tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_text("wrong header\n")
    code = run_cli(["verify", "--k", "2", "--n", "4", "--suite", "martin",
                    "--cache", str(bad)])
    assert code == 3


def test_cache_malformed_entry(tmp_path, capsys):
    bad = tmp_path / "bad.cache"
    bad.write_text(TRUNCATED_CACHE)
    code = run_cli(["verify", "--k", "2", "--n", "4", "--suite", "martin",
                    "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cache error: ") and err.count("\n") == 1


def test_cache_wrong_closed_form_entry(tmp_path, capsys):
    # a 3-mark entry that contradicts the product formula is a cache error
    bad = tmp_path / "bad.cache"
    bad.write_text(f"{MemoStore.VERSION}\n2,4|1,0|3.2;3.1;1.0\t7/1\n")
    code = run_cli(["verify", "--k", "2", "--n", "4", "--suite", "martin",
                    "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cache error: ") and "wrong entry" in err


def test_cache_non_integral_entry(tmp_path, capsys):
    # a 4-mark entry of 3/2 (truly 1) must not reach the invariant
    bad = tmp_path / "bad.cache"
    bad.write_text(f"{MemoStore.VERSION}\n2,4|1,0|3.0;2.3;2.0;1.0\t3/2\n")
    code = run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,2];[1]",
                    "--d", "1", "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cache error: ") and ":2: non-integral value" in err


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_cache_unreadable_path(tmp_path, capsys, kind):
    # a --cache path that holds no text is a cache error (exit 3), not a
    # traceback, and the path is left as it was
    bad = tmp_path / "bad.cache"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff")
    code = run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,2]",
                    "--d", "1", "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cache error: ") and err.count("\n") == 1
    if kind == "directory":
        assert list(bad.iterdir()) == []
    else:
        assert bad.read_bytes() == b"\xff"


@pytest.mark.parametrize("argv, code, prefix", [
    (["verify", "--k", "2", "--n", "4", "--suite", "two-point", "--out", "{missing}/x.json"],
     2, "error: "),
    (["table", "--k", "2", "--n", "4", "--out", "{missing}/x.csv"], 2, "error: "),
    (["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,2]", "--d", "1",
      "--cache", "{missing}/x.cache"], 3, "cache error: "),
], ids=["verify-out", "table-out", "invariant-cache"])
def test_unwritable_path_exit_code(argv, code, prefix, tmp_path, capsys, monkeypatch):
    # a path in a missing directory ends with the documented exit code and
    # one line on stderr naming the path, not with a traceback
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    missing = tmp_path / "missing"
    got = run_cli([a.format(missing=missing) for a in argv])
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith(prefix) and err.count("\n") == 1 and str(missing) in err
    assert not missing.exists()


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs a Unix socket file")
def test_unreadable_cache_path_exit_code(tmp_path, capsys, monkeypatch):
    # a socket file exists but cannot be opened: a cache error, not a traceback
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    path = tmp_path / "x.cache"
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind(str(path))
        code = run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,2]",
                        "--d", "1", "--cache", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"cache error: cannot read {path}: ") and err.count("\n") == 1


def test_cache_lenient_number_is_malformed(tmp_path, capsys, monkeypatch):
    # int() reads 1_0 as 10; the cache grammar has no underscore
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    bad = tmp_path / "bad.cache"
    text = f"{MemoStore.VERSION}\n2,4|1,0|3.0;2.3;2.0;1.0\t1_0/1\n"
    bad.write_text(text)
    code = run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,2];[1]",
                    "--d", "1", "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cache error: ") and ":2: malformed entry" in err
    assert bad.read_text() == text


@pytest.mark.parametrize("key", [
    "2,4|1|3.0;2.3;2.0;1.0",      # multidegree with 1 entry, k = 2
    "2,4|1,0,0|3.0;2.3;2.0;1.0",  # multidegree with 3 entries
    "2,4|1,0|3.0.1;2.3;2.0;1.0",  # a mark with 3 entries
    "2,4|1,0|3;2.3;2.0;1.0",      # a mark with 1 entry
    "2,4|1,0|",                   # no marks
    "2,4|1,0|3.0",                # fewer than 3 marks
    "2,4|1,0|5.0;1.1;1.1;1.1",    # a mark entry >= n
])
def test_cache_malformed_key(key, tmp_path, capsys, monkeypatch):
    # each line parses, but is no key of the store: it must not load and be
    # written back by the next save
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    bad = tmp_path / "bad.cache"
    text = f"{MemoStore.VERSION}\n{key}\t1/1\n"
    bad.write_text(text)
    code = run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1];[2,1];[2,1];[2,2]",
                    "--d", "1", "--cache", str(bad)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("cache error: ") and ":2: malformed entry" in err
    assert bad.read_text() == text


def test_invariant_names_a_bad_partition(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariant", "--k", "2", "--n", "4", "--parts", "[1,2];[1];[2,2]", "--d", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "not a partition: [1, 2]" in err and "generator" not in err


@pytest.mark.parametrize("part", ["[\uff12]", "[+1]", "[1_0]", "[1,]"])
def test_invariant_rejects_a_lenient_number(part, capsys):
    # a part is ASCII digits: int() would also read a full-width 2, a sign,
    # an underscore, or fail on an empty part with its own message
    with pytest.raises(SystemExit) as exc:
        run_cli(["invariant", "--k", "2", "--n", "4", "--parts", f"{part};[1];[2,2]", "--d", "1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"not a partition: {part}" in err and "int()" not in err


def test_verify_all_malformed_cache(tmp_path):
    bad = tmp_path / "bad.cache"
    bad.write_text(TRUNCATED_CACHE)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "verify_all.py"), "--cache", str(bad)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("cache error: ") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs a Unix socket file")
@pytest.mark.parametrize("kind, verb", [("missing", "write"), ("socket", "read")])
def test_verify_all_cache_os_error_exit_code(kind, verb, tmp_path, capsys, monkeypatch):
    # a --cache path in a missing directory cannot be written, a socket file
    # cannot be read: exit 3 with one line, as the CLI does, not a traceback.
    # The script runs as a module with an empty battery.
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("verify_all", os.path.join(ROOT, "scripts", "verify_all.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "run_suites", lambda cfg, store: [])
    path = tmp_path / "missing" / "x.cache" if kind == "missing" else tmp_path / "x.cache"
    monkeypatch.setattr(sys, "argv", ["verify_all.py", "--cache", str(path)])
    with socket.socket(socket.AF_UNIX) as sock:
        if kind == "socket":
            sock.bind(str(path))
        code = script.main()
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"cache error: cannot {verb} {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite, k, n, max_degree, max_insertions, instances", [
    ("wdvv-abelian", 2, 4, 1, 5, 9089),
    ("wdvv-abelian", 2, 2, 2, 6, 462),
    ("wdvv-grass", 2, 4, 2, 6, 788),
    ("wdvv-grass", 2, 5, 2, 5, 1369),
    # no associativity identity has fewer than 4 marks
    ("wdvv-grass", 2, 4, 2, 3, 0),
    ("wdvv-abelian", 2, 3, 2, 3, 0),
    # suites that loop over admissible_tuples
    ("three-point", 2, 4, 2, 3, 15),
    ("three-point", 2, 5, 2, 3, 43),
    ("four-point-divisor", 2, 4, 2, 4, 8),
    ("four-point-divisor", 2, 5, 2, 4, 24),
    # omega-trivial: rank + 2^C(k,2) products
    ("omega-trivial", 2, 4, 2, 5, 8),
    ("omega-trivial", 3, 6, 2, 5, 28),
    # two-point: each pair of basis classes at each degree 1..max_degree
    ("two-point", 2, 4, 2, 5, 42),
    ("two-point", 3, 5, 2, 5, 110),
])
def test_wdvv_instance_counts(suite, k, n, max_degree, max_insertions, instances, store):
    # instances_per_s in the benchmark divides by these counts
    cfg = RunConfig(k=k, n=n, max_degree=max_degree, max_insertions=max_insertions,
                    suites=(suite,))
    (report,) = run_suites(cfg, store)
    assert report.passed and report.instances == instances


def test_five_point_symmetry_draws_pinned_sample():
    # seed 0 draws from a degree-major list of admissible tuples; entries and
    # misses pin which samples it drew, hits how often the brackets read them
    store = MemoStore()
    (report,) = run_suites(RunConfig(k=2, n=4, max_degree=2, suites=("five-point-symmetry",)), store)
    assert report.passed and report.instances == 50
    assert store.stats() == {"entries": 93, "hits": 208, "misses": 93}


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "warm.cache"
    args = ["verify", "--k", "2", "--n", "4", "--suite", "two-point",
            "--max-degree", "1", "--cache", str(cache)]
    assert run_cli(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cache.exists()
    assert run_cli(args) == 0
    warm = json.loads(capsys.readouterr().out)
    for field in ("suite", "instances", "passed", "violations"):
        assert cold[0][field] == warm[0][field]


def _cached_query(cache, parts):
    return run_cli(["invariant", "--k", "2", "--n", "4", "--parts", parts, "--d", "1",
                    "--cache", str(cache)])


def test_cache_query_adding_nothing_leaves_file(tmp_path, capsys, monkeypatch):
    # a repeated query finds every entry cached: no rewrite, no temp file
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    cache = tmp_path / "warm.cache"
    assert _cached_query(cache, "[1];[2,1];[2,2];[1]") == 0

    def snapshot():
        st = os.stat(cache)
        return cache.read_bytes(), st.st_ino, st.st_mtime_ns

    before = snapshot()
    assert _cached_query(cache, "[1];[2,1];[2,2];[1]") == 0
    assert snapshot() == before
    assert [p.name for p in tmp_path.iterdir()] == ["warm.cache"]


def test_cache_query_adding_entries_rewrites(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ABELIANIZER_CACHE", raising=False)
    cache = tmp_path / "warm.cache"
    assert _cached_query(cache, "[1];[2,1];[2,2];[1]") == 0
    entries_before = len(MemoStore().load(cache))
    stores = []
    open_store = cli._open_store

    def recording_open_store(args):
        stores.append(open_store(args))
        return stores[-1]

    monkeypatch.setattr(cli, "_open_store", recording_open_store)
    assert _cached_query(cache, "[1];[1];[2];[2,2];[2]") == 0
    (store,) = stores
    assert len(store) > entries_before
    assert MemoStore().load(cache).data == store.data
    assert [p.name for p in tmp_path.iterdir()] == ["warm.cache"]


def test_env_var_overrides_cache(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "env.cache"
    monkeypatch.setenv("ABELIANIZER_CACHE", str(env_cache))
    assert run_cli(["verify", "--k", "2", "--n", "4", "--suite", "two-point",
                    "--max-degree", "1", "--cache", str(tmp_path / "flag.cache")]) == 0
    capsys.readouterr()
    assert env_cache.exists()
    assert not (tmp_path / "flag.cache").exists()


def test_table_deterministic_markdown(tmp_path):
    out1 = tmp_path / "t1.md"
    out2 = tmp_path / "t2.md"
    base = ["table", "--k", "2", "--n", "4", "--max-degree", "2",
            "--max-insertions", "3", "--format", "markdown"]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("| degree | insertions | value |")


def test_table_abelian_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(["table", "--k", "2", "--n", "2", "--side", "abelian",
                    "--max-degree", "1", "--max-insertions", "4",
                    "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "degree,insertions,value"
    assert len(lines) > 1


def test_table_empty_bounds_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert run_cli(["table", "--k", "2", "--n", "4", "--max-degree", "0",
                    "--max-insertions", "0", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text() == "degree,insertions,value\n"


def test_verify_j_i_suite(capsys):
    code = run_cli(["verify", "--k", "2", "--n", "4", "--suite", "j-i",
                    "--max-degree", "3"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0 and reports[0]["passed"]
    assert reports[0]["details"]["c_series"] == {"[]": {"Q^0 z^0": "-2/1"}}


def test_run_config_validation():
    for kwargs, message in [({"k": 0, "n": 4}, "need k >= 1 and n >= 2"),
                            ({"k": 2, "n": 4, "max_insertions": -1}, "bounds must be nonnegative"),
                            ({"k": 2, "n": 4, "suites": ("all", "bogus")}, "unknown suites: ['bogus']")]:
        with pytest.raises(ValueError) as exc:
            RunConfig(**kwargs)
        assert str(exc.value) == message
    cfg = RunConfig(2, 4)
    assert (cfg.k, cfg.n, cfg.max_degree, cfg.max_insertions, cfg.suites, cfg.seed) == (
        2, 4, 2, 5, ("all",), 0)
    assert cfg.box().dim == 4


def test_report_details_are_per_instance():
    first, second = (cli.Report("martin", 0, [], 0.0, {}) for _ in range(2))
    first.details["x"] = 1
    assert second.details == {} and first.passed
    assert cli.Report("j-i", 1, [], 0.0, {}, {"c": 1}).details == {"c": 1}


def test_correction_demo_script_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "correction_demo.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "nonzero correction" in proc.stdout


def test_exit_code_contract_subprocess():
    # the spawned binary honors the exit-code contract
    env = dict(os.environ)
    env.pop("ABELIANIZER_CACHE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "abelianizer.cli", "verify", "--k", "2", "--n", "4",
         "--suite", "martin"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    assert reports[0]["suite"] == "martin" and reports[0]["passed"]
