import hashlib
import json
import os
import subprocess
import sys

import pytest

from mobius_lattice import cli, identities
from mobius_lattice.cli import main


def run_cli(args):
    return main(args)


def read_jsonl(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    return rows


def test_verify_gl22_all_pass(tmp_path):
    out = tmp_path / "gl22.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--subgroups", "all", "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    summary = rows[-1]
    assert summary["type"] == "summary"
    assert summary["pairs"] == 5
    assert summary["failures"] == 0
    assert all(r["identities_hold"] for r in rows[:-1])


def test_verify_gl23_contains_vanishing_instance(tmp_path):
    out = tmp_path / "gl23.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert rows[-1]["failures"] == 0
    vanishing = [r for r in rows[:-1]
                 if r["h_order"] == 2 and r["mu_ideal"] == 0]
    assert vanishing  # the block-diagonal order-2 subgroup shows up


def test_verify_reducible_scope_is_subset(tmp_path):
    out_all = tmp_path / "all.jsonl"
    out_red = tmp_path / "red.jsonl"
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", "3",
                    "--out", str(out_all)]) == 0
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", "3",
                    "--subgroups", "reducible", "--out", str(out_red)]) == 0
    n_all = read_jsonl(out_all)[-1]["pairs"]
    n_red = read_jsonl(out_red)[-1]["pairs"]
    assert 0 < n_red < n_all


def test_malformed_generator_file(tmp_path):
    bad = tmp_path / "gens.json"
    bad.write_text("{ not json")
    assert run_cli(["verify", "--gens", str(bad)]) == 2


def test_generator_file_round_trip(tmp_path):
    spec = {"name": "GL(2,2)-from-file", "field": {"p": 2, "u": 1}, "n": 2,
            "generators": [[[1, 1], [0, 1]], [[0, 1], [1, 0]]]}
    path = tmp_path / "gl22.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out.jsonl"
    assert run_cli(["verify", "--gens", str(path), "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 5
    assert rows[0]["group"] == "GL(2,2)-from-file"


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["verify", "--preset", "GL", "--n", "2", "--q", "3",
            "--seed", "7"]
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_mobius_command(capsys):
    assert run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "2",
                    "--from", "trivial", "--to", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 3
    assert payload["interval_size"] == 6


def test_mobius_same_endpoints(capsys):
    assert run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "3",
                    "--from", "full", "--to", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mu"] == 1


def test_mobius_not_nested(tmp_path, capsys):
    gens = tmp_path / "h.json"
    gens.write_text(json.dumps([[[0, 1], [1, 0]]]))
    code = run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "2",
                    "--from", "full", "--to", str(gens)])
    assert code == 2


def test_report_merge_disjoint(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    assert run_cli(["verify", "--preset", "SL", "--n", "2", "--q", "3",
                    "--out", str(b)]) == 0
    na = read_jsonl(a)[-1]["pairs"]
    nb = read_jsonl(b)[-1]["pairs"]
    merged = tmp_path / "merged.jsonl"
    assert run_cli(["report", str(a), str(b), "--out", str(merged)]) == 0
    assert len(read_jsonl(merged)) == na + nb


def test_report_dedupes_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    merged = tmp_path / "m.jsonl"
    assert run_cli(["report", str(a), str(a), "--out", str(merged)]) == 0
    assert len(read_jsonl(merged)) == read_jsonl(a)[-1]["pairs"]


def test_report_conflicting_duplicate(tmp_path):
    a = tmp_path / "a.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--out", str(a)]) == 0
    rows = read_jsonl(a)
    rows[0]["mu_ideal"] += 1
    b = tmp_path / "b.jsonl"
    b.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run_cli(["report", str(a), str(b)]) == 2


def test_skips_give_exit_three(tmp_path):
    out = tmp_path / "skip.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--max-powerset", "1", "--out", str(out)])
    assert code == 3
    rows = read_jsonl(out)
    assert rows[-1]["skips"]
    assert all("reason" in s for s in rows[-1]["skips"])


def test_csv_output(tmp_path):
    out = tmp_path / "table.csv"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("group,h_order,mu_ideal")
    assert len(lines) == 6


def test_subgroups_file_scope(tmp_path):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([
        [[[0, 1], [1, 0]]],           # a reflection, order 2
        [[[0, 1], [1, 1]]],           # order 3 rotation
    ]))
    out = tmp_path / "out.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--subgroups", "file", "--subgroups-file", str(subs),
                    "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 2
    assert sorted(r["h_order"] for r in rows[:-1]) == [2, 3]


def test_extension_field_group(tmp_path):
    # GL(1,4): cyclic of order 3, scalar matrices over GF(4)
    out = tmp_path / "gl14.jsonl"
    code = run_cli(["verify", "--preset", "GL", "--n", "1", "--q", "4",
                    "--out", str(out)])
    assert code == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] == 1  # only the trivial subgroup is proper


def test_bad_q_rejected():
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "6"]) == 2


def test_max_index_scope(tmp_path):
    out = tmp_path / "bounded.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--max-index", "4", "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert rows[-1]["pairs"] > 0
    assert all(48 // r["h_order"] <= 4 for r in rows[:-1])


def test_timing_flag_adds_fields(tmp_path):
    out = tmp_path / "timed.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--timing", "--out", str(out)]) == 0
    rows = read_jsonl(out)
    assert all("timing" in r for r in rows[:-1])
    assert "wall_time" in rows[-1]


def test_dump_faces_flag(tmp_path):
    out = tmp_path / "faces.jsonl"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "2",
                    "--dump-faces", "--out", str(out)]) == 0
    row = read_jsonl(out)[0]
    assert "subspace_complex_faces" in row
    assert "stabilizer_complex_faces" in row


# sha256 of reports written by the code before the single-enumeration
# refactor; any change to report bytes shows up here
GOLDEN_JSON = {
    ("GL", "2", "2"):
        "b1d267919fcf76730447e610d099552b89cb9599437fe860e565ed052acff007",
    ("GL", "2", "3"):
        "16444aac7b30c609b216ad605275222bb672999dd7fe587153cbabdef84f18d7",
    ("SL", "2", "3"):
        "1967451eae1d564fcc94872df7f9739645b2f50d8e3633b7a4da49c4239e9859",
    ("GL", "3", "2"):
        "1a082cbb8615785d9e189ffec9a35361ffd8a94c8d62d06abd8163ff0cc42ef3",
}
GOLDEN_CSV_GL23 = (
    "4439714698b8c42fe835d0ad4ae8cccceafe05138f786dd93783f89c37142bf2")
GOLDEN_MERGED_CSV = (
    "c27313a08ac6433e3e952e0549e44d215f2956e2e052dbf8ed3e1c282729ab4c")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_reports_match_golden_bytes(tmp_path):
    reports = []
    for (kind, n, q), digest in GOLDEN_JSON.items():
        out = tmp_path / f"{kind}{n}{q}.jsonl"
        assert run_cli(["verify", "--preset", kind, "--n", n, "--q", q,
                        "--out", str(out)]) == 0
        assert _sha256(out) == digest, (kind, n, q)
        reports.append(str(out))
    csv_out = tmp_path / "gl23.csv"
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--format", "csv", "--out", str(csv_out)]) == 0
    assert _sha256(csv_out) == GOLDEN_CSV_GL23
    merged = tmp_path / "merged.csv"
    assert run_cli(["report", *reports, "--format", "csv",
                    "--out", str(merged)]) == 0
    assert _sha256(merged) == GOLDEN_MERGED_CSV


@pytest.mark.parametrize("kind,n,q,mu,size", [
    ("SL", "2", "4", -60, 59),   # A5
    ("GL", "3", "2", 0, 179),    # PSL(2,7)
    ("GL", "2", "3", 0, 55),
])
def test_mobius_published_values(capsys, kind, n, q, mu, size):
    # P. Hall, "The Eulerian functions of a group", Q. J. Math. 7 (1936)
    assert run_cli(["mobius", "--preset", kind, "--n", n, "--q", q,
                    "--from", "trivial", "--to", "full"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["mu"], payload["interval_size"]) == (mu, size)


@pytest.fixture
def interval_calls(monkeypatch):
    """Counts overgroup_interval calls made from cli.py and identities.py."""
    calls = []
    for module in (cli, identities):
        original = module.overgroup_interval

        def counted(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "overgroup_interval", counted)
    return calls


@pytest.mark.parametrize("scope", ["all", "reducible", "file"])
def test_verify_enumerates_lattice_once(tmp_path, interval_calls, scope):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([[[[0, 1], [1, 0]]]]))
    assert run_cli(["verify", "--preset", "GL", "--n", "2", "--q", "3",
                    "--subgroups", scope, "--subgroups-file", str(subs),
                    "--out", str(tmp_path / "out.jsonl")]) == 0
    assert len(interval_calls) == 1


def test_mobius_enumerates_interval_once(capsys, interval_calls):
    assert run_cli(["mobius", "--preset", "GL", "--n", "2", "--q", "3",
                    "--from", "trivial", "--to", "full"]) == 0
    assert len(interval_calls) == 1


def test_verify_reducible_ambient_group_exits_two(tmp_path):
    spec = {"field": {"p": 2, "u": 1}, "n": 2,
            "generators": [[[1, 1], [0, 1]]]}
    path = tmp_path / "reducible.json"
    path.write_text(json.dumps(spec))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "mobius_lattice.cli", "verify",
         "--gens", str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1
