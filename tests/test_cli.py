import json
import os

import pytest

from modcert.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_built_once():
    assert build_parser() is build_parser()


def write_c5_network(tmp_path):
    path = str(tmp_path / "c5.edges")
    with open(path, "w") as fh:
        fh.write("\n".join(f"{i} {(i + 1) % 5}" for i in range(5)) + "\n")
    return path


def write_c5_certificate(tmp_path, capsys):
    path = write_c5_network(tmp_path)
    cert = str(tmp_path / "c5.cert.json")
    code, out, _ = run(capsys, "certify", path, "--max-subnet-size", "5", "-o", cert)
    assert code == 0 and "optimal-proved" in out
    return path, cert


def write_path_network(tmp_path):
    p = tmp_path / "path.edges"
    p.write_text("a b\nb c\n")
    return str(p)


def test_score_table(tmp_path, capsys):
    path = write_path_network(tmp_path)
    code, out, _ = run(capsys, "score", path)
    assert code == 0
    assert "a\tb\t1/4" in out


def test_score_json(tmp_path, capsys):
    path = write_path_network(tmp_path)
    code, out, _ = run(capsys, "score", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pairs"]["a|b"] == "1/4"
    assert data["diagonal"]["b"] == "-1/4"


def test_optimize_command(tmp_path, capsys):
    path = write_path_network(tmp_path)
    code, out, _ = run(capsys, "optimize", path)
    assert code == 0
    assert "modularity: 0.000000" in out


def test_bound_trivial_and_chains(tmp_path, capsys):
    path = write_path_network(tmp_path)
    code, out, _ = run(capsys, "bound", path, "--method", "trivial")
    assert code == 0
    assert "0.125000" in out
    code, out, _ = run(capsys, "bound", path)
    assert code == 0
    assert "bound: 0.000000" in out


def test_bound_reports_path_budget_cut(capsys):
    code, out, _ = run(capsys, "bound", "karate", "--path-budget", "50")
    assert code == 0
    assert "path budget exhausted" in out
    code, out, _ = run(capsys, "bound", "knoki")
    assert code == 0
    assert "path budget" not in out


def test_certify_verify_round_trip(tmp_path, capsys):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, "certify", path, "--method", "chains", "-o", cert)
    assert code == 0
    assert "optimal-proved" in out
    code, out, _ = run(capsys, "verify", path, cert)
    assert code == 0
    assert "verification passed" in out


def test_summary_lines_show_exact_values(tmp_path, capsys):
    # chains alone leave the pentagon at a gap of 1/50, which 6 decimals of
    # 2/25 and 1/10 would not show
    path = write_c5_network(tmp_path)
    cert = str(tmp_path / "c5-chains.cert.json")
    code, certify_out, _ = run(capsys, "certify", path, "--method", "chains", "-o", cert)
    assert code == 0
    code, verify_out, _ = run(capsys, "verify", path, cert)
    assert code == 0
    for out in (certify_out, verify_out):
        assert "(2/25)" in out and "(1/10)" in out and "gap 1/50" in out


def test_verify_tampered_bound_exits_1(tmp_path, capsys):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    num, _, den = data["bound"].partition("/")
    data["bound"] = f"{int(num) - 1}/{den}"
    open(cert, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "verify", path, cert)
    assert code == 1
    assert "verification failed" in out


def test_verify_accepts_legacy_provenance_keys(tmp_path, capsys):
    # certificates written while chain selection had strategy knobs still verify
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    data["provenance"].update({"strategy": "best", "tries_per_k": 1})
    open(cert, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "verify", path, cert)
    assert code == 0
    assert "verification passed" in out


def test_verify_truncated_exits_2(tmp_path, capsys):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    text = open(cert).read()[:80]
    open(cert, "w").write(text)
    code, _, err = run(capsys, "verify", path, cert)
    assert code == 2


@pytest.mark.parametrize("field,value", [("bound", "1/0"), ("lambda", 1), ("gap", "0/")])
def test_verify_malformed_rational_exits_2(tmp_path, capsys, field, value):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    if field == "lambda":
        data["components"][0]["lambda"] = value
    else:
        data[field] = value
    open(cert, "w").write(json.dumps(data))
    code, _, err = run(capsys, "verify", path, cert)
    assert code == 2
    assert "cannot parse certificate" in err


@pytest.mark.parametrize("mutate,message", [
    (lambda comp: comp.pop("penalty"), "missing field 'penalty'"),
    (lambda comp: comp.pop("nodes"), "missing field 'nodes'"),
    (lambda comp: comp["nodes"].append("zz"), "unknown node label 'zz'"),
    (lambda comp: comp["nodes"].clear(), "component lists no nodes"),
], ids=["no-penalty", "no-nodes", "unknown-label", "empty-nodes"])
def test_verify_malformed_component_exits_2(tmp_path, capsys, mutate, message):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    mutate(data["components"][0])
    open(cert, "w").write(json.dumps(data))
    code, _, err = run(capsys, "verify", path, cert)
    assert code == 2
    assert f"cannot parse certificate: {message}" in err


@pytest.mark.parametrize("field", ["pair", "node"])
def test_verify_repeated_subnetwork_entry_exits_2(tmp_path, capsys, field):
    path, cert = write_c5_certificate(tmp_path, capsys)
    data = json.loads(open(cert).read())
    comp = next(c for c in data["components"] if c["kind"] == "subnetwork")
    if field == "pair":
        comp["scores"].append(list(comp["scores"][0]))
    else:
        comp["nodes"].append(comp["nodes"][0])
    open(cert, "w").write(json.dumps(data))
    code, _, err = run(capsys, "verify", path, cert)
    assert code == 2
    assert "twice" in err


@pytest.mark.parametrize("mutate", [
    lambda listing: listing[0].append("a"),  # node listed twice
    lambda listing: listing[0].append(["a"]),  # a list as a label
    lambda listing: listing.append(5),  # a number as a community
    lambda listing: listing.append([]),  # an empty community
])
def test_verify_malformed_listing_exits_2(tmp_path, capsys, mutate):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    mutate(data["achieved"]["communities"])
    open(cert, "w").write(json.dumps(data))
    code, _, err = run(capsys, "verify", path, cert)
    assert code == 2
    assert "cannot parse certificate" in err


def _string_for_list(data, field):
    if field == "communities":
        data["achieved"]["communities"] = "abc"
    elif field == "community":
        data["achieved"]["communities"] = ["abc"]
    elif field == "nodes":
        data["components"][0]["nodes"] = "abc"
    else:
        comp = next(c for c in data["components"] if c["kind"] == "subnetwork")
        if field == "scores":
            comp["scores"] = "abc"
        elif field == "score-entry":
            comp["scores"][0] = "".join(comp["scores"][0][:2]) + "1"
        else:  # a list of the wrong length
            comp["scores"][0] = comp["scores"][0] + ["1/2"]


LIST_FIELD_MESSAGES = {
    "communities": "achieved communities must be a list, got 'abc'",
    "community": "achieved community must be a list, got 'abc'",
    "nodes": "component nodes must be a list, got 'abc'",
    "scores": "subnetwork scores must be a list, got 'abc'",
    "score-entry": "subnetwork score entry must be a list of 3 items",
    "score-entry-length": "subnetwork score entry must be a list of 3 items",
}


@pytest.mark.parametrize("field", list(LIST_FIELD_MESSAGES))
def test_verify_string_where_list_expected_exits_2(tmp_path, capsys, field):
    """A JSON string is iterable, but the format has a list there."""
    message = LIST_FIELD_MESSAGES[field]
    if field.startswith("score"):
        path, cert = write_c5_certificate(tmp_path, capsys)
    else:
        path = write_path_network(tmp_path)
        cert = str(tmp_path / "cert.json")
        run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    _string_for_list(data, field)
    open(cert, "w").write(json.dumps(data))
    code, out, err = run(capsys, "verify", path, cert)
    assert code == 2
    assert f"cannot parse certificate: {message}" in err
    assert "verification" not in out


@pytest.mark.parametrize("body", ["[1, 2]", '"x"', "3", "null"], ids=["list", "string", "number", "null"])
def test_verify_non_object_certificate_exits_2(tmp_path, capsys, body):
    cert = tmp_path / "cert.json"
    cert.write_text(body)
    code, out, err = run(capsys, "verify", "knoki", str(cert))
    assert code == 2
    assert "cannot parse certificate: certificate must be a JSON object" in err
    assert "verification failed" not in out


@pytest.mark.parametrize("field,value", [
    ("status", 5), ("network", []), ("provenance", []), ("format_version", True),
], ids=["status", "network", "provenance", "format-version"])
def test_verify_wrong_top_level_type_exits_2(tmp_path, capsys, field, value):
    cert = str(tmp_path / "knoki.cert.json")
    run(capsys, "certify", "knoki", "-o", cert)
    data = json.loads(open(cert).read())
    data[field] = value
    open(cert, "w").write(json.dumps(data))
    code, out, err = run(capsys, "verify", "knoki", cert)
    assert code == 2
    assert "cannot parse certificate" in err
    assert "verification" not in out


@pytest.mark.parametrize("argv", [
    ["score", "karate", "--seed", "1"],
    ["bound", "karate", "--format", "json"],
    ["certify", "karate", "--format", "json"],
    ["verify", "karate", "cert.json", "--format", "json"],
    ["verify", "karate", "cert.json", "--seed", "1"],
    ["bench", "knoki", "--directed"],
    ["optimize", "karate", "--format", "csv"],
    ["bound", "karate", "--strategy", "random"],
    ["bound", "karate", "--mixed-prob", "0.5"],
    ["bound", "karate", "--tries-per-k", "2"],
    ["certify", "karate", "--strategy", "random"],
    ["certify", "karate", "--mixed-prob", "0.5"],
    ["certify", "karate", "--tries-per-k", "2"],
])
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice: 'csv'" in err


@pytest.mark.parametrize("argv,message", [
    (["certify", "PATH", "--method", "subnets", "--max-subnet-size", "2"],
     "max_subnet_size must be >= 3"),
    (["certify", "PATH", "--method", "both", "--max-subnet-size", "2"],
     "max_subnet_size must be >= 3"),
    (["certify", "C13", "--method", "subnets", "--max-subnet-size", "13"],
     "max_subnet_size must be <= 12"),
    (["certify", "PATH", "--method", "subnets", "--budget", "-3"], "subnet_budget must be >= 0"),
    (["bound", "PATH", "--path-budget", "-1"], "path_budget must be >= 0"),
    (["certify", "PATH", "--method", "subnets", "--path-budget", "-5"], "path_budget must be >= 0"),
    (["optimize", "PATH", "--restarts", "0"], "restarts must be >= 1"),
    (["gen", "--n", "5", "--communities", "0", "--p-in", "0.9", "--p-out", "0.1"],
     "communities must be between 1 and n"),
    (["bench", "nosuch"], "unknown corpus network: 'nosuch' (known: ['dolphins', 'football', "
     "'karate', 'knoki', 'knokm', 'lesmis', 'polbooks'])"),
], ids=["subnets-size", "both-size", "c13-size", "subnet-budget", "path-budget",
        "subnets-path-budget", "restarts", "communities", "bench-unknown"])
def test_invalid_argument_value_exits_2(tmp_path, capsys, argv, message):
    files = {"PATH": write_path_network(tmp_path), "C13": str(tmp_path / "c13.edges")}
    with open(files["C13"], "w") as fh:
        fh.write("\n".join(f"{i} {(i + 1) % 13}" for i in range(13)) + "\n")
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_wrong_network_fingerprint(tmp_path, capsys):
    path = write_path_network(tmp_path)
    other = tmp_path / "other.edges"
    other.write_text("a b\nb c 2\n")
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    code, out, _ = run(capsys, "verify", str(other), cert)
    assert code == 1
    assert "fingerprint" in out


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b x\n")
    code, _, err = run(capsys, "score", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("token", ["inf", "-Infinity", "nan"])
def test_non_finite_weight_is_input_error(tmp_path, capsys, token):
    bad = tmp_path / "bad.edges"
    bad.write_text(f"a b 1\nb c {token}\n")
    code, _, err = run(capsys, "score", str(bad))
    assert code == 2
    assert f"input error: line 2: bad weight '{token}'" in err


def test_bundled_corpus_name(capsys):
    code, out, _ = run(capsys, "optimize", "karate")
    assert code == 0
    assert "0.419790" in out


def test_gen_round_trip(tmp_path, capsys):
    out_file = str(tmp_path / "gen.edges")
    code, _, _ = run(capsys, "gen", "--n", "16", "--communities", "3",
                     "--p-in", "0.9", "--p-out", "0.05", "--seed", "1", "-o", out_file)
    assert code == 0
    code, out, _ = run(capsys, "certify", out_file, "--method", "chains")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] in ("optimal-proved", "gap")


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "knoki", "--method", "chains", "--format", "csv")
    assert code == 0
    assert "knoki" in out
    assert "100.00" in out


def test_certify_verify_subnetwork_components(tmp_path, capsys):
    # five-cycle certificates carry a subnetwork component; full file round trip
    path, cert = write_c5_certificate(tmp_path, capsys)
    data = json.loads(open(cert).read())
    assert any(c["kind"] == "subnetwork" for c in data["components"])
    code, out, _ = run(capsys, "verify", path, cert)
    assert code == 0, out


def test_emit_then_verify_separate_process(tmp_path):
    import subprocess
    import sys

    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    r1 = subprocess.run(
        [sys.executable, "-m", "modcert.cli", "certify", path, "--method", "chains", "-o", cert],
        capture_output=True, text=True, env=env,
    )
    assert r1.returncode == 0, r1.stderr
    r2 = subprocess.run(
        [sys.executable, "-m", "modcert.cli", "verify", path, cert],
        capture_output=True, text=True, env=env,
    )
    assert r2.returncode == 0, r2.stdout + r2.stderr
    assert "verification passed" in r2.stdout


def test_bench_skips_missing(capsys, monkeypatch):
    monkeypatch.delenv("MODCERT_DATA_DIR", raising=False)
    code, out, err = run(capsys, "bench", "dolphins", "--method", "chains")
    assert code == 0
    assert "skipped dolphins" in err
