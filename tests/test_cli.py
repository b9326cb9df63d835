import csv
import errno
import io
import json
import os
import re
import sys

import pytest

from modcert.cli import FORMATS, build_parser, main


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
    assert data["pairs"] == [["a", "b", "1/4"], ["a", "c", "-1/8"], ["b", "c", "1/4"]]
    assert data["diagonal"]["b"] == "-1/4"


def test_score_json_keeps_pairs_whose_labels_join_alike(tmp_path, capsys):
    """(x|y, z) and (x, y|z) are two pairs, though both labels joined by "|" read x|y|z."""
    path = tmp_path / "bars.edges"
    path.write_text("x|y z\nx y|z\n")
    code, out, _ = run(capsys, "score", str(path), "--format", "json")
    assert code == 0
    pairs = [tuple(p[:2]) for p in json.loads(out)["pairs"]]
    assert len(pairs) == 6 == len(run(capsys, "score", str(path))[1].splitlines())
    assert ("x|y", "z") in pairs and ("x", "y|z") in pairs


def test_score_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "score", write_path_network(tmp_path), "--format", "csv")
    assert code == 0
    assert out == "a,b,1/4\na,c,-1/8\nb,c,1/4\n"
    # a label holding the delimiter or the quote character is quoted, and reads back whole
    path = tmp_path / "quoted.edges"
    path.write_text('x,y "q"\n"q" c\n')
    code, out, _ = run(capsys, "score", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[:2] for row in rows] == [["x,y", '"q"'], ["x,y", "c"], ['"q"', "c"]]
    assert all(len(row) == 3 for row in rows)


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


def test_bound_prints_greedy_bound_exactly(capsys):
    code, out, _ = run(capsys, "bound", "karate")
    assert code == 0
    assert "greedy chains: 168, greedy bound 0.447156 (5441/12168)\n" in out


def test_bound_searches_every_restart_only_when_restart_0_is_unproved(optimize_restarts, capsys):
    """knokm's restart 0 misses the optimum that every restart together finds;
    the printed values are those of that search and its bound."""
    code, out, _ = run(capsys, "bound", "knokm")
    assert code == 0
    assert optimize_restarts == [1, 8]
    assert out == ("trivial bound: 0.274793 (133/484)\n"
                   "achieved: 0.148760 (18/121)\n"
                   "greedy chains: 11, greedy bound 0.154959 (75/484)\n"
                   "bound: 0.148760 (18/121)\n")


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


DEEP_NEST = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("damage", [
    pytest.param(lambda text: text[:80], id="truncated"),
    pytest.param(lambda text: DEEP_NEST, id="deep-nest"),
    pytest.param(lambda text: '{"network": ' + DEEP_NEST + "}", id="deep-nest-network"),
])
def test_verify_truncated_exits_2(tmp_path, capsys, damage):
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    text = damage(open(cert).read())
    open(cert, "w").write(text)
    code, out, err = run(capsys, "verify", path, cert)
    assert code == 2
    assert "cannot parse certificate:" in err
    assert "verification" not in out


@pytest.mark.parametrize("field,value", [
    ("bound", "1/0"), ("lambda", 1), ("gap", "0/"),
    # int() takes each of these; the documented form does not
    pytest.param("lambda", " 1", id="lambda-space"),
    pytest.param("lambda", "1_0", id="lambda-underscore"),
    pytest.param("lambda", "+3", id="lambda-plus"),
    pytest.param("lambda", "1/-2", id="lambda-negative-denominator"),
    pytest.param("lambda", "1/ 2", id="lambda-space-in-denominator"),
    pytest.param("lambda", "\u0661", id="lambda-arabic-indic-digit"),
])
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
    (lambda comp: comp["nodes"].pop(), "chain component lists 2 node(s), fewer than 3"),
    (lambda comp: comp.update(kind="subnetwork", scores=[[comp["nodes"][0], comp["nodes"][0], "1/2"]]),
     "subnetwork component pairs node 'a' with itself"),
    (lambda comp: comp.update(kind="star"), "unknown component kind: 'star'"),
], ids=["no-penalty", "no-nodes", "unknown-label", "empty-nodes", "short-chain", "self-pair",
        "unknown-kind"])
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


def _wrong_container(data, field):
    if field == "components":
        data["components"] = "ab"
    elif field == "component":
        data["components"][0] = [[key, value] for key, value in data["components"][0].items()]
    else:
        data["achieved"] = [1]


CONTAINER_FIELD_MESSAGES = {
    "components": "components must be a list, got 'ab'",
    "component": "component must be an object, got [['kind', 'chain'], ",
    "achieved": "achieved must be an object, got [1]",
}


@pytest.mark.parametrize("field", list(CONTAINER_FIELD_MESSAGES))
def test_verify_wrong_container_exits_2(tmp_path, capsys, field):
    """A list of [key, value] pairs converts to a dict, but the format has an object there."""
    message = CONTAINER_FIELD_MESSAGES[field]
    path = write_path_network(tmp_path)
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    data = json.loads(open(cert).read())
    _wrong_container(data, field)
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
    # version 1 hashed the edges in node-id order: refused, not a different network
    ("format_version", 1),
], ids=["status", "network", "provenance", "format-version", "format-version-1"])
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
    ["bench", "knoki", "--out-csv", "x.csv"],
    ["bench", "knoki", "--data-dir", "d"],
    ["gen", "--n", "5", "--communities", "2", "--p-in", "0.9", "--p-out", "0.1", "--weight-scale", "2"],
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
    (["certify", "PATH", "--restarts", "0"], "restarts must be >= 1"),
    (["gen", "--n", "5", "--communities", "0", "--p-in", "0.9", "--p-out", "0.1"],
     "communities must be between 1 and n"),
    (["bench", "nosuch"], "unknown corpus network: 'nosuch' (known: ['dolphins', 'football', "
     "'karate', 'knoki', 'knokm', 'lesmis', 'polbooks'])"),
], ids=["subnets-size", "both-size", "c13-size", "subnet-budget", "path-budget",
        "subnets-path-budget", "restarts", "certify-restarts", "communities", "bench-unknown"])
def test_invalid_argument_value_exits_2(tmp_path, capsys, argv, message):
    files = {"PATH": write_path_network(tmp_path), "C13": str(tmp_path / "c13.edges")}
    with open(files["C13"], "w") as fh:
        fh.write("\n".join(f"{i} {(i + 1) % 13}" for i in range(13)) + "\n")
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["score", "DIR"],
    ["certify", "PATH", "--method", "chains", "-o", "DIR"],
], ids=["network-is-directory", "output-is-directory"])
def test_unusable_path_exits_2(tmp_path, capsys, argv):
    files = {"PATH": write_path_network(tmp_path), "DIR": str(tmp_path)}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_verify_wrong_network_fingerprint(tmp_path, capsys):
    path = write_path_network(tmp_path)
    other = tmp_path / "other.edges"
    other.write_text("a b\nb c 2\n")
    cert = str(tmp_path / "cert.json")
    run(capsys, "certify", path, "--method", "chains", "-o", cert)
    code, out, _ = run(capsys, "verify", str(other), cert)
    assert code == 1
    assert "fingerprint" in out


def test_verify_reordered_edge_list(tmp_path, capsys):
    """A certificate holds for the same network listed in another line order."""
    r1, r2 = tmp_path / "r1.edges", tmp_path / "r2.edges"
    lines = ["a b", "b c", "c d", "d a", "a c 2"]
    r1.write_text("\n".join(lines) + "\n")
    r2.write_text("\n".join(lines[i] for i in (2, 4, 3, 1, 0)) + "\n")
    cert = str(tmp_path / "r1.cert.json")
    assert run(capsys, "certify", str(r1), "-o", cert)[0] == 0
    code, out, _ = run(capsys, "verify", str(r2), cert)
    assert code == 0, out
    assert "verification passed" in out


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_closed_stdout_exits_141_quietly(tmp_path, capsys, monkeypatch, command):
    """A closed pipe exits 141 with nothing on stderr: not 0, which would read
    as a pass, and not 1 or 2, which mean a violation and bad input."""
    if command == "verify":
        path, cert = write_c5_certificate(tmp_path, capsys)
        argv = ["verify", path, cert]
    else:
        argv = ["optimize", "karate"]
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe(fd))
            code = main(argv)
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""


def test_directed_flag_on_undirected_corpus_name_exits_2(capsys):
    code, out, err = run(capsys, "score", "karate", "--directed")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'karate'" in err


def test_directed_flag_on_directed_corpus_name(capsys):
    code, out, err = run(capsys, "score", "knoki", "--directed")
    assert code == 0 and err == ""
    assert out == run(capsys, "score", "knoki")[1]


def test_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b x\n")
    code, _, err = run(capsys, "score", str(bad))
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("text,message", [
    ("a b 1\nb c -2\n", "line 2: negative weight -2"),
    ("a b -0.5\n", "line 1: negative weight -1/2"),
    ("# a comment\n\n", "no edges in input"),
], ids=["negative-integer", "negative-decimal", "no-edges"])
def test_edge_list_refusal_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.edges"
    bad.write_text(text)
    code, out, err = run(capsys, "score", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


@pytest.mark.parametrize("token", [
    "inf", "-Infinity", "nan", "1e5000", "1e-5000",
    pytest.param("1" + "0" * 4300, id="1e4300-written-out"),
    pytest.param("9" * 4301, id="4301-digit-integer"),
])
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


# sha256 of `modcert gen` stdout: three planted-batch specs (n, communities,
# seed at p_in 0.9, p_out 0.05), and one draw with no edge at all, which the
# generator wires as one path per group
GEN_PINNED = [
    (["--n", "24", "--communities", "2", "--p-in", "0.9", "--p-out", "0.05", "--seed", "0"],
     "4b4679afb0b5ca149717f3d9444dfd8d5da3320517fe7a40d200157fedd0a480"),
    (["--n", "35", "--communities", "3", "--p-in", "0.9", "--p-out", "0.05", "--seed", "11"],
     "1df86c1742da658c118711701bd5f09f54b9f71d754b597f11787fe883b88509"),
    (["--n", "27", "--communities", "2", "--p-in", "0.9", "--p-out", "0.05", "--seed", "39"],
     "ca5efcb0c16fc67e1ad4d2ac81ab9b975f2be6cc61b7736100a2b8d8dcb3c393"),
    (["--n", "4", "--communities", "2", "--p-in", "0.01", "--p-out", "0", "--seed", "0"],
     "6f813294c470a0b636d8cd4b6236178497af35a2638cb29a5b831be4e53cb882"),
]


@pytest.mark.parametrize("argv,digest", GEN_PINNED, ids=["n24", "n35", "n27", "degenerate"])
def test_gen_output_pinned(capsys, argv, digest):
    import hashlib

    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BENCH_KNOKI_KNOKM = {
    "table": (
        "Network       Size     Achieved        Bound  Ratio, % Status           Time, s\n"
        + "-" * 79 + "\n"
        "knoki           10     0.081633     0.081633    100.00 optimal-proved  SECONDS\n"
        "knokm           10     0.148760     0.148760    100.00 optimal-proved  SECONDS\n"
    ),
    "csv": (
        "network,size,achieved,bound,ratio_pct,status,seconds\r\n"
        "knoki,10,4/49,4/49,100.00,optimal-proved,SECONDS\r\n"
        "knokm,10,18/121,18/121,100.00,optimal-proved,SECONDS\r\n"
    ),
    "json": """\
[
  {
    "network": "knoki",
    "size": 10,
    "achieved": "4/49",
    "bound": "4/49",
    "ratio_pct": 100.0,
    "status": "optimal-proved",
    "seconds": SECONDS
  },
  {
    "network": "knokm",
    "size": 10,
    "achieved": "18/121",
    "bound": "18/121",
    "ratio_pct": 100.0,
    "status": "optimal-proved",
    "seconds": SECONDS
  }
]
""",
}

# the measured seconds: a right-aligned 8-wide column, a CSV field, a JSON number
SECONDS = {"table": r"[ \d.]{8}$", "csv": r"(?<=,)\d+\.\d{3}(?=\r$)",
           "json": r"(?<=\"seconds\": )[\d.]+$"}


@pytest.mark.parametrize("fmt", FORMATS)
def test_bench_output_pinned(capsys, fmt):
    code, out, err = run(capsys, "bench", "knoki", "knokm", "--method", "chains", "--format", fmt)
    assert code == 0 and err == ""
    masked = re.sub(SECONDS[fmt], "SECONDS", out, flags=re.M)
    assert masked == BENCH_KNOKI_KNOKM[fmt]


def test_bench_reads_data_dir_from_environment(tmp_path, capsys, monkeypatch):
    (tmp_path / "dolphins.edges").write_text("a b\nb c\nc a\nc d\nd e\ne f\nf d\n")
    monkeypatch.setenv("MODCERT_DATA_DIR", str(tmp_path))
    code, out, err = run(capsys, "bench", "dolphins", "--method", "chains", "--format", "csv")
    assert code == 0 and err == ""
    assert "\r\ndolphins,6,5/14,5/14,100.00,optimal-proved," in out


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


CHECKS_WITHOUT_SOLVER = """
import sys
from fractions import Fraction

from modcert import LinearProgram, solve_lp
from modcert.cli import main

for argv in (["verify", "knoki", sys.argv[1]], ["score", "karate"], ["optimize", "karate"],
             ["gen", "--n", "12", "--communities", "2", "--p-in", "0.9", "--p-out", "0.1"]):
    assert main(argv) == 0, argv
assert "scipy.optimize" not in sys.modules, "a command without an LP loaded the solver"
solve_lp(LinearProgram([Fraction(1)], [({0: Fraction(1)}, Fraction(2))]))
assert "scipy.optimize" in sys.modules
"""


def test_checking_never_loads_the_solver(tmp_path, capsys):
    """verify, score, optimize and gen solve no LP, so they leave SciPy's HiGHS unloaded."""
    import subprocess
    import sys

    cert = str(tmp_path / "knoki.cert.json")
    code, _, _ = run(capsys, "certify", "knoki", "-o", cert)
    assert code == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    r = subprocess.run([sys.executable, "-c", CHECKS_WITHOUT_SOLVER, cert],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr


def test_bench_skips_missing(capsys, monkeypatch):
    monkeypatch.delenv("MODCERT_DATA_DIR", raising=False)
    code, out, err = run(capsys, "bench", "dolphins", "--method", "chains")
    assert code == 0
    assert "skipped dolphins" in err
