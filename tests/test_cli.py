import inspect
import json
import warnings

import pytest

from expanderlab import cli, graphs, sampling
from expanderlab.rng import child_seed


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def paley13_file(tmp_path):
    path = tmp_path / "g13.txt"
    assert run("--out", str(path), "gen", "paley", "13") == 0
    return path


@pytest.fixture(scope="module")
def paley401_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "g401.txt"
    assert run("--out", str(path), "gen", "paley", "401") == 0
    return path


def test_gen_writes_graph_and_manifest(paley13_file):
    g = graphs.read_graph(paley13_file)
    assert g.n == 13 and g.edge_count == 39
    manifest = json.loads(
        (paley13_file.parent / "g13.txt.manifest.json").read_text())
    assert manifest["artifact_version"] == cli.ARTIFACT_VERSION
    assert manifest["command"] == "gen"
    assert manifest["outputs"] == [str(paley13_file)]


def test_gen_writes_through_write_graph(tmp_path, monkeypatch, capsys):
    written = []
    write = graphs.write_graph
    monkeypatch.setattr(graphs, "write_graph",
                        lambda g, path: written.append(path) or write(g, path))
    path = tmp_path / "g.txt"
    assert run("--out", str(path), "gen", "paley", "13") == 0
    file = graphs.graph_file_bytes(graphs.gen_paley(13))
    assert written == [path] and path.read_bytes() == file
    assert run("gen", "paley", "13") == 0
    assert capsys.readouterr().out == file.decode("ascii") and len(written) == 1


def test_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run("--out", str(a), "gen", "regular", "--seed", "4", "20", "4") == 0
    assert run("--out", str(b), "gen", "regular", "--seed", "4", "20", "4") == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_emits_numeric_json(paley13_file, tmp_path):
    out = tmp_path / "cert.json"
    assert run("--out", str(out), "certify", str(paley13_file)) == 0
    text = out.read_text()
    assert text.endswith("}\n") and not text.endswith("}\n\n")
    cert = json.loads(text)
    assert cert["n"] == 13 and cert["d"] == 6
    assert abs(cert["lambda_hat"] - 2.302775637731995) < 1e-6


def test_certify_csv_format(paley13_file, tmp_path, capsys):
    assert run("certify", "--format", "csv", str(paley13_file)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,d,gamma_hat,lambda_hat"
    assert lines[1].startswith("13,6")


def test_eml_sweep(paley13_file, tmp_path):
    out = tmp_path / "eml.csv"
    assert run("--out", str(out), "eml", "--seed", "2", "--format", "csv",
               "--graph", str(paley13_file), "--samples", "30") == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 31 and rows[0].startswith("sample,")
    assert all(r.endswith("True") for r in rows[1:])


def test_cli_defaults_read_the_library_defaults():
    parser = cli.build_parser()
    for argv, experiment, names in [
            (["subsample", "--graph", "g", "--sigma", "0.5"],
             sampling.induced_subgraph_experiment, ("trials", "gamma_target")),
            (["submatrix", "symmetric_uniform", "--matrix", "b"],
             sampling.submatrix_norm_experiment, ("trials", "p"))]:
        args = parser.parse_args(argv)
        defaults = inspect.signature(experiment).parameters
        assert all(getattr(args, name) == defaults[name].default for name in names)


@pytest.mark.parametrize("argv, code", [
    (["certify", "{graph}"], 0),
    (["eml", "--graph", "{graph}", "--samples", "20"], 0),
    (["subsample", "--graph", "{graph}", "--sigma", "0.5", "--trials", "3",
      "--gamma-target", "0.3"], 3),
    (["submatrix", "symmetric_uniform", "--matrix", "{matrix}", "--m", "2",
      "--trials", "5"], 0),
    (["match", "max", "--graph", "{graph}", "--left", "0,1,2", "--right", "3,4,5"], 0),
    (["match", "perfect", "--graph", "{graph}", "--left", "0", "--right", "1"], 0),
    (["hamilton", "{graph}"], 3),
], ids=["certify", "eml", "subsample", "submatrix", "match-max", "match-perfect",
        "hamilton"])
def test_default_format_artifacts_are_json(paley13_file, tmp_path, argv, code):
    # A numpy scalar in an artifact makes json.dumps raise, which exits 1.
    matrix, out = tmp_path / "b.txt", tmp_path / "out.json"
    matrix.write_text("3 3\n2 1 0\n1 2 1\n0 1 2\n")
    argv = [a.format(graph=paley13_file, matrix=matrix) for a in argv]
    assert run("--out", str(out), *argv) == code
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["outputs"][0] == str(out)
    json.loads(out.read_text())


# The arguments after each subcommand name of a run on Paley 13, with its
# exit code; {graph}, {matrix}, {cycle} and {summaries} stand for its inputs.
COMMANDS = {
    "gen": (["paley", "13"], 0),
    "certify": (["{graph}"], 0),
    "eml": (["--graph", "{graph}", "--samples", "5"], 0),
    "subsample": (["--graph", "{graph}", "--sigma", "0.5", "--trials", "3",
                   "--gamma-target", "0.3"], 3),
    "submatrix": (["symmetric_uniform", "--matrix", "{matrix}", "--m", "2",
                   "--trials", "5"], 0),
    "match": (["max", "--graph", "{graph}", "--left", "0,1,2", "--right", "3,4,5"], 0),
    "hamilton": (["{graph}"], 3),
    "verify": (["{graph}", "{cycle}"], 0),
    "summarize": (["{summaries}"], 0),
}
# (subcommand, option) of each pair whose option changes the artifact,
# with a check of the artifact's text; the files written also differ from
# those of the run without the option.
HONOURED = {
    ("certify", "--format"): lambda text: text.startswith("n,d,gamma_hat,lambda_hat\n"),
    ("eml", "--format"): lambda text: text.startswith(
        "sample,size_s,size_t,count,lower,upper,holds\n"),
    ("hamilton", "--config"): lambda text: json.loads(text)["config"]["l_max"] == 11,
    ("certify", "--seed"): lambda text: json.loads(text)["seed"] == child_seed(1, "certify"),
    ("eml", "--seed"): lambda text: json.loads(text)["samples"] == 5,
    ("subsample", "--seed"): lambda text: json.loads(text)["params"]["trials"] == 3,
    ("submatrix", "--seed"): lambda text: json.loads(text)["trials"] == 5,
    ("hamilton", "--seed"): lambda text: json.loads(text)["config"]["seed"] == 1,
}
OPTION_VALUES = {"--format": "csv", "--config": "{config}", "--seed": "1"}


def _inputs(tmp_path, graph) -> dict:
    """The input files of the COMMANDS runs, by the name each argv uses."""
    inputs = {"graph": graph, "matrix": tmp_path / "b.txt", "cycle": tmp_path / "c.txt",
              "config": tmp_path / "cfg.json", "summaries": tmp_path / "summaries"}
    inputs["matrix"].write_text("3 3\n2 1 0\n1 2 1\n0 1 2\n")
    inputs["cycle"].write_text(" ".join(map(str, range(13))) + "\n")
    inputs["config"].write_text(json.dumps({"l_max": 11}))
    inputs["summaries"].mkdir()
    (inputs["summaries"] / "s.json").write_text(json.dumps(
        {"schema_version": 1, "success_fraction": 1.0, "floor": 0.5,
         "pass": True, "params": {"sigma": 0.5}}))
    return inputs


def test_commands_cover_every_subcommand():
    (subcommands,) = cli.build_parser()._subparsers._group_actions
    assert set(COMMANDS) == set(subcommands.choices)


@pytest.mark.parametrize("option", ["--format", "--config", "--seed"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_an_option_is_honoured_or_refused(paley13_file, tmp_path, command, option):
    inputs = _inputs(tmp_path, paley13_file)
    argv, code = COMMANDS[command]
    argv = [a.format(**inputs) for a in argv]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "artifact"
    # After the whole argv, the option reaches the parser of the mode too.
    got = run("--out", str(out), command, *argv, option,
              OPTION_VALUES[option].format(**inputs))
    written = sorted(p.name for p in out_dir.iterdir())
    if (command, option) in HONOURED:
        assert got == code and {"artifact", "artifact.manifest.json"} <= set(written)
        assert HONOURED[command, option](out.read_text())
        artifacts = {p: p.read_bytes() for p in out_dir.iterdir()
                     if not p.name.endswith(".manifest.json")}
        assert run("--out", str(out), command, *argv) == code
        assert {p: p.read_bytes() for p in artifacts} != artifacts
    else:
        assert got == 2 and written == []


def test_options_before_the_command_are_only_out(paley13_file, tmp_path):
    inputs = _inputs(tmp_path, paley13_file)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir / "artifact")
    assert run("--out", out, "--format", "csv", "subsample", "--graph",
               str(paley13_file), "--sigma", "0.5", "--trials", "3") == 2
    assert run("--out", out, "--config", str(inputs["config"]),
               "hamilton", str(paley13_file)) == 2
    assert run("--out", out, "--seed", "1", "certify", str(paley13_file)) == 2
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stdout_holds_one_document(paley13_file, tmp_path, capsys, command):
    inputs = _inputs(tmp_path, paley13_file)
    argv, code = COMMANDS[command]
    before = sorted(tmp_path.rglob("*"))
    assert run(command, *(a.format(**inputs) for a in argv)) == code
    out = capsys.readouterr().out
    if command == "gen":
        assert out == graphs.graph_file_bytes(graphs.gen_paley(13)).decode("ascii")
    elif command == "summarize":
        assert out == "sigma,success_fraction,floor,pass\n0.5,1.0,0.5,True\n"
    else:
        json.loads(out)
    assert sorted(tmp_path.rglob("*")) == before     # no sidecar, no manifest


def test_hamilton_prints_only_its_trace(paley401_file, capsys):
    before = sorted(paley401_file.parent.iterdir())
    assert run("hamilton", "--seed", "7", str(paley401_file)) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "success"
    assert sorted(paley401_file.parent.iterdir()) == before


def test_verify_writes_its_verdict_and_manifest(paley13_file, tmp_path, capsys):
    inputs = _inputs(tmp_path, paley13_file)
    out = tmp_path / "v.json"
    assert run("--out", str(out), "verify", str(paley13_file), str(inputs["cycle"])) == 0
    assert json.loads(out.read_text()) == {"ok": True, "reason": "ok"}
    assert capsys.readouterr().out == ""
    manifest = json.loads((tmp_path / "v.json.manifest.json").read_text())
    assert list(manifest["inputs"]) == [str(paley13_file), str(inputs["cycle"])]
    assert manifest["outputs"] == [str(out)]


def test_verify_refuses_a_closed_walk_on_two_vertices(tmp_path, capsys):
    # `0 1` on the one-edge graph walks its one edge twice: no cycle
    graph, cycle = tmp_path / "k2.txt", tmp_path / "c.txt"
    graph.write_text("2 1\n0 1\n")
    cycle.write_text("0 1\n")
    assert run("verify", str(graph), str(cycle)) == 4
    assert json.loads(capsys.readouterr().out) == {
        "ok": False, "reason": "n=2 < 3 has no Hamilton cycle"}


def test_hamilton_verify_roundtrip(paley401_file, tmp_path):
    out = tmp_path / "trace.json"
    assert run("--out", str(out), "hamilton", "--seed", "7", str(paley401_file)) == 0
    trace = json.loads(out.read_text())
    assert trace["outcome"] == "success"
    cycle_file = out.with_suffix(".cycle.txt")
    assert cycle_file.exists()
    manifest = json.loads((tmp_path / "trace.json.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(cycle_file)]
    assert run("verify", str(paley401_file), str(cycle_file)) == 0
    # corrupt the cycle: verification exit code 4
    toks = cycle_file.read_text().split()
    toks[0], toks[1] = toks[1], toks[0]
    bad = tmp_path / "bad.txt"
    bad.write_text(" ".join(toks) + "\n")
    assert run("verify", str(paley401_file), str(bad)) == 4


def test_hamilton_trace_byte_identical(paley401_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("--out", str(a), "hamilton", "--seed", "5", str(paley401_file)) == 0
    assert run("--out", str(b), "hamilton", "--seed", "5", str(paley401_file)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_hamilton_config_file(paley401_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l_max": 11}))
    out = tmp_path / "trace.json"
    assert run("--out", str(out), "hamilton", "--seed", "9", "--config", str(cfg),
               str(paley401_file)) == 0
    config = json.loads(out.read_text())["config"]
    assert config["seed"] == 9 and config["l_max"] == 11


def test_hamilton_config_file_has_no_seed(paley401_file, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out" / "trace.json"
    cfg.write_text(json.dumps({"seed": 9}))
    out.parent.mkdir()
    assert run("--out", str(out), "hamilton", "--config", str(cfg),
               str(paley401_file)) == 2
    assert capsys.readouterr().err == f"error: config {cfg} sets seed; the seed is --seed\n"
    assert list(out.parent.iterdir()) == []


def test_hamilton_bad_config_key(paley401_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    assert run("hamilton", "--config", str(cfg), str(paley401_file)) == 2
    cfg.write_text(json.dumps({"constant_overrides": {"q_pair_sample": 40}}))
    assert run("hamilton", "--config", str(cfg), str(paley401_file)) == 2


@pytest.mark.parametrize("cfg_data", [{"k": "abc"}, {"seed": 1.5},
                                      {"reserve_fraction": None},
                                      {"gamma_caps": {"P1": "wide"}},
                                      [1], "abc", None,
                                      {"min_reserve_ratio": float("inf")},
                                      {"min_reserve_ratio": float("nan")},
                                      {"gamma_caps": {"P1": float("nan")}},
                                      {"constant_overrides": {"pm_gamma_cap": float("inf")}}])
def test_hamilton_mistyped_config_value(paley401_file, tmp_path, capsys, cfg_data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))    # NaN and Infinity as JSON writes them
    assert run("hamilton", "--config", str(cfg), str(paley401_file)) == 2
    if isinstance(cfg_data, dict):
        assert next(iter(cfg_data)) in capsys.readouterr().err


def test_hamilton_weak_expander_exit_code(tmp_path):
    out = tmp_path / "c.txt"
    assert run("--out", str(out), "gen", "cycle", "150") == 0
    assert run("hamilton", str(out)) == 3


def test_empty_graph_file(tmp_path):
    graph, trace = tmp_path / "empty.txt", tmp_path / "trace.json"
    graph.write_text("0 0\n")
    assert run("--out", str(trace), "hamilton", str(graph)) == 3
    data = json.loads(trace.read_text())
    assert data["outcome"] == "failed:certification:EmptyGraph"
    assert data["checks"][-1]["check"] == "error"
    assert run("certify", str(graph)) == 2


def test_subsample_and_summarize(paley401_file, tmp_path):
    sweep = tmp_path / "sweep"
    sweep.mkdir()
    for i, sigma in enumerate(("0.5", "0.6")):
        code = run("--out", str(sweep / f"s{i}.json"),
                   "subsample", "--seed", str(i), "--graph", str(paley401_file),
                   "--sigma", sigma, "--trials", "5",
                   "--gamma-target", "0.3")
        assert code == 0
        assert (sweep / f"s{i}.trials.csv").exists()
        manifest = json.loads((sweep / f"s{i}.json.manifest.json").read_text())
        assert manifest["outputs"] == [str(sweep / f"s{i}.json"),
                                       str(sweep / f"s{i}.trials.csv")]
    out = tmp_path / "table.csv"
    assert run("--out", str(out), "summarize", str(sweep)) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "sigma,success_fraction,floor,pass"
    assert len(rows) == 3


def test_summarize_skips_json_that_is_not_a_summary(tmp_path, capsys):
    (tmp_path / "cert.json").write_text(json.dumps({"n": 13, "d": 6.0}))
    for name, value in (("number", 5), ("list", [1, 2]), ("text", "summary")):
        (tmp_path / f"{name}.json").write_text(json.dumps(value))
    (tmp_path / "s.json").write_text(json.dumps(
        {"schema_version": 1, "success_fraction": 1.0, "floor": 0.5,
         "pass": True, "params": {"sigma": 0.5}}))
    assert run("summarize", str(tmp_path)) == 0
    assert capsys.readouterr().out == \
        "sigma,success_fraction,floor,pass\n0.5,1.0,0.5,True\n"


@pytest.mark.parametrize("lacking", ["params", "floor", "pass"])
def test_summarize_names_a_summary_without_a_table_field(tmp_path, capsys, lacking):
    summary = {"schema_version": 1, "success_fraction": 1.0, "floor": 0.5,
               "pass": True, "params": {"sigma": 0.5}}
    del summary[lacking]
    (tmp_path / "s.json").write_text(json.dumps(summary))
    assert run("summarize", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "s.json") in err and lacking in err


def test_summarize_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run("summarize", str(empty)) == 2


def test_summarize_mixed_schema_versions(tmp_path, capsys):
    for version in (1, 2):
        (tmp_path / f"s{version}.json").write_text(json.dumps(
            {"schema_version": version, "success_fraction": 1.0}))
    assert run("summarize", str(tmp_path)) == 2
    assert "mixed schema versions" in capsys.readouterr().err


def test_summarize_compares_schema_versions_of_any_json_type(tmp_path, capsys):
    for name, version in (("a", [1]), ("b", {"v": 1})):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"schema_version": version, "success_fraction": 1.0}))
    assert run("summarize", str(tmp_path)) == 2
    assert "mixed schema versions" in capsys.readouterr().err


def test_match_subcommand(paley13_file, capsys):
    assert run("match", "max", "--graph", str(paley13_file),
               "--left", "0,1,2", "--right", "3,4,5") == 0
    edges = json.loads(capsys.readouterr().out)
    assert 1 <= len(edges) <= 3


def test_match_perfect_reports_hall_violator(paley13_file, capsys):
    # 0 and 2 are not adjacent in Paley 13, so {0} has no partner
    assert run("match", "perfect", "--graph", str(paley13_file),
               "--left", "0", "--right", "2") == 3
    assert capsys.readouterr().err == \
        "phase failure: no perfect matching; Hall violator: frozenset({0})\n"


def test_match_perfect_checks_the_s2_cap(paley13_file, capsys):
    argv = ["match", "perfect", "--graph", str(paley13_file)]
    # s2 of G[{0, ..., 5}] is 2.247, above the cap 0.2 * d = 1.2
    assert run(*argv, "--left", "0,1,2", "--right", "3,4,5") == 2
    assert capsys.readouterr().err.startswith("error: lambda_cap: lambda=2.24")
    # s2 of the edge {0, 1} is 1.0, and gamma is 1.167, under the cap 1.2
    assert run(*argv, "--left", "0", "--right", "1") == 0
    assert json.loads(capsys.readouterr().out) == [[0, 1]]


def test_match_perfect_measures_the_pairs_gamma(tmp_path, capsys):
    # In a 10-cycle the cross degrees of the edge {0, 1} are 1, against a
    # target of d / n = 0.2, so gamma is 4.0
    cycle = tmp_path / "c10.txt"
    assert run("--out", str(cycle), "gen", "cycle", "10") == 0
    assert run("match", "perfect", "--graph", str(cycle),
               "--left", "0", "--right", "1") == 2
    assert capsys.readouterr().err == "error: gamma_cap: gamma=4.0 > 1.2\n"


def test_match_perfect_makes_no_certificate(paley13_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("match perfect certified the whole graph")
    monkeypatch.setattr(graphs, "certify_expander", fail)
    assert run("match", "perfect", "--graph", str(paley13_file),
               "--left", "0", "--right", "1") == 0
    assert json.loads(capsys.readouterr().out) == [[0, 1]]


def test_match_perfect_ignores_an_isolated_vertex_outside_the_pair(tmp_path, capsys):
    # Paley 13 and an isolated vertex 13: d = 78/14, and the pair's union
    # {0, 1, 6, 7} induces the two edges {0, 1} and {6, 7}, so s2 = 1.0
    # is under 0.2 * d and gamma = 0.256 under 1.2
    graph = tmp_path / "g14.txt"
    lines = graphs.graph_file_bytes(graphs.gen_paley(13)).decode().splitlines()
    graph.write_text("\n".join(["14 39", *lines[1:]]) + "\n")
    assert run("match", "perfect", "--graph", str(graph),
               "--left", "0,6", "--right", "1,7") == 0
    assert json.loads(capsys.readouterr().out) == [[0, 1], [6, 7]]


@pytest.mark.parametrize("header, left, right", [("0 0", "", ""), ("3 0", "0", "1")],
                         ids=["no-vertices", "no-edges"])
def test_match_perfect_on_an_empty_graph_exits_2(tmp_path, capsys, header, left, right):
    graph = tmp_path / "empty.txt"
    graph.write_text(header + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("match", "perfect", "--graph", str(graph),
                   "--left", left, "--right", right) == 2
    assert capsys.readouterr().err == "error: mean_degree: d = 0: the graph has no edges\n"


@pytest.mark.parametrize("left, right, sizes", [
    ("", "2", "|V1|=0 != |V2|=1"), ("0", "", "|V1|=1 != |V2|=0"),
    ("0,1", "2", "|V1|=2 != |V2|=1")])
def test_match_perfect_unbalanced_sides_exit_2(paley13_file, capsys,
                                               left, right, sizes):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("match", "perfect", "--graph", str(paley13_file),
                   "--left", left, "--right", right) == 2
    assert capsys.readouterr().err == f"error: {sizes}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run("gen", "moebius", "10") == 2
    assert run("certify", str(tmp_path / "missing.txt")) == 2
    assert run() == 2
    capsys.readouterr()
    assert run("gen", "paley", "x") == 2
    assert "argument params: invalid int value: 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("text, why", [
    ("", "line 1: 0 integers where 2 belong"),
    ("3\n", "line 1: 1 integers where 2 belong"),
    ("3 2 9\n0 1\n1 2\n", "line 1: 3 integers where 2 belong"),
    ("3 2\n0 1\n1 2\n0 2\n", "line 4: 2 integers where 0 belong"),
    ("3 2\n0 1\n", "line 3: the file ends after 1 of 2 edges"),
    ("3 2\n0 1\n2\n", "line 3: 1 integers where 2 belong"),
    ("3 2\n0 1\n1 2 0\n", "line 3: 3 integers where 2 belong"),
    ("3 2\n0 1\n1 x\n", "line 3: not a non-negative integer"),
    ("3 2\n0 1\n1 1234567890123456789\n", "line 3: integer too large"),
    ("3 2\n0 1\n1 3\n", "line 3: edge (1,3) out of range"),
    ("3000000000 0\n", "line 1: n=3000000000 outside the int32 vertex range"),
    ("3 1\n0 3000000000\n", "line 2: edge (0,3000000000) out of range"),
    # Of several faults in the lines' shape the first line is named: a
    # junk byte or a longer token further down does not win.
    ("3 2\n0 1 2\nx\n", "line 2: 3 integers where 2 belong"),
    ("3 2\n0\n1 1234567890123456789\n", "line 2: 1 integers where 2 belong"),
    ("3 2\n\n1 2\n1 x\n", "line 2: 0 integers where 2 belong"),
    ("3 2\n0 1\n\n \n", "line 3: the file ends after 1 of 2 edges"),
])
def test_malformed_graph_file_exits_2(tmp_path, capsys, text, why):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run("certify", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and why in err


@pytest.mark.parametrize("text", ["0 5\n", "-2 -3\n1 2 3 4 5 6\n",
                                  "2.5 2\n1 2 3 4 5\n"],
                         ids=["zero-rows", "negative", "non-integer"])
def test_matrix_header_below_one_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run("submatrix", "two_sided_bernoulli", "--matrix", str(path),
               "--sigma", "0.5") == 2
    header = text.splitlines()[0]
    assert capsys.readouterr().err.startswith(f'error: matrix header "{header}"')


def test_submatrix_all_zero_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "z.txt"
    path.write_text("2 2\n0 0\n0 0\n")
    assert run("submatrix", "symmetric_uniform", "--matrix", str(path),
               "--m", "1", "--trials", "5") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: B is all zero") and "vacuous" in err


# argparse refuses a usage fault with its usage line, then the error.
USAGE = "usage: expanderlab "


@pytest.mark.parametrize("argv, err", [
    (["gen", "paley"], USAGE),
    (["gen", "regular", "10"], USAGE),
    (["gen", "petersen", "7"], USAGE),
    (["gen", "cycle", "5", "6"], USAGE),
    (["gen", "paley", "13", "9"], USAGE),
    (["eml", "--format", "csv", "--graph", "{graph}", "--samples", "0"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "0.5", "--trials", "0"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "0.5", "--trials", "-3"], "error: "),
    (["submatrix", "two_sided_bernoulli", "--matrix", "{matrix}", "--sigma", "0.5",
      "--trials", "0"], "error: "),
    (["match", "max", "--graph", "{graph}", "--left", "0,1", "--right", "500"], "error: "),
    (["match", "max", "--graph", "{graph}", "--left", "0,-1", "--right", "5"], "error: "),
    (["certify", "{dir}"], "error: "),
    (["submatrix", "two_sided_bernoulli", "--matrix", "{dir}", "--sigma", "0.5"], "error: "),
    (["hamilton", "--config", "{dir}", "{graph}"], "error: "),
    (["--out", "{dir}", "certify", "{graph}"], "error: "),
    (["certify", "--seed", str(2 ** 127), "{graph}"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "inf"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "nan"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "0.5", "--gamma-target", "nan"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "0.5", "--gamma-target", "0"], "error: "),
    (["subsample", "--graph", "{graph}", "--sigma", "0.5", "--gamma-target", "-1"], "error: "),
    (["submatrix", "two_sided_bernoulli", "--matrix", "{matrix}", "--sigma", "0.5",
      "--p", "inf"], "error: "),
    (["submatrix", "symmetric_uniform", "--matrix", "{matrix}", "--m", "1",
      "--p", "nan"], "error: "),
    (["match", "perfect", "--graph", "{graph}", "--left", "0", "--right", "1",
      "--gamma-cap", "0.5"], USAGE),
    (["submatrix", "symmetric_uniform", "--matrix", "{matrix}", "--m", "1",
      "--sigma", "0.9"], USAGE),
    (["submatrix", "two_sided_bernoulli", "--matrix", "{matrix}", "--sigma", "0.5",
      "--m", "3"], USAGE),
], ids=["gen-paley-no-q", "gen-regular-no-d", "gen-petersen-extra-size",
        "gen-cycle-extra-size", "gen-paley-extra-size", "eml-no-samples",
        "subsample-no-trials", "subsample-negative-trials",
        "submatrix-no-trials", "match-vertex-out-of-range", "match-negative-vertex",
        "certify-directory", "submatrix-directory", "config-directory",
        "out-directory", "seed-out-of-range", "subsample-sigma-inf",
        "subsample-sigma-nan", "subsample-gamma-target-nan",
        "subsample-gamma-target-0", "subsample-gamma-target-negative", "submatrix-p-inf",
        "submatrix-p-nan", "match-perfect-gamma-cap", "submatrix-uniform-sigma",
        "submatrix-bernoulli-m"])
def test_bad_arguments_exit_2(paley13_file, tmp_path, capsys, argv, err):
    matrix = tmp_path / "b.txt"
    matrix.write_text("2 2\n1 0\n0 1\n")
    argv = [a.format(graph=paley13_file, matrix=matrix, dir=tmp_path)
            for a in argv]
    assert run(*argv) == 2
    assert capsys.readouterr().err.startswith(err)
