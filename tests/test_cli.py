"""Command-line interface: subcommands, exit codes, deterministic output."""

import json
import subprocess
import sys

import pytest

from gknichols import catalog, compute_truncation, spec_to_json
from gknichols.cli import run
from tests.conftest import entry_instance


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "gknichols.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture()
def jordan_spec_file(tmp_path):
    spec, _ = entry_instance("jordan")
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    return str(path)


def test_catalog_list():
    r = run_cli("catalog", "list")
    assert r.returncode == 0
    names = r.stdout.split()
    assert "jordan" in names and "cyc2" in names


def test_catalog_show():
    r = run_cli("catalog", "show", "lstr(1,G)", "--params", "G=2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["gk"] == 5
    assert out["relations"] and out["pbw"] and "spec" in out
    # infinite heights are serialized as 0
    assert all(e["height"] >= 0 for e in out["pbw"])


def test_catalog_unknown_parameter_key_is_one_line_error():
    r = run_cli("catalog", "show", "lstr(1,G)", "--params", "g=3")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("gknichols: error: unknown parameter 'g' for "
                        "lstr(1,G) (known: G, q12)\n")
    r = run_cli("catalog", "show", "lstr(A(1|0)1;r)", "--params", "r=generic")
    assert r.returncode == 0
    assert json.loads(r.stdout)["params"] == {"r": "generic"}


@pytest.mark.parametrize("name,param,message", [
    ("lstr(1,G)", "G=1.5", "parameter 'G' must be an integer, got 1.5"),
    ("poseidon", "t=9", "poseidon with t=9 has at least 2^9 ladder elements; "
     "the cap is 128"),
    ("lstr(1,G)", "q12=1.5",
     "parameter 'q12' must be a scalar string or an integer, got 1.5"),
    ("point", "order=0", "parameter 'order' must be in 1..1024, got 0"),
    ("lstr_-(-1,G)", "G=256",
     "ghost G=256 gives a z-ladder bound of 512; the cap is 128"),
    ("lstr(1,G)", "G=99999999",
     "ghost G=99999999 gives a z-ladder bound of 99999999; the cap is 128")])
def test_catalog_bad_parameter_value_is_one_line_error(name, param, message):
    r = run_cli("catalog", "show", name, "--params", param)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == f"gknichols: error: {message}\n"


def test_catalog_poseidon_off_diagonal_q():
    r = run_cli("catalog", "show", "poseidon", "--params",
                '{"q": {"1,2": "-1"}}')
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["params"]["q"] == {"1,2": "-1"}
    assert out["spec"]["q"][0][1] == out["spec"]["q"][1][0] == "-1"
    assert "x1 x2 - {-1} x2 x1" in out["relations"]
    for key, why in (("x", "bad key 'x': expected 'i,j'"),
                     ("2,2", "'2,2' is a diagonal entry"),
                     ("1,4", "'1,4' is out of range (indices 1..3)")):
        r = run_cli("catalog", "show", "poseidon", "--params",
                    json.dumps({"q": {key: "-1"}}))
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("gknichols: error: poseidon q: " + why)
        assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("name", ["eny_plus", "eny_minus", "eny_star"])
def test_pale_spec_from_catalog_show_runs_dims(name, tmp_path):
    r = run_cli("catalog", "show", name)
    assert r.returncode == 0
    path = tmp_path / "pale.json"
    path.write_text(json.dumps(json.loads(r.stdout)["spec"]))
    r = run_cli("dims", str(path), "--max-degree", "5")
    assert r.returncode == 0
    spec, pres = entry_instance(name)
    assert json.loads(r.stdout) == compute_truncation(spec, 5).dims
    r = run_cli("classify", str(path))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["verdict"] == "finite" and out["gk"] == pres.gk
    assert out["decomposition"] == [
        {"component": [2], "entry": name, "gk": pres.gk}]
    # the decorated graph needs blocks plus points: a one-line error
    r = run_cli("flourish", str(path))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("gknichols: error: build_flourished expects a "
                        "BraidedSpaceSpec\n")


@pytest.mark.parametrize("name", catalog.list_entries())
def test_catalog_show_every_entry(name, capsys):
    assert run(["catalog", "show", name]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "spec" in out


def test_dims_streams_progress(jordan_spec_file):
    r = run_cli("dims", jordan_spec_file, "--max-degree", "4")
    assert r.returncode == 0
    assert json.loads(r.stdout) == [1, 2, 3, 4, 5]
    assert "degree 4" in r.stderr


def test_dims_stats_writes_one_json_line_per_degree(jordan_spec_file):
    """``--stats`` writes each degree's stats record on stderr and leaves
    stdout as it is without it."""
    plain = run_cli("dims", jordan_spec_file, "--max-degree", "4")
    r = run_cli("dims", jordan_spec_file, "--max-degree", "4", "--stats")
    assert r.returncode == 0 and r.stdout == plain.stdout
    records = [json.loads(line) for line in r.stderr.splitlines()]
    assert [rec["n"] for rec in records] == [0, 1, 2, 3, 4]
    assert [rec["dim"] for rec in records] == json.loads(r.stdout)
    for rec in records:
        assert sorted(rec) == ["candidates", "certified", "dim", "ideal_dim",
                               "inverses", "memo", "n", "pivots", "seconds",
                               "skipped"]


def test_dims_is_deterministic(jordan_spec_file):
    r1 = run_cli("dims", jordan_spec_file, "--max-degree", "3")
    r2 = run_cli("dims", jordan_spec_file, "--max-degree", "3")
    assert r1.stdout == r2.stdout


def test_member(jordan_spec_file):
    r = run_cli("member", jordan_spec_file, "--element",
                "x1h x1 - x1 x1h + {1/2} x1^2")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["degree"] == 2
    assert out["zero"] is True and out["witness"] is None
    r2 = run_cli("member", jordan_spec_file, "--element", "x1 x1h")
    out2 = json.loads(r2.stdout)
    assert out2["zero"] is False and out2["witness"]
    # unary minus binds weaker than ^, so this is zero already in T(V)
    r3 = run_cli("member", jordan_spec_file, "--element", "-x1^2 + x1 x1")
    assert r3.returncode == 0 and json.loads(r3.stdout)["zero"] is True


def test_member_stats_writes_one_json_line_per_degree(jordan_spec_file):
    """``member --stats`` writes the stats record of each degree of the
    truncation to the element's degree on stderr; stdout is unchanged."""
    element = "x1h x1 - x1 x1h + {1/2} x1^2 + x1 x1h x1"
    plain = run_cli("member", jordan_spec_file, "--element", element)
    r = run_cli("member", jordan_spec_file, "--element", element, "--stats")
    assert r.returncode == plain.returncode == 0
    assert r.stdout == plain.stdout
    assert json.loads(r.stdout)["zero"] is False
    records = [json.loads(line) for line in r.stderr.splitlines()]
    assert [rec["n"] for rec in records] == [0, 1, 2, 3]
    assert [rec["dim"] for rec in records] == [1, 2, 3, 4]
    for rec in records:
        assert sorted(rec) == ["candidates", "certified", "dim", "ideal_dim",
                               "inverses", "memo", "n", "pivots", "seconds",
                               "skipped"]


_STATS_KEYS = ["candidates", "certified", "dim", "ideal_dim", "inverses",
               "memo", "n", "pivots", "seconds", "skipped"]


def test_verify_stats_writes_one_json_line_per_degree():
    """``verify --stats`` writes the stats record of each degree of its
    truncation on stderr before the relation lines; stdout is unchanged.
    Over Q(q), q generic, candidates are certified modulo a prime."""
    args = ("verify", "--name", "lstr(A(1|0)1;r)", "--params", "r=generic",
            "--max-degree", "5")
    plain = run_cli(*args)
    r = run_cli(*args, "--stats")
    assert r.returncode == plain.returncode == 0
    assert r.stdout == plain.stdout
    assert json.loads(r.stdout)["pass"] is True
    lines = r.stderr.splitlines()
    records = [json.loads(line) for line in lines[:6]]
    assert lines[6:] == plain.stderr.splitlines()
    assert [rec["n"] for rec in records] == [0, 1, 2, 3, 4, 5]
    assert [rec["dim"] for rec in records] == json.loads(r.stdout)["dims"]
    for rec in records:
        assert sorted(rec) == _STATS_KEYS
    assert sum(rec["certified"] for rec in records) > 0


def test_probe_stats_writes_one_json_line_per_degree(jordan_spec_file):
    """``probe --stats`` writes the stats record of each degree on stderr,
    and nothing else; stdout is unchanged."""
    args = ("probe", jordan_spec_file, "--i", "x1", "--j", "x1h",
            "--count", "3", "--max-degree", "4")
    plain = run_cli(*args)
    r = run_cli(*args, "--stats")
    assert r.returncode == plain.returncode == 0
    assert r.stdout == plain.stdout and plain.stderr == ""
    records = [json.loads(line) for line in r.stderr.splitlines()]
    assert [rec["n"] for rec in records] == [0, 1, 2, 3, 4]
    assert [rec["dim"] for rec in records] == [1, 2, 3, 4, 5]
    for rec in records:
        assert sorted(rec) == _STATS_KEYS


def test_verify_catalog_entry_passes():
    r = run_cli("verify", "--name", "jordan", "--max-degree", "4")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["pass"] is True


def test_verify_failure_exits_2(jordan_spec_file, tmp_path):
    pres = {"name": "wrong", "relations": ["x1 x1h - x1h x1"],
            "pbw": [{"label": "x1", "degree": 1, "height": 0},
                    {"label": "x1h", "degree": 1, "height": 0}],
            "gk": 2}
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(pres))
    r = run_cli("verify", jordan_spec_file, "--presentation", str(path),
                "--max-degree", "4")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["pass"] is False


def test_classify(jordan_spec_file):
    r = run_cli("classify", jordan_spec_file)
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["verdict"] == "finite" and out["gk"] == 2
    assert out["is_domain"] is True


_BLOCK_POINT = {"blocks": [{"epsilon": "1", "length": 2}],
                "points": [{"q": "1"}], "a": {"2,1": "1/3"}}


@pytest.mark.parametrize("obj, stdout", [
    (dict(_BLOCK_POINT, q=[["1", "1"], ["1", "1"]]), """{
  "verdict": "infinite",
  "gk": null,
  "decomposition": [],
  "is_domain": false,
  "conjecture_dependent": false,
  "violations": [
    {
      "code": "b",
      "detail": "non-discrete ghost at component (2,)",
      "conjecture_dependent": false
    }
  ]
}
"""),
    (dict(_BLOCK_POINT, ring={"params": ["q"]}, q=[["1", "q"], ["1", "1"]]),
     """{
  "verdict": "unknown",
  "reason": "interaction between block 1 and point 2 depends on a free \
parameter"
}
"""),
], ids=["infinite", "unknown"])
def test_classify_json_without_finite_verdict(obj, stdout, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    r = run_cli("classify", str(path))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == stdout


def test_flourish_with_dot(tmp_path):
    spec, _ = entry_instance("lstr(1,G)", {"G": 1})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(spec)))
    dot_path = tmp_path / "graph.dot"
    r = run_cli("flourish", str(spec_path), "--dot", str(dot_path))
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["admissible"] is True
    assert out["blocks"] and out["points"]
    assert "box" in dot_path.read_text()


def test_flourish_unwritable_dot_is_one_line_error(tmp_path):
    """The DOT file is written before the graph JSON, so a path that cannot
    be opened leaves stdout empty."""
    spec, _ = entry_instance("lstr(1,G)", {"G": 1})
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_to_json(spec)))
    dot_path = tmp_path / "missing" / "graph.dot"
    r = run_cli("flourish", str(spec_path), "--dot", str(dot_path))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("gknichols: error: ")
    assert r.stderr.count("\n") == 1


def test_flourish_block_too_long_is_one_line_error(tmp_path):
    """A FlourishedError from the lazily imported ``flourished`` module is
    caught by the package's common error base."""
    spec, _ = entry_instance("lstr(1,G)", {"G": 1})
    obj = spec_to_json(spec)
    obj["blocks"][0]["length"] = 3
    path = tmp_path / "long_block.json"
    path.write_text(json.dumps(obj))
    r = run_cli("flourish", str(path))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "gknichols: error: block 1 has length 3\n"


def test_reflect(tmp_path):
    diag = {"ring": {"cyclotomic_order": 3, "params": ["q"]},
            "q": [["z", "z^2", "q"], ["1", "z", "q"], ["1", "1", "-1"]]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(diag))
    r = run_cli("reflect", str(path), "--vertex", "3")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["q"][2][2] == "-1"
    assert len(out["q"]) == 3


_DIAG2 = {"q": [["-1", "-1"], ["-1", "-1"]]}
# a spec with blocks: its q-matrix is not a diagonal braiding
_POSEIDON = spec_to_json(entry_instance("poseidon")[0])


@pytest.mark.parametrize("obj,vertex", [
    ([["-1", "-1"], ["-1", "-1"]], "1"),
    ({"q": 5}, "1"),
    ({"q": []}, "1"),
    (_DIAG2, "5"),
    (_DIAG2, "0"),
    (_DIAG2, "-1"),
    (_POSEIDON, "1"),
    ({"pale": {"epsilon": "-1", "q12": "1", "q21": "1", "q22": "1"},
      "q": [["-1"]]}, "1"),
    ({"ring": {"cyclotomic_order": 1, "params": ["q"]},
      "q": [["q", "2"], ["1", "-1"]]}, "1"),
], ids=["list", "q-int", "q-empty", "vertex-5", "vertex-0", "vertex-neg",
        "blocks", "pale", "undefined"])
def test_reflect_bad_input_is_one_line_error(obj, vertex, tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(obj))
    r = run_cli("reflect", str(path), "--vertex", vertex)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("gknichols: error: ")
    assert r.stderr.count("\n") == 1


def test_probe(jordan_spec_file):
    r = run_cli("probe", jordan_spec_file, "--i", "x1", "--j", "x1h",
                "--count", "3", "--max-degree", "4")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["evidence"] in ("INFINITE", "INCONCLUSIVE")


def test_probe_stops_at_a_zero_y(tmp_path):
    """ad(x2) x2 is zero in T(V) for poseidon; the sequence stops there."""
    spec, _ = entry_instance("poseidon")
    path = tmp_path / "poseidon.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    r = run_cli("probe", str(path), "--i", "x2", "--j", "x2",
                "--max-degree", "3", "--count", "3")
    assert r.returncode == 0 and r.stderr == ""
    out = json.loads(r.stdout)
    assert out["evidence"] == "INCONCLUSIVE" and out["nonzero_y"] == [0]


def test_usage_errors_exit_1(jordan_spec_file, tmp_path):
    """Each usage error exits 1 with one ``gknichols: error:`` line on
    stderr and no usage block."""
    spec = jordan_spec_file
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"relations": [], "pbw": []}))
    cases = [("frobnicate",),
             ("dims", "/nonexistent.json", "--max-degree", "2"),
             ("verify", "--max-degree", "3"),
             ("dims", spec, "--max-degree", "-3"),
             ("probe", spec, "--i", "x1", "--j", "x1h", "--count", "-1",
              "--max-degree", "3"),
             # each of these would otherwise run, ignoring an argument
             ("verify", spec, "--name", "jordan", "--max-degree", "2"),
             ("verify", "--name", "jordan", "--presentation", str(pres),
              "--max-degree", "2"),
             ("verify", spec, "--presentation", str(pres), "--params", "G=1",
              "--max-degree", "2"),
             ("dims", spec, "--max-degree", "2", "--budget", "-1")]
    for args in cases:
        r = run_cli(*args)
        assert r.returncode == 1 and r.stdout == "", args
        assert r.stderr.startswith("gknichols: error: "), (args, r.stderr)
        assert r.stderr.count("\n") == 1, (args, r.stderr)
    assert r.stderr == ("gknichols: error: argument --budget: expected an "
                        "integer >= 0, got '-1'\n")


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"blocks": [{"epsilon": "1"}], "points": [{"q": "-1"}], "q": [["1"]]},
    {"blocks": [{"epsilon": "1"}], "points": [{"q": "-1"}],
     "q": [["1", "1"], ["1", "-1"]], "ghost": {"2,5": "1"}},
    {"blocks": [{"epsilon": "1"}], "points": [{"q": "-1"}],
     "q": [["1", "1"], ["1", "-1"]], "a": {"7,1": "1"}},
    {"ring": {"cyclotomic_order": 3000000}, "points": [{"q": "1"}],
     "q": [["1"]]},
    {"points": [{"q": "2^999999999"}], "q": [["2^999999999"]]},
], ids=["list", "small-q", "ghost-block", "a-vertex", "huge-order",
        "huge-exponent"])
def test_malformed_spec_is_one_line_error(obj, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    r = run_cli("classify", str(path))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("gknichols: error: ")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("obj, field", [
    ({"relations": [], "pbw": 5}, "pbw must"),
    ([1, 2], "the top level must"),
    ({"relations": 5, "pbw": []}, "relations must"),
    ({"relations": [7], "pbw": []}, "relations must"),
    ({"relations": [], "pbw": [["x1", "a", 0]]}, "pbw[0] degree must"),
    ({"relations": [], "pbw": [], "macros": [1]}, "macros must"),
    ({"pbw": [{"label": "x1"}]}, "relations must"),
    ({"relations": [], "pbw": [{"label": "x1"}]}, "pbw[0] degree must"),
    ({"relations": [], "pbw": [["x1", 1, -2]]}, "pbw[0] height must"),
    ({"relations": [], "pbw": [["x1", 1, 1.5]]}, "pbw[0] height must"),
    ({"relations": [], "pbw": [["x1", True, 0]]}, "pbw[0] degree must"),
], ids=["pbw-int", "list", "relations-int", "relation-int", "degree-str",
        "macros-list", "no-relations", "pbw-missing-keys", "height-negative",
        "height-float", "degree-bool"])
def test_malformed_presentation_is_one_line_error(obj, field,
                                                  jordan_spec_file, tmp_path):
    """Each bad field of a ``verify --presentation`` file is named in a
    one-line error, before anything reads the file."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    r = run_cli("verify", jordan_spec_file, "--presentation", str(path),
                "--max-degree", "2")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("gknichols: error: presentation: " + field)
    assert r.stderr.count("\n") == 1


def test_scalar_division_by_zero_is_one_line_error(tmp_path):
    """1/0 in a scalar text raises DivisionByZero: one error line."""
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"points": [{"q": "1/0"}], "q": [["1/0"]]}))
    r = run_cli("classify", str(path))
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == "gknichols: error: division by zero\n"


def test_member_bad_rational_is_one_line_error(jordan_spec_file):
    r = run_cli("member", jordan_spec_file, "--element", "3/0 x1")
    assert r.returncode == 1
    assert r.stderr == ("gknichols: error: bad rational literal '3/0' "
                        "(at position 0)\n")


@pytest.mark.parametrize("element", [
    "(" * 1200 + "x1" + ")" * 1200,
    "[" * 600 + "x1, x2]" + ", x2]" * 599], ids=["parentheses", "commutators"])
def test_member_deep_nesting_is_one_line_error(element, jordan_spec_file):
    r = run_cli("member", jordan_spec_file, "--element", element)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("gknichols: error: nesting deeper than 100 "
                        "(at position 100)\n")


def test_spec_deep_nesting_is_one_line_error(tmp_path):
    deep = "(" * 1200 + "1" + ")" * 1200
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"q": [[deep]], "points": [deep]}))
    r = run_cli("dims", str(path), "--max-degree", "1")
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr == ("gknichols: error: nesting deeper than 100 "
                        "(at position 100)\n")
