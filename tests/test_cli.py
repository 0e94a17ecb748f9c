import contextlib
import copy
import hashlib
import io
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from quiverarr.arrangement import format_arrangement
from quiverarr.cli import main
from quiverarr.corpus import CORPUS


THREE_LINES_ARR = """# three concurrent lines
dim 2
H 0 1 0
H 0 0 1
H 0 1 -1
"""

SINGLE_ARR = "dim 1\nH 0 1\n"

PARALLEL_ARR = "dim 2\nH 0 1 0\nH -1 1 0\n"

SL2_EXP = "a 1 -1\na 2 -1\na 3 2\nkappa 100\n"

SWAP_GRP = """g
1 0
0 1
0 0
g
0 1
1 0
0 0
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("three.arr", THREE_LINES_ARR), ("single.arr", SINGLE_ARR),
                       ("parallel.arr", PARALLEL_ARR), ("sl2.exp", SL2_EXP),
                       ("swap.grp", SWAP_GRP), ("zero.exp", "a 1 0\n")):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def run_failing(capsys, *argv):
    """Exit code and standard error of a run that must write no report."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def capture(*argv):
    """Exit code, standard output and standard error of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_lattice_three_lines(files, capsys):
    code, out = run(capsys, "lattice", files["three.arr"])
    assert code == 0
    assert out["vertex_count"] == 5
    assert out["edge_count"] == 6
    assert out["central"] is True


def test_lattice_deterministic_bytes(files, capsys):
    main(["lattice", files["three.arr"]])
    first = capsys.readouterr().out
    main(["lattice", files["three.arr"]])
    second = capsys.readouterr().out
    assert first == second


def test_os_and_flags(files, capsys):
    code, out = run(capsys, "os", files["three.arr"])
    assert code == 0
    assert out["dims"] == {"0": 1, "1": 3, "2": 2}
    code, out = run(capsys, "flags", files["three.arr"])
    assert code == 0
    assert out["dims"]["(1,2,3)"] == 2


def test_aomoto_command(files, capsys):
    code, out = run(capsys, "aomoto", files["three.arr"], "--exp", files["sl2.exp"])
    assert code == 0
    assert out["dims"] == [1, 3, 2]
    # lambda at the center vertex is (-1 - 1 + 2)/100 = 0, so H^2 survives
    assert out["betti"] == [0, 1, 1]


def test_check_quiver_roundtrip(files, capsys, tmp_path):
    code, out = run(capsys, "push-star", files["three.arr"],
                    "--exp", files["sl2.exp"], "--level", "1")
    assert code == 0
    qvr = tmp_path / "pushed.qvr"
    qvr.write_text(json.dumps(out))
    code, verdict = run(capsys, "check-quiver", files["three.arr"],
                        "--qvr", str(qvr))
    assert code == 0
    assert verdict["valid"] is True
    assert verdict["level"] == 1


def test_push_star_reports_witness(files, capsys):
    code, out = run(capsys, "push-star", files["three.arr"], "--exp", files["sl2.exp"])
    assert code == 0
    assert out["level"] == 2
    assert any(e["kind"] == "inclusion" for e in out["witness"])


def test_push_shriek_and_dual(files, capsys):
    code, out = run(capsys, "push-shriek", files["three.arr"],
                    "--exp", files["sl2.exp"], "--level", "1")
    assert code == 0
    assert out["level"] == 1
    code, dualed = run(capsys, "dual", files["three.arr"], "--exp", files["sl2.exp"])
    assert code == 0
    assert dualed["level"] == 0


@pytest.mark.parametrize("command", ["push-star", "push-shriek"])
def test_push_level_range(files, capsys, tmp_path, command):
    # three_lines has top level 2: a level-0 input goes to level 1 or 2
    for level in ("-3", "0", "3"):
        code, err = run_failing(capsys, command, files["three.arr"],
                                "--exp", files["sl2.exp"], "--level", level)
        assert code == 2
        assert f"--level {level} is out of range for a level-0 input: allowed 1..2" in err
    code, out = run(capsys, command, files["three.arr"], "--exp", files["sl2.exp"],
                    "--level", "2")
    assert (code, out["level"]) == (0, 2)
    qvr = tmp_path / "top.qvr"
    qvr.write_text(json.dumps(out))
    code, err = run_failing(capsys, command, files["three.arr"], "--qvr", str(qvr),
                            "--level", "2")
    assert code == 2
    assert "allowed none (the input is at the top level)" in err
    code, out = run(capsys, command, files["three.arr"], "--exp", files["sl2.exp"],
                    "--level", "1")
    qvr.write_text(json.dumps(out))
    for level, code in (("1", 2), ("2", 0)):
        assert main([command, files["three.arr"], "--qvr", str(qvr), "--level", level]) == code
        capsys.readouterr()


@pytest.mark.parametrize("command", ["push-star", "push-shriek"])
def test_push_of_a_quiver_breaking_its_relations_exits_3(files, capsys, tmp_path, command):
    # a level-1 quiver whose loop (1)^(1,2,3) breaks relation (iv): the
    # push cannot be formed, and the input, not the program, is at fault
    qvr = tmp_path / "bad.qvr"
    qvr.write_text(json.dumps({
        "level": 1, "spaces": {"()": 1, "(1)": 1, "(2)": 1, "(3)": 1},
        "maps": [{"from": "()", "to": "(1)", "matrix": [["1"]]},
                 {"from": "(1)", "to": "()", "matrix": [["1"]]}],
        "loops": [{"at": "(1)", "via": "(1,2,3)", "matrix": [["5"]]}]}))
    code, err = run_failing(capsys, command, files["three.arr"], "--qvr", str(qvr))
    assert code == 3
    assert err == ("hypothesis violation: input quiver relations fail: "
                   "[('(iv)', ((1,), (1, 2, 3), ())), ('(iv)*', ((1,), (1, 2, 3), ()))]\n")
    code, verdict = run(capsys, "check-quiver", files["three.arr"], "--qvr", str(qvr))
    assert (code, verdict["valid"]) == (0, False)


# every subcommand that reads a quiver, besides check-quiver
QUIVER_COMMANDS = (
    ("dual",), ("restrict", "--level", "0"), ("push-star",), ("push-shriek",),
    ("ic-quiver",), ("shapovalov",), ("specialize", "--vertex", "(1)"), ("fourier",),
    ("cohomology", "--model", "perverse"), ("cohomology", "--model", "local"),
    ("cohomology", "--model", "ih"),
    ("equivariant", "--grp", "GRP", "--functor", "star"),
)


def test_quiver_commands_cover_every_qvr_subcommand():
    from quiverarr.cli import build_parser
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert {name for name, sp in subparsers.items() if "--qvr" in sp._option_string_actions} \
        == {c[0] for c in QUIVER_COMMANDS} | {"check-quiver"}


@pytest.fixture(scope="module")
def valid_quivers(tmp_path_factory):
    """Three lines, the swap group, and two valid rank-2 .qvr documents
    on them: the level-zero quiver with loops a_j [[1, 1], [0, 1]] and its
    j0_star image."""
    from quiverarr.arrangement import build_graph, parse_arrangement
    from quiverarr.functors import j0_star
    from quiverarr.linalg import Matrix
    from quiverarr.quiver import level_zero_quiver, quiver_to_json
    d = tmp_path_factory.mktemp("valid_quivers")
    (d / "three.arr").write_text(THREE_LINES_ARR)
    (d / "swap.grp").write_text(SWAP_GRP)
    g = build_graph(parse_arrangement(THREE_LINES_ARR))
    w = level_zero_quiver(g, 2, {j: Matrix.from_rows([[1, 1], [0, 1]]).scale(Fraction(x))
                                 for j, x in ((1, "1/3"), (2, "-1/2"), (3, "2/7"))})
    return d, g, {"level-zero": quiver_to_json(w), "j0_star": quiver_to_json(j0_star(g, w))}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_qvr_breaking_its_relations_is_refused_when_read(valid_quivers, data):
    """Change one map or loop entry of a valid .qvr: every subcommand
    that reads it exits 3 with no report, unless the changed quiver still
    satisfies its relations; check-quiver reports either way."""
    from quiverarr.quiver import check_quiver, parse_quiver
    d, g, docs = valid_quivers
    doc = copy.deepcopy(docs[data.draw(st.sampled_from(sorted(docs)))])
    entries = [(kind, i, r, c) for kind in ("maps", "loops")
               for i, e in enumerate(doc.get(kind) or ())
               for r, row in enumerate(e["matrix"]) for c in range(len(row))]
    kind, i, r, c = data.draw(st.sampled_from(entries))
    old = Fraction(doc[kind][i]["matrix"][r][c])
    new = data.draw(st.sampled_from([Fraction(k) for k in range(-3, 4)]
                                    + [Fraction(1, 2), Fraction(-5, 3), Fraction(7, 11)])
                    .filter(lambda x: x != old))
    doc[kind][i]["matrix"][r][c] = str(new)
    qvr = d / "changed.qvr"
    qvr.write_text(json.dumps(doc))
    valid = not check_quiver(parse_quiver(qvr.read_text(), g))
    event("still valid" if valid else "broken")
    arr = str(d / "three.arr")
    code, out, _ = capture("check-quiver", arr, "--qvr", str(qvr))
    assert (code, json.loads(out)["valid"]) == (0, valid)
    for command in QUIVER_COMMANDS:
        argv = [command[0], arr, "--qvr", str(qvr)] + [
            str(d / "swap.grp") if x == "GRP" else x for x in command[1:]]
        code, out, err = capture(*argv)
        assert valid or (code, out) == (3, ""), (argv, code, err)
        assert valid or err.startswith("hypothesis violation: input quiver relations fail: ")


def test_quivers_are_checked_only_where_they_are_read():
    """In the CLI, a quiver's relations are read (its cached
    `violated_relations`, or a `check_quiver` call) only in the reader
    path (`_quiver`) and in check-quiver, and only `main` catches an
    internal error."""
    import ast
    import inspect

    from quiverarr import cli
    broad = {"InternalInconsistencyError", "QuiverArrError", "Exception", "BaseException"}
    checkers, catchers = set(), set()
    for fn in ast.walk(ast.parse(inspect.getsource(cli))):
        if isinstance(fn, ast.FunctionDef):
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "check_quiver" \
                        or isinstance(n, ast.Attribute) and n.attr == "violated_relations":
                    checkers.add(fn.name)
                if isinstance(n, ast.ExceptHandler) and (
                        n.type is None or broad & {getattr(x, "id", None)
                                                   for x in ast.walk(n.type)}):
                    catchers.add(fn.name)
    assert checkers == {"_quiver", "cmd_check_quiver"}
    assert catchers == {"main"}


def counted_checks(monkeypatch):
    """The quivers `check_quiver` is called on, wherever it is bound in
    quiverarr."""
    import sys

    from quiverarr import quiver
    real, calls = quiver.check_quiver, []

    def counted(v):
        calls.append(v)
        return real(v)

    for name, module in list(sys.modules.items()):
        if name == "quiverarr" or name.startswith("quiverarr."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("command", [
    ("ic-quiver",), ("shapovalov",), ("cohomology", "--model", "local"),
    ("cohomology", "--model", "ih"), ("equivariant", "--grp", "GRP", "--functor", "star"),
    ("equivariant", "--grp", "GRP", "--functor", "macpherson")])
def test_a_level_zero_qvr_is_checked_once(tmp_path, monkeypatch, command):
    """A rank-2 level-zero --qvr on C_{1,3}: the reader's check is the
    one the direct images read, so each run checks the input once."""
    from quiverarr.arrangement import build_graph
    from quiverarr.linalg import Matrix
    from quiverarr.quiver import level_zero_quiver, quiver_to_json
    g = build_graph(CORPUS["c13"]())
    n, dim = g.arrangement.size, g.arrangement.ambient_dim
    w = level_zero_quiver(g, 2, {j: Matrix.from_rows([[1, 1], [0, 1]]).scale(Fraction(j, 17))
                                 for j in range(1, n + 1)})
    (tmp_path / "c13.arr").write_text(format_arrangement(g.arrangement))
    (tmp_path / "w.qvr").write_text(json.dumps(quiver_to_json(w)))
    rows = [" ".join("1" if i == k else "0" for k in range(dim)) for i in range(dim)]
    (tmp_path / "id.grp").write_text("\n".join(["g"] + rows + [" ".join(["0"] * dim)]) + "\n")
    calls = counted_checks(monkeypatch)
    argv = [command[0], str(tmp_path / "c13.arr"), "--qvr", str(tmp_path / "w.qvr")] + [
        str(tmp_path / "id.grp") if x == "GRP" else x for x in command[1:]]
    code, out, err = capture(*argv)
    assert (code, err) == (0, "") and json.loads(out)
    assert len(calls) == 1


def test_ic_quiver(files, capsys):
    code, out = run(capsys, "ic-quiver", files["three.arr"], "--exp", files["sl2.exp"])
    assert code == 0
    assert out["level"] is None
    assert out["spaces"]["()"] == 1


def test_shapovalov_scalar_and_quiver(files, capsys):
    code, out = run(capsys, "shapovalov", files["three.arr"], "--exp", files["sl2.exp"])
    assert code == 0
    assert out["kind"] == "scalar"
    assert len(out["components"]) == 3


def test_specialize_command(files, capsys, tmp_path):
    # specialize needs a full quiver: push the scalar one to the top first
    code, pushed = run(capsys, "push-star", files["three.arr"],
                       "--exp", files["sl2.exp"])
    pushed.pop("witness", None)
    pushed.pop("loops", None)
    pushed["level"] = None
    qvr = tmp_path / "full.qvr"
    qvr.write_text(json.dumps(pushed))
    code, out = run(capsys, "specialize", files["three.arr"],
                    "--qvr", str(qvr), "--vertex", "(1)")
    assert code == 0
    assert any("|" in k for k in out["classes"])
    # a level-zero input is a usage error
    code, _ = run(capsys, "specialize", files["three.arr"],
                  "--exp", files["sl2.exp"], "--vertex", "(1)")
    assert code == 2


@pytest.fixture(scope="module")
def full_quivers(tmp_path_factory):
    """Three lines and C_{1,3}: per name, its .arr file, a valid full .qvr
    on it (the j0_star image of the rank-1 level-zero quiver with every
    loop 1/2) and its set of vertex keys."""
    from quiverarr.arrangement import build_graph
    from quiverarr.functors import j0_star
    from quiverarr.linalg import Matrix
    from quiverarr.quiver import level_zero_quiver, quiver_to_json
    d = tmp_path_factory.mktemp("full_quivers")
    out = {}
    for name in ("three_lines", "c13"):
        arr = CORPUS[name]()
        g = build_graph(arr)
        w = level_zero_quiver(g, 1, {j: Matrix(1, 1, [Fraction(1, 2)])
                                     for j in range(1, arr.size + 1)})
        (d / f"{name}.arr").write_text(format_arrangement(arr))
        (d / f"{name}.qvr").write_text(json.dumps(quiver_to_json(j0_star(g, w))))
        out[name] = (str(d / f"{name}.arr"), str(d / f"{name}.qvr"), set(g.vertices))
    return out


@pytest.mark.parametrize("vertex", ["(9)", "(1,2)", "(2,1)", "(1,1)"])
def test_specialize_at_a_non_stratum_exits_2(full_quivers, capsys, vertex):
    """No stratum of three lines is named by an absent hyperplane, by
    (1,2) (lines 1 and 2 meet in the stratum (1,2,3)), by the unsorted
    (2,1) or by the repeated (1,1)."""
    arr, qvr, _ = full_quivers["three_lines"]
    code, err = run_failing(capsys, "specialize", arr, "--qvr", qvr, "--vertex", vertex)
    assert (code, err) == (2, f"error: vertex {vertex} is not a stratum of the arrangement\n")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_specialize_exits_2_exactly_at_a_non_stratum(full_quivers, data):
    """A --vertex spelling, a tuple of 0-6 with at most three entries,
    sorted or not, or a stratum's key in any order: specialize exits 2
    exactly when it is not a vertex key, and never with a traceback.  At a
    vertex key it exits 0, except at the three strata of C_{1,3} cut out
    by two hyperplanes alone, (1,6), (2,5) and (3,4), whose specialization
    classes mix codimensions, an unsupported case (exit 3)."""
    from quiverarr.arrangement import format_vertex_key
    name = data.draw(st.sampled_from(["three_lines", "c13"]))
    arr, qvr, keys = full_quivers[name]
    unsupported = {(1, 6), (2, 5), (3, 4)} if name == "c13" else set()
    key = data.draw(st.one_of(
        st.lists(st.integers(0, 6), max_size=3).map(tuple),
        st.sampled_from(sorted(k for k in keys if len(k) <= 3))
        .flatmap(st.permutations).map(tuple)))
    event("stratum" if key in keys else "not a stratum")
    code, out, err = capture("specialize", arr, "--qvr", qvr, "--vertex", format_vertex_key(key))
    if key not in keys:
        assert (code, err) == (2, f"error: vertex {format_vertex_key(key)} is not a "
                                  "stratum of the arrangement\n")
    elif key in unsupported:
        assert (code, err) == (3, "hypothesis violation: specialization classes "
                                  "mix codimensions\n")
    else:
        assert (code, err) == (0, "")
    assert (out != "") == (code == 0)


def test_perverse_takes_a_full_quiver(files, capsys, tmp_path):
    """A level quiver, the scalar one of an exponent assignment or a
    stored level-1 one, is a usage error, not a non-central arrangement;
    the same quiver pushed to the top and stored as a full one runs."""
    message = "the perverse model takes a full quiver, not a level quiver"
    code, err = run_failing(capsys, "cohomology", files["three.arr"], "--model", "perverse",
                            "--exp", files["sl2.exp"])
    assert code == 2 and message in err
    qvr = tmp_path / "v.qvr"
    code, level1 = run(capsys, "push-star", files["three.arr"], "--exp", files["sl2.exp"],
                       "--level", "1")
    qvr.write_text(json.dumps(level1))
    code, err = run_failing(capsys, "cohomology", files["three.arr"], "--model", "perverse",
                            "--qvr", str(qvr))
    assert code == 2 and message in err
    code, full = run(capsys, "push-star", files["three.arr"], "--exp", files["sl2.exp"])
    full.pop("witness")
    full.pop("loops")
    full["level"] = None
    qvr.write_text(json.dumps(full))
    code, out = run(capsys, "cohomology", files["three.arr"], "--model", "perverse",
                    "--qvr", str(qvr))
    assert code == 0 and out["model"] == "perverse"


def test_fourier_command(files, capsys):
    code, out = run(capsys, "fourier", files["single.arr"], "--exp", files["zero.exp"])
    assert code == 2  # fourier needs a full quiver, the exp gives level 0


def test_fourier_on_full_quiver(files, capsys, tmp_path):
    code, pushed = run(capsys, "push-star", files["single.arr"],
                       "--exp", files["zero.exp"])
    qvr = tmp_path / "full.qvr"
    pushed.pop("witness", None)
    pushed["level"] = None
    qvr.write_text(json.dumps(pushed))
    code, out = run(capsys, "fourier", files["single.arr"], "--qvr", str(qvr))
    assert code == 0


def test_cohomology_models(files, capsys):
    code, out = run(capsys, "cohomology", files["single.arr"],
                    "--model", "local", "--exp", files["zero.exp"])
    assert code == 0
    assert out["betti"] == {"0": 1, "1": 1}
    code, out = run(capsys, "cohomology", files["three.arr"],
                    "--model", "ih", "--exp", files["sl2.exp"])
    assert code == 0
    assert out["model"] == "intersection"
    code, out = run(capsys, "cohomology", files["three.arr"],
                    "--model", "flag")
    assert code == 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_aomoto_cohomology_without_exp_exits_2(name, tmp_path, capsys):
    """`cohomology --model aomoto` reads its exponents from --exp; without
    one it is a parse problem (exit 2), not a traceback."""
    arr = tmp_path / f"{name}.arr"
    arr.write_text(format_arrangement(CORPUS[name]()))
    code, err = run_failing(capsys, "cohomology", str(arr), "--model", "aomoto")
    assert code == 2
    assert "need --exp" in err


def test_cohomology_refuses_non_central(files, capsys):
    code, _ = run(capsys, "cohomology", files["parallel.arr"],
                  "--model", "local", "--exp", files["zero.exp"])
    assert code == 2  # missing exponent for hyperplane 2 is a parse problem
    exp = files["tmp"] / "two.exp"
    exp.write_text("a 1 0\na 2 0\n")
    code, _ = run(capsys, "cohomology", files["parallel.arr"],
                  "--model", "local", "--exp", str(exp))
    assert code == 3


def test_equivariant_command(files, capsys):
    code, out = run(capsys, "equivariant", files["three.arr"],
                    "--exp", files["sl2.exp"], "--grp", files["swap.grp"],
                    "--functor", "macpherson", "--twist-det")
    assert code == 0
    assert out["betti"] == {"0": 0, "1": 1, "2": 0}
    assert out["group_order"] == 2


def test_kz_check_command(capsys):
    code, out = run(capsys, "kz-check", "--type", "A1",
                    "--highest", "1", "--weights", "2")
    assert code == 0
    assert out["verdict"] == "MATCH"
    assert out["bwb_dims"] == {"0": 0, "1": 1, "2": 0}


def test_kz_check_default_bound_is_five(capsys, monkeypatch):
    """N = 5 runs under the default --bound; N = 6 exits 2 before any
    strata graph is built."""
    code, out = run(capsys, "kz-check", "--type", "A1",
                    "--highest", "4", "--weights", "5")
    assert code == 0
    assert out["verdict"] == "MATCH" and out["bwb_dims"]["4"] == 1
    import quiverarr.liecheck as liecheck
    built = []
    monkeypatch.setattr(liecheck, "build_graph", built.append)
    monkeypatch.setattr(liecheck, "_GRAPH_BY_N", {})
    code, out = run(capsys, "kz-check", "--type", "A1",
                    "--highest", "1", "--weights", "6")
    assert code == 2 and out is None and built == []


def test_kz_check_resonant_kappa_is_refused(capsys):
    code, _ = run(capsys, "kz-check", "--type", "A1",
                  "--highest", "1", "--weights", "2", "--kappa", "1/2")
    assert code == 3


def test_parse_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "bad.arr"
    bad.write_text("dim x\n")
    code, _ = run(capsys, "lattice", str(bad))
    assert code == 2


def test_output_flag(files, capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["--output", str(target), "lattice", files["three.arr"]])
    assert code == 0
    assert json.loads(target.read_text())["vertex_count"] == 5


def test_selftest_smoke(capsys):
    code, out = run(capsys, "selftest", "--seed", "1")
    assert code == 0
    assert out["ok"] is True


def test_kappa_override(files, capsys):
    code, base = run(capsys, "aomoto", files["three.arr"], "--exp", files["sl2.exp"])
    code, big = run(capsys, "aomoto", files["three.arr"], "--exp", files["sl2.exp"],
                    "--kappa", "200")
    assert code == 0
    assert base["differentials"][0][0][0] == "-1/100"
    assert big["differentials"][0][0][0] == "-1/200"


# -- malformed .qvr input ----------------------------------------------------------

def test_qvr_level_out_of_range(files, capsys, tmp_path):
    qvr = tmp_path / "deep.qvr"
    qvr.write_text(json.dumps({"level": 7, "spaces": {"()": 1}, "maps": [], "loops": []}))
    code, out = run(capsys, "check-quiver", files["three.arr"], "--qvr", str(qvr))
    assert (code, out) == (2, None)
    qvr.write_text(json.dumps({"level": -1, "spaces": {"()": 1}}))
    assert main(["check-quiver", files["three.arr"], "--qvr", str(qvr)]) == 2


def test_qvr_top_level_list(files, capsys, tmp_path):
    qvr = tmp_path / "list.qvr"
    qvr.write_text(json.dumps([{"level": 0, "spaces": {"()": 1}}]))
    assert main(["check-quiver", files["three.arr"], "--qvr", str(qvr)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an object at the top level" in captured.err


def test_qvr_negative_level_dimension(files, capsys, tmp_path):
    qvr = tmp_path / "neg.qvr"
    qvr.write_text(json.dumps({"level": 0, "spaces": {"()": -1}}))
    code, out = run(capsys, "check-quiver", files["three.arr"], "--qvr", str(qvr))
    assert (code, out) == (2, None)


@pytest.mark.parametrize("data", [
    {"level": 1.9, "spaces": {"()": 1}},
    {"level": 1.0, "spaces": {"()": 1}},
    {"level": 0, "spaces": {"()": 2.0}},
    {"level": True, "spaces": {"()": 1}},
    {"level": "0", "spaces": {"()": 1}},
    {"level": 0, "spaces": {"()": 1.5}},
    {"level": None, "spaces": {"()": True}},
])
def test_qvr_sizes_must_be_integers(files, capsys, tmp_path, data):
    # int() used to truncate these to level 1 and dimension 1
    qvr = tmp_path / "sizes.qvr"
    qvr.write_text(json.dumps(data))
    code, err = run_failing(capsys, "check-quiver", files["three.arr"], "--qvr", str(qvr))
    assert code == 2 and "must be a nonnegative integer" in err


@pytest.mark.parametrize("entry", ["1/0", "abc", "nan"])
def test_qvr_matrix_entries_must_be_rational(files, capsys, tmp_path, entry):
    qvr = tmp_path / "entries.qvr"
    qvr.write_text(json.dumps({"level": 0, "spaces": {"()": 1}, "loops": [
        {"at": "()", "via": "(1)", "matrix": [[entry]]}]}))
    code, out = run(capsys, "check-quiver", files["three.arr"], "--qvr", str(qvr))
    assert (code, out) == (2, None)


def loop_qvr(tmp_path, entry_text):
    """A level-zero .qvr on the single hyperplane whose one loop entry is
    the JSON text `entry_text`."""
    qvr = tmp_path / "loop.qvr"
    qvr.write_text('{"level": 0, "spaces": {"()": 1}, "loops": '
                   '[{"at": "()", "via": "(1)", "matrix": [[%s]]}]}' % entry_text)
    return str(qvr)


@pytest.mark.parametrize("entry, negated", [("0.1", "-1/10"), ("-2.5e-3", "1/400"),
                                            ("1e-400", "-1/1" + "0" * 400), ("3", "-3")],
                         ids=["0.1", "-2.5e-3", "1e-400", "3"])
def test_qvr_json_numbers_read_from_decimal_text(files, capsys, tmp_path, entry, negated):
    # 0.1 used to be read as its binary value 3602879701896397/36028797018963968
    code, out = run(capsys, "dual", files["single.arr"], "--qvr", loop_qvr(tmp_path, entry))
    assert code == 0
    assert out["loops"][0]["matrix"] == [[negated]]


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_qvr_json_non_finite_entry_exits_2(files, capsys, tmp_path, entry):
    code, err = run_failing(capsys, "dual", files["single.arr"], "--qvr", loop_qvr(tmp_path, entry))
    assert code == 2 and "bad rational" in err


def test_qvr_json_boolean_entry_exits_2(files, capsys, tmp_path):
    # true used to be read as 1
    code, err = run_failing(capsys, "dual", files["single.arr"], "--qvr", loop_qvr(tmp_path, "true"))
    assert code == 2 and "bad rational True" in err


ONE = [["1"]]


@pytest.mark.parametrize("data, what", [
    ({"level": 0, "spaces": {"()": 1, "( )": 2}}, "space () given twice"),
    ({"level": None, "spaces": {"()": 1, "(1)": 1},
      "maps": [{"from": "(1)", "to": "()", "matrix": ONE},
               {"from": "( 1 )", "to": "()", "matrix": [["2"]]}]}, "map ((), (1,)) given twice"),
    ({"level": 0, "spaces": {"()": 1},
      "loops": [{"at": "()", "via": "(1)", "matrix": ONE},
                {"at": "()", "via": "(1)", "matrix": ONE}]}, "loop ((), (1,)) given twice"),
    ({"level": None, "spaces": {"()": 1, "(1)": 1},
      "loops": [{"at": "()", "via": "(1)", "matrix": ONE}]}, "loops need an integer level"),
    ('{"level": 0, "spaces": {"()": 1, "()": 2}}', "key '()' given twice"),
], ids=["space-twice", "map-twice", "loop-twice", "loops-without-level", "json-key-twice"])
def test_qvr_repeated_or_dropped_data_exits_2(files, capsys, tmp_path, data, what):
    # each of these used to be read with the last entry winning, or the
    # loops dropped, and checked as a valid quiver
    qvr = tmp_path / "strict.qvr"
    qvr.write_text(data if isinstance(data, str) else json.dumps(data))
    code, err = run_failing(capsys, "check-quiver", files["single.arr"], "--qvr", str(qvr))
    assert code == 2 and what in err


# -- malformed rationals and sizes in the text formats and options -------------------

@pytest.mark.parametrize("text", ["dim -1\n", "dim -1\nH 0 1\n", "dim 2 2\nH 0 1 0\n",
                                  "dim 2\nH 0 1/0 0\n", "dim 2\nH 0 x 1\n"])
def test_arr_bad_size_or_rational_exits_2(capsys, tmp_path, text):
    arr = tmp_path / "bad.arr"
    arr.write_text(text)
    code, err = run_failing(capsys, "lattice", str(arr))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("text", ["a 1 1/0\na 2 0\na 3 0\n", "a 1 0\nkappa 0/0\n",
                                  "a 1 abc\n", "a 1 0\nkappa inf\n"])
def test_exp_bad_rational_exits_2(files, capsys, tmp_path, text):
    exp = tmp_path / "bad.exp"
    exp.write_text(text)
    code, out = run(capsys, "aomoto", files["three.arr"], "--exp", str(exp))
    assert (code, out) == (2, None)


def test_grp_bad_rational_exits_2(files, capsys, tmp_path):
    grp = tmp_path / "bad.grp"
    grp.write_text(SWAP_GRP.replace("0 1\n1 0\n0 0", "0 1\n1 0\n1/0 0"))
    code, err = run_failing(capsys, "equivariant", files["three.arr"],
                            "--exp", files["sl2.exp"], "--grp", str(grp), "--functor", "star")
    assert code == 2 and "bad rational '1/0'" in err


@pytest.mark.parametrize("kappa", ["1/0", "abc"])
def test_kappa_option_bad_rational_exits_2(files, capsys, kappa):
    for argv in (("aomoto", files["three.arr"], "--exp", files["sl2.exp"]),
                 ("cohomology", files["three.arr"], "--model", "local",
                  "--exp", files["sl2.exp"]),
                 ("kz-check", "--type", "A1", "--highest", "1", "--weights", "2")):
        code, err = run_failing(capsys, *argv, "--kappa", kappa)
        assert code == 2 and "--kappa" in err


# -- golden reports ------------------------------------------------------------------

GOLDEN_EXPONENTS = {
    "three_lines": ("1/3", "-1/2", "2/7"),
    "boolean3": ("1/5", "3/4", "-2/3"),
    "c13": ("1/3", "-1/5", "2/7", "1/2", "-3/4", "5/6"),
}


def golden_reports(tmp_path):
    """The push-star and push-shriek reports to the top level, and the
    check-quiver reports on them, on each golden arrangement, from a
    rank-1 .exp input and a rank-2 .qvr input with loops a_j [[1, 1],
    [0, 1]]; and the check-quiver report on a rank-2 .qvr input with the
    non-commuting loops a_j [[0, 1], [j, 0]], which break relation (v).
    Name -> exit code and stdout.  Also the pushes of the non-commuting
    input, to the top and to level 1: name -> (exit code, stdout,
    stderr)."""
    from quiverarr import corpus
    from quiverarr.arrangement import build_graph
    from quiverarr.linalg import Matrix
    from quiverarr.quiver import level_zero_quiver, quiver_to_json

    reports, refused = {}, {}
    for name, exps in GOLDEN_EXPONENTS.items():
        a = corpus.CORPUS[name]()
        arr = tmp_path / f"{name}.arr"
        arr.write_text(f"dim {a.ambient_dim}\n" + "".join(
            "H " + " ".join(str(x) for x in (h.constant,) + tuple(h.normal)) + "\n"
            for h in a.hyperplanes))
        exp = tmp_path / f"{name}.exp"
        exp.write_text("".join(f"a {j} {x}\n" for j, x in enumerate(exps, 1)))
        sources = {"exp": ("--exp", str(exp))}
        for source, loop in (("rank2", lambda j: [[1, 1], [0, 1]]),
                             ("noncommuting", lambda j: [[0, 1], [j, 0]])):
            w = level_zero_quiver(build_graph(a), 2, {
                j: Matrix.from_rows(loop(j)).scale(Fraction(x)) for j, x in enumerate(exps, 1)})
            qvr = tmp_path / f"{name}-{source}.qvr"
            qvr.write_text(json.dumps(quiver_to_json(w)))
            sources[source] = ("--qvr", str(qvr))
        for source in ("exp", "rank2"):
            for cmd in ("push-star", "push-shriek"):
                key = f"{name}/{source}/{cmd}"
                code, out, _ = capture(cmd, str(arr), *sources[source])
                reports[key] = f"{code}\n{out}"
                pushed = tmp_path / f"{name}-{source}-{cmd}.qvr"
                pushed.write_text(out)
                code, out, _ = capture("check-quiver", str(arr), "--qvr", str(pushed))
                reports[key + "/check-quiver"] = f"{code}\n{out}"
        code, out, _ = capture("check-quiver", str(arr), *sources["noncommuting"])
        reports[f"{name}/noncommuting/check-quiver"] = f"{code}\n{out}"
        for source, flags in (("noncommuting", ()), ("noncommuting-level1", ("--level", "1"))):
            for cmd in ("push-star", "push-shriek"):
                refused[f"{name}/{source}/{cmd}"] = capture(
                    cmd, str(arr), *sources["noncommuting"], *flags)
    return reports, refused


# sha256 of each report, recorded before the integer char poly, the
# one-solve push steps and the integer relation checks (the three
# non-commuting check-quiver reports later, equal before and after the
# relation check at read time)
GOLDEN_DIGESTS = {
    "three_lines/exp/push-star":
        "dc7bc937c5797f71efa23f601a453cd976a3d3a59d3c91723ce7f1e454be1a5e",
    "three_lines/exp/push-star/check-quiver":
        "0f173a7688f97805c51b2eb2dfca5d8c93c2ea075ffeff815ad912bd092450b6",
    "three_lines/exp/push-shriek":
        "934c69e782bdea8f749c2fa3f44993bfbcf6f9cc4cbfcbfd2b0c31bc4fc6ed0d",
    "three_lines/exp/push-shriek/check-quiver":
        "0f173a7688f97805c51b2eb2dfca5d8c93c2ea075ffeff815ad912bd092450b6",
    "three_lines/rank2/push-star":
        "22705b6482e8e60c3b03e431434ff6d884393c48e5be69b159aed76576571bb1",
    "three_lines/rank2/push-star/check-quiver":
        "0f173a7688f97805c51b2eb2dfca5d8c93c2ea075ffeff815ad912bd092450b6",
    "three_lines/rank2/push-shriek":
        "3816f763faf0314810db859f049955c7071fbe82d6d33623d1f6b1dccb8a28d4",
    "three_lines/rank2/push-shriek/check-quiver":
        "0f173a7688f97805c51b2eb2dfca5d8c93c2ea075ffeff815ad912bd092450b6",
    "three_lines/noncommuting/check-quiver":
        "b8aad05f80e1ec22e30a795080d9401eef5e2aeb4bd7583d9483311b7c522b00",
    "boolean3/exp/push-star":
        "c900cf93f0e6fede2fc9a40f734947ef85df6b2ff3b9a357fd4b2b37600d3b9b",
    "boolean3/exp/push-star/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "boolean3/exp/push-shriek":
        "a9222efb5a889c2b39b43616747d3d55c9f487498b0d0e47120f6fcc4131fa8f",
    "boolean3/exp/push-shriek/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "boolean3/rank2/push-star":
        "4bd544ed984f53eff3e4de9c1588c80d7640b718a452ccf99b8dfe30a8dc685d",
    "boolean3/rank2/push-star/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "boolean3/rank2/push-shriek":
        "246c4b5d4df93de8f2634fef40633d135b0ac9168faf45d185025384f8acbd4a",
    "boolean3/rank2/push-shriek/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "boolean3/noncommuting/check-quiver":
        "e1128277d6681b9fbb7135904f7336cf7befbd05fc9d6a81a26c9061e2e0e448",
    "c13/exp/push-star":
        "984a9f6a087d69900b9c7576ce0fbb972788f5b7b3ebb574896805286a6709ae",
    "c13/exp/push-star/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "c13/exp/push-shriek":
        "4f28c967c075cb896f07ecd0d95a18faeffa7bdbb491f096ef5b1ad83ee178a9",
    "c13/exp/push-shriek/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "c13/rank2/push-star":
        "a77cc76ebaee23904964d1651fe0dabe4aa56069324b64d23a8d2d9156208ab8",
    "c13/rank2/push-star/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "c13/rank2/push-shriek":
        "5840c90e7c6d39f3fbff3f12a238696b49de7a85b00146ff8b85a8095be241e2",
    "c13/rank2/push-shriek/check-quiver":
        "10f3429440930303dc674ce9867c42622a7979b7b7ebeb87525f842c343c361d",
    "c13/noncommuting/check-quiver":
        "240d03b2736863dd56d8ec1ebf6084c9ffa654c36279807ea22334c0585eb6bd",
}


def test_golden_push_and_check_reports(tmp_path):
    reports, refused = golden_reports(tmp_path)
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in reports.items()}
    assert digests == GOLDEN_DIGESTS
    # the non-commuting input is refused when read, before any push step
    assert len(refused) == 12
    for key, (code, out, err) in refused.items():
        assert (code, out) == (3, ""), key
        assert err.startswith("hypothesis violation: input quiver relations fail: "
                              "[('(v)', ((), ("), key


# -- golden reports of the presented spaces ------------------------------------------

def _scalar_exponents(n):
    """Two exponent sets per arrangement: the zero (resonant) one and
    a_j = (-1)^j j / (7j + 3)."""
    return {"zero": ["0"] * n,
            "generic": [str(Fraction((-1) ** j * j, 7 * j + 3)) for j in range(1, n + 1)]}


def presented_space_reports(tmp_path):
    """The os, flags and `cohomology --model flag` reports of every
    central corpus arrangement, and its aomoto, scalar shapovalov and
    `cohomology --model local|ih|aomoto` reports for each exponent set
    of `_scalar_exponents`.  Name -> exit code and stdout."""
    from quiverarr import corpus

    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        return f"{code}\n{out.getvalue()}"

    reports = {}
    for name in corpus.CENTRAL:
        a = corpus.CORPUS[name]()
        arr = tmp_path / f"{name}.arr"
        arr.write_text(f"dim {a.ambient_dim}\n" + "".join(
            "H " + " ".join(str(x) for x in (h.constant,) + tuple(h.normal)) + "\n"
            for h in a.hyperplanes))
        for cmd in ("os", "flags"):
            reports[f"{name}/{cmd}"] = cli(cmd, str(arr))
        reports[f"{name}/cohomology-flag"] = cli("cohomology", str(arr), "--model", "flag")
        for label, exps in _scalar_exponents(a.size).items():
            exp = tmp_path / f"{name}-{label}.exp"
            exp.write_text("".join(f"a {j} {x}\n" for j, x in enumerate(exps, 1)))
            for cmd in ("aomoto", "shapovalov"):
                reports[f"{name}/{label}/{cmd}"] = cli(cmd, str(arr), "--exp", str(exp))
            for model in ("local", "ih", "aomoto"):
                reports[f"{name}/{label}/cohomology-{model}"] = cli(
                    "cohomology", str(arr), "--model", model, "--exp", str(exp))
    return reports


# sha256 of each report, recorded before `_PresentedSpace` took its basis and
# coordinates from one elimination
PRESENTED_SPACE_DIGESTS = {
    "boolean2/cohomology-flag":
        "6e76c0515c12b3855551397c82f865a2046e5eb85971ea75fbc949b3fe5ba48b",
    "boolean2/flags":
        "9fa9001843f90bb80cf9dfa9e0c96743644072a72777080c161f3799166c360f",
    "boolean2/generic/aomoto":
        "8112dd1afe86b13e9cceccaf7848b22d56e91d520fb394a795d9f3f53547289a",
    "boolean2/generic/cohomology-aomoto":
        "cc3cbaa11ba1d4d5a486827b7718777300caa2c85ace545071d6364f5bdac40b",
    "boolean2/generic/cohomology-ih":
        "3a783714aedc8a0193a953effef7c8af15d2541a504c56792b0dd2fc90ded4e0",
    "boolean2/generic/cohomology-local":
        "47d42b3d3dfac013f6beefa2c06854b0e35f97a1970b0730b9a41c3fc0c84016",
    "boolean2/generic/shapovalov":
        "69659fc519cb90aa8eb71f7ba52b5bcbf98fd53124133c79ee7523a4a68dd184",
    "boolean2/os":
        "d49f4cd82546c09705d4ccc7b8596ec0970db42f856c6d07d8111312945ebb35",
    "boolean2/zero/aomoto":
        "fc6347aaa85a2bc16b8de9a89eb4e46f258128edf6d666c29ec458e298532a41",
    "boolean2/zero/cohomology-aomoto":
        "d267ede9bf74b0cb956279d0a62281832d5e857a5f7595b26c575f42938cf42b",
    "boolean2/zero/cohomology-ih":
        "e91cfa76a4e87e2e7f0b0389f37317652c1822a18150be905f3152dbcff22120",
    "boolean2/zero/cohomology-local":
        "b1b0a674ffd35e259736dae4fbc9c75c08d680545cbfeba162650b5390753aee",
    "boolean2/zero/shapovalov":
        "8fa77a9fb8eb58287fbdcd4bb57c1fa3946357cb8c0fd962dc4c65f7da11ce8c",
    "boolean3/cohomology-flag":
        "0099242ac9dbd323579e2c94e5a8850d3eb853650063381620f00bb40cc1fbad",
    "boolean3/flags":
        "6136753c1dd46a602d1f2fecc61a521e4934436cb2804f437afe4d634b6e6e13",
    "boolean3/generic/aomoto":
        "2e953805b780440791b47e29257dc61c064ad58426907b36f8dbfc42366c7c58",
    "boolean3/generic/cohomology-aomoto":
        "d18e3c1f5fddd525d0b8b883d86cf68651a54824abe9d9e8e8da397e9652a821",
    "boolean3/generic/cohomology-ih":
        "5dc3e34b9eaa5cbc26e769f0663cb7c93ec8ade06c310f8b543081110e43184c",
    "boolean3/generic/cohomology-local":
        "8d65a76448f93b9341eee2aa3c48fb17d9b1f594a6ec276b0f6af617c0f075c1",
    "boolean3/generic/shapovalov":
        "a08ec34b75429e06d7b8845a9f86f50d3cde48823e71e3c33be81d8cbfbde9dd",
    "boolean3/os":
        "5ad4f5a32a0c95da2e128e9e42cfe3d1ee74f03620cc2ebebbace2d1fa82931a",
    "boolean3/zero/aomoto":
        "0585bdfd7a54156dd1aa3cbbd523474ff7525f51854640490c85dd3048fa2981",
    "boolean3/zero/cohomology-aomoto":
        "da028f736780f6c0726c579beaf6f9ceb5cca228a934a89c9f65b8dd438fa39b",
    "boolean3/zero/cohomology-ih":
        "f5463870b217931877e71fb4d3adb11a5a62792c90a419774592ce3fe502120b",
    "boolean3/zero/cohomology-local":
        "e49cc09243916a21b9b557807213b7f8a79e58592960a7156729607a6b24c301",
    "boolean3/zero/shapovalov":
        "a97cccfb1363b8095a48613372af96b665805bd93b353e28fc717ecf44c4f4e2",
    "c13/cohomology-flag":
        "0099242ac9dbd323579e2c94e5a8850d3eb853650063381620f00bb40cc1fbad",
    "c13/flags":
        "87591c4f57a5db4d68078907529202e8cab3b76759152c4190c9ce98308a5f2e",
    "c13/generic/aomoto":
        "8c947bdaa87019b640cb7c9cc3763c1820006b7b6b61a95678bf9b55aa60b8a8",
    "c13/generic/cohomology-aomoto":
        "d18e3c1f5fddd525d0b8b883d86cf68651a54824abe9d9e8e8da397e9652a821",
    "c13/generic/cohomology-ih":
        "5dc3e34b9eaa5cbc26e769f0663cb7c93ec8ade06c310f8b543081110e43184c",
    "c13/generic/cohomology-local":
        "8d65a76448f93b9341eee2aa3c48fb17d9b1f594a6ec276b0f6af617c0f075c1",
    "c13/generic/shapovalov":
        "91870e1615e9ff12fc607e98cc9c23a901aca2f3fba3e89d649eb97de67ce2f0",
    "c13/os":
        "705582db57736cf49085ed31f147aade9712bac22fa808fb18b42a1bfb37e743",
    "c13/zero/aomoto":
        "4a01e3f464f1a6e65d162dbde586efbf34839a657439f3b1a2d8bb7ec812d000",
    "c13/zero/cohomology-aomoto":
        "083e933966b35051428816270294ed611bde94d47a97ac97910897693aaf99af",
    "c13/zero/cohomology-ih":
        "f5463870b217931877e71fb4d3adb11a5a62792c90a419774592ce3fe502120b",
    "c13/zero/cohomology-local":
        "8f3b8ec65a0e814a0f62b690001d8ddbcad735eb720264e13f54fe8979b9cbe3",
    "c13/zero/shapovalov":
        "0cfc881dc40013c4945314f62a128adec8409e8e0332b798608bc7b5751029a0",
    "c14/cohomology-flag":
        "c1415f64d99c02ac69b0c7277e81c9edb1177620bafeb5593ac86b13c2e8baf2",
    "c14/flags":
        "92573d7464cfba5197b19ace83a0545bfe6b439fa75938468847ac09b388079d",
    "c14/generic/aomoto":
        "b034fef6492bb05104e61d1f80c0bf492c1e4cf3d3c8bdb8010619d232254657",
    "c14/generic/cohomology-aomoto":
        "4c3eebeb563a6046e15807be222dba1623db1c0b84b9347c875f83a63dc52ecc",
    "c14/generic/cohomology-ih":
        "ef60d53c2da40a8f062e0ddabaabd472d96b5e19b12a2095a6891f0f978524e9",
    "c14/generic/cohomology-local":
        "dc53507d644ab8eb60dfaab7673bb6c852507364d627e08cc4b8a64bce4ba512",
    "c14/generic/shapovalov":
        "b2ab6f36117e6fb6c80e2773d1b67f5f3409164db0e2c105bceb7f1b704a5f71",
    "c14/os":
        "8dbfda2fc93aad715708de470f2b2c7588389fbc9d6d7ac16aed694445ff6fc9",
    "c14/zero/aomoto":
        "3caf559c09ac14cd01955567f10ffd55cbdcf10db6050166dfe9ef00a919c3b2",
    "c14/zero/cohomology-aomoto":
        "d25cc8632392cc5947e86e492126258880b5f7d4fdcbf8821715320cf68fa3f1",
    "c14/zero/cohomology-ih":
        "241997640c35e43e96887e09102aac994af5e0d2b887c6f0eb3782eea5e58c4c",
    "c14/zero/cohomology-local":
        "a1f44e110e32884b9f07e8d74d6933a8df73c31d472a1e36f36505a0ce298f8a",
    "c14/zero/shapovalov":
        "951b04697f5fa0c54fd32ebef150218cd0b38db7e51c8968113258fb88bb800c",
    "empty/cohomology-flag":
        "beb14c88d2e60919cf4e61be6979db4f70be4a11eea983001fa5e91464b2b342",
    "empty/flags":
        "a80880f511525947ba99e4445aa278d07cce42994379948e47c23eeab739703d",
    "empty/generic/aomoto":
        "6281bda3d027f1205b167f519e5aca56350959bc916904b2a70e4ac08779b123",
    "empty/generic/cohomology-aomoto":
        "5d9599d37ac48e5ab269dab7eb18e4eec91a0a9ba3a1edc941307da96430227c",
    "empty/generic/cohomology-ih":
        "e91cfa76a4e87e2e7f0b0389f37317652c1822a18150be905f3152dbcff22120",
    "empty/generic/cohomology-local":
        "6216cb533dfcb32116b1dac2db9e6bcb7657a1e424ccf4460bf7dbb2bda9057f",
    "empty/generic/shapovalov":
        "d3210aa7ccf27e54ca936ee31c1a6c27f4750cf7292690ea29e1affee067f01e",
    "empty/os":
        "080ee949865f54c675b864d1ed788a067815d33d94b7cc8c3618daa51b6c64c2",
    "empty/zero/aomoto":
        "6281bda3d027f1205b167f519e5aca56350959bc916904b2a70e4ac08779b123",
    "empty/zero/cohomology-aomoto":
        "5d9599d37ac48e5ab269dab7eb18e4eec91a0a9ba3a1edc941307da96430227c",
    "empty/zero/cohomology-ih":
        "e91cfa76a4e87e2e7f0b0389f37317652c1822a18150be905f3152dbcff22120",
    "empty/zero/cohomology-local":
        "6216cb533dfcb32116b1dac2db9e6bcb7657a1e424ccf4460bf7dbb2bda9057f",
    "empty/zero/shapovalov":
        "d3210aa7ccf27e54ca936ee31c1a6c27f4750cf7292690ea29e1affee067f01e",
    "single/cohomology-flag":
        "562c5c0444eccc2c549091b965538fc43f36722450bfeecd9763c1c45fa0d7d3",
    "single/flags":
        "e59b244ed00ee773b50000623b4c035d4a109115166bce9c785f793fb615c4d5",
    "single/generic/aomoto":
        "11d2ad5525251ba76be4607b99e6547309982e1390af25afd3072437d2a6d152",
    "single/generic/cohomology-aomoto":
        "04a0afc17f75099baa46cc5e96627262c9577838cf93b07ac2fe1e207aec57a1",
    "single/generic/cohomology-ih":
        "981a6ae85255803003124485a640e9b402036d78f632e1b3885586411978d089",
    "single/generic/cohomology-local":
        "b298d5060cad798958a1d5350ee993636e471000d13ce69dd102d4baf937f083",
    "single/generic/shapovalov":
        "efffabd28f784f5ea359f7d7a002457faf20829cfc49758001c999440d55a6b9",
    "single/os":
        "8ccc20f12568650a026fa356ffdb7086d201a7fd2e192fd6d5f7c3738e4757aa",
    "single/zero/aomoto":
        "88ae4f97ce867ad57dce79e7ce58258fbb9dd765e3a3ab5a031f698994bdef6e",
    "single/zero/cohomology-aomoto":
        "535f8e3f9c58560d7d7d9bf96edc8a962d3eca1998485bdf1c8248fdee9c9668",
    "single/zero/cohomology-ih":
        "366b106a5834fc2aa7ae0e3acc33e2aa9104383b9991d2db56348dbb739b80cf",
    "single/zero/cohomology-local":
        "f954ba5c49cc2020f126a04daee518f623c4f8e8609e98f5aa6737fb04871580",
    "single/zero/shapovalov":
        "ceea526eb9f18f1694fdebb0b8077294b611dbf4d7b9c570ea5e7efb9b01b122",
    "three_lines/cohomology-flag":
        "6e76c0515c12b3855551397c82f865a2046e5eb85971ea75fbc949b3fe5ba48b",
    "three_lines/flags":
        "05931bc407b36bb4f09db0fdee6cf1185447fff563242410711ec12f31ad8498",
    "three_lines/generic/aomoto":
        "b001824f6abce6802f8402233d11ae774fbb68d61268ea30ef993f4eef4e7d70",
    "three_lines/generic/cohomology-aomoto":
        "cc3cbaa11ba1d4d5a486827b7718777300caa2c85ace545071d6364f5bdac40b",
    "three_lines/generic/cohomology-ih":
        "3a783714aedc8a0193a953effef7c8af15d2541a504c56792b0dd2fc90ded4e0",
    "three_lines/generic/cohomology-local":
        "47d42b3d3dfac013f6beefa2c06854b0e35f97a1970b0730b9a41c3fc0c84016",
    "three_lines/generic/shapovalov":
        "22f6be37e3d0675cd716e4e470e71ccee1bdf11fc3820165c8658acea3338c19",
    "three_lines/os":
        "85adc365c07ab683e49af0c3030b0c71700efbf5e0d981c4dd1b737899578986",
    "three_lines/zero/aomoto":
        "ff2b0a4232a44e8315bf1ef5aeaaf6ed0000a8e2bc9627ebdecccc96b23b4823",
    "three_lines/zero/cohomology-aomoto":
        "4eda8d885777c380752acdfc85988327f94977146c6636afbabe05407eb264a0",
    "three_lines/zero/cohomology-ih":
        "e91cfa76a4e87e2e7f0b0389f37317652c1822a18150be905f3152dbcff22120",
    "three_lines/zero/cohomology-local":
        "a8e24731715778edade7b0e73154e4c339be84b8ecb18d684e1f9eeaf9421fcc",
    "three_lines/zero/shapovalov":
        "b390c5e91256a7b3e514c7c992c945ca2f58e6e831e017d07ea6190ebd0e62d6",
}


def test_golden_presented_space_reports(tmp_path):
    reports = presented_space_reports(tmp_path)
    digests = {k: hashlib.sha256(v.encode()).hexdigest() for k, v in reports.items()}
    assert digests == PRESENTED_SPACE_DIGESTS


@pytest.mark.parametrize("rank", ["-2", "0"])
def test_dim_below_one_is_refused_where_it_is_parsed(files, capsys, rank):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", files["three.arr"], "--model", "local",
              "--exp", files["sl2.exp"], "--dim", rank])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dim" in captured.err and f"at least 1, got {int(rank)}" in captured.err


def test_dim_one_is_the_default_rank(files, capsys):
    argv = ["cohomology", files["three.arr"], "--model", "local", "--exp", files["sl2.exp"]]
    code, default = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--dim", "1") == (0, default)
    assert default["betti"]


# -- mutation fuzz -----------------------------------------------------------------

FUZZ_TOKENS = ("0", "1", "-1", "2", "-2", "1/2", "-3/2", "0.5", "1/0", "x",
               "dim", "H", "a", "g", "kappa", "#")

# every subcommand that reads an .arr, with its other inputs; "EXP" and
# "GRP" stand for the (possibly mutated) exponent and group files
FUZZ_COMMANDS = (
    ("lattice",), ("os",), ("flags",), ("aomoto", "--exp", "EXP"),
    ("check-quiver", "--exp", "EXP"), ("dual", "--exp", "EXP"),
    ("push-star", "--exp", "EXP"), ("push-shriek", "--exp", "EXP", "--level", "1"),
    ("ic-quiver", "--exp", "EXP"), ("shapovalov", "--exp", "EXP"),
    ("cohomology", "--model", "local", "--exp", "EXP"),
    ("cohomology", "--model", "ih", "--exp", "EXP"),
    ("equivariant", "--exp", "EXP", "--grp", "GRP", "--functor", "star"),
)


def mutate(rng, text):
    """One to three edits of the tokens of `text`: replace, delete or
    insert a token, or repeat a line."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        tokens = lines[rng.randrange(len(lines))]
        op = rng.randrange(4)
        if op == 0 and tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(FUZZ_TOKENS)
        elif op == 1 and tokens:
            del tokens[rng.randrange(len(tokens))]
        elif op == 2:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(FUZZ_TOKENS))
        else:
            lines.insert(rng.randrange(len(lines) + 1), list(tokens))
    return "\n".join(" ".join(t) for t in lines) + "\n"


def test_mutated_inputs_exit_cleanly(files, capsys):
    rng = random.Random(7)
    codes = Counter()
    for case in range(260):
        command = FUZZ_COMMANDS[case % len(FUZZ_COMMANDS)]
        texts = {"ARR": rng.choice((THREE_LINES_ARR, PARALLEL_ARR)),
                 "EXP": SL2_EXP, "GRP": SWAP_GRP}
        target = rng.choice(["ARR"] + [k for k in ("EXP", "GRP") if k in command])
        texts[target] = mutate(rng, texts[target])
        paths = {}
        for kind, text in texts.items():
            path = files["tmp"] / f"fuzz.{kind.lower()}"
            path.write_text(text)
            paths[kind] = str(path)
        argv = [command[0], paths["ARR"]] + [paths.get(x, x) for x in command[1:]]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, texts, code, err)
        assert "Traceback" not in err
        codes[code] += 1
    assert codes[0] and codes[2] and codes[3]


def test_main_reuses_its_parser_across_calls(files):
    """One process runs a usage error, a lattice and a cohomology report
    through `main`, which builds its parser once; each gives the exit code
    and output of a fresh interpreter running the same command."""
    import os
    import subprocess
    import sys

    from quiverarr import cli
    runs = [["lattice", files["three.arr"], "--no-such-option"],
            ["lattice", files["three.arr"]],
            ["cohomology", files["three.arr"], "--model", "local", "--exp", files["sl2.exp"]]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    codes = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        fresh = subprocess.run([sys.executable, "-m", "quiverarr.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, out.getvalue(), err.getvalue()) == \
            (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 0]
    assert cli._parser.cache_info().misses == 1
