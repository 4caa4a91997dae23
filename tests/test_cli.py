import argparse
import contextlib
import importlib.util
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import tiltbench
from tiltbench import algebra
from tiltbench.cli import main
from tiltbench.errors import NotAdmissible
from tiltbench.quiver import Quiver

CORPUS = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "corpus"))
# The directory holding the tiltbench this process imported; the child runs in
# CORPUS, where a relative PYTHONPATH entry would no longer point at it.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(tiltbench.__file__)))


def run_cli(*args, **kwargs):
    """Run the CLI in a child process with cwd CORPUS; ``kwargs`` go to
    ``subprocess.run`` (a timeout, a ``preexec_fn``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "tiltbench.cli", *args],
        capture_output=True,
        text=True,
        cwd=CORPUS,
        env=env,
        **kwargs,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_every_golden_is_byte_identical(tmp_path, monkeypatch):
    """The commands of corpus/regenerate.py, run in-process, rewrite every
    golden byte for byte."""
    spec = importlib.util.spec_from_file_location("regenerate", os.path.join(CORPUS, "regenerate.py"))
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    assert len(regenerate.COMMANDS) == len(os.listdir(os.path.join(CORPUS, "golden")))
    monkeypatch.chdir(CORPUS)
    for name, argv in regenerate.COMMANDS:
        out = tmp_path / name
        assert main(["-o", str(out), *argv]) == 0, name
        with open(os.path.join(CORPUS, "golden", name), "rb") as fh:
            assert out.read_bytes() == fh.read(), name


def test_alg_check_matches_golden():
    code, out, err = run_cli("alg", "check", "sec5_A.json")
    assert code == 0, err
    with open(os.path.join(CORPUS, "golden", "alg_check_sec5_A.json")) as fh:
        assert out == fh.read()


def test_alg_check_text_loewy():
    code, out, _ = run_cli("--format", "text", "alg", "check", "sec5_A.json")
    assert code == 0
    assert "P(1): 1 / 2 / 1" in out
    assert "P(2): 2 / {1,3}" in out
    assert "P(3): 3 / {2,4} / 3" in out
    assert "P(4): 4 / 3 / 4" in out


def test_nust_exit_zero_and_golden():
    code, out, _ = run_cli("nust", "fig1.json")
    assert code == 0
    with open(os.path.join(CORPUS, "golden", "nust_fig1.json")) as fh:
        assert out == fh.read()
    payload = json.loads(out)
    assert payload["E"] == ["2", "3"]


def test_tilting_verify_positive_and_negative():
    code, out, _ = run_cli("tilting", "verify", "fig1.json", "fig1_T.json")
    assert code == 0
    # doubled complex: build it on the fly
    from tiltbench import corpus as c
    from tiltbench import serialize

    t = c.fig1_tilting_complex()
    doubled = t.direct_sum(t)
    path = os.path.join(CORPUS, "_tmp_doubled.json")
    serialize.save(serialize.complex_to_dict(doubled, algebra_ref="fig1.json"), path)
    try:
        code2, out2, err2 = run_cli("tilting", "verify", "fig1.json", "_tmp_doubled.json")
        assert code2 == 1
        assert err2 == ""
        payload = json.loads(out2)
        assert payload["basic"] is False
    finally:
        os.remove(path)


def test_nustable_check_exit_zero():
    code, out, _ = run_cli("nustable", "check", "fig1.json", "fig1_T.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is True


def test_construct_deterministic_and_matches_golden():
    code1, out1, _ = run_cli(
        "tilting", "construct", "sec5_A.json", "--p", "1", "--q", "3,4", "-r", "1", "-s", "1"
    )
    code2, out2, _ = run_cli(
        "tilting", "construct", "sec5_A.json", "--p", "1", "--q", "3,4", "-r", "1", "-s", "1"
    )
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical across invocations
    with open(os.path.join(CORPUS, "golden", "sec5_T.json")) as fh:
        golden = fh.read()
    # the golden was produced with an algebra reference omitted (inline);
    # compare parsed structure except the algebra payload
    a, b = json.loads(out1), json.loads(golden)
    assert a["terms"] == b["terms"]
    assert a["diffs"] == b["diffs"]


def test_construct_precondition_exit_two():
    code, out, err = run_cli(
        "tilting", "construct", "sec5_A.json", "--p", "1", "--q", "2", "-r", "1", "-s", "1"
    )
    assert code == 2
    assert "precondition" in err


def test_construct_names_vertex_whose_nu_image_leaves_p(tmp_path):
    """On N(4,3) every vertex is nu-stable but sigma = (13)(24) moves P(1)
    out of P = P(1): a named precondition, not an internal error."""
    from tiltbench import corpus as c
    from tiltbench import serialize

    path = tmp_path / "n43.json"
    serialize.save(serialize.algebra_to_dict(c.kupisch_algebra([3, 3, 3, 3])), str(path))
    code, out, err = run_cli("tilting", "construct", str(path), "--p", "1", "-r", "1", "-s", "1")
    assert code == 2
    assert out == ""
    assert "precondition failed: add(P) = add(nu P)" in err
    assert "nu P(1) = P(3)" in err
    assert "route says" not in err and "Traceback" not in err


def test_stable_image_positive_and_not_concentrated():
    code, out, _ = run_cli("stable-image", "fig1.json", "fig1_T.json", "fig1_S1.json")
    assert code == 0
    payload = json.loads(out)
    assert payload["concentrated"] is True
    assert payload["hom_dimension"] == 1
    # P(1) as a module file: not concentrated
    from tiltbench import corpus as c
    from tiltbench import serialize
    from tiltbench.reps import projective

    p1 = projective(c.fig1_algebra(), "1")
    path = os.path.join(CORPUS, "_tmp_p1.json")
    serialize.save(serialize.module_to_dict(p1, algebra_ref="fig1.json"), path)
    try:
        code2, out2, err2 = run_cli("stable-image", "fig1.json", "fig1_T.json", "_tmp_p1.json")
        assert code2 == 1
        assert err2 == ""
        payload2 = json.loads(out2)
        assert payload2["concentrated"] is False
        assert sum(payload2["profile"]["1"]) == 2
    finally:
        os.remove(path)


def test_stable_image_of_a_module_that_violates_a_relation_exits_two(tmp_path):
    """A module file whose arrows make alpha*beta*gamma act as 1 is refused
    when it is read: exit 2 with "relation violated", and nothing on
    stdout."""
    path = tmp_path / "M.json"
    path.write_text(
        json.dumps(
            {
                "format": 1,
                "algebra": "fig1.json",
                "dims": {"1": 1, "2": 1, "3": 1},
                "arrows": {"alpha": [["1"]], "beta": [["1"]], "gamma": [["1"]]},
            }
        )
    )
    code, out, err = run_cli("stable-image", "fig1.json", "fig1_T.json", str(path))
    assert code == 2
    assert out == ""
    assert "relation violated" in err and "Traceback" not in err


def test_complex_whose_differentials_do_not_square_to_zero_exits_two(tmp_path):
    """Over fig1, P(3) -beta-> P(2) -alpha-> P(1) has d^2 = alpha*beta != 0.
    Every command that reads a complex refuses it: exit 2 with
    "differentials do not square to zero", no traceback and nothing on
    stdout."""
    from tiltbench import serialize
    from tiltbench.complexes import ProjComplex
    from tiltbench.quiver import path_from_arrows

    a = serialize.load_algebra(os.path.join(CORPUS, "fig1.json"))
    beta, alpha = (a.index[path_from_arrows(a.quiver, [name])] for name in ("beta", "alpha"))
    bad = ProjComplex(a, {-1: ["3"], 0: ["2"], 1: ["1"]}, {-1: [[{beta: 1}]], 0: [[{alpha: 1}]]})
    path = str(tmp_path / "d2.json")
    serialize.save(serialize.complex_to_dict(bad, algebra_ref="fig1.json"), path)
    for argv in (
        ["endalg", "fig1.json", path],
        ["tilting", "verify", "fig1.json", path],
        ["nustable", "check", "fig1.json", path],
        ["stable-image", "fig1.json", path, "fig1_S1.json"],
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, ""), (argv, err)
        assert "differentials do not square to zero" in err and "Traceback" not in err, (argv, err)


def test_parse_error_exit_two(tmp_path):
    code, out, err = run_cli("alg", "check", "no_such_file.json")
    assert code == 2
    # well-formed JSON of the wrong shape is bad input, not a negative verdict
    fig1 = os.path.join(CORPUS, "fig1.json")
    with open(fig1) as fh:
        path_int = json.load(fh)
    path_int["relations"][0][0]["path"] = 5
    # two terms on one path that cancel leave no relation
    cancelled = json.loads(json.dumps(path_int))
    cancelled["relations"][0] = [{"coeff": c, "path": ["alpha", "beta"]} for c in ("1", "-1")]
    with open(os.path.join(CORPUS, "golden", "sec5_T.json")) as fh:
        r_str = json.load(fh)
    r_str["provenance"]["r"] = "x"
    alg_check = ["alg", "check"]
    recheck = ["recheck", "--alg", "fig1.json"]
    cases = [
        ("array.json", [1, 2], alg_check, "algebra"),
        ("quiver_int.json", {"format": 1, "quiver": 5}, alg_check, "quiver"),
        ("no_quiver.json", {"format": 1}, alg_check, "missing field 'quiver'"),
        ("path_int.json", path_int, alg_check, "relations[0][0].path"),
        ("cancelled.json", cancelled, alg_check, "relation has no nonzero terms"),
        (
            "terms_int.json",
            {"format": 1, "algebra": fig1, "terms": 5},
            ["tilting", "verify", "fig1.json"],
            "terms",
        ),
        (
            "arrows_int.json",
            {"format": 1, "algebra": fig1, "dims": {"1": 1}, "arrows": 5},
            ["stable-image", "fig1.json", "fig1_T.json"],
            "arrows",
        ),
        ("report_array.json", [1, 2], recheck, "report"),
        ("no_cpx.json", {"kind": "stable_image"}, recheck, "--cpx"),
        ("r_str.json", r_str, ["recheck", "--alg", "sec5_A.json"], "provenance"),
        (
            "format_2.json",
            {"format": 2, "algebra": fig1, "dims": {"1": 1}, "arrows": {}},
            ["stable-image", "fig1.json", "fig1_T.json"],
            "module.format",
        ),
        # a degree key that is no integer, a dimension that is no count, and
        # an arrow matrix of another shape than dims give
        (
            "terms_key.json",
            {"format": 1, "algebra": fig1, "terms": {"x": ["1"]}},
            ["tilting", "verify", "fig1.json"],
            "terms.x",
        ),
        (
            "diffs_key.json",
            {"format": 1, "algebra": fig1, "terms": {"0": ["1"]}, "diffs": {"x": []}},
            ["tilting", "verify", "fig1.json"],
            "diffs.x",
        ),
        # a differential with fewer rows than its source term, and one with a
        # row shorter than its target term
        (
            "diffs_few_rows.json",
            {
                "format": 1,
                "algebra": fig1,
                "terms": {"-1": ["2", "2", "3"], "0": ["1"]},
                "diffs": {"-1": [[[{"coeff": "1", "path": ["alpha"]}]]]},
            },
            ["tilting", "verify", "fig1.json"],
            "diffs.-1: 1 rows, but degree -1 has 3 summands",
        ),
        (
            "diffs_short_row.json",
            {
                "format": 1,
                "algebra": fig1,
                "terms": {"-1": ["2", "2", "3"], "0": ["1"]},
                "diffs": {"-1": [[[{"coeff": "1", "path": ["alpha"]}]], [], [[]]]},
            },
            ["tilting", "verify", "fig1.json"],
            "diffs.-1[1]: 0 entries, but degree 0 has 1 summands",
        ),
        (
            "dims_negative.json",
            {"format": 1, "algebra": fig1, "dims": {"1": -1}, "arrows": {}},
            ["stable-image", "fig1.json", "fig1_T.json"],
            "dims.1",
        ),
        (
            "dims_word.json",
            {"format": 1, "algebra": fig1, "dims": {"1": "abc"}, "arrows": {}},
            ["stable-image", "fig1.json", "fig1_T.json"],
            "dims.1",
        ),
        (
            "arrow_shape.json",
            {"format": 1, "algebra": fig1, "dims": {"1": 1, "2": 1}, "arrows": {"alpha": [["1", "2"]]}},
            ["stable-image", "fig1.json", "fig1_T.json"],
            "arrows.alpha",
        ),
        # only "p" and "p/q" scalars are read: an exponent is never expanded
        (
            "exponent.json",
            {"format": 1, "algebra": fig1, "dims": {"1": 1, "2": 1}, "arrows": {"alpha": [["1e100000"]]}},
            ["stable-image", "fig1.json", "fig1_T.json"],
            "arrows.alpha[0][0]",
        ),
    ]
    unknown_dim = tmp_path / "dims_unknown_vertex.json"
    unknown_dim.write_text(json.dumps({"format": 1, "algebra": fig1, "dims": {"1": 1, "9": 1}, "arrows": {}}))
    # json refuses both files with a ValueError that does not name them
    long_int = tmp_path / "long_int.json"
    long_int.write_text(
        json.dumps({"format": 1, "algebra": fig1, "dims": {"1": 1, "2": 1}, "arrows": {"alpha": [["0"]]}}).replace(
            '"0"', "9" * 5000
        )
    )
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps({"format": 1, "quiver": {"vertices": ["1"]}})[:-5])
    argvs = []
    for name, payload, argv, field in cases:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        argvs.append((argv + [str(path)], field))
    # labels that are no vertex, and files of the wrong kind, which lack
    # the terms of a complex or the dims of a module
    argvs += [
        (["tilting", "construct", "sec5_A.json", "--p", "9"], "labels of P are vertices (no vertex '9')"),
        (["tilting", "construct", "sec5_A.json", "--q", "9"], "labels of Q are vertices (no vertex '9')"),
        # a repeated label would give a non-basic complex
        (["tilting", "construct", "sec5_A.json", "--p", "1,1"], "labels of P are distinct (vertex '1' is repeated)"),
        (["tilting", "construct", "sec5_A.json", "--q", "3,3"], "labels of Q are distinct (vertex '3' is repeated)"),
        (
            ["tilting", "construct", "sec5_A.json", "--p", "1", "--q", "3,4,3"],
            "labels of Q are distinct (vertex '3' is repeated)",
        ),
        (["endalg", "fig1.json", "fig1_S1.json"], "missing field 'terms'"),
        (["stable-image", "fig1.json", "fig1_T.json", "fig1.json"], "missing field 'dims'"),
        (["stable-image", "fig1.json", "fig1_T.json", str(unknown_dim)], "no vertex '9'"),
        (["stable-image", "fig1.json", "fig1_T.json", str(long_int)], str(long_int)),
        (["alg", "check", str(truncated)], str(truncated)),
    ]
    for argv, field in argvs:
        code, out, err = run_cli(*argv)
        assert code == 2, (argv, err)
        assert "Traceback" not in err
        assert field in err, (argv, err)


def test_recheck_golden_reports():
    """recheck re-derives every golden report from its inputs."""
    fig1_t = ["--alg", "fig1.json", "--cpx", "fig1_T.json"]
    sec5_t = ["--alg", "sec5_A.json", "--cpx", "golden/sec5_T.json"]
    cases = [
        ("golden/alg_check_fig1.json", ["--alg", "fig1.json"]),
        ("golden/alg_check_fig2.json", ["--alg", "fig2.json"]),
        ("golden/alg_check_sec5_A.json", ["--alg", "sec5_A.json"]),
        ("golden/nust_fig1.json", ["--alg", "fig1.json"]),
        ("golden/nust_sec5_A.json", ["--alg", "sec5_A.json"]),
        ("golden/tilting_verify_fig1_T.json", fig1_t),
        ("golden/nustable_check_fig1_T.json", fig1_t),
        ("golden/endalg_fig1_T.json", fig1_t),
        ("golden/sec5_T.json", ["--alg", "sec5_A.json"]),
        ("golden/tilting_verify_sec5_T.json", sec5_t),
        ("golden/nustable_check_sec5_T.json", sec5_t),
        ("golden/endalg_sec5_T.json", sec5_t),
        ("golden/stable_image_fig1_S1.json", fig1_t + ["--mod", "fig1_S1.json"]),
    ]
    assert len(cases) == len(os.listdir(os.path.join(CORPUS, "golden")))
    for report, extra in cases:
        code, out, err = run_cli("recheck", report, *extra)
        assert code == 0, (report, err, out)
        assert json.loads(out)["matches"] is True


def test_recheck_detects_tampering(tmp_path):
    with open(os.path.join(CORPUS, "golden", "nust_fig1.json")) as fh:
        payload = json.load(fh)
    payload["E"] = ["1"]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    code, out, err = run_cli("recheck", str(bad), "--alg", "fig1.json")
    assert code == 1
    assert err == ""
    assert json.loads(out)["matches"] is False


def test_main_in_process_exit_codes():
    alg = os.path.join(CORPUS, "fig1.json")
    cpx = os.path.join(CORPUS, "fig1_T.json")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["nustable", "check", alg, cpx]) == 0


def test_main_reuses_its_parser_without_carrying_options_over(monkeypatch):
    """Repeated in-process main calls print what fresh processes print, and
    only the first call builds argument parsers."""
    monkeypatch.chdir(CORPUS)
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage at
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    construct = ["tilting", "construct", "sec5_A.json", "--p", "1"]
    argvs = [
        ["--format", "text", "alg", "check", "sec5_A.json"],
        ["alg", "check", "sec5_A.json"],
        construct + ["--q", "3,4", "-r", "1", "-s", "1"],
        ["tilting", "construct"],
        construct,  # the defaults of --q, -r and -s
    ]
    codes, child_codes = [], []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(("SystemExit", exc.code))
        if len(codes) == 1:
            built.clear()
        child_code, child_out, child_err = run_cli(*argv)
        child_codes.append(child_code)
        assert (out.getvalue(), err.getvalue()) == (child_out, child_err), argv
    assert codes == [0, 0, 0, ("SystemExit", 2), 0]
    assert child_codes == [0, 0, 0, 2, 0]
    assert built == []


def test_max_path_len_below_one_exits_two_and_one_is_enough_without_arrows(tmp_path):
    """A quiver with no arrows has no path of length 1, so --max-path-len 1
    suffices for it; a bound below 1 is refused with exit 2."""
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps({"format": 1, "quiver": {"vertices": ["1", "2"], "arrows": []}, "relations": []}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["--max-path-len", "1", "alg", "check", str(path)]) == 0
    assert json.loads(out.getvalue())["dim"] == 2
    for bad in ("0", "-3"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["--max-path-len", bad, "alg", "check", str(path)]) == 2
        assert err.getvalue() == f"error: max_path_len must be at least 1, got {bad}\n"
        assert out.getvalue() == ""


def test_non_admissible_algebra_exits_two_in_bounded_memory(tmp_path):
    """sec5_A without its first relation (alphap alpha) is not admissible.
    Each length eliminates over at most 10 normal-form columns, so giving up
    at length 14 stays within 512 MB of address space and 15 s."""
    with open(os.path.join(CORPUS, "sec5_A.json")) as fh:
        payload = json.load(fh)
    del payload["relations"][0]
    path = tmp_path / "sec5_A_not_admissible.json"
    path.write_text(json.dumps(payload))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    code, out, err = run_cli(
        "--max-path-len", "14", "alg", "check", str(path), preexec_fn=limit_memory, timeout=15
    )
    assert code == 2, err
    assert "normal-form paths still survive" in err


def _main_in_process(*argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_the_column_cap_bounds_normal_forms_times_arrows(tmp_path, monkeypatch):
    """Two loops at one vertex and no relations: every path is a normal
    form, so with the cap at 64 the 128 columns of length 7 exceed it, in
    the library and through the CLI, which exits 2."""
    monkeypatch.setattr(algebra, "COLUMN_CAP", 64)
    q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    message = "more than 64 normal-form columns at length 7"
    try:
        algebra.build_path_algebra(q, [])
    except NotAdmissible as exc:
        assert str(exc) == message
    else:
        raise AssertionError("two free loops were admitted")
    arrows = [{"name": a, "from": "1", "to": "1"} for a in ("x", "y")]
    path = tmp_path / "two_loops.json"
    path.write_text(json.dumps({"format": 1, "quiver": {"vertices": ["1"], "arrows": arrows}, "relations": []}))
    assert _main_in_process("alg", "check", str(path)) == (2, "", f"error: {message}\n")


def test_a_non_admissible_algebra_with_few_normal_forms_stays_under_the_column_cap(tmp_path, monkeypatch):
    """sec5_A without its first relation has at most 10 columns at each
    length, so with the cap at 50, where 68 raw paths of length 6 used to
    exceed it, it still ends on the max_path_len bound, in under a second."""
    monkeypatch.setattr(algebra, "COLUMN_CAP", 50)
    with open(os.path.join(CORPUS, "sec5_A.json")) as fh:
        payload = json.load(fh)
    del payload["relations"][0]
    path = tmp_path / "sec5_A_not_admissible.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = _main_in_process("alg", "check", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: normal-form paths still survive at length 30; raise max_path_len or fix the relations\n"


# replacement values of the mutation test; _DELETE removes the node instead
_DELETE = object()
_MUTATIONS = [None, True, 0, -1, 40, 2.5, "", "x", "0", "-1", "1/0", [], [1], {}, {"a": 1}, _DELETE]
# file -> commands run on its mutants, the mutant's path substituted for FILE
_MUTATED_COMMANDS = {
    "fig1.json": [["alg", "check", "FILE"], ["nust", "FILE"]],
    "fig1_T.json": [
        ["tilting", "verify", "fig1.json", "FILE"],
        ["nustable", "check", "fig1.json", "FILE"],
        ["endalg", "fig1.json", "FILE"],
    ],
    "fig1_S1.json": [["stable-image", "fig1.json", "fig1_T.json", "FILE"]],
}
# the commands above that compute a verdict, the only ones that may exit 1
_VERDICT_COMMANDS = {"tilting", "nustable", "stable-image"}


def _json_nodes(value, path=()):
    """The paths (tuples of keys and indices) of every node below value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return []
    out = []
    for key, child in children:
        out.append(path + (key,))
        out.extend(_json_nodes(child, path + (key,)))
    return out


def _mutated(payload, path, value):
    payload = json.loads(json.dumps(payload))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return payload


def test_mutated_corpus_files_exit_cleanly(tmp_path, monkeypatch):
    """Corpus files with one JSON node replaced or deleted: every run exits
    0, 1 or 2 with no exception escaping ``main``, and exit 1 comes only from
    a command that computed a verdict and reported it.  Every coefficient set
    to "1/0" is among the runs, then a seeded sample of the other mutants."""
    monkeypatch.chdir(CORPUS)
    originals = {}
    for name in _MUTATED_COMMANDS:
        with open(name) as fh:
            originals[name] = json.load(fh)
    cases = [
        (name, path, value)
        for name, payload in originals.items()
        for path in _json_nodes(payload)
        for value in _MUTATIONS
    ]
    pinned = [case for case in cases if case[1][-1] == "coeff" and case[2] == "1/0"]
    rng = random.Random(0)
    sample = pinned + rng.sample([case for case in cases if case not in pinned], 200 - len(pinned))
    for n, (name, path, value) in enumerate(sample):
        mutant = tmp_path / f"{n}_{name}"
        mutant.write_text(json.dumps(_mutated(originals[name], path, value)))
        argv = [str(mutant) if x == "FILE" else x for x in rng.choice(_MUTATED_COMMANDS[name])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--max-path-len", "12", *argv])
        where = (name, path, value, argv, err.getvalue())
        assert code in (0, 1, 2), where
        if code == 1:
            assert argv[0] in _VERDICT_COMMANDS, where
            json.loads(out.getvalue())
