import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qswindows import cli
from qswindows.errors import InternalInconsistencyError

TORUS22 = {"root_datum": {"builtin": "torus", "rank": 1},
           "weights": [[1], [1], [-1], [-1]]}
GL2 = {"root_datum": {"builtin": "gl", "n": 2},
       "weights": [[3, 0], [2, 1], [1, 2], [0, 3], [-3, 0], [-2, -1], [-1, -2], [0, -3]]}
BAD = {"root_datum": {"builtin": "torus", "rank": 1}, "weights": [[1], [1], [-1]]}
FLOAT_WEIGHTS = {"root_datum": {"builtin": "torus", "rank": 1}, "weights": [[1.5], [-1.5]]}
STRING_WEIGHTS = {"root_datum": {"builtin": "torus", "rank": 1}, "weights": "abc"}
STRING_FLAG = dict(TORUS22, assert_generic="yes")
FLOAT_PAIRING = dict(TORUS22, root_datum={"rank": 1, "pairing": [1.5]})
# pairings that are no inner product: singular, or not symmetric
RANK2 = {"weights": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]}
ZERO_PAIRING = dict(TORUS22, root_datum={"rank": 1, "pairing": [[0]]})
SINGULAR_PAIRING = dict(RANK2, root_datum={"rank": 2, "pairing": [[1, 1], [1, 1]]})
SKEW_PAIRING = dict(RANK2, root_datum={"rank": 2, "pairing": [[2, 1], [0, 1]]})
HALF_SKEW_PAIRING = dict(RANK2, root_datum={"rank": 2, "pairing": [[1, "1/2"], ["-1/2", 1]]})
# a root that pairs to 1 with the invariant vector (1): wall points would
# change dominance
ROOT_OFF_INVARIANTS = dict(TORUS22, assert_generic=True, root_datum={
    "rank": 1, "pairing": [1], "roots": [[1], [-1]], "positive_roots": [[1]]})
# a rank-one torus whose window box holds 10^30 lattice points
HUGE = {"root_datum": {"builtin": "torus", "rank": 1},
        "weights": [[10 ** 30], [-10 ** 30]]}
# GL(8) on std + dual: the zonotope is the 8-cube, and the ridges of one of
# its facets would take C(128, 7) vertex subsets
GL8 = {"root_datum": {"builtin": "gl", "n": 8},
       "weights": [[s * (j == i) for j in range(8)] for i in range(8) for s in (1, -1)]}
# GL(4) on std + dual: eta = -2 at lambda = (0, 0, 0, 1) empties the window polytope
GL4 = {"root_datum": {"builtin": "gl", "n": 4},
       "weights": [[s * (j == i) for j in range(4)] for i in range(4) for s in (1, -1)]}
# GL(3) roots with "positive" roots e1-e2, e2-e3, e3-e1: they split the root
# set, but the swap of 1 and 2 sends e2-e3 to e1-e3, which is negative
GL3_CYCLIC = {"root_datum": {
    "rank": 3, "pairing": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "roots": [[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1], [-1, 0, 1], [1, 0, -1]],
    "positive_roots": [[1, -1, 0], [0, 1, -1], [-1, 0, 1]],
    "simple_reflections": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]]]},
    "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]]}
NUMBER_DATUM = dict(TORUS22, root_datum=1)
EMPTY_PAIRING = dict(TORUS22, root_datum={"rank": 1, "pairing": []})
SHORT_PAIRING = dict(RANK2, root_datum={"rank": 2, "pairing": [1, 0, 1]})
RANK3 = {"root_datum": {"builtin": "torus", "rank": 3},
         "weights": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1], [1, 1, 1], [-1, -1, -1]]}


@pytest.fixture
def inputs(tmp_path):
    paths = {}
    for name, payload in (("torus22", TORUS22), ("gl2", GL2), ("bad", BAD), ("rank3", RANK3),
                          ("float_weights", FLOAT_WEIGHTS), ("string_weights", STRING_WEIGHTS),
                          ("list_document", [TORUS22]), ("string_flag", STRING_FLAG),
                          ("float_pairing", FLOAT_PAIRING), ("zero_pairing", ZERO_PAIRING),
                          ("singular_pairing", SINGULAR_PAIRING), ("skew_pairing", SKEW_PAIRING),
                          ("half_skew_pairing", HALF_SKEW_PAIRING),
                          ("root_off_invariants", ROOT_OFF_INVARIANTS), ("huge", HUGE),
                          ("gl8", GL8), ("gl4", GL4), ("gl3_cyclic", GL3_CYCLIC),
                          ("number_datum", NUMBER_DATUM), ("empty_pairing", EMPTY_PAIRING),
                          ("short_pairing", SHORT_PAIRING)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    (tmp_path / "not_json.json").write_text("{")
    paths["not_json"] = str(tmp_path / "not_json.json")
    paths["missing"] = str(tmp_path / "missing.json")
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_window_subcommand(inputs, capsys):
    code, out, _ = run(capsys, "window", "--input", inputs["torus22"], "--delta", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["chars"] == [[0], [1]]
    # a negative rational vector may follow the flag or be joined with "="
    code, joined, _ = run(capsys, "window", "--input", inputs["gl2"], "--delta=-1/4,-1/4")
    assert code == 0
    assert len(json.loads(joined)["chars"]) == 12
    code, separate, _ = run(capsys, "window", "--input", inputs["gl2"], "--delta", "-1/4,-1/4")
    assert code == 0
    assert separate == joined


def test_wallcross_subcommand(inputs, capsys):
    code, out, _ = run(capsys, "wallcross", "--input", inputs["torus22"],
                       "--delta", "1/2", "--delta2", "3/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["common"] == [[1]]
    (face,) = payload["faces"]
    assert face["beta_plus"] == [2]
    assert face["images"] == [[2]]


def test_complex_subcommand(inputs, capsys):
    code, out, _ = run(capsys, "complex", "--input", inputs["torus22"],
                       "--delta", "1/2", "--delta2", "3/2", "--chi", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == {"0": [[0]], "1": [[1], [1]], "2": [[2]]}
    assert payload["exact"] is True


def test_complex_refuses_a_character_of_the_wrong_length(inputs, capsys):
    code, out, err = run(capsys, "complex", "--input", inputs["gl2"],
                         "--delta", "0,0", "--delta2", "1,1", "--chi", "1")
    assert code == 2 and out == "" and "point (1) has 1 entries, not 2" in err


def test_mutate_subcommand(inputs, capsys):
    code, out, _ = run(capsys, "mutate", "--input", inputs["torus22"],
                       "--delta", "1/2", "--delta2", "3/2", "--steps", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == 2
    assert payload["trace"][0] == payload["trace"][-1]


def test_faces_subcommand(inputs, capsys):
    code, out, _ = run(capsys, "faces", "--input", inputs["torus22"], "--delta", "1")
    assert code == 0
    payload = json.loads(out)
    stats = sorted((f["d_plus"], f["beta_plus"]) for f in payload["faces"])
    assert stats == [(2, [-2]), (2, [2])]
    code, out, _ = run(capsys, "faces", "--input", inputs["torus22"],
                       "--delta", "1", "--face", "1")
    assert code == 0
    assert len(json.loads(out)["faces"]) == 1


def test_cy_subcommand(capsys):
    code, out, _ = run(capsys, "cy", "--a", "1,1,1,1,1", "--d", "5", "--twist", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["arrangement"] == "Z"
    assert payload["window_size"] == 6
    assert payload["d_plus"] == 6 and payload["d_minus"] == 2
    assert payload["twist"]["twist_word_length"] == 6


def test_groupoid_subcommand(inputs, capsys):
    code, out, _ = run(capsys, "groupoid", "--input", inputs["torus22"],
                       "--path", "x(1,+);t(1);x(2,-)")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_form"] == []
    assert payload["net_translation"] == "1"


def test_determinism(inputs, capsys):
    outs = []
    for threads in ("1", "4"):
        _, out, _ = run(capsys, "wallcross", "--input", inputs["gl2"],
                        "--delta", "0,0", "--delta2", "1,1", "--seed", "5",
                        "--threads", threads)
        outs.append(out)
    assert outs[0] == outs[1]


def test_package_error_exits_one(inputs, capsys, monkeypatch):
    """A package error that is not an input error is the program's fault:
    one ``error:`` line on stderr and exit 1."""
    def fail(args):
        raise InternalInconsistencyError("boom")
    monkeypatch.setitem(cli.HANDLERS, "window", fail)
    assert run(capsys, "window", "--input", inputs["torus22"], "--delta", "1/2") == (
        1, "", "error: boom\n")


def test_error_codes(inputs, capsys):
    # rationals are p/q strings: no zero denominator, decimal or digit separator
    for delta in ("1/0", "0.5", "1_0/3"):
        code, out, err = run(capsys, "window", "--input", inputs["torus22"], "--delta", delta)
        assert code == 2 and out == "" and "bad rational" in err, delta
    code, _, err = run(capsys, "window", "--input", inputs["torus22"], "--delta", "1")
    assert code == 2 and "point (1) lies on the wall" in err and "offset 1" in err
    assert "Fraction(" not in err
    code, _, err = run(capsys, "wallcross", "--input", inputs["torus22"],
                       "--delta=-1/2", "--delta2=3/2")
    assert code == 2 and "(-1/2) and (3/2) are at distance 2, not 1" in err
    assert "Fraction(" not in err
    # on GL(2) the errors name the ambient points given, not invariant coordinates
    code, _, err = run(capsys, "window", "--input", inputs["gl2"], "--delta=1/2,1/2")
    assert code == 2 and "point (1/2, 1/2) lies on the wall" in err and "offset 1/2" in err
    code, _, err = run(capsys, "wallcross", "--input", inputs["gl2"],
                       "--delta=1/4,1/4", "--delta2=9/4,9/4")
    assert code == 2 and "(1/4, 1/4) and (9/4, 9/4) are at distance 2, not 1" in err
    code, _, err = run(capsys, "window", "--input", inputs["gl2"], "--delta=1,0")
    assert code == 2 and "point (1, 0) does not lie in the invariant subspace" in err
    code, out, err = run(capsys, "window", "--input", inputs["gl2"], "--delta", "1/2")
    assert (code, out, err) == (2, "", "input error: pass ambient coordinates, "
                                "not invariant ones\n")
    code, _, err = run(capsys, "rep", "--input", inputs["bad"])
    assert code == 2 and "quasi-symmetric" in err
    code, _, err = run(capsys, "window", "--input", inputs["torus22"])
    assert code == 2
    code, _, err = run(capsys, "cy", "--a", "1,1", "--d", "3")
    assert code == 2 and "Calabi-Yau" in err
    # a point, crossing or translation with the wrong number of fields
    for argv in (("window", "--delta", "1/3,1/3"),
                 ("wallcross", "--delta", "1/2", "--delta2", "3/2,1"),
                 ("faces", "--delta", "1/3,2"),
                 ("groupoid", "--path", "x(1,+)", "--start", "1/3,1/3"),
                 ("groupoid", "--path", "x(1,+);t(1,2)"),
                 ("groupoid", "--path", "x(0)"), ("groupoid", "--path", "x(0,+,1)")):
        code, out, err = run(capsys, *argv, "--input", inputs["torus22"])
        assert code == 2 and out == "", argv
        assert err.startswith("input error: ") and err.count("\n") == 1, argv
    # nothing is coerced: a malformed document exits 2 with a one-line message
    for name in ("float_weights", "string_weights", "list_document", "string_flag",
                 "float_pairing"):
        code, out, err = run(capsys, "rep", "--input", inputs[name])
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
    # a pairing must be symmetric and nonsingular; the message names its entries
    for name, message in (
            ("zero_pairing", "pairing with rows (0) is singular"),
            ("singular_pairing", "pairing with rows (1, 1), (1, 1) is singular"),
            ("skew_pairing", "pairing is not symmetric: entry (2, 1) is 0 but entry (1, 2) is 1"),
            ("half_skew_pairing",
             "pairing is not symmetric: entry (2, 1) is -1/2 but entry (1, 2) is 1/2")):
        assert run(capsys, "rep", "--input", inputs[name]) == (2, "", f"input error: {message}\n")
    # faces are read at W-invariant points only
    code, out, err = run(capsys, "faces", "--input", inputs["gl2"], "--delta", "1/3,2/3")
    assert code == 2 and out == "" and "does not lie in the invariant subspace" in err
    code, out, err = run(capsys, "rep", "--input", inputs["root_off_invariants"])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "root (-1) pairs to -1 with the W-invariant vector (1), not to 0" in err
    # a bad --face is an input error on any subcommand, not a traceback
    for command in ("rep", "faces", "verify"):
        code, out, err = run(capsys, command, "--face", "a", "--input", inputs["torus22"])
        assert (code, out, err) == (2, "", "input error: bad integer vector 'a'\n")
    # integers are digits with an optional minus sign, counts are not negative
    halves = ("--delta", "1/2", "--delta2", "3/2")
    for argv in (("complex", *halves, "--chi", "0_0"), ("complex", *halves, "--chi", "+0"),
                 ("arrangement", "--box", "0_1"), ("arrangement", "--box", "a"),
                 ("arrangement", "--box", "-1"), ("mutate", *halves, "--steps", "+1"),
                 ("mutate", *halves, "--steps", "-1"), ("verify", "--seed", "1_0"),
                 ("rep", "--threads", "+1"), ("rep", "--face", "0_1"),
                 ("groupoid", "--path", "x(1,+);t(+1)"),
                 ("cy", "--a", "1,1,1,1,1", "--d", "5", "--twist", "1_0"),
                 ("cy", "--a", "1,1,1,1,+1", "--d", "5"), ("cy", "--a", "1,1,1,1,1", "--d", "5.0")):
        code, out, err = run(capsys, *argv, "--input", inputs["torus22"])
        assert code == 2 and out == "", argv
        assert err.startswith("input error: bad ") and err.count("\n") == 1, argv
    # a usage error is one line too, not the argparse usage block
    for argv in (("bogus",), ("window", "--direction", "up"), ("window", "--format", "pdf"),
                 ("rep", "--nope")):
        code, out, err = run(capsys, *argv, "--input", inputs["torus22"])
        assert code == 2 and out == "", argv
        assert err.startswith("input error: ") and err.count("\n") == 1, argv
    for argv in (("arrangement", "--box", " 2 "), ("mutate", *halves, "--steps", "0"),
                 ("complex", *halves, "--chi", " 0")):
        assert run(capsys, *argv, "--input", inputs["torus22"])[0] == 0, argv
    # a lattice scan over a huge box is refused before it starts
    code, out, err = run(capsys, "window", "--input", inputs["huge"], "--delta", "1/2")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "lattice scan of a box of 1000000000000000000000000000000 points" in err
    # so is a subset enumeration beyond the subset limit, well within 10 s
    start = time.perf_counter()
    code, out, err = run(capsys, "rep", "--input", inputs["gl8"])
    assert time.perf_counter() - start < 10
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("unsupported: enumeration of 94525795200 subsets exceeds the limit")
    # so is a wall enumeration over a huge box, which never finished before
    start = time.perf_counter()
    code, out, err = run(capsys, "arrangement", "--input", inputs["torus22"],
                         "--box", "1000000000000")
    assert time.perf_counter() - start < 10
    assert (code, out, err) == (2, "", "unsupported: enumeration of 1000000000001 walls "
                                "exceeds the limit 1000000\n")
    code, out, err = run(capsys, "groupoid", "--input", inputs["torus22"], "--path", "x(1/3,+)")
    assert (code, out, err) == (2, "", "input error: 1/3 is not a wall of this arrangement\n")
    # a crossing must cross exactly its wall from the current point
    for name, path, message in (
            ("torus22", "x(1,+);x(0,+)", "x(0,+) does not cross the wall at 0 from 3/2"),
            ("torus22", "x(1,+);x(1,+)", "x(1,+) does not cross the wall at 1 from 3/2"),
            ("gl2", "x(1/2,+);x(-1/2,+)", "x(-1/2,+) does not cross the wall at -1/2 from 1")):
        code, out, err = run(capsys, "groupoid", "--input", inputs[name], "--path", path)
        assert (code, out, err) == (2, "", f"input error: {message}\n")
    # that check reads the walls make_path records, so it runs once every
    # chunk is parsed: of the two faults here the later one is named
    code, out, err = run(capsys, "groupoid", "--input", inputs["torus22"],
                         "--path", "x(1,+);x(0,+);x(1/3,+)")
    assert (code, out, err) == (2, "", "input error: 1/3 is not a wall of this arrangement\n")
    # an empty window polytope names the slab that empties it
    code, out, err = run(capsys, "rep", "--input", inputs["gl4"])
    assert (code, out, err) == (2, "", "input error: the window polytope is empty: "
                                "eta = -2 < 0 at lambda = (0, 0, 0, 1)\n")
    # simple reflections must permute the positive roots other than their own
    code, out, err = run(capsys, "rep", "--input", inputs["gl3_cyclic"])
    assert (code, out, err) == (2, "", "input error: a simple reflection does not permute "
                                "the other positive roots\n")
    # the input suite without --input is an input error, not a FAIL row
    code, out, err = run(capsys, "verify", "--suites", "input")
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and err.count("\n") == 1
    # a character that does not leave the window is named in p/q form
    code, out, err = run(capsys, "complex", "--input", inputs["torus22"],
                         "--delta=1/2", "--delta2=3/2", "--chi=9")
    assert (code, out, err) == (2, "", "input error: (9) does not leave the window "
                                "across this wall\n")
    # every path DSL refusal, each before make_path runs: a parse fault is
    # named before a crossing fault, and the first parse fault is named
    for name, argv, message in (
            ("torus22", (), 'input error: --path is required, e.g. "x(1,+);t(1)"'),
            ("rank3", ("--path", "x(1,+)"), "unsupported: the path DSL is rank-one only"),
            ("torus22", ("--path", "x(1,+)", "--start", "1"),
             "input error: --start must be off the walls"),
            ("torus22", ("--path", "x1"), "input error: bad path chunk 'x1'"),
            ("torus22", ("--path", "x(1,*)"), "input error: bad crossing direction '*'"),
            ("torus22", ("--path", "t(1)"),
             "input error: a path starting with a translation needs --start"),
            ("torus22", ("--path", "t(1);x(1/3,+)"),
             "input error: a path starting with a translation needs --start"),
            ("torus22", ("--path", "y(1)"), "input error: unknown path move 'y'"),
            ("torus22", ("--path", "x(1,+);x(0,+);y(1)"), "input error: unknown path move 'y'"),
            ("torus22", ("--path", ";"), "input error: empty path")):
        code, out, err = run(capsys, "groupoid", "--input", inputs[name], *argv)
        assert (code, out, err) == (2, "", f"{message}\n"), argv
    # a path of no moves from a given start is the identity
    code, out, _ = run(capsys, "groupoid", "--input", inputs["torus22"], "--path", ";",
                       "--start", "1/2")
    assert code == 0 and json.loads(out)["normal_form"] == []
    # missing or unreadable input, missing flags, and malformed root data blocks
    for argv, message in (
            (("rep",), "input error: this subcommand needs --input FILE"),
            (("rep", "--input", inputs["missing"]),
             f"input error: cannot read {inputs['missing']}"),
            (("rep", "--input", inputs["not_json"]),
             f"input error: cannot read {inputs['not_json']}"),
            (("complex", "--input", inputs["torus22"], *halves), "input error: --chi is required"),
            (("cy",), "input error: cy needs --a and --d degree lists"),
            (("cy", "--a", "1,1,1,1,1"), "input error: cy needs --a and --d degree lists"),
            (("verify", "--suites", "bogus"),
             "input error: unknown suite 'bogus' (use bundled,input)"),
            (("rep", "--input", inputs["number_datum"]),
             "input error: the root datum block must be a JSON object"),
            (("rep", "--input", inputs["empty_pairing"]),
             "input error: pairing must be a non-empty list"),
            (("rep", "--input", inputs["short_pairing"]),
             "input error: row-major pairing has the wrong length")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert err.startswith(message), argv


def test_assert_generic_must_be_a_bool(tmp_path, capsys):
    """A number is not a boolean: 1, 1.0 and 0 are refused, not read as
    true or false."""
    path = tmp_path / "rep.json"
    for flag in (1, 1.0, 0):
        path.write_text(json.dumps(dict(GL2, assert_generic=flag)))
        code, out, err = run(capsys, "rep", "--input", str(path))
        assert code == 2 and out == "", flag
        assert err.startswith("input error: assert_generic must be") and err.count("\n") == 1



def test_gl40_weight_of_the_wrong_length_exits_2_at_once(tmp_path, capsys):
    """The weight is checked against n = 40 before GL(40) is built, which
    took 25 s; the message is the one the full build gives."""
    path = tmp_path / "gl40.json"
    path.write_text(json.dumps({"root_datum": {"builtin": "gl", "n": 40}, "weights": [[1]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "rep", "--input", str(path))
    assert (code, out, err) == (2, "", "input error: weight length does not match the "
                                "lattice rank\n")
    assert time.perf_counter() - start < 5

def test_closed_stdout_exits_1_without_a_traceback(inputs):
    """A reader that stops early (``| head -c 10``) closes the pipe while
    the JSON is still being written; the output is far larger than the pipe
    buffer, so the write fails."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qswindows.cli", "arrangement", "--input", inputs["gl2"],
         "--box", "20000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (1, b"")



def test_parser_is_built_by_the_first_main_not_by_the_import():
    script = ("from qswindows import cli; info = cli.build_parser.cache_info\n"
              "print(info().misses)\n"
              "for _ in range(2): cli.main(['verify', '--suites', ''])\n"
              "print(info().misses, info().hits)\n")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    lines = proc.stdout.splitlines()
    assert (proc.returncode, lines[0], lines[-1]) == (0, "0", "1 1")

def test_verify_empty_suites(capsys):
    for suites in (" ", ""):
        code, out, _ = run(capsys, "verify", "--suites", suites)
        assert code == 0
        assert "warning" in out


def test_verify_subjects_print_rationals(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "torus-1x2pairs (-1/2)->(1/2)" in out
    assert "Fraction(" not in out


def test_verify_corrupted_input(inputs, capsys):
    code, out, _ = run(capsys, "verify", "--suites", "input", "--input", inputs["bad"])
    assert code == 1
    assert "input-validity" in out and "FAIL" in out


def test_svg_export(inputs, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, _, err = run(capsys, "export-svg", "--input", inputs["gl2"],
                       "--delta", "0,0", "--delta2", "1,1", "--out", str(out_dir))
    assert code == 0
    window_svg = (out_dir / "window.svg").read_text()
    crossing_svg = (out_dir / "wallcross.svg").read_text()
    faces_svg = (out_dir / "faces.svg").read_text()
    # figure structure: 12 window characters, wall bullets on the line,
    # 3 arrows for the crossing, and two highlighted face/dagger pairs
    assert window_svg.count('class="char"') == 12
    assert window_svg.count('class="wall"') >= 2
    assert crossing_svg.count('class="mu-head"') == 3
    assert faces_svg.count('class="face"') >= 2
    assert faces_svg.count('class="dagger"') >= 2


def test_svg_rank3_rejected(inputs, tmp_path, capsys):
    code, _, err = run(capsys, "export-svg", "--input", inputs["rank3"],
                       "--delta", "1/4,1/4,1/4", "--out", str(tmp_path))
    assert code == 2 and "rank" in err


def test_rank1_svg_number_line(inputs, tmp_path, capsys):
    code, _, _ = run(capsys, "export-svg", "--input", inputs["torus22"],
                     "--delta", "1/2", "--out", str(tmp_path))
    assert code == 0
    svg_text = (tmp_path / "window.svg").read_text()
    assert svg_text.count('class="char"') == 2
    assert 'class="axis"' in svg_text
