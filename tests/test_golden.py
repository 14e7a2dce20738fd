"""CLI output pinned byte for byte.

Each call below exits 0, or with the code ``EXIT_CODES`` names, and its
stdout must equal the file of the same name under ``tests/golden/``;
``export-svg`` calls compare the files they write instead.  To re-record
after an intended output change, run ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qswindows import cli

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "t2": {"root_datum": {"builtin": "torus", "rank": 1},
           "weights": [[1], [1], [-1], [-1]]},
    "t3": {"root_datum": {"builtin": "torus", "rank": 1},
           "weights": [[1], [1], [1], [-1], [-1], [-1]]},
    # walls x, y and x - y in Z: the plane cut into triangles
    "t22": {"root_datum": {"builtin": "torus", "rank": 2},
            "weights": [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]]},
    # x and y doubled: walls x, y in 1/2 + Z and x - y in Z; verify samples its rank-2 grid
    "t22-doubled": {"root_datum": {"builtin": "torus", "rank": 2},
                    "weights": [[1, 0], [1, 0], [-1, 0], [-1, 0], [0, 1], [0, 1],
                                [0, -1], [0, -1], [1, 1], [-1, -1]]},
    "gl2": {"root_datum": {"builtin": "gl", "n": 2},
            "weights": [[3, 0], [2, 1], [1, 2], [0, 3],
                        [-3, 0], [-2, -1], [-1, -2], [0, -3]]},
    "gl3": {"root_datum": {"builtin": "gl", "n": 3},
            "weights": [[s * x for x in e] for _ in range(4) for e in
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)] for s in (1, -1)]},
    # nabla is the point 0, cut out by the half-spaces +-e1 and +-e2
    "gl2-std-dual": {"root_datum": {"builtin": "gl", "n": 2},
                     "weights": [[1, 0], [-1, 0], [0, 1], [0, -1]]},
    # walls Z/3 and Z/2 on one normal, interleaved: the least wall gap is 1/6
    "gl2-interleaved": {"root_datum": {"builtin": "gl", "n": 2},
                        "weights": [[2, -1], [-2, 1], [1, -2], [-1, 2],
                                    [2, -2], [-2, 2], [2, -2], [-2, 2]]},
    # the S3-orbit of +-(2,1,0): nabla has 20 vertices and 18 facets
    "gl3-orbit": {"root_datum": {"builtin": "gl", "n": 3},
                  "weights": [[s * x for x in p] for p in
                              [(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 0, 2), (0, 2, 1), (0, 1, 2)]
                              for s in (1, -1)]},
}

CALLS = {
    "t2-rep": ("rep", "t2"),
    "t2-arrangement": ("arrangement", "t2"),
    "t2-window": ("window", "t2", "--delta", "1/2"),
    "t2-wallcross": ("wallcross", "t2", "--delta", "1/2", "--delta2", "3/2"),
    "t2-faces": ("faces", "t2", "--delta", "1"),
    "t2-complex": ("complex", "t2", "--delta", "1/2", "--delta2", "3/2", "--chi", "0"),
    "t2-mutate": ("mutate", "t2", "--delta", "1/2", "--delta2", "3/2", "--steps", "2"),
    "t2-groupoid": ("groupoid", "t2", "--path", "x(1,+);t(1);x(2,-)"),
    "t3-rep": ("rep", "t3"),
    "t3-window": ("window", "t3", "--delta", "0"),
    "t3-wallcross": ("wallcross", "t3", "--delta", "1", "--delta2", "0"),
    "t3-faces": ("faces", "t3", "--delta", "1/2"),
    "t3-complex": ("complex", "t3", "--delta", "0", "--delta2", "1", "--chi", "-1"),
    "t3-mutate": ("mutate", "t3", "--delta", "0", "--delta2", "1", "--direction", "right"),
    "t3-groupoid": ("groupoid", "t3", "--path", "x(1/2,+);x(3/2,+);t(-1)"),
    # the segment meets the wall x = y a third of the way: delta0 is not the midpoint
    "t22-wallcross": ("wallcross", "t22", "--delta", "1/3,1/4", "--delta2", "1/2,2/3"),
    "t22-window": ("window", "t22", "--delta", "1/2,2/3"),
    "t22-doubled-verify-input": ("verify", "t22-doubled", "--suites", "input"),
    "gl2-rep": ("rep", "gl2"),
    "gl2-arrangement": ("arrangement", "gl2"),
    "gl2-window": ("window", "gl2", "--delta", "-1/4,-1/4"),
    "gl2-wallcross": ("wallcross", "gl2", "--delta", "0,0", "--delta2", "1,1"),
    "gl2-faces": ("faces", "gl2", "--delta", "1/2,1/2"),
    "gl2-complex": ("complex", "gl2", "--delta", "0,0", "--delta2", "1,1", "--chi", "-2,-2"),
    "gl2-wallcross-back": ("wallcross", "gl2", "--delta", "1,1", "--delta2", "0,0"),
    "gl2-groupoid": ("groupoid", "gl2", "--path", "x(1/2,+);t(1)"),
    "gl2-interleaved-arrangement": ("arrangement", "gl2-interleaved"),
    "gl2-interleaved-groupoid": ("groupoid", "gl2-interleaved", "--path", "x(1/3,+);x(1/2,+);t(1)"),
    "gl2-interleaved-verify-input": ("verify", "gl2-interleaved", "--suites", "input"),
    "gl2-std-dual-rep": ("rep", "gl2-std-dual"),
    "gl3-orbit-rep": ("rep", "gl3-orbit"),
    "gl3-window": ("window", "gl3", "--delta", "1/4,1/4,1/4"),
    "gl3-faces": ("faces", "gl3", "--delta", "1/2,1/2,1/2"),
    "cy-quintic": ("cy", None, "--a", "1,1,1,1,1", "--d", "5", "--twist", "0"),
    "cy-3-3": ("cy", None, "--a", "1,1,1,1,1,1", "--d", "3,3", "--twist", "1"),
    "verify-bundled": ("verify", None, "--suites", "bundled"),
    "gl3-verify-input": ("verify", "gl3", "--suites", "input"),
}
# GL(3) 4x(std+dual) FAILs 18 rows and the interleaved GL(2) rep 6, on the
# pair (-1/6,-1/6) <-> (1/6,1/6): their wall faces are not all dominant
EXIT_CODES = {"gl3-verify-input": 1, "gl2-interleaved-verify-input": 1}

SVG_CALLS = {
    "gl2-svg": ("gl2", "--delta", "0,0", "--delta2", "1,1"),
    "t2-svg": ("t2", "--delta", "1/2", "--delta2", "3/2"),
}


def _argv(command, source, rest, tmp: Path):
    argv = [command, *rest]
    if source is not None:
        path = tmp / f"{source}.json"
        path.write_text(json.dumps(INPUTS[source]))
        argv += ["--input", str(path)]
    return argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _stdout(name, tmp: Path):
    command, source, *rest = CALLS[name]
    return _run(_argv(command, source, rest, tmp))


def _svgs(name, tmp: Path):
    source, *rest = SVG_CALLS[name]
    out_dir = tmp / name
    code, _ = _run(_argv("export-svg", source, [*rest, "--out", str(out_dir)], tmp))
    return code, {p.name: p.read_text() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cli_stdout_matches_golden(name, tmp_path):
    code, out = _stdout(name, tmp_path)
    assert code == EXIT_CODES.get(name, 0)
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(SVG_CALLS))
def test_export_svg_matches_golden(name, tmp_path):
    code, files = _svgs(name, tmp_path)
    assert code == 0
    assert sorted(files) == ["faces.svg", "wallcross.svg", "window.svg"]
    for fname, content in files.items():
        assert content == (GOLDEN / f"{name}-{fname}").read_text(), fname


def test_format_writes_json_svg_or_both(tmp_path):
    """``--format both`` prints the JSON and writes the figure; ``svg`` only writes."""
    out_dir = tmp_path / "both"
    code, out = _run(_argv("window", "t2", ["--delta", "1/2", "--format", "both",
                                            "--out", str(out_dir)], tmp_path))
    assert code == 0 and out == (GOLDEN / "t2-window.out").read_text()
    assert (out_dir / "window.svg").read_text() == (GOLDEN / "t2-svg-window.svg").read_text()
    out_dir = tmp_path / "svg"
    code, out = _run(_argv("wallcross", "t2", ["--delta", "1/2", "--delta2", "3/2",
                                               "--format", "svg", "--out", str(out_dir)], tmp_path))
    assert code == 0 and out == ""
    assert ((out_dir / "wallcross.svg").read_text()
            == (GOLDEN / "t2-svg-wallcross.svg").read_text())
    code, out = _run(_argv("arrangement", "t2", ["--format", "svg", "--out", str(out_dir)],
                           tmp_path))
    assert code == 0 and out == ""
    assert (out_dir / "arrangement.svg").read_text().startswith("<svg")



def test_shared_parser_carries_no_state_between_calls(tmp_path):
    """The parser is built once per process; a flag given to one call, or a
    call that fails, leaves the next call with the defaults."""
    code, _ = _run(_argv("arrangement", "t2", ["--box", "1"], tmp_path))
    assert code == 0
    assert _run(["bogus"]) == (2, "")
    assert _stdout("t2-arrangement", tmp_path) == (0, (GOLDEN / "t2-arrangement.out").read_text())
    assert _stdout("t3-mutate", tmp_path) == (0, (GOLDEN / "t3-mutate.out").read_text())
    code, out = _run(_argv("mutate", "t3", ["--delta", "0", "--delta2", "1"], tmp_path))
    assert code == 0 and json.loads(out)["direction"] == "left"
    out_dir = tmp_path / "both"
    code, _ = _run(_argv("window", "t2", ["--delta", "1/2", "--format", "both",
                                          "--out", str(out_dir)], tmp_path))
    assert code == 0 and [p.name for p in out_dir.iterdir()] == ["window.svg"]
    (out_dir / "window.svg").unlink()
    assert _stdout("t2-window", tmp_path) == (0, (GOLDEN / "t2-window.out").read_text())
    assert list(out_dir.iterdir()) == [] and not (tmp_path / "window.svg").exists()

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CALLS:
            code, out = _stdout(name, Path(tmp))
            if code != EXIT_CODES.get(name, 0):
                sys.exit(f"{name} exited {code}")
            (GOLDEN / f"{name}.out").write_text(out)
        for name in SVG_CALLS:
            code, files = _svgs(name, Path(tmp))
            if code != 0:
                sys.exit(f"{name} exited {code}")
            for fname, content in files.items():
                (GOLDEN / f"{name}-{fname}").write_text(content)
