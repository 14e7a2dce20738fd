"""CLI output pinned byte for byte.

Each call below exits 0, and its stdout must equal the file of the same
name under ``tests/golden/``; ``export-svg`` calls compare the files they
write instead.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
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
    "gl2": {"root_datum": {"builtin": "gl", "n": 2},
            "weights": [[3, 0], [2, 1], [1, 2], [0, 3],
                        [-3, 0], [-2, -1], [-1, -2], [0, -3]]},
    "gl3": {"root_datum": {"builtin": "gl", "n": 3},
            "weights": [[s * x for x in e] for _ in range(4) for e in
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1)] for s in (1, -1)]},
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
    "gl2-rep": ("rep", "gl2"),
    "gl2-arrangement": ("arrangement", "gl2"),
    "gl2-window": ("window", "gl2", "--delta", "-1/4,-1/4"),
    "gl2-wallcross": ("wallcross", "gl2", "--delta", "0,0", "--delta2", "1,1"),
    "gl2-faces": ("faces", "gl2", "--delta", "1/2,1/2"),
    "gl2-complex": ("complex", "gl2", "--delta", "0,0", "--delta2", "1,1", "--chi", "-2,-2"),
    "gl2-wallcross-back": ("wallcross", "gl2", "--delta", "1,1", "--delta2", "0,0"),
    "gl2-groupoid": ("groupoid", "gl2", "--path", "x(1/2,+);t(1)"),
    "gl3-window": ("window", "gl3", "--delta", "1/4,1/4,1/4"),
    "gl3-faces": ("faces", "gl3", "--delta", "1/2,1/2,1/2"),
    "cy-quintic": ("cy", None, "--a", "1,1,1,1,1", "--d", "5", "--twist", "0"),
    "cy-3-3": ("cy", None, "--a", "1,1,1,1,1,1", "--d", "3,3", "--twist", "1"),
    "verify-bundled": ("verify", None, "--suites", "bundled"),
}

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
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(SVG_CALLS))
def test_export_svg_matches_golden(name, tmp_path):
    code, files = _svgs(name, tmp_path)
    assert code == 0
    assert sorted(files) == ["faces.svg", "wallcross.svg", "window.svg"]
    for fname, content in files.items():
        assert content == (GOLDEN / f"{name}-{fname}").read_text(), fname


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in CALLS:
            code, out = _stdout(name, Path(tmp))
            if code != 0:
                sys.exit(f"{name} exited {code}")
            (GOLDEN / f"{name}.out").write_text(out)
        for name in SVG_CALLS:
            code, files = _svgs(name, Path(tmp))
            if code != 0:
                sys.exit(f"{name} exited {code}")
            for fname, content in files.items():
                (GOLDEN / f"{name}-{fname}").write_text(content)
