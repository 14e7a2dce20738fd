"""The command-line scripts run to completion and print their summaries."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_corpus_survey():
    out = run_script("corpus_survey.py", "--per-rank", "1")
    assert out.splitlines()[-1].startswith("exchange count histogram: {")


def test_mutation_orbit():
    out = run_script("mutation_orbit.py")
    lines = out.splitlines()
    assert lines[0] == "weights 1,1,1,-1,-1,-1; wall between 0 and 1"
    assert lines[-1].startswith("step ")


def test_render_figures(tmp_path):
    out = run_script("render_figures.py", "--out", str(tmp_path))
    assert out == f"wrote 3 figures to {tmp_path}/\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["faces.svg", "wallcross.svg", "window.svg"]
