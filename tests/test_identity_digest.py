import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "identity_digest.py"


def _digest(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, check=True, cwd=ROOT).stdout


def test_digest_is_repeatable():
    first = _digest("--src", str(ROOT / "src"), "--draws", "1")
    assert first == _digest("--src", str(ROOT / "src"), "--draws", "1")
    solve_line, estimate_line, warm_line, rss_line = first.splitlines()
    # 3 scenes under 4 configs, plus the gamma = 1 problem
    assert solve_line.startswith("solve problems=13 ")
    assert estimate_line.startswith("estimate_doa draws=3 ")
    # one noiseless M = 32, J = 10 scene
    assert warm_line.startswith("warm_solve problems=1 ")
    # the estimate_doa scenes
    assert rss_line.startswith("rss_estimate draws=3 ")
    assert all(len(line.rsplit("sha256=", 1)[1]) == 64
               for line in (solve_line, estimate_line, warm_line, rss_line))


def test_digest_refuses_a_package_from_another_tree(tmp_path):
    # wbdoa reachable on PYTHONPATH but not under --src: hashing it would
    # compare a tree with itself
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(SCRIPT), "--src", str(tmp_path), "--draws", "1"],
                            capture_output=True, text=True, cwd=tmp_path, env=env)
    assert result.returncode == 1
    assert f"not from {tmp_path.resolve()}" in result.stderr
    assert result.stdout == ""
