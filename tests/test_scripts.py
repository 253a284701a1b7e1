"""The scripts under scripts/ run, and print what their documentation promises."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_output_digest_prints_one_hash_per_label():
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py")],
                          capture_output=True, text=True, timeout=600,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), proc.stdout
    labels = [line[66:] for line in lines]
    assert len(set(labels)) == len(labels) and "all" in labels
