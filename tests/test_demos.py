"""Each narrative script in demos/ runs and prints exactly what it printed
before: its stdout bytes are pinned by sha256, so a refactor that changes a
demo's output, or breaks the API it walks through, fails here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

PINNED_STDOUT = {
    "01_determinant_identities.py":
        "6620c0d8fc7b625c79d29792efe39d3e706383d057a43d4671840708e9893560",
    "02_oqm_darboux.py":
        "9b548f8bdd18e6476c1781aa040578bf8f72e8dc8b72cf8f3969bd6643336814",
    "03_idqm_radical_algebra.py":
        "978217e205dbdd5e4c34582ce2822a740d7c49f48dfe0f1585120ecc3d8be0c9",
    "04_rdqm_meixner.py":
        "87a3ec0130f03d1a0ed1c7a6df38e10436b79db26400c9feb251e2730a8ed0fd",
}


def test_every_demo_is_pinned():
    assert sorted(PINNED_STDOUT) == sorted(p.name for p in DEMOS.glob("*.py"))


@pytest.mark.parametrize("name", sorted(PINNED_STDOUT))
def test_demo_output_pinned(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, env=ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_STDOUT[name]
