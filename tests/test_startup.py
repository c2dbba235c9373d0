"""What importing the command line costs: the modules it loads, and the
public names of the package."""

import os
import subprocess
import sys
from pathlib import Path

import coupledfut

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_code_generation_modules():
    # -S: no site packages, so nothing but coupledfut decides what is loaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, coupledfut.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    loaded = set(proc.stdout.split())
    assert "coupledfut.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing"})


def test_every_public_name_resolves():
    assert len(set(coupledfut.__all__)) == len(coupledfut.__all__)
    for name in coupledfut.__all__:
        assert getattr(coupledfut, name) is not None, name
