"""What importing the command line costs: the modules it loads, and the
names the package binds for its users and for the benchmark's tracer."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coupledfut

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def cli_import_modules():
    # -S: no site packages, so nothing but coupledfut decides what is loaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, coupledfut.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    loaded = set(proc.stdout.split())
    assert "coupledfut.cli" in loaded
    return loaded


def test_cli_import_loads_no_code_generation_modules():
    assert cli_import_modules().isdisjoint(
        {"copy", "dataclasses", "inspect", "typing"})


def test_cli_import_loads_no_argparse():
    # the option table replaces argparse, which also loads gettext and locale
    assert cli_import_modules().isdisjoint({"argparse", "gettext", "locale"})


COMMON_OPTIONS = ["--help", "--catalog", "--scenario", "--format"]


@pytest.mark.parametrize("argv,shown,hidden", [
    (["--help"], COMMON_OPTIONS + [
        "--param-value", "--direction", "--root-width", "--samples",
        "localize", "toric", "roots", "verify", "sample"], []),
    (["localize", "--help"], COMMON_OPTIONS + ["--param-value"],
     ["--direction", "--root-width", "--samples"]),
])
def test_help_lists_every_option(argv, shown, hidden):
    proc = subprocess.run([sys.executable, "-m", "coupledfut.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: coupledfut ")
    for name in shown:
        assert name in proc.stdout, name
    for name in hidden:
        assert name not in proc.stdout, name


def test_every_public_name_resolves():
    assert len(set(coupledfut.__all__)) == len(coupledfut.__all__)
    for name in coupledfut.__all__:
        assert getattr(coupledfut, name) is not None, name


def test_every_traced_name_resolves():
    # perfbench/layertrace.py wraps these by name; a refactor that unbinds
    # one would break the benchmark's trace
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TRACED
    for module, name in layertrace.TRACED:
        assert module in layertrace.MODULES, module
        target = importlib.import_module("coupledfut." + module)
        assert callable(getattr(target, name, None)), (module, name)
