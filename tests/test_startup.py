"""What importing the command line costs: the modules it loads, and the
names the package binds for its users and for the benchmark's tracer; that
every definition, the test-side references included, has a reader; and how
a process enters the command line and ends."""

import ast
import gc
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


def test_every_definition_has_a_reader():
    # a function, method or class of src/ that is neither exported nor
    # read by name or attribute in src/ or perfbench/ is code only tests
    # reach; dunder methods are read by the language itself
    defined, read = set(), set()
    for path in sorted((SRC / "coupledfut").glob("*.py")) + sorted(
            (ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif path.parent.name == "coupledfut" and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
                defined.add(node.name)
    assert {"realize", "ParamPoly", "_measure"} <= defined
    unread = {name for name in defined - read - set(coupledfut.__all__)
              if not (name.startswith("__") and name.endswith("__"))}
    assert not unread, sorted(unread)


def limits_and_unread(package):
    """module.name of each module-level MAX_* constant of the package, and
    of those that their own module never reads."""
    limits, unread = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {target.id for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name)
                 and target.id.startswith("MAX_")}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        limits += ["%s.%s" % (path.stem, name) for name in sorted(names)]
        unread += ["%s.%s" % (path.stem, name)
                   for name in sorted(names - read)]
    return limits, unread


def test_each_limit_lives_beside_its_check():
    # a limit defined in one module and checked in another splits one rule
    # across two; one checked nowhere bounds nothing
    limits, unread = limits_and_unread(SRC / "coupledfut")
    assert {"analysis.MAX_SAMPLES", "polytopes.MAX_SIMPLICES",
            "rationals.MAX_COEFF_BITS",
            "scenario.MAX_DIMENSION"} <= set(limits)
    assert unread == []


def test_the_engine_uses_none_of_its_reference_arithmetic():
    # tests/reference.py checks the residue table against the ring
    # arithmetic's power, inverse and integral; an engine built on them
    # would be compared against itself
    used = set()
    for node in ast.walk(ast.parse((SRC / "coupledfut" / "localization.py")
                                   .read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert {"ratfun_reduce", "point_ring", "_ipoly_mul"} <= used
    assert used.isdisjoint({"equiv_pow", "invert_unit", "integrate"})


def test_every_reference_has_a_reader():
    # the reader rule on the test side: a function of tests/reference.py
    # that no tests/test_*.py imports and reads compares nothing
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(
        encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert {"component_integral", "replace"} <= defined
    read = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {alias.asname or alias.name: alias.name for node in nodes
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "reference" for alias in node.names}
        for node in nodes:
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in imported):
                read.add(imported[node.id])
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "reference"):
                read.add(node.attr)
    assert not defined - read, sorted(defined - read)


def test_every_error_class_is_raised():
    # an error class of errors.py that src/ never raises, itself or through
    # a subclass, would outlive its last raise inside __all__
    tree = ast.parse((SRC / "coupledfut" / "errors.py").read_text(
        encoding="utf-8"))
    base = {node.name: node.bases[0].id if node.bases else None
            for node in tree.body if isinstance(node, ast.ClassDef)}

    def lineage(name):
        while name in base:
            yield name
            name = base[name]

    errors = {name for name in base if "EngineError" in lineage(name)}
    assert {"EngineError", "ValidationError", "GeometryError"} <= errors
    raised = set()
    for path in sorted((SRC / "coupledfut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = getattr(node.exc, "func", node.exc)
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    covered = {name for error in raised & errors for name in lineage(error)}
    assert not errors - covered, sorted(errors - covered)


def load_layertrace():
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_every_traced_name_resolves():
    # perfbench/layertrace.py wraps these by name; a refactor that unbinds
    # one would break the benchmark's trace
    layertrace = load_layertrace()
    assert layertrace.TRACED
    for module, name in layertrace.TRACED:
        assert module in layertrace.MODULES, module
        target = importlib.import_module("coupledfut." + module)
        assert callable(getattr(target, name, None)), (module, name)
    # analysis rebinds these from rationals, and the tracer wraps both
    from coupledfut import analysis, rationals
    for name in ("poly_gcd", "sturm_chain", "count_roots_open",
                 "positive_on_interval"):
        assert getattr(analysis, name) is getattr(rationals, name), name
    # the ratfun_reduce hook reads each coefficient's numerator and denominator
    f = rationals.ratfun_reduce(rationals.parse_poly("c/2", "c"),
                                rationals.parse_poly("3c+1", "c"))
    assert [(co.numerator, co.denominator) for co in f.num.coeffs + f.den.coeffs
            ] == [(0, 1), (1, 6), (1, 3), (1, 1)]


def test_tracer_wraps_every_traced_name_and_restores_it():
    # install() looks up every traced name, so it fails on a removed one;
    # uninstall() must leave every binding as it found it
    layertrace = load_layertrace()
    namespaces = [coupledfut] + [importlib.import_module("coupledfut." + m)
                                 for m in layertrace.MODULES]
    before = {(ns, name): getattr(ns, name) for ns in namespaces
              for _, name in layertrace.TRACED if hasattr(ns, name)}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = {(ns.__name__, name) for (ns, name), fn in before.items()
                   if getattr(ns, name) is not fn}
    finally:
        tracer.uninstall()
    assert wrapped >= {("coupledfut." + m, name)
                       for m, name in layertrace.TRACED}
    for (ns, name), fn in before.items():
        assert getattr(ns, name) is fn, (ns.__name__, name)


# a process that ran the entry point prints its exit code and whether the
# heap was frozen: run() freezes it once main() has answered
ENTRY_REPORT = ("except SystemExit as exc:\n"
                "    import gc\n"
                "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n")


def declared_script():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["coupledfut"]


@pytest.mark.parametrize("entry", ["script", "-m"])
def test_every_process_entry_reaches_run(entry):
    if entry == "script":
        module, _, function = declared_script().partition(":")
        assert (module, function) == ("coupledfut.cli", "run")
        call = "from %s import %s\n    sys.exit(%s())\n" % (
            module, function, function)
    else:  # what python -m coupledfut.cli does
        call = ("import runpy\n    runpy.run_module('coupledfut.cli', "
                "run_name='__main__', alter_sys=True)\n")
    wrapper = "import sys\ntry:\n    " + call + ENTRY_REPORT
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "localize", "--catalog", "cp1"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert "scenario: cp1" in proc.stdout
    assert proc.stderr == "0 True\n"


def test_main_leaves_the_process_as_it_found_it(capsys):
    from coupledfut.cli import main

    assert main(["localize", "--catalog", "cp1"]) == 0
    assert "scenario: cp1" in capsys.readouterr().out
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_a_caller_of_main_keeps_its_exit_code_and_output():
    wrapper = ("import sys\n"
               "from coupledfut.cli import main\n"
               "code = main(['localize', '--catalog', 'nope'])\n"
               "print('after main', code)\n"
               "sys.exit(code + 10)\n")
    proc = subprocess.run([sys.executable, "-c", wrapper], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 13
    assert proc.stdout == "after main 3\n"
    assert "unknown catalog scenario" in proc.stderr
