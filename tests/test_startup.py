"""Start-up cost: what importing the package and starting a command load.

Every case runs in a fresh interpreter, because this test session has long
since imported every module.  The probe prints the loaded module names at
exit, after the command itself has run or exited.  The checks that each
exported name has one home read the modules' sources instead.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convexorder

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")
PACKAGE_DIR = Path(SRC_DIR) / "convexorder"

KERNELS = (
    "sweep", "rasa", "lattice", "cx_order", "distributions", "counterexample", "randomgen",
)

# What a sweep runs: the lattice route, never ``rasa``, ``distributions`` or
# ``cx_order``.  Relation (c) decides every row of a default sweep, so it
# evaluates no test function and does not load ``convex_functions`` either.
SWEEP_MODULES = {
    "convexorder._base",
    "convexorder.cli",
    "convexorder.exact",
    "convexorder.lattice",
    "convexorder.sweep",
}

SWEEP_ARGS = ["verify-rasa", "--n", "1..2", "--m", "2", "--denom", "3"]

# psi-pattern sums int powers in ``rasa``, reports no law and probes with
# no test function.
PSI_MODULES = {
    "convexorder.cli",
    "convexorder.exact",
    "convexorder.lattice",
    "convexorder.rasa",
}

# The probe itself imports no module a test looks for, such as ``json``.
_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write("
    "'\\nMODULES ' + ' '.join(sorted(sys.modules)) + '\\n'))\n"
)


def _run(code: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    marker = proc.stderr.rindex("MODULES ")
    modules = set(proc.stderr[marker + len("MODULES "):].split())
    return proc, modules


def _run_cli(
    *args: str, prelude: str = ""
) -> tuple[subprocess.CompletedProcess, set[str]]:
    """`python -m convexorder ARGS`, as the console script starts it, after prelude."""
    return _run(
        prelude + "import runpy\n"
        f"sys.argv = ['convexorder', *{list(args)!r}]\n"
        "runpy.run_module('convexorder', run_name='__main__')\n"
    )


def _submodules(modules: set[str]) -> set[str]:
    return {m for m in modules if m.startswith("convexorder.")}


def test_import_loads_no_submodule_and_no_multiprocessing():
    proc, modules = _run("import convexorder\nassert convexorder.__version__\n")
    assert proc.returncode == 0, proc.stderr
    assert "convexorder" in modules
    assert _submodules(modules) == set()
    assert "multiprocessing" not in modules
    assert "concurrent.futures" not in modules


def test_named_import_loads_only_its_modules():
    proc, modules = _run("from convexorder import bernoulli, cx_compare_oracle\n")
    assert proc.returncode == 0, proc.stderr
    assert _submodules(modules) == {
        "convexorder.distributions", "convexorder.cx_order", "convexorder.exact",
    }


def test_names_shared_by_both_routes_load_from_their_home():
    proc, modules = _run("from convexorder import sign_changes, GeneralizedVerdicts\n")
    assert proc.returncode == 0, proc.stderr
    assert _submodules(modules) == {"convexorder.exact", "convexorder.lattice"}


def test_exact_imports_no_other_package_module():
    proc, modules = _run("import convexorder.exact\n")
    assert proc.returncode == 0, proc.stderr
    assert _submodules(modules) == {"convexorder.exact"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_loads_only_the_lattice_route(fmt):
    proc, modules = _run_cli(*SWEEP_ARGS, "--format", fmt)
    assert proc.returncode == 0, proc.stderr
    assert _submodules(modules) == SWEEP_MODULES
    assert "click" not in modules
    # Each report writer imports only the codec it writes with.
    assert ("csv" in modules) == (fmt == "csv")
    assert ("json" in modules) == (fmt == "json")


def test_sweep_without_angles_loads_the_test_functions():
    # Without the angles no row reads its minimum from relation (c): every
    # row takes the other probes' table, built from ``convex_functions``.
    proc, modules = _run_cli(*SWEEP_ARGS, "--functions", "monomials")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    assert _submodules(modules) == SWEEP_MODULES | {"convexorder.convex_functions"}


def test_psi_pattern_loads_neither_distributions_nor_cx_order():
    proc, modules = _run_cli("psi-pattern", "--n", "2", "1/3", "1/2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["change_count"] == 2
    assert _submodules(modules) == PSI_MODULES


def test_compare_loads_no_lattice_route(tmp_path):
    law = tmp_path / "law.txt"
    law.write_text("0 1/2\n1 1/2\n")
    proc, modules = _run_cli("cx-compare", str(law), str(law))
    assert proc.returncode == 0, proc.stderr
    loaded = {m.split(".")[1] for m in _submodules(modules)}
    assert {"distributions", "lawtext", "cx_order", "exact"} <= loaded
    assert loaded.isdisjoint({"lattice", "rasa", "sweep"}), sorted(loaded)
    assert "convex_functions" not in loaded


def test_hoeffding_loads_no_test_functions():
    proc, modules = _run_cli("hoeffding", "1/2", "1/3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_hold"] is True
    assert "convexorder.rasa" in modules
    assert "convexorder.convex_functions" not in modules
    # It builds its laws and reads none from a file.
    assert "convexorder.lawtext" not in modules


@pytest.mark.parametrize(
    "args, code, text",
    [(["--help"], 0, "Usage:"), ([], 2, "Usage:"), (["no-such-command"], 2, "no such command")],
)
def test_dispatch_loads_cli_alone(args, code, text):
    # The command list and an unknown command build no parser.
    proc, modules = _run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert text in proc.stdout + proc.stderr
    assert {m for m in modules if m.startswith("convexorder")} == {
        "convexorder", "convexorder.cli",
    }
    assert "argparse" not in modules
    assert "fractions" not in modules


def test_compare_import_loads_no_dataclasses_or_inspect():
    # Records are NamedTuples and values plain classes: generating a
    # dataclass's methods costs 0.4 to 1 ms a class, and ``dataclasses``
    # itself pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``.
    proc, modules = _run("from convexorder import bernoulli, cx_compare_oracle\n")
    assert proc.returncode == 0, proc.stderr
    assert "dataclasses" not in modules
    assert "inspect" not in modules


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["verify-rasa", "--n", "1", "--m", "2", "--denom", "3", "--jobs", "1"],
        ["cx-compare", "{law}", "{law}"],
    ],
)
def test_commands_load_no_dataclasses(tmp_path, args):
    # Neither the package nor ``argparse`` imports ``dataclasses`` or ``inspect``.
    law = tmp_path / "law.txt"
    law.write_text("0 1/2\n1 1/2\n")
    proc, modules = _run_cli(*(arg.format(law=law) for arg in args))
    assert proc.returncode == 0, proc.stderr
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def _defined_and_listed(module: str) -> tuple[set[str], list[str]]:
    """The names module's top level defines, by def, class or assignment,
    and its ``__all__`` when that is a literal list.

    An assignment of a bare name or attribute, such as ``Alias = Fraction``,
    gives a second name to an object defined elsewhere, so it defines
    nothing.
    """
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    defined, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names and isinstance(node.value, ast.List):
                listed = ast.literal_eval(node.value)
            if not isinstance(node.value, (ast.Name, ast.Attribute)):
                defined |= names
    return defined, listed


MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_module_lists_only_the_names_it_defines(module):
    defined, listed = _defined_and_listed(module)
    assert len(set(listed)) == len(listed), listed
    foreign = [name for name in listed if name not in defined]
    assert not foreign, foreign


def test_every_export_is_its_modules_object():
    # Each exported name is defined in the module the package maps it to,
    # its one home, and listed in that module's ``__all__``.
    homeless = []
    for name, module in convexorder._EXPORTS.items():
        defined, listed = _defined_and_listed(module)
        if name not in defined or name not in listed:
            homeless.append((name, module))
    assert not homeless, homeless
    proc, _ = _run(
        "import importlib\n"
        "import convexorder\n"
        "wrong = [\n"
        "    name for name, module in convexorder._EXPORTS.items()\n"
        "    if getattr(convexorder, name) is not getattr(\n"
        "        importlib.import_module('convexorder.' + module), name)\n"
        "]\n"
        "assert not wrong, wrong\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_dir_and_star_import_cover_all():
    proc, _ = _run(
        "import convexorder\n"
        "listed = dir(convexorder)\n"
        "missing = [n for n in convexorder.__all__ if n not in listed]\n"
        "assert not missing, missing\n"
        "namespace = {}\n"
        "exec('from convexorder import *', namespace)\n"
        "unbound = [n for n in convexorder.__all__ if n not in namespace]\n"
        "assert not unbound, unbound\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises_attribute_error():
    proc, modules = _run(
        "import convexorder\n"
        "try:\n"
        "    convexorder.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
        "assert not hasattr(convexorder, 'KNOWN_FUNCTION_GROUPS')\n"
        "try:\n"
        "    from convexorder import no_such_name\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ImportError')\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert _submodules(modules) == set()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_imports_no_pool(jobs):
    # Two CPUs whatever the host has, so that --jobs 2 is not clamped to one.
    proc, modules = _run_cli(
        "verify-rasa", "--n", "1", "--m", "2", "--denom", "3", "--jobs", jobs,
        prelude=(
            "import convexorder.sweep\n"
            "convexorder.sweep._available_cpus = lambda: 2\n"
        ),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True
    assert "evaluated in the parent" not in proc.stderr
    assert "multiprocessing" not in modules
    assert "concurrent.futures" not in modules


@pytest.mark.parametrize(
    "args",
    [
        ["--help"],
        ["verify-rasa", "--help"],
        ["cx-compare", "--help"],
        ["counterexample", "--help"],
        ["hoeffding", "--help"],
        ["psi-pattern", "--help"],
    ],
)
def test_help_imports_no_kernel(args):
    proc, modules = _run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    assert "Usage:" in proc.stdout
    loaded = {m.split(".")[1] for m in _submodules(modules)}
    assert loaded.isdisjoint(KERNELS), sorted(loaded)
    assert "click" not in modules
    assert "json" not in modules
    assert "csv" not in modules
    assert "multiprocessing" not in modules
    assert "concurrent.futures" not in modules
