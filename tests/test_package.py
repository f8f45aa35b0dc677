"""Package-level checks: the public name list, imports and the runnable demos."""
import ast
import dataclasses
import importlib
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import varlat
from varlat import corefn, errors, experiments, operators, variation, witnesses

MODULES = (errors, corefn, operators, variation, witnesses, experiments)
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_package_name_comes_from_its_module_list():
    for name in varlat.__all__:
        if name == "__version__":
            continue
        owners = [m for m in MODULES if name in m.__all__]
        assert len(owners) == 1, f"{name} listed by {len(owners)} modules"
        assert getattr(varlat, name) is getattr(owners[0], name)


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: erf is operators._erf
    importers = set()
    for path in pathlib.Path(varlat.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.add(path.stem)
    assert importers == set()


def test_a_run_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # numpy.ma costs 15-25 ms when np.unique pulls it in lazily
    script = (
        "import sys, varlat.cli\n"
        "code = varlat.cli.run(['linf-blowup', '--out', sys.argv[1]])\n"
        "print(code, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    src = pathlib.Path(varlat.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.split()[-3:] == ["0", "False", "False"], done.stderr


def test_a_run_loads_neither_numpy_random_nor_hashlib(tmp_path):
    # numpy.random costs 9-15 ms and pulls in secrets, hmac and _hashlib;
    # norm-transfer draws its stream from the standard library instead
    script = (
        "import sys, varlat.cli\n"
        "codes = [varlat.cli.run(argv + ['--out', sys.argv[1]])"
        " for argv in (['norm-transfer', '--trials', '20'], ['lr-growth'])]\n"
        "print(*codes, *(name in sys.modules for name in ('numpy.random', 'hashlib', '_hashlib')))\n"
    )
    src = pathlib.Path(varlat.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.split()[-5:] == ["0", "0", "False", "False", "False"], done.stderr


def test_only_operators_evaluates_the_heat_kernel():
    # every heat value comes from operators._heat_matrix, so its stated
    # error budget covers all of them
    users = {
        path.stem
        for path in pathlib.Path(varlat.__file__).parent.glob("*.py")
        if "_kernel_cdf" in path.read_text()
    }
    assert users == {"operators"}



def test_no_module_keeps_an_unused_import():
    # a module-level import must be used or exported; a deliberate one says
    # why on its own line, after "# noqa: F401".  The tests and the demos
    # export nothing.
    package, tests = pathlib.Path(varlat.__file__).parent, pathlib.Path(__file__).parent
    unused = []
    for path in [*sorted(package.glob("*.py")), *sorted(tests.glob("*.py")), *DEMOS]:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        if path.parent == package:
            module = varlat if path.stem == "__init__" else importlib.import_module(f"varlat.{path.stem}")
            exported = set(getattr(module, "__all__", ()))
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(alias, (alias.asname or alias.name).split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [(alias, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
            else:
                continue
            for alias, name in bound:
                if name in used or name in exported or "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                unused.append(f"{path.parent.name}/{path.name}:{alias.lineno} {name}")
    assert unused == []

def test_the_dataclasses_are_the_value_types():
    # creating a dataclass compiles its methods, which costs every process
    # about 1-1.5 ms of import; a new one has to be argued for here
    import varlat.cli

    found = {
        name
        for module in (*MODULES, varlat.cli)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == {
        "PiecewiseConstantFn",
        "LacunaryParams",
        "ExperimentConfig",
        "RatioReport",
    }


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
