"""One list of public names per module, and nothing at the package root.

Each `semikin.<module>` names its public classes and functions in
`__all__`, and callers import them from there.  The package root holds
only `__version__`, so `import semikin` costs no solver module and no
scipy; `cli` and `__main__` are entry points, not libraries.  scipy is
imported only where it is called (`expm` in `evolve_master`'s exponential
method, `quad` in the many-body check), so starting the CLI, loading a
scenario and running collisional `kinetics` load none of it.
"""

import importlib
import inspect
import pkgutil

import pytest

import semikin

from conftest import run_probe

MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(semikin.__path__)
    if name not in ("cli", "__main__")
)


def test_the_library_modules_are_found():
    assert {"core", "errors", "schrodinger", "liouville", "io"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_is_the_list_of_public_names(name):
    module = importlib.import_module(f"semikin.{name}")
    assert isinstance(getattr(module, "__all__", None), list), f"{name} has no __all__"
    listed = module.__all__
    assert len(set(listed)) == len(listed), f"{name}.__all__ repeats a name"
    unresolved = [attr for attr in listed if not hasattr(module, attr)]
    assert not unresolved, f"{name}.__all__ names missing attributes {unresolved}"
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module.__name__
    }
    assert defined <= set(listed), f"{name} defines unlisted {sorted(defined - set(listed))}"


def test_the_package_root_loads_nothing():
    probe = (
        "import sys, semikin\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith('semikin.') or m == 'scipy' or m.startswith('scipy.'))\n"
        "print(loaded)\n"
        "print(sorted(n for n in vars(semikin) if not n.startswith('__')))\n"
    )
    assert run_probe(probe) == ["[]", "[]"]


def test_the_cli_and_the_scenario_loader_load_no_scipy():
    probe = (
        "import sys\n"
        "from pathlib import Path\n"
        "import semikin.cli, semikin.io\n"
        "bundled = sorted((Path(semikin.io.__file__).parent / 'scenarios').glob('*.ini'))\n"
        "for path in bundled:\n"
        "    semikin.io.load_scenario(path)\n"
        "print(len(bundled))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    count, scipy_modules = run_probe(probe)
    assert int(count) >= 9
    assert scipy_modules == "[]"


def test_collisional_kinetics_loads_no_scipy(tmp_path):
    probe = (
        "import sys\n"
        "from pathlib import Path\n"
        "import semikin.cli, semikin.io\n"
        "ini = Path(semikin.io.__file__).parent / 'scenarios' / 'relaxation.ini'\n"
        f"code = semikin.cli.main(['kinetics', '--scenario', str(ini), '--out', {str(tmp_path)!r}])\n"
        "print(code)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    code, scipy_modules = run_probe(probe)[-2:]
    assert code == "0"
    assert scipy_modules == "[]"
    assert any(tmp_path.rglob("histories.csv"))
