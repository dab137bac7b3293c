"""One list of public names per module, and nothing at the package root.

Each `semikin.<module>` names its public classes and functions in
`__all__`, and callers import them from there.  The package root holds
only `__version__`, so `import semikin` costs no solver module; `cli`
and `__main__` are entry points, not libraries.  numpy is the only
runtime dependency: with scipy blocked from import, every bundled
scenario loads, every CLI command runs and the master equation relaxes.
scipy stays a test dependency, for the oracles.
"""

import importlib
import inspect
import json
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


def test_every_command_and_the_master_equation_run_without_scipy(tmp_path):
    probe = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "import semikin.cli, semikin.io\n"
        "from semikin.kinetics import Occupation, RateMatrix, evolve_master\n"
        "scenarios = Path(semikin.io.__file__).parent / 'scenarios'\n"
        "bundled = sorted(scenarios.glob('*.ini'))\n"
        "for path in bundled:\n"
        "    semikin.io.load_scenario(path)\n"
        f"out = {str(tmp_path)!r}\n"
        "short = {'barrier': ('barrier_split', '900, 901')}\n"
        "codes = {}\n"
        "for command in semikin.cli._SCENARIO_COMMANDS:\n"
        "    stem, samples = short.get(command, ('relaxation', '0, 1'))\n"
        "    ini = str(scenarios / f'{stem}.ini')\n"
        "    override = f'time.samples={samples}'\n"
        "    codes[command] = semikin.cli.main(\n"
        "        [command, '--scenario', ini, '--override', override, '--out', out])\n"
        "codes['manybody-check'] = semikin.cli.main(['manybody-check', '--out', out])\n"
        "print(len(bundled))\n"
        "print(json.dumps(codes))\n"
        "rates = RateMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]), eta=1.0)\n"
        "print(evolve_master(Occupation(np.array([1.0, 0.0])), rates, 1.0).values.sum())\n"
    )
    count, codes, mass = run_probe(probe)[-3:]
    assert int(count) >= 9
    commands = ("schrodinger", "envelope", "liouville", "kinetics", "compare", "barrier")
    assert json.loads(codes) == dict.fromkeys((*commands, "manybody-check"), 0)
    assert abs(float(mass) - 1.0) < 1e-12
    assert any(tmp_path.rglob("histories.csv"))
