"""Fresh-process checks of what a launch loads: each command imports only the
library modules it runs, and ``import qracah`` alone imports none of them.

In-process tests import every module, so they would hide a lazy import that
one command misses; only a child process starts with none loaded.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qracah
from qracah.cli import main

from conftest import cli_env

SHIPPED_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "generic_two_s2.json")
LIBRARY = ("qnum", "model", "leonard", "transition", "bethe")

SPECTRUM = {"cli", "model", "qnum"}
TABLE = SPECTRUM | {"leonard", "transition"}
SOLVER = SPECTRUM | {"bethe"}

COMMANDS = [
    (["spectrum"], SPECTRUM),
    (["racah", "--route", "series"], TABLE),
    (["racah", "--route", "recurrence"], TABLE),
    (["racah", "--route", "double-ratio"], TABLE),
    (["bethe", "--kind", "hom_minus", "--level", "2"], SOLVER),
    (["verify"], TABLE | SOLVER),
]


def _loaded_submodules(verbose_log: str) -> set[str]:
    """The ``qracah.*`` modules a ``python -v`` child loaded.  The import system
    logs every module it executes, also one loaded by ``importlib.import_module``
    or a ``from . import`` (which ``-X importtime`` would miss)."""
    return set(re.findall(r"^import 'qracah\.(\w+)' #", verbose_log, re.M))


@pytest.mark.parametrize("args, modules", COMMANDS, ids=[" ".join(a) for a, _ in COMMANDS])
def test_command_loads_only_its_modules(args, modules, tmp_path, capsys):
    argv = [args[0], SHIPPED_CONFIG, *args[1:]]
    proc = subprocess.run([sys.executable, "-v", "-m", "qracah", *argv],
                          capture_output=True, cwd=tmp_path, env=cli_env(), timeout=600)
    log = proc.stderr.decode()
    assert proc.returncode == 0, log[-2000:]
    assert _loaded_submodules(log) == modules
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


# argv: the library module names
_SURFACE_PROBE = """
import importlib, json, sys
import qracah
loaded = sorted(m for m in sys.modules if m.startswith("qracah."))
listed = dir(qracah)
ns = {}
exec("from qracah import *", ns)
# names that star-import bound to something other than their module's object
stand_ins = [n for m in sys.argv[1:] for n in importlib.import_module("qracah." + m).__all__
             if ns.get(n) is not getattr(sys.modules["qracah." + m], n)]
try:
    qracah.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded, "listed": listed, "all": qracah.__all__,
    "star": sorted(set(ns) - {"__builtins__"}), "stand_ins": stand_ins, "missing": missing,
}))
"""


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    proc = subprocess.run([sys.executable, "-c", _SURFACE_PROBE, *LIBRARY], capture_output=True,
                          text=True, cwd=tmp_path_factory.mktemp("surface"), env=cli_env(),
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_bare_import_loads_no_library_module(surface):
    assert surface["loaded"] == []


def test_dir_covers_all(surface):
    assert set(surface["all"]) <= set(surface["listed"])


def test_star_import_binds_every_exported_name(surface):
    assert set(surface["star"]) == set(surface["all"]) == set(qracah.__all__)
    assert surface["stand_ins"] == []


def test_unknown_name_raises_attribute_error(surface):
    assert surface["missing"] == "module 'qracah' has no attribute 'no_such_name'"
