"""Start-up: each entry point loads only the modules it runs.

Every check runs in a fresh interpreter started with ``-S``, so the modules
that ``site`` imports on some installations do not hide what the package
itself loads; the package is found through ``PYTHONPATH``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gknichols
from gknichols import catalog, spec_to_json

PACKAGE_ROOT = str(Path(gknichols.__file__).resolve().parent.parent)
POSEIDON = str(Path(__file__).resolve().parent.parent / "bench" / "data"
               / "poseidon.json")

# run ``gknichols ARGS`` as ``python -m gknichols.cli`` would, then print
# the loaded module names as the last line of stdout
_RUN_CLI = """
import runpy, sys
sys.argv = ["gknichols"] + sys.argv[1:]
code = 0
try:
    runpy.run_module("gknichols.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print()
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""

_IMPORT = """
import sys
import gknichols
print(" ".join(sorted(sys.modules)))
"""

_HEAVY = {"gknichols.catalog", "gknichols.flourished", "gknichols.weyl",
          "dataclasses"}


def _loaded(code, *args):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    r = subprocess.run([sys.executable, "-S", "-c", code, *args],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return set(r.stdout.splitlines()[-1].split())


def test_import_gknichols_loads_no_submodule():
    loaded = _loaded(_IMPORT)
    assert {m for m in loaded if m.startswith("gknichols")} == {"gknichols"}
    assert not loaded & _HEAVY


def test_dims_loads_only_the_truncation_engine():
    loaded = _loaded(_RUN_CLI, "dims", POSEIDON, "--max-degree", "2")
    assert {m for m in loaded if m.startswith("gknichols")} == {
        "gknichols", "gknichols.braidings", "gknichols.freealgebra",
        "gknichols.nichols", "gknichols.scalars", "gknichols.sparse"}
    assert not loaded & _HEAVY


def test_dims_over_q_omega_adds_the_residues_only(tmp_path):
    """The reduction modulo a prime is compiled only where it is used:
    poseidon is rational, lstr(omega,1) lives over Q(zeta_3)."""
    spec, _ = catalog.instantiate("lstr(omega,1)", {})
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(spec_to_json(spec)))
    loaded = _loaded(_RUN_CLI, "dims", str(path), "--max-degree", "2")
    assert {m for m in loaded if m.startswith("gknichols")} == {
        "gknichols", "gknichols.braidings", "gknichols.freealgebra",
        "gknichols.nichols", "gknichols.residues", "gknichols.scalars",
        "gknichols.sparse"}


def test_verify_by_name_loads_the_catalog_only():
    """The catalog's records are plain classes, so ``verify --name`` loads
    no ``dataclasses`` (nor the ``inspect`` it imports)."""
    loaded = _loaded(_RUN_CLI, "verify", "--name", "lstr(1,G)",
                     "--max-degree", "2")
    assert "gknichols.catalog" in loaded
    assert not loaded & {"gknichols.flourished", "gknichols.weyl",
                         "dataclasses", "inspect"}


def test_every_public_name_resolves_lazily():
    names = json.dumps(gknichols.__all__)
    code = f"""
import gknichols
names = {names}
listed = dir(gknichols)
assert all(name in listed for name in names)
for name in names:
    getattr(gknichols, name)
try:
    gknichols.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
print("ok")
"""
    assert _loaded(code) == {"ok"}
