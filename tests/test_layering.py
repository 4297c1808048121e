"""Module boundaries inside the ``qenm`` package, read from the source with ``ast``.

No module imports or reads another module's ``_``-prefixed name, and the
amplitude layer (``encoding``) depends on no package module but ``enm``,
``linalg`` and ``lattice``: every circuit lives in ``circuits`` and
``oracles``.  ``linalg`` acts on bare operators and imports no package
module but ``boltzmann``, and no numeric module imports ``output``, which
writes every file.  Every
circuit the program runs goes through the batched ``circuits.simulate_keys``,
which no module but ``circuits`` calls: the others run circuits through
``postselect`` and ``permute_keys``.  No module but ``reference``, which
holds what only tests and demos run, imports ``reference``, scipy or
``numpy.random``, inside a function or not, so no command loads them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qenm

PACKAGE_DIR = Path(qenm.__file__).parent
MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
ENCODING_DEPENDENCIES = {"enm", "lattice", "linalg"}
LINALG_DEPENDENCIES = {"boltzmann"}
NUMERIC_MODULES = {"lattice", "boltzmann", "linalg", "enm", "circuits", "oracles", "encoding",
                   "measure"}
BATCH_SIMULATOR = {"simulate_keys"}
REFERENCE_ONLY = ("scipy", "numpy.random")      # external packages that only ``reference`` uses


def _package_module(node: ast.ImportFrom) -> str | None:
    """The qenm module a ``from ... import`` names, '' for the package itself, else None."""
    if node.level == 0:
        parts = (node.module or "").split(".") + [""]
        return parts[1] if parts[0] == "qenm" else None
    return node.module.split(".")[0] if node.module else ""


def _restricted(name: str, module: str, attr: str) -> bool:
    """Whether module ``name`` may not use ``circuits``' simulator entry ``attr``."""
    return module == "circuits" and attr in BATCH_SIMULATOR and name != "circuits"


def _reference_only(dotted: str) -> bool:
    """Whether the dotted external name is, or lies in, a package that only ``reference`` uses."""
    return any(dotted == pkg or dotted.startswith(pkg + ".") for pkg in REFERENCE_ONLY)


def layering_violations(name: str, source: str) -> list[str]:
    """Each breach of the package's module boundaries in module ``name``."""
    found = []
    module_aliases = {}         # local name -> qenm module it is bound to
    numpy_aliases = set()       # local names bound to numpy
    imported = set()
    external = []               # dotted names imported from outside the package
    nodes = list(ast.walk(ast.parse(source)))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                external.append(alias.name)
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                if parts[0] == "qenm" and len(parts) > 1:
                    imported.add(parts[1])
                    if alias.asname:
                        module_aliases[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                external += [f"{node.module}.{alias.name}" for alias in node.names]
                continue
            for alias in node.names:
                if module == "" and alias.name in MODULES:      # from . import enm
                    imported.add(alias.name)
                    module_aliases[alias.asname or alias.name] = alias.name
                    continue
                if module:
                    imported.add(module)
                if alias.name.startswith("_") and module != name:
                    found.append(f"{name} imports {module or 'qenm'}.{alias.name}")
                if _restricted(name, module, alias.name):
                    found.append(f"{name} imports circuits.{alias.name}")
    for dotted in external:
        if _reference_only(dotted) and name != "reference":
            found.append(f"{name} imports {dotted}")
    for node in nodes:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in numpy_aliases and node.attr == "random"
                and name != "reference"):
            found.append(f"{name} reads numpy.random")
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases):
            continue
        module = module_aliases[node.value.id]
        if node.attr.startswith("_") and module != name:
            found.append(f"{name} reads {module}.{node.attr}")
        if _restricted(name, module, node.attr):
            found.append(f"{name} reads circuits.{node.attr}")
    if name == "encoding":
        found += [f"encoding imports qenm.{m}"
                  for m in sorted(imported - ENCODING_DEPENDENCIES - {name})]
    if name == "linalg":
        found += [f"linalg imports qenm.{m}"
                  for m in sorted(imported - LINALG_DEPENDENCIES - {name})]
    if name in NUMERIC_MODULES and "output" in imported:
        found.append(f"{name} imports qenm.output")
    if name != "reference" and "reference" in imported:
        found.append(f"{name} imports qenm.reference")
    return found


def test_no_module_crosses_a_layer_boundary():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += layering_violations(path.stem, path.read_text())
    assert not found, "\n".join(found)


def test_reference_simulator_uses_are_found():
    assert layering_violations("oracles", "from .reference import simulate\n") == [
        "oracles imports qenm.reference"]
    assert layering_violations("cli", "def f():\n    from qenm import reference\n") == [
        "cli imports qenm.reference"]
    assert layering_violations("__init__", "import qenm.reference\n") == [
        "__init__ imports qenm.reference"]
    assert layering_violations("enm", "def f():\n    from scipy.linalg import eig_banded\n") == [
        "enm imports scipy.linalg.eig_banded"]
    assert layering_violations("oracles", "import scipy.sparse as sp\n") == [
        "oracles imports scipy.sparse"]
    assert layering_violations("boltzmann", "from numpy import random\n") == [
        "boltzmann imports numpy.random"]
    assert layering_violations("measure", "import numpy as np\nnp.random.default_rng(0)\n") == [
        "measure reads numpy.random"]
    assert layering_violations("reference", "from scipy import sparse\nimport numpy as np\n"
                                            "from . import enm\nnp.random.default_rng(0)\n") == []


def test_cli_import_loads_no_reference():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    code = "import sys, qenm.cli\nprint('qenm.cli' in sys.modules, 'qenm.reference' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["True", "False"]


def test_batch_simulator_uses_are_found():
    assert layering_violations("oracles", "from .circuits import postselect, simulate_keys\n") == [
        "oracles imports circuits.simulate_keys"]
    assert layering_violations("cli", "from . import circuits\ncircuits.simulate_keys(c, k)\n") == [
        "cli reads circuits.simulate_keys"]
    assert layering_violations("__init__", "from .circuits import simulate_keys\n") == [
        "__init__ imports circuits.simulate_keys"]
    assert layering_violations("circuits", "def f():\n    return simulate_keys\n") == []


def test_linalg_and_output_uses_are_found():
    assert layering_violations("linalg", "from .boltzmann import prf_uniform\n") == []
    assert layering_violations("linalg", "from . import enm\nfrom .lattice import SPARSITY\n") == [
        "linalg imports qenm.enm", "linalg imports qenm.lattice"]
    assert layering_violations("enm", "from .output import format_17g\n") == [
        "enm imports qenm.output"]
    assert layering_violations("measure", "from . import output\n") == [
        "measure imports qenm.output"]
    assert layering_violations("cli", "from . import output\n") == []
