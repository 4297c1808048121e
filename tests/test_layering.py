"""Module boundaries inside the ``qenm`` package, read from the source with ``ast``.

No module imports or reads another module's ``_``-prefixed name, and the
amplitude layer (``encoding``) depends on no package module but ``enm`` and
``lattice``: every circuit lives in ``circuits`` and ``oracles``.
"""

import ast
from pathlib import Path

import qenm

PACKAGE_DIR = Path(qenm.__file__).parent
MODULES = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
ENCODING_DEPENDENCIES = {"enm", "lattice"}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The qenm module a ``from ... import`` names, '' for the package itself, else None."""
    if node.level == 0:
        parts = (node.module or "").split(".") + [""]
        return parts[1] if parts[0] == "qenm" else None
    return node.module.split(".")[0] if node.module else ""


def layering_violations(name: str, source: str) -> list[str]:
    """Each breach of the package's module boundaries in module ``name``."""
    found = []
    module_aliases = {}         # local name -> qenm module it is bound to
    imported = set()
    nodes = list(ast.walk(ast.parse(source)))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qenm" and len(parts) > 1:
                    imported.add(parts[1])
                    if alias.asname:
                        module_aliases[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
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
    for node in nodes:
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in module_aliases
                and module_aliases[node.value.id] != name):
            found.append(f"{name} reads {module_aliases[node.value.id]}.{node.attr}")
    if name == "encoding":
        found += [f"encoding imports qenm.{m}"
                  for m in sorted(imported - ENCODING_DEPENDENCIES - {name})]
    return found


def test_no_module_crosses_a_layer_boundary():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        found += layering_violations(path.stem, path.read_text())
    assert not found, "\n".join(found)
