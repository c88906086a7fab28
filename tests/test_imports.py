"""The engine depends on the Python standard library and numpy alone."""

import ast
import sys
from pathlib import Path

import omniair

ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted(Path(omniair.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.split(".")[0] not in ALLOWED]
    assert not outside, f"imports outside the standard library and numpy: {outside}"
