"""The engine depends on the Python standard library and numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


PACKAGE = Path(omniair.__file__).parent
MAX_LINE = 100  # characters; tests and demos hold longer CSV fixture lines


def test_package_lines_fit_the_width():
    long = [f"{path.name}:{i}" for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert not long, f"lines over {MAX_LINE} characters: {long}"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")
                                          if p.stem != "__init__"))
def test_module_imports_first_in_a_fresh_interpreter(module):
    # a module-level import cycle fails at import time; a fresh interpreter
    # keeps that from depending on what this test session imported before
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", f"import omniair.{module}"], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
