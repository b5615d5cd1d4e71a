import ast
import sys
from pathlib import Path

import lakecat


def test_runtime_imports_are_stdlib_only():
    """The package has no runtime dependencies: every import names
    lakecat itself or a standard-library module."""
    modules = sorted(Path(lakecat.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "lakecat" or top in sys.stdlib_module_names, (
                    f"{path.name} imports {name}"
                )
