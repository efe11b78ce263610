"""The package imports nothing but the standard library and itself."""
import ast
import pathlib
import sys

import stringydet

ALLOWED = sys.stdlib_module_names | {"stringydet"}


def test_every_import_is_stdlib_or_the_package():
    paths = sorted(pathlib.Path(stringydet.__file__).parent.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
