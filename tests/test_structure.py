"""Module boundaries of the package, read from its source."""
import ast
from pathlib import Path

import bethe_xxz
from bethe_xxz import counting

PACKAGE = Path(bethe_xxz.__file__).resolve().parent
LABEL_CHECKS = ("height", "z1", "counting_w", "tan2x_of_w", "tan2x_of_phi")


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_private_name_crosses_modules():
    crossings = []
    for path in _modules():
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and node.module.split(".")[0] != "bethe_xxz":
                continue
            crossings += [
                f"{path.name}: from {'.' * node.level}{node.module or ''} "
                f"import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert crossings == []


def test_label_checks_are_defined_only_in_counting():
    misplaced = [
        f"{path.name}: {node.name}"
        for path in _modules()
        if path.name != "counting.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in LABEL_CHECKS
    ]
    assert misplaced == []


def test_package_exports_the_counting_objects():
    for name in LABEL_CHECKS:
        assert name in bethe_xxz.__all__
        assert getattr(bethe_xxz, name) is getattr(counting, name)


def test_only_the_cli_writes_json_or_csv():
    # The output formats sit behind one module.
    importers = [
        path.name
        for path in _modules()
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Import)
        and {alias.name.split(".")[0] for alias in node.names} & {"json", "csv"}
        or isinstance(node, ast.ImportFrom)
        and not node.level
        and node.module.split(".")[0] in ("json", "csv")
    ]
    assert sorted(set(importers)) == ["cli.py"]
