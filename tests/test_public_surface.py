import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symphmc"


def test_every_export_is_used_outside_the_tests():
    # a name the package exports must be read by the library, the scripts or
    # the benchmark: a helper only the tests call belongs in tests/
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for tree in ("src", "scripts", "perfbench"):
        for path in (ROOT / tree).rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert sorted(exported - used) == []
