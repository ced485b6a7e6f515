"""No module of the package imports a name it never reads."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "azunorm"


def unused_imports(source: str) -> list:
    """Names the module's imports bind that no expression reads.

    `from __future__ import ...` is a compiler directive, not a binding,
    so it is skipped; `import a.b` binds `a`.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = "from math import gcd, isqrt\nimport os\nprint(gcd(len(os.sep), 1))\n"
    assert unused_imports(source) == ["isqrt"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []
    assert unused_imports("from x import y as z\ny = 1\n") == ["z"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_module_reads_every_name_it_imports(name):
    assert unused_imports((SRC / name).read_text()) == []
