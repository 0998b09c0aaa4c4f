"""src/plateflow holds only what plateflow runs: every definition there is
used by the package itself, its scripts or its benchmark, not only by the
tests.  Definitions that only tests use live in tests/oracles.py."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "plateflow").glob("*.py"))
USERS = SRC + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class and
    assigned name, and of each method of a module-level class whose name does
    not start with __."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                yield name, node.lineno, node.end_lineno


def _words(lines):
    return Counter(w for line in lines for w in re.findall(r"\w+", line))


def test_every_definition_in_src_is_used_outside_the_tests():
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in USERS}
    total = sum((_words(v) for v in lines.values()), Counter())
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path in SRC
              for name, first, last in _definitions(ast.parse("\n".join(lines[path])))
              if total[name] == _words(lines[path][first - 1:last])[name]]
    assert not unused, ("defined in src/plateflow but named nowhere else in src/plateflow, "
                        "scripts or perfbench (move it to tests/oracles.py or delete it):\n"
                        + "\n".join(unused))
