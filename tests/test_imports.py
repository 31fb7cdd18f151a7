"""Every name a module of the package imports is used there or listed in
its __all__, and every function it defines is referenced somewhere.

pyflakes, ruff and vulture are not dependencies of the project, so this
covers their unused-import and dead-code checks with the standard
library alone.
"""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "elimkit"


def unused_imports(source):
    """Names bound by an import in ``source`` that nothing reads or exports."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def test_no_unused_imports_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


ROOT = SRC.parent.parent


def dead_definitions(root):
    """Functions and methods of the package whose name is written nowhere
    else in src/, tests/, bench/ or the README.

    Dunders and decorated functions (click commands, properties,
    staticmethods) are exempt: something other than a call by name
    reaches them.
    """
    corpus = [root / "README.md"]
    for part in ("src", "tests", "bench"):
        corpus += sorted((root / part).rglob("*.py")) + sorted((root / part).rglob("*.md"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in corpus if p.is_file())
    words = {}
    for word in re.findall(r"\w+", text):
        words[word] = words.get(word, 0) + 1
    found = []
    for path in sorted((root / "src" / "elimkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.decorator_list:
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if words.get(name, 0) <= 1:  # the def itself
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_no_dead_definitions():
    found = dead_definitions(ROOT)
    assert not found, "defined but never referenced:\n" + "\n".join(found)
