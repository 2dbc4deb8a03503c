"""The library holds only what a route or the command line runs, no
module imports a name it never reads, and none imports ``dataclasses``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "regverify"


def unreferenced(src: Path) -> list[str]:
    """``module.name`` of each top-level function and class under ``src``
    that no code under ``src`` reads, outside its own definition.  A name
    counts as read as a plain name or as an attribute, so a CLI verb
    counts through ``set_defaults(func=...)``."""
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(src.glob("*.py"))}
    defined = {(module, node.name): node for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    read = set()
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                name = node.id if isinstance(node, ast.Name) else \
                    getattr(node, "attr", None)
                if name is not None and defined.get((module, name)) is not top:
                    read.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_top_level_definition_is_run_from_src():
    assert unreferenced(SRC) == []


def test_a_definition_only_its_own_body_reads_is_unreferenced(tmp_path):
    (tmp_path / "a.py").write_text(
        "def walk(n):\n    return walk(n - 1) if n else 0\n\n"
        "def used():\n    return 1\n\n"
        "class Kept:\n    pass\n\n"
        "def main():\n    return used() + Kept.__name__.count('K')\n\n"
        "if __name__ == '__main__':\n    main()\n")
    (tmp_path / "b.py").write_text(
        "import argparse\nfrom . import a\n\n"
        "def cmd(args):\n    return a.main()\n\n"
        "def orphan():\n    return cmd\n\n"
        "argparse.ArgumentParser().set_defaults(func=cmd)\n")
    assert unreferenced(tmp_path) == ["a.walk", "b.orphan"]


def unused_imports(files) -> list[str]:
    """``file: name`` of each name an import binds in a file that no code
    in it reads.  ``import a.b`` binds ``a``; ``__future__`` imports bind
    nothing."""
    out = []
    for f in files:
        tree = ast.parse(f.read_text())
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        out += [f"{f.name}: {name}" for name in bound if name not in read]
    return out


def test_every_import_is_read():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert unused_imports(files) == []


def test_an_import_no_code_reads_is_unused(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nimport re\n"
        "from math import pi, tau\n\n"
        "def f(x: int) -> str:\n"
        "    return os.path.join(str(pi), j.dumps(x))\n")
    assert unused_imports([tmp_path / "a.py"]) == ["a.py: re", "a.py: tau"]


def importers(files, module: str) -> list[str]:
    """Names of the files that import ``module`` or a name from it."""
    return [f.name for f in files
            if any(isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == module for a in node.names)
                   or isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == module
                   for node in ast.walk(ast.parse(f.read_text())))]


def test_no_module_imports_dataclasses():
    # every value type is a named tuple: each dataclass took about 0.8 ms
    # to generate and compile its methods at every import of the library
    assert importers(sorted(SRC.glob("*.py")), "dataclasses") == []


def test_an_import_of_dataclasses_is_found(tmp_path):
    texts = {"a.py": "from dataclasses import dataclass\n",
             "b.py": "def f():\n    import dataclasses as d\n    return d\n",
             "c.py": "from typing import NamedTuple\nx = 'dataclasses'\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    assert importers(sorted(tmp_path.glob("*.py")), "dataclasses") == \
        ["a.py", "b.py"]
