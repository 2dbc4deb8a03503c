"""The library holds only what a route or the command line runs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "regverify"


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
