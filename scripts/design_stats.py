"""Print two design figures of the package: source lines and settable values.

Usage: python scripts/design_stats.py [SRC]

``SRC`` defaults to the ``src`` directory beside this script.  Source
lines are the lines of every ``.py`` file under it.  Settable values are
counted from the syntax tree: parameters with a default, dataclass
fields with a default, and command-line options (``add_argument`` calls
other than ``--version``).
"""

import argparse
import ast
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> dict:
    """``{"parameters", "fields", "options"}`` counts of one module."""
    counts = {"parameters": 0, "fields": 0, "options": 0}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            counts["parameters"] += len(args.defaults) + sum(
                d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["fields"] += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                                    for s in node.body)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            first = node.args[0] if node.args else None
            counts["options"] += not (isinstance(first, ast.Constant)
                                      and first.value == "--version")
    return counts


def design_stats(src: Path) -> dict:
    lines, totals = 0, {"parameters": 0, "fields": 0, "options": 0}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for key, n in settable_values(ast.parse(text, str(path))).items():
            totals[key] += n
    return {"lines": lines, **totals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"))
    stats = design_stats(Path(ap.parse_args(argv).src))
    values = stats["parameters"] + stats["fields"] + stats["options"]
    print(f"src lines: {stats['lines']}")
    print(f"settable values: {values} ({stats['parameters']} defaulted parameters"
          f" + {stats['fields']} defaulted dataclass fields + {stats['options']} options)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
