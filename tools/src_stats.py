"""Line and settable-value counts of a source tree, per module and in total.

    python3 tools/src_stats.py [SRC]

SRC defaults to the `src/` directory of this checkout.  Every `.py` file
under it is one module.  Each line is counted once, as the first of these
that applies:
  - docstring: inside the docstring of a module, class or function
    (the blank lines within it included);
  - blank: whitespace only;
  - comment: its first non-blank character is `#`;
  - code: every other line.

Settable values are the values a caller or a config can set:
  - defaulted parameters: parameters of a `def` that have a default;
  - dataclass fields: annotated assignments in the body of a class
    decorated with `dataclass`;
  - config properties: the `properties` of every schema in a top-level
    `CONFIG_SCHEMAS` mapping, summed over its kinds;
  - structure tags: the entries of a top-level `STRUCTURES`;
  - environment variables: the distinct names a module reads by
    `os.environ[name]`, `os.environ.get(name)` or `os.getenv(name)` (a name
    that is not a string literal counts once per read).
Config properties and structure tags are read by importing the module that
assigns them, with SRC first on the module path.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import sys
from pathlib import Path

LINE_KINDS = ("code", "docstring", "comment", "blank")
SETTABLE_KINDS = ("defaulted_parameters", "dataclass_fields", "config_properties",
                  "structure_tags", "environment_variables")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _assigned_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _is_os_attr(node: ast.AST, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr \
        and isinstance(node.value, ast.Name) and node.value.id == "os"


def _environment_reads(tree: ast.Module) -> set:
    """The variables read by os.environ[name], os.environ.get(name) and
    os.getenv(name): a string literal name itself, any other its read site."""
    names = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Subscript) and _is_os_attr(node.value, "environ"):
            key = node.slice
        elif isinstance(node, ast.Call) and node.args and (
                _is_os_attr(node.func, "getenv") or (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                    and _is_os_attr(node.func.value, "environ"))):
            key = node.args[0]
        if key is not None:
            literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
            names.add(key.value if literal else (node.lineno, node.col_offset))
    return names


def module_stats(path: Path, module_name: str) -> dict:
    """Line kinds and settable values of one module."""
    text = path.read_text()
    tree = ast.parse(text)
    doc = _docstring_lines(tree)
    stats = dict.fromkeys(LINE_KINDS + SETTABLE_KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        kind = ("docstring" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        stats[kind] += 1
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            stats["defaulted_parameters"] += len(args.defaults) + sum(
                default is not None for default in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            stats["dataclass_fields"] += sum(isinstance(item, ast.AnnAssign)
                                             for item in node.body)
    stats["environment_variables"] = len(_environment_reads(tree))
    assigned = _assigned_names(tree) & {"CONFIG_SCHEMAS", "STRUCTURES"}
    if assigned:
        module = importlib.import_module(module_name)
        if "CONFIG_SCHEMAS" in assigned:
            stats["config_properties"] = sum(len(schema.get("properties", {}))
                                             for schema in module.CONFIG_SCHEMAS.values())
        if "STRUCTURES" in assigned:
            stats["structure_tags"] = len(module.STRUCTURES)
    return stats


def tree_stats(src: Path) -> dict:
    """{module path relative to src: stats} for every module under src, sorted."""
    src = src.resolve()
    sys.path.insert(0, str(src))
    try:
        out = {}
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src)
            parts = rel.with_suffix("").parts
            name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            out[rel.as_posix()] = module_stats(path, name)
        return out
    finally:
        sys.path.remove(str(src))


def total(stats: dict) -> dict:
    return {key: sum(s[key] for s in stats.values()) for key in LINE_KINDS + SETTABLE_KINDS}


def render(stats: dict) -> str:
    rows = [(name, s) for name, s in stats.items()] + [("total", total(stats))]
    width = max(len(name) for name, _ in rows)
    head = f"{'module':<{width}}" + "".join(f"{k:>11}" for k in LINE_KINDS + ("lines", "settable"))
    lines = [head]
    for name, s in rows:
        values = [s[k] for k in LINE_KINDS] + [sum(s[k] for k in LINE_KINDS),
                                               sum(s[k] for k in SETTABLE_KINDS)]
        lines.append(f"{name:<{width}}" + "".join(f"{v:>11}" for v in values))
    t = total(stats)
    lines.append("settable values: " + ", ".join(f"{k.replace('_', ' ')} {t[k]}"
                                                 for k in SETTABLE_KINDS))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parent.parent / "src"))
    args = ap.parse_args(argv)
    print(render(tree_stats(Path(args.src))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
