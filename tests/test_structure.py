"""Source-level checks on the package itself."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "veronese"


def _private_definitions(tree: ast.Module):
    """(name, first line, last line) of every module-level _name: functions,
    classes and assigned constants, but not dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_private_helper_is_used():
    """Each module-level _name in the package is mentioned somewhere in the
    package outside its own definition, so no helper outlives its callers."""
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sources
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        for name, first, last in _private_definitions(ast.parse(text)):
            word = re.compile(rf"\b{re.escape(name)}\b")
            everywhere = sum(len(word.findall(t)) for t in sources.values())
            own = sum(len(word.findall(line)) for line in lines[first - 1 : last])
            if everywhere == own:
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []


def test_every_imported_name_is_used():
    """Each name a package module imports is read in that module or listed
    in its ``__all__``, so no import outlives its last use."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        used = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {e.value for e in node.value.elts}
        unused += [f"{path.name}:{n} {name}" for name, n in imported.items() if name not in used]
    assert unused == []


def _modules_other_than_rationalla_naming(pattern: str) -> list[str]:
    word = re.compile(pattern)
    return [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "rationalla.py" and word.search(path.read_text(encoding="utf-8"))
    ]


def test_only_rationalla_names_the_probe_prime():
    """The probe's prime is one module's decision: no other module of the
    package names PROBE_PRIME, so residues mod p are made in rationalla
    only."""
    assert _modules_other_than_rationalla_naming(r"\bPROBE_PRIME\b") == []


def test_only_rationalla_names_the_probe_and_the_elimination():
    """The modular probe and the elimination loop are one module's engine:
    no other module of the package names _probe_pivots or _eliminate, so
    every rank and solve goes through rationalla's public functions."""
    assert _modules_other_than_rationalla_naming(r"\b(_probe_pivots|_eliminate)\b") == []


# forms.power_expand is the nu_d embedding that the README and demo 04 show
# users; no command needs it, since every command builds whole span matrices.
# DecompositionRecord.expand is the re-expansion demo 04 prints, and
# QMatrix.entries is what bench/tracer.py reads of every ranked matrix.
REACHED_WITHOUT_A_COMMAND = {"power_expand", "expand", "entries"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_method(node, parent) -> bool:
    """A class's own method, reached by its name: dunders run implicitly and
    count with their class."""
    return (
        isinstance(parent, ast.ClassDef)
        and isinstance(node, _FUNCTIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def _module_definitions(tree: ast.Module):
    """(name, label, node) of every module-level function, class and
    assigned name, and of every method of a class, labelled Class.method."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node.name, node
            for item in getattr(node, "body", ()) if isinstance(node, ast.ClassDef) else ():
                if _is_method(item, node):
                    yield item.name, f"{node.name}.{item.name}", item
        elif isinstance(node, ast.Assign):
            yield from ((t.id, t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target.id, node


def _mentions(node):
    """Every name and attribute the definition mentions, outside the bodies
    of its methods, which are definitions of their own."""
    todo = [node]
    while todo:
        n = todo.pop()
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        todo.extend(c for c in ast.iter_child_nodes(n) if not _is_method(c, n))


def test_every_definition_is_reached_from_the_cli():
    """Each module-level function and class in the package, and each method
    of a class, is reached from ``veronese.cli.main`` by following the names
    and attributes that each reached definition mentions; a name reaches
    every package definition that bears it, so a method counts only when
    its name is reached, and dunder methods count with their class.  Code
    that only tests or demos use belongs under tests/."""
    defs: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        for name, label, node in _module_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            defs.setdefault(name, []).append((path.name, label, node))
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for _, _, node in defs[name]:
            todo.extend(_mentions(node))
    unreached = sorted(
        f"{module}:{node.lineno} {label}"
        for name, places in defs.items()
        for module, label, node in places
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef))
        and name not in reached | REACHED_WITHOUT_A_COMMAND
    )
    assert unreached == []
