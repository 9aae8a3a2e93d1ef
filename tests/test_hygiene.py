"""Source hygiene: no module in ``src/repro`` or ``jobs`` imports a name it
never uses (``__init__.py`` files are skipped: their imports are re-exports)."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for d in ("src/repro", "jobs")
    for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set[str]:
    """Every name loaded, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        ann = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    """``file:line name`` for every import of ``path`` that is never used."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in _imported(tree).items() if name not in used]


def test_modules_found():
    assert len(MODULES) > 20


def test_no_unused_imports():
    assert [u for p in MODULES for u in unused_imports(p)] == []
