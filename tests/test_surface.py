"""Every public function, class and method in src/lakecat is named in
src/lakecat outside its own definition, so none is kept for the tests
alone. A name counts where a Name, an Attribute or an import alias holds
it; a docstring or a comment that mentions it does not. Dunder methods
and `_`-prefixed names are exempt: the CLI's handlers are `_`-prefixed
and reached through `COMMANDS`. The names in ALLOWED have no caller in
src/lakecat, and each entry says which caller outside it keeps it.

No module of src/lakecat uses a `_`-prefixed name of another: a name
that another module needs is public."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lakecat"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

ALLOWED = {
    "inter.token_jaccard": "acceptance criterion 05",
    "store.Catalog.add_similarity_link": "acceptance criterion 06",
    "intra.latest_version": "acceptance criterion 08",
    "auditlog.replay_counts": "acceptance criteria 03, 08 and 09, and the ingest oracle "
                              "of bench/workloads.py",
    "index.rebuild_index": "acceptance criterion 10",
    "inter.recommend": "documented in README.md, and the batch workload of bench/workloads.py",
}


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function or class
    of the module, and of each public method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, DEFS) and not fn.name.startswith("_"):
                    yield f"{module}.{node.name}.{fn.name}", fn


def _names(node: ast.AST, uses: dict, around: tuple = ()) -> None:
    """Add to uses[name] the definitions around each Name, Attribute and
    import alias under `node` that holds the name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            uses[child.id].append(around)
        elif isinstance(child, ast.Attribute):
            uses[child.attr].append(around)
        elif isinstance(child, ast.alias):
            uses[child.name.rsplit(".", 1)[-1]].append(around)
        _names(child, uses, around + (child,) if isinstance(child, DEFS) else around)


def scan(sources: dict) -> tuple:
    """(defined, uncalled) for module name -> source text: every public
    definition by qualified name, and those named nowhere outside
    their own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = defaultdict(list)
    for tree in trees.values():
        _names(tree, uses)
    defined = {name: node for module, tree in trees.items()
               for name, node in _definitions(module, tree)}
    uncalled = {name for name, node in defined.items()
                if all(node in around for around in uses[node.name])}
    return set(defined), uncalled


def private_uses(sources: dict) -> list:
    """(module, "other._name") for module name -> source text: each
    `_`-prefixed, non-dunder name that a module imports from another
    module of the package, or reads as an attribute of a package module
    it imported."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        imported = {}  # local name -> the package module it names
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").split(".")[0] == "lakecat"):
                continue
            origin = (node.module or "").removeprefix("lakecat").lstrip(".")
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append((module, f"{origin or '__init__'}.{alias.name}"))
                elif not origin:  # `from . import store`: a module
                    imported[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported and node.attr.startswith("_")
                    and not node.attr.startswith("__")):
                found.append((module, f"{imported[node.value.id]}.{node.attr}"))
    return found


def test_every_public_name_has_a_caller_in_the_package():
    defined, uncalled = scan({path.stem: path.read_text(encoding="utf-8")
                              for path in sorted(SRC.glob("*.py"))})
    assert {"store.Catalog", "store.Catalog.commit", "intra.new_object"} <= defined
    assert uncalled - ALLOWED.keys() == set(), \
        "no caller in src/lakecat: delete it, or allow it with its caller"
    assert ALLOWED.keys() - defined == set(), "allowed, but no longer defined"
    assert ALLOWED.keys() - uncalled == set(), "allowed, but src/lakecat calls it now"


def test_a_docstring_or_its_own_body_is_no_caller():
    defined, uncalled = scan({"a": '''
def used(): pass
def recursive(n): return recursive(n - 1)
def mentioned(): """Unlike used(), only this docstring names mentioned."""
class Box:
    def open(self): return used()
    def _hidden(self): pass
    def __len__(self): return 0
''', "b": "from a import Box\nBox().open()\n"})
    assert defined == {"a.used", "a.recursive", "a.mentioned", "a.Box", "a.Box.open"}
    assert uncalled == {"a.recursive", "a.mentioned"}


def test_no_module_uses_a_private_name_of_another():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert private_uses(sources) == [], "make the name public, or keep it in its module"


def test_private_imports_and_attributes_are_found():
    assert private_uses({
        "a": "from __future__ import annotations\nfrom .b import _x, y, __version__\n"
             "from . import c as d, e\nfrom lakecat.f import _g\nd._z, d.w, e.__doc__\n",
        "b": "import os\nos._exit\ndef _y(): pass\n_y()\n",
    }) == [("a", "b._x"), ("a", "f._g"), ("a", "c._z")]
