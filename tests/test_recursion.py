"""No function in src/lakecat calls itself, by its bare name or as
`self.<name>`, so none recurses as deep as the data it walks: a walk over
nested input keeps its own stack, and a file of any depth the parsers
accept fails, if at all, with a clean error rather than a RecursionError.
The functions in ALLOWED recurse, and each entry says what bounds their
depth."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lakecat"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

ALLOWED = {
    "codec._codec": "recurses on a record type's annotations, whose depth the code fixes",
}


def _calls_itself(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"):
                return True
    return False


def _functions(node: ast.AST, prefix: str):
    """(qualified name, node) of each function under `node`, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, FUNCTIONS):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def recursive(sources: dict) -> set:
    """Qualified names of the functions that call themselves, for module
    name -> source text."""
    return {name for module, text in sources.items()
            for name, fn in _functions(ast.parse(text), module) if _calls_itself(fn)}


def test_no_function_recurses_but_the_allowed():
    found = recursive({path.stem: path.read_text(encoding="utf-8")
                       for path in sorted(SRC.glob("*.py"))})
    assert found - ALLOWED.keys() == set(), "walk with an explicit stack, or allow it with its bound"
    assert ALLOWED.keys() - found == set(), "allowed, but no longer recursive"


def test_a_call_by_name_or_through_self_is_recursion():
    found = recursive({"a": '''
def walk(v): return [walk(x) for x in v]
def loop(v):
    stack = [v]
    while stack:
        stack.extend(stack.pop())
def outer():
    def inner(n): return inner(n - 1)
class Tree:
    def depth(self): return 1 + max(self.depth() for _ in ())
    def size(self, other): return other.size(self)
'''})
    assert found == {"a.walk", "a.outer.inner", "a.Tree.depth"}
