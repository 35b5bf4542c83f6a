"""Static checks over the source of ``src/swaplab``.

Reachability: every public function, class and method must be reachable
from ``cli.main`` through the references in the package's own code, or have
an entry in ALLOWED that says why it stays.  A reference is matched by name:
a bare name reaches the module-level functions and classes of that name, an
attribute also reaches the methods of that name, and a reached class
reaches its dunder methods and the references of its body.  Module-level
code runs on import, so its references are roots too.  Matching by name can
only over-count what is reached, so a name this test calls unreachable is
unreachable.

Streaming: the quantum constructor's tiles are consumed by a loop, one tile
at a time, and no code joins their estimate columns into a whole table.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "swaplab"

# public names that cli.main does not reach, each with the reason it stays
ALLOWED = {
    "egraph.KDTree.depth": "the perfbench span tracer patches it by name",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _refs(nodes):
    """('name', id) for each bare name and ('attr', attr) for each attribute
    read anywhere under ``nodes``."""
    refs = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.add(("name", sub.id))
            elif isinstance(sub, ast.Attribute):
                refs.add(("attr", sub.attr))
    return refs


def _graph():
    """(definitions, roots): each qualified name's references, and the
    references of module-level code."""
    defs, roots = {}, set()
    for mod, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{mod}.{node.name}"] = _refs([node])
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)]
                rest = [n for n in node.body if n not in methods]
                defs[f"{mod}.{node.name}"] = _refs(rest + node.bases + node.decorator_list)
                for method in methods:
                    defs[f"{mod}.{node.name}.{method.name}"] = _refs([method])
            else:
                roots |= _refs([node])
    return defs, roots


def _reached(defs, roots):
    by_name, methods, dunders = defaultdict(list), defaultdict(list), defaultdict(list)
    for qual in defs:
        parts = qual.split(".")
        if len(parts) == 2:
            by_name[parts[1]].append(qual)
        elif parts[2].startswith("__"):
            dunders[".".join(parts[:2])].append(qual)
        else:
            methods[parts[2]].append(qual)

    def targets(refs):
        return [qual for kind, name in refs
                for qual in by_name[name] + (methods[name] if kind == "attr" else [])]

    reached = set()
    stack = ["cli.main", *targets(roots)]
    while stack:
        qual = stack.pop()
        if qual not in reached:
            reached.add(qual)
            stack += targets(defs[qual]) + dunders[qual]
    return reached


def _public(qual):
    return not any(part.startswith("_") for part in qual.split(".")[1:])


def test_every_public_name_is_reached_from_cli_main():
    defs, roots = _graph()
    reached = _reached(defs, roots)
    unreached = {qual for qual in defs if _public(qual) and qual not in reached}
    assert unreached - set(ALLOWED) == set()
    # an allowance outlives its reason when its name is gone or reached
    assert set(ALLOWED) <= unreached
    assert all(ALLOWED.values())


def _calls_to(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", None) == name or getattr(func, "id", None) == name:
                yield node


def test_quantum_tiles_are_streamed_not_joined():
    modules = _modules()
    text = "".join(path.read_text() for path in SRC.glob("*.py"))
    assert "ravel_multi_index" not in text and "_PAIR_TABLE_BYTES" not in text
    # each consumer binds the tiles to one name and reads it only as the
    # iterable of a loop, or to test it against None
    consumers = 0
    for tree in modules.values():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for assign in ast.walk(func):
                if not (isinstance(assign, ast.Assign)
                        and assign.value in list(_calls_to(assign, "quantum_egraph"))):
                    continue
                (target,) = assign.targets
                loop_iters = {id(node.iter) for node in ast.walk(func)
                              if isinstance(node, (ast.For, ast.comprehension))}
                none_tests = {id(node.left) for node in ast.walk(func)
                              if isinstance(node, ast.Compare)
                              and isinstance(node.ops[0], (ast.Is, ast.IsNot))}
                for use in ast.walk(func):
                    if (isinstance(use, ast.Name) and use.id == target.id
                            and isinstance(use.ctx, ast.Load)):
                        assert id(use) in loop_iters | none_tests, ast.unparse(use)
                consumers += 1
    calls = sum(len(list(_calls_to(tree, "quantum_egraph"))) for tree in modules.values())
    assert consumers == calls == 1
    # an estimate table is built only by stats.estimate_overlaps, and no
    # call joins the columns that every pair has; an edge keeps its distance
    builders = [func.name for func in ast.walk(modules["stats"])
                if isinstance(func, ast.FunctionDef)
                and list(_calls_to(func, "OverlapEstimate"))]
    assert builders == ["estimate_overlaps"]
    per_pair = {"shots_total", "hits", "p_hat", "overlap_sq_hat", "clamped"}
    for tree in modules.values():
        for name in ("concatenate", "hstack", "vstack", "stack", "append"):
            for call in _calls_to(tree, name):
                assert not {("attr", a) for a in per_pair} & _refs(call.args), (
                    ast.unparse(call))
