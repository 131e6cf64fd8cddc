"""No module of the package keeps an unused import, an unused private helper
or a record field that nothing reads.

No linter runs on the package, so these checks stand in for the rules that
catch what deletions leave behind.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import planepart

SRC = Path(planepart.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
TEST_TREES = [ast.parse(p.read_text(), str(p))
              for p in sorted(Path(__file__).parent.glob("*.py"))]


def references(node) -> Counter:
    """Names read under node: loaded names, attributes and imported names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


READ = sum((references(tree) for tree in TREES.values()), Counter())


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = TREES[path]
    loaded = {sub.id for sub in ast.walk(tree)
              if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    assert [name for name in bound if name not in loaded] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used(path):
    unused = []
    for node in TREES[path].body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        own = references(node)  # a helper that only calls itself is unused
        unused += [name for name in names
                   if is_private(name) and READ[name] <= own[name]]
    assert unused == []


def is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list)


# attributes loaded anywhere in the package or its tests
ATTRIBUTES_READ = {sub.attr for tree in [*TREES.values(), *TEST_TREES]
                   for sub in ast.walk(tree)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_record_field_is_read(path):
    # a field that is only ever set is state nothing needs
    unread = [f"{node.name}.{item.target.id}"
              for node in TREES[path].body if is_dataclass(node)
              for item in node.body if isinstance(item, ast.AnnAssign)
              and item.target.id not in ATTRIBUTES_READ]
    assert unread == []


def test_only_arith_turns_digits_into_bits():
    # a context derives its binary precision once (PrecisionContext.prec)
    assert [p.name for p in MODULES
            if p.name != "arith.py" and references(TREES[p])["dps_to_prec"]] == []


def test_no_module_reads_a_second_precision():
    # ... and one kernel precision (PrecisionContext.bits): the tables kept
    # across calls have no precision of their own
    assert [p.name for p in TREES if references(TREES[p])["table_bits"]] == []


@pytest.mark.parametrize("name", ["almkvist.py", "circle.py", "dedekind.py"])
def test_kernels_read_the_context_bits(name):
    # every kernel reads that precision from its context, and no object
    # keeps a copy of it under a name of its own
    attrs = [sub for sub in ast.walk(TREES[SRC / name])
             if isinstance(sub, ast.Attribute) and sub.attr == "bits"]
    assert any(isinstance(sub.ctx, ast.Load) for sub in attrs)
    assert [sub.lineno for sub in attrs if isinstance(sub.ctx, ast.Store)] == []
    read = references(TREES[SRC / name])
    assert read["precision_band"] == read["band"] == read["table_bits"] == 0


def test_only_arith_reads_the_guard():
    # the kernels read their margins through the context (bits)
    read = {p.name: references(TREES[p]) for p in MODULES if p.name != "arith.py"}
    assert [name for name, refs in read.items()
            if refs["GUARD_BITS"] or refs["precision_band"]] == []


def test_only_arith_sets_a_guard():
    # every integer kernel reads its margin from arith.GUARD_BITS
    bound = [f"{p.name}:{t.id}" for p in MODULES if p.name != "arith.py"
             for node in TREES[p].body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(t, ast.Name) and "GUARD" in t.id]
    assert bound == []


@pytest.mark.parametrize("name", ["almkvist.py", "circle.py", "dedekind.py"])
def test_kernels_build_no_context(name):
    # a kernel works at its caller's context (PrecisionContext.bits), not
    # at a context of its own
    built = [f"{fn.name}:{sub.lineno}" for fn in ast.walk(TREES[SRC / name])
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for sub in ast.walk(fn) if isinstance(sub, ast.Call)
             and getattr(sub.func, "id", getattr(sub.func, "attr", None)) == "PrecisionContext"]
    assert built == []


def is_float_test(node) -> bool:
    """isinstance(..., float) or isinstance(..., (..., float, ...))."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(getattr(kind, "id", None) == "float" for kind in kinds)


def is_context_branch(node) -> bool:
    """A branch on whether a context was given: ctx, not ctx, ctx is (not) None."""
    if not isinstance(node, (ast.If, ast.IfExp)):
        return False
    test = node.test.operand if isinstance(node.test, ast.UnaryOp) else node.test
    if isinstance(test, ast.Compare):
        test = test.left if all(isinstance(op, (ast.Is, ast.IsNot)) for op in test.ops) else None
    return isinstance(test, ast.Name) and test.id == "ctx"


def test_only_arith_chooses_floats_or_mpmath():
    # lam, M* and the saddle cubic's Newton are one expression each, read in
    # the number type arith.number_type gives (Python floats without a
    # context, mpfs at its working precision with one): no other module
    # picks a precision scope, and the saddle layers neither test for
    # floats nor branch on whether a context was given
    assert [p.name for p in MODULES
            if p.name != "arith.py" and references(TREES[p])["nullcontext"]] == []
    branches = [f"{name}:{sub.lineno}" for name in ("almkvist.py", "circle.py")
                for fn in ast.walk(TREES[SRC / name]) if isinstance(fn, ast.FunctionDef)
                for sub in ast.walk(fn) if is_float_test(sub) or is_context_branch(sub)]
    assert branches == []
