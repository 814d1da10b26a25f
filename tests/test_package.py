"""What the package exports and imports: `ast` guards over `src/rmckit`."""

import ast
from pathlib import Path

import rmckit

PACKAGE = Path(rmckit.__file__).parent
DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _modules():
    """(stem, tree) of every module of the package except `__init__`."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text())


def _bound_in(fn) -> set[str]:
    """The names a function or lambda binds itself: its parameters and every
    name its own body stores, imports or defines, nested scopes aside."""
    args = fn.args
    names = {
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        if a is not None
    }
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif not isinstance(node, ast.Lambda):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
            stack.extend(ast.iter_child_nodes(node))
    return names


class _Reads(ast.NodeVisitor):
    """Every module-level binding a module reads, except the reads inside
    the top-level definition of that same name: a bare name that no
    enclosing function binds itself, or an attribute of an imported module.
    A local that happens to share an export's name is not a use of it."""

    def __init__(self, tree):
        self.outer, self.found, self.scopes = None, set(), []
        self.modules = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names
        }

    def visit_FunctionDef(self, node):
        top = self.outer is None
        if top:
            self.outer = node.name
        self.scopes.append(set() if isinstance(node, ast.ClassDef) else _bound_in(node))
        self.generic_visit(node)
        self.scopes.pop()
        if top:
            self.outer = None

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self.scopes.append(_bound_in(node))
        self.generic_visit(node)
        self.scopes.pop()

    def _read(self, name):
        if name != self.outer:
            self.found.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.scopes):
            self._read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self._read(node.attr)
        self.generic_visit(node)


def _called_by_demos() -> set[str]:
    called = set()
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return called


def test_every_export_is_used_by_the_package_or_a_demo():
    # a name that only tests reach belongs in the tests (`oracles`), not in
    # the library; a documented feature stays when a demo runs it
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for _, tree in _modules():
        visitor = _Reads(tree)
        visitor.visit(tree)
        read |= visitor.found
    unused = sorted(exported - read - _called_by_demos())
    assert unused == []


# perfbench's test_install_rebinds_every_binding_and_restore_undoes_it
# asserts that the tracer rebinds `rmckit.transducer.minimize`
UNREAD_IMPORTS = {("transducer", "minimize")}


def test_no_module_imports_a_name_it_never_reads():
    unread = set()
    for stem, tree in _modules():
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread |= {(stem, name) for name in imported if name not in loaded}
    assert unread == UNREAD_IMPORTS


class _Calls(ast.NodeVisitor):
    """(module, innermost enclosing function) of every call of `name`, as a
    bare name or an attribute."""

    def __init__(self, module, name):
        self.module, self.name, self.functions, self.found = module, name, [], set()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == self.name:
            self.found.add((self.module, self.functions[-1] if self.functions else None))
        self.generic_visit(node)


def test_only_four_functions_run_reachability():
    # a simulation check reads R from the space its simulation carries; a
    # new caller of `_reach_layers` must be added here on purpose
    found = set()
    for stem, tree in _modules():
        visitor = _Calls(stem, "_reach_layers")
        visitor.visit(tree)
        found |= visitor.found
    assert found == {
        ("system", "reachable"),
        ("system", "check_reachability_property"),
        ("gsp", "_nested_emptiness"),
        ("simulation", "_space"),
    }


class _Loops(ast.NodeVisitor):
    """(module, innermost enclosing function) of every `while` loop and of
    every `for` loop whose iterable reads `budget`."""

    def __init__(self, module):
        self.module, self.functions, self.found = module, [], set()

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _loop(self, node):
        self.found.add((self.module, self.functions[-1] if self.functions else None))
        self.generic_visit(node)

    def visit_While(self, node):
        self._loop(node)

    def visit_For(self, node):
        if any(isinstance(n, ast.Name) and n.id == "budget" for n in ast.walk(node.iter)):
            self._loop(node)
        else:
            self.generic_visit(node)


def test_one_budgeted_fixpoint_loop():
    # reachability, pre+, the nested rounds, the closure and the simulation
    # refinement step through `omega._fixpoint`; the other two loops are a
    # bounded lasso walk and the explicit oracle's refinement
    found = set()
    for stem, tree in _modules():
        if stem in ("system", "gsp", "transducer", "simulation", "omega"):
            visitor = _Loops(stem)
            visitor.visit(tree)
            found |= visitor.found
    assert found == {
        ("omega", "_fixpoint"),
        ("gsp", "_fair_lasso"),
        ("simulation", "brute_force_simulation"),
    }


def test_only_two_functions_take_a_word_kind():
    # a state property, an augmentation, a typed property and the other
    # constructions read the word kind from the automata and systems they
    # are given; only a relation built from an alphabet alone, and the
    # check of cop automata against the kind of the system they are given,
    # are told it
    found = set()
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                if any(a.arg == "mode" for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)):
                    found.add((stem, getattr(node, "name", "<lambda>")))
    assert found == {
        ("transducer", "identity"),
        ("gsp", "_check_cops"),
    }


def test_no_class_stores_a_word_kind():
    # a word kind is read from an automaton's class, and a system's from its
    # relation; a field beside them could disagree with what they read
    found = {
        (stem, node.name)
        for stem, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id == "mode"
    }
    assert found == set()


def test_every_source_line_fits_in_100_columns():
    long = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert long == []


def test_fileformat_reads_entry_keys_only_through_its_tables():
    # a file's keys are read through `_AUT_KEYS` and `_SYSTEM_KEYS`, never by
    # comparing a key with its name, and one reader splits `key: value`
    from rmckit import fileformat

    keys = set(fileformat._AUT_KEYS) | set(fileformat._SYSTEM_KEYS)
    tree = ast.parse((PACKAGE / "fileformat.py").read_text())

    def strings(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {e.value for e in elts if isinstance(e, ast.Constant) and isinstance(e.value, str)}

    compared = sorted(
        value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for value in strings(operand) & keys
    )
    assert compared == []

    splits = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    operands = node.args
                else:
                    continue
                if any(":" in s for operand in operands for s in strings(operand)):
                    splits.append(function.name)
    assert splits == ["_key_values"]
