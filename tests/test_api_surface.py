"""Guard on the public surface of the package.

Every public top-level ``def`` or ``class`` in ``src/metabounds`` must be
used by other code in ``src/``, or be named in ``ALLOWED`` with the reason
it stays: the benchmark or an acceptance criterion calls it. Oracles that
only the tests call belong in ``tests/oracles.py``. A use is a
reference outside the definition's own body that resolves to it: an
attribute of an alias of its module (``diff.sum``, but not ``np.sum``), or a
bare name in its own module or in a module that imports it from there. A
bare name that an enclosing function, lambda or comprehension binds itself
(a parameter, an assignment target, a loop variable) resolves to that local
binding, not to a module definition. An import or an ``__all__`` entry alone
is not a use.
"""

import ast
from collections import Counter
from pathlib import Path

from metabounds import diff

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "metabounds"
BENCH = ROOT / "bench"
PACKAGE = "metabounds"

ALLOWED = {
    "metalearn.adapt": "the benchmark adapts and certifies single tasks through it",
    "env.true_risk_mc": "the benchmark's meta-mlp1 item scores single tasks through it; it "
                        "goes together with metalearn.adapt",
    "bounds.kl_decomposition_check": "the benchmark's tracer wraps it on audit; criterion 1's "
                                     "oracle",
    "gauss.expected_kl_under_gaussian_mean": "the benchmark's tracer wraps it on pipelines; "
                                             "criterion 2 checks the expected divergence "
                                             "against Monte Carlo through it, and the sweep "
                                             "prices its array form",
    "metalearn.adaptation_objective": "criterion 3 gradchecks the adaptation certificate "
                                      "through it",
    "metalearn.meta_objective": "criterion 3 gradchecks the meta-level certificate through it",
    "metalearn.independent_baseline": "criterion 7 compares the meta-learner with from-scratch "
                                      "adaptation",
}


def _imported_module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from ... import`` names, or None when it names
    the package itself or something outside it."""
    if node.level:
        return node.module
    if node.module and node.module.startswith(PACKAGE + "."):
        return node.module[len(PACKAGE) + 1:]
    return None


def _names_in_scope(tree: ast.Module) -> tuple[dict, dict]:
    """Aliases of package modules, mapped to the module, and bare names
    imported from them, mapped to ``module.name`` of what they refer to."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _imported_module(node)
            from_package = source is None and (node.level == 1 or node.module == PACKAGE)
            for alias in node.names:
                local = alias.asname or alias.name
                if from_package:
                    modules[local] = alias.name
                elif source is not None:
                    names[local] = f"{source}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith(PACKAGE + "."):
                    modules[alias.asname] = alias.name[len(PACKAGE) + 1:]
    return modules, names


_FUNCTIONS = (ast.FunctionDef, ast.Lambda)
_SCOPES = _FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds itself: its
    parameters and whatever its own code, outside nested scopes, assigns,
    loops over, catches or defines. (An import inside a function still
    refers to what it imports; ``_names_in_scope`` resolves it.)"""
    names = set()
    if isinstance(scope, _FUNCTIONS):
        args = scope.args
        names.update(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs)
        names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    stack = _scope_body(scope)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _scope_body(scope: ast.AST) -> list[ast.AST]:
    """The parts of a scope that run inside it: a function's body, or all of
    a comprehension (a function's defaults and decorators run outside)."""
    if isinstance(scope, _FUNCTIONS):
        return list(scope.body) if isinstance(scope.body, list) else [scope.body]
    return list(ast.iter_child_nodes(scope))


def _local_reads(tree: ast.Module) -> set[int]:
    """ids of the bare names that resolve to a binding of an enclosing
    function, lambda or comprehension."""
    local = set()

    def walk(node: ast.AST, bound: frozenset) -> None:
        if isinstance(node, ast.Name) and node.id in bound:
            local.add(id(node))
        inner, body = bound, set()
        if isinstance(node, _SCOPES):
            inner = bound | _bound_names(node)
            body = {id(part) for part in _scope_body(node)}
        for child in ast.iter_child_nodes(node):
            walk(child, inner if id(child) in body else bound)

    walk(tree, frozenset())
    return local


def _public_definitions_and_uses(sources: dict[str, str]):
    """Public top-level definitions as ``module.name`` and how often each is
    used, from the source text of each module."""
    definitions = set()
    uses = Counter()
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        modules, names = _names_in_scope(tree)
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    definitions.add(f"{module}.{node.name}")
                for sub in ast.walk(node):
                    owner[id(sub)] = f"{module}.{node.name}"
        local = _local_reads(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                if id(sub) in local:
                    continue
                target = names.get(sub.id, f"{module}.{sub.id}")
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and sub.value.id in modules:
                target = f"{modules[sub.value.id]}.{sub.attr}"
            else:
                continue
            if owner.get(id(sub)) != target:
                uses[target] += 1
    return definitions, uses


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def test_every_public_definition_is_used_or_allowed():
    definitions, uses = _public_definitions_and_uses(_package_sources())
    unused = sorted(name for name in definitions if not uses[name] and name not in ALLOWED)
    assert unused == [], "public API that src/ does not use; delete it or allow it"


def test_allow_list_names_only_unused_definitions():
    definitions, uses = _public_definitions_and_uses(_package_sources())
    stale = sorted(name for name in ALLOWED if name not in definitions or uses[name])
    assert stale == []


def test_all_lists_the_public_functions_and_classes_and_only_bound_names():
    """Where a module defines ``__all__``, it names every public top-level
    function and class, and every name in it is bound at the top level (by a
    definition, an assignment or an import), so no deleted name lingers."""
    checked = []
    for module, text in sorted(_package_sources().items()):
        exported, public, bound = None, set(), set()
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
                if not node.name.startswith("_"):
                    public.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                bound.update(names)
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
        if exported is None:
            continue
        checked.append(module)
        assert len(set(exported)) == len(exported), module
        assert sorted(public - set(exported)) == [], module
        assert sorted(set(exported) - bound) == [], module
    assert {"__init__", "bounds", "metalearn", "pipelines"} <= set(checked)


def test_a_same_named_attribute_of_another_module_is_no_use():
    sources = {
        "diff": "import numpy as np\n"
                "def exp(a):\n    return np.exp(a)\n"
                "def tanh(a):\n    return np.tanh(a)\n"
                "def sum(a):\n    return a\n"
                "def _total(a):\n    return sum(a)\n",
        "model": "import numpy as np\n"
                 "from . import diff\n"
                 "from .diff import tanh as squash\n"
                 "def forward(x):\n    return squash(np.exp(x))\n"
                 "def score(x):\n    return forward(exp(x)) + diff.sum(x)\n",
    }
    definitions, uses = _public_definitions_and_uses(sources)
    unused = sorted(name for name in definitions if not uses[name])
    assert unused == ["diff.exp", "model.score"]


def test_a_same_named_parameter_or_local_is_no_use():
    sources = {
        "diff": "def mean(a):\n    return a\n"
                "def total(a):\n    return a\n"
                "def spread(a):\n    return max(a) - min(a)\n"
                "def centered(a, mean):\n"
                "    total = a - mean\n"
                "    return [spread(x) for total in [total] for x in total]\n",
    }
    definitions, uses = _public_definitions_and_uses(sources)
    unused = sorted(name for name in definitions if not uses[name])
    assert unused == ["diff.centered", "diff.mean", "diff.total"]


def _benchmark_names() -> set[str]:
    """The attributes of ``metabounds`` the benchmark reaches: the attribute
    of every target of ``bench/tracer.py``'s ``TARGETS``, and every
    ``module.name`` attribute that ``bench/workloads.py`` reads."""
    names = set()
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "TARGETS"
                                                for target in node.targets):
            names.update(attr for _, attr, _ in ast.literal_eval(node.value))
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
    return names


def test_benchmark_exemptions_name_what_the_benchmark_still_reaches():
    """An entry kept for the benchmark goes stale when the benchmark stops
    reaching it."""
    reached = _benchmark_names()
    cited = [name for name, reason in ALLOWED.items() if "benchmark" in reason]
    assert cited
    stale = sorted(name for name in cited
                   if name not in reached and name.split(".")[1] not in reached)
    assert stale == []


def test_diff_holds_only_the_tape_a_training_step_runs():
    definitions, _ = _public_definitions_and_uses(_package_sources())
    assert sorted(name for name in definitions if name.startswith("diff.")) == [
        "diff.Tape", "diff.Tensor", "diff.backward", "diff.constant", "diff.gaussian_kl",
        "diff.sum"]
    arithmetic = [name for name in vars(diff.Tensor) if name.strip("_") in {
        "add", "radd", "sub", "rsub", "mul", "rmul", "neg", "matmul", "rmatmul",
        "truediv", "rtruediv", "pow", "rpow"}]
    assert arithmetic == []
