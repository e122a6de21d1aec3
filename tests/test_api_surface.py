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
binding, not to a module definition. An import alone is not a use.

Every public method or property of a public class in ``src/metabounds`` must
likewise be read, as an attribute of its name, somewhere in ``src/`` outside
its own class body, or be named in ``ALLOWED`` as ``module.Class.name``.
The check goes by name alone: a read of ``x.step`` counts for every member
called ``step``.

The spelling of a name states once whether it is public, so no module in
``src/metabounds`` assigns ``__all__``, and every top-level import is read
or says why it stays.
"""

import ast
import re
from collections import Counter, defaultdict
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
    "metalearn.independent_baseline": "criterion 7 compares the meta-learner with from-scratch "
                                      "adaptation",
    "diff.backward": "the benchmark's tracer wraps it; criterion 3's gradcheck sweeps the "
                     "single-task reference chain, and each training step's node, backward "
                     "through it",
    "model.taped_mc_risk": "the benchmark's tracer wraps it on metalearn; criterion 3 builds "
                           "its single-task certificate from it",
    "diff.Tape.tensor": "criterion 3 builds the leaves of its single-task certificate and of "
                        "each step's node with it",
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


def _unread_members(sources: dict[str, str]) -> list[str]:
    """``module.Class.name`` of each public method or property of a public
    class that no attribute read of that name reaches outside the class's
    own body, in any module of ``sources``."""
    members, readers = set(), defaultdict(set)
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        owner = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                cls = f"{module}.{node.name}"
                members.update(f"{cls}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
                owner.update((id(sub), cls) for sub in ast.walk(node))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                readers[sub.attr].add(owner.get(id(sub)))
    return sorted(member for member in members
                  if not readers[member.rsplit(".", 1)[1]] - {member.rsplit(".", 1)[0]})


def test_every_public_definition_is_used_or_allowed():
    definitions, uses = _public_definitions_and_uses(_package_sources())
    unused = sorted(name for name in definitions if not uses[name] and name not in ALLOWED)
    assert unused == [], "public API that src/ does not use; delete it or allow it"


def test_every_public_member_is_read_or_allowed():
    unread = [name for name in _unread_members(_package_sources()) if name not in ALLOWED]
    assert unread == [], "public members that src/ does not read; delete them or allow them"


def test_allow_list_names_only_unused_definitions():
    sources = _package_sources()
    definitions, uses = _public_definitions_and_uses(sources)
    unread = _unread_members(sources)
    stale = sorted(name for name in ALLOWED
                   if (name not in definitions or uses[name]) and name not in unread)
    assert stale == []


def test_a_member_read_only_in_its_own_class_is_unread():
    sources = {
        "audit": "from dataclasses import dataclass\n"
                 "@dataclass\n"
                 "class Report:\n"
                 "    trials: int\n"
                 "    def rate(self):\n        return self.share / self.trials\n"
                 "    @property\n"
                 "    def share(self):\n        return 0.5\n"
                 "    def _hidden(self):\n        return 0\n"
                 "    def summary(self):\n        return self.rate()\n"
                 "    def kept(self):\n        return 1\n"
                 "class _Private:\n"
                 "    def unused(self):\n        return 0\n"
                 "def count(report):\n    return report.trials + report.kept()\n",
        "cli": "def show(report):\n    return report.summary\n",
    }
    assert _unread_members(sources) == ["audit.Report.rate", "audit.Report.share"]


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
                   if name not in reached and name.rsplit(".", 1)[1] not in reached)
    assert stale == []


def test_every_allowed_name_is_still_named_where_its_reason_points():
    """Each reason in ``ALLOWED`` points at the benchmark or an acceptance
    criterion, so the name appears as a word in ``bench/*.py`` or in
    ``tests/test_acceptance.py``; an entry whose reason stopped holding
    fails here."""
    text = "\n".join(path.read_text() for path in [*sorted(BENCH.glob("*.py")),
                                                    ROOT / "tests" / "test_acceptance.py"])
    lapsed = sorted(name for name in ALLOWED
                    if not re.search(rf"\b{name.rsplit('.', 1)[1]}\b", text))
    assert lapsed == []


def test_diff_holds_only_the_tape_a_training_step_runs():
    definitions, _ = _public_definitions_and_uses(_package_sources())
    assert sorted(name for name in definitions if name.startswith("diff.")) == [
        "diff.Tape", "diff.Tensor", "diff.backward", "diff.constant"]
    arithmetic = [name for name in vars(diff.Tensor) if name.strip("_") in {
        "add", "radd", "sub", "rsub", "mul", "rmul", "neg", "matmul", "rmatmul",
        "truediv", "rtruediv", "pow", "rpow"}]
    assert arithmetic == []


def _tracer_targets() -> list[tuple[str, str]]:
    for node in ast.parse((BENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "TARGETS"
                                                for target in node.targets):
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_tracer_target_is_bound_and_an_unused_import_says_why():
    """Each attribute the benchmark's tracer wraps stays bound on its module,
    or its span would read 0. A name a module imports only for the tracer
    carries ``# noqa: F401``, so that a lint pass does not delete it."""
    sources = _package_sources()
    unexplained, missing = [], []
    for module, attr in _tracer_targets():
        text = sources[module]
        tree = ast.parse(text)
        lines = text.splitlines()
        defined = any(isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == attr
                      for node in tree.body)
        imported = [alias for node in tree.body if isinstance(node, ast.ImportFrom)
                    for alias in node.names if (alias.asname or alias.name) == attr]
        if not defined and not imported:
            missing.append(f"{module}.{attr}")
            continue
        used = any(isinstance(node, ast.Name) and node.id == attr
                   and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))
        if imported and not used and "noqa: F401" not in lines[imported[0].lineno - 1]:
            unexplained.append(f"{module}.{attr}")
    assert missing == []
    assert unexplained == []


_TRACER_NOQA = re.compile(r"#\s*noqa: F401 - bench/tracer\.py\b")


def _stale_tracer_imports(sources: dict[str, str], targets: set[tuple[str, str]]) -> list[str]:
    """``module.name`` of each name a top-level import binds on a line marked
    ``# noqa: F401 - bench/tracer.py …`` where ``(module, name)`` is not a
    tracer target."""
    stale = []
    for module, text in sorted(sources.items()):
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if _TRACER_NOQA.search(lines[alias.lineno - 1]) \
                        and (module, name) not in targets:
                    stale.append(f"{module}.{name}")
    return stale


def test_every_import_kept_for_the_tracer_is_a_tracer_target():
    """The converse of the check above: an import kept only because
    ``bench/tracer.py`` wraps it names one of its targets, so when the
    tracer drops a target this names the import to delete."""
    sources = _package_sources()
    assert any(_TRACER_NOQA.search(text) for text in sources.values())
    assert _stale_tracer_imports(sources, set(_tracer_targets())) == []


def test_an_import_kept_for_a_dropped_tracer_target_is_stale():
    sources = {
        "audit": "from .bounds import check  # noqa: F401 - bench/tracer.py wraps it here\n"
                 "from .env import (\n"
                 "    draw,\n"
                 "    true_risk,  # noqa: F401 - bench/tracer.py wraps it here\n"
                 "    sample,  # noqa: F401 - bench/tracer.py wraps it here\n"
                 ")\n"
                 "from .model import score  # noqa: F401 - a caller patches it here\n",
    }
    targets = {("audit", "true_risk"), ("audit", "draw"), ("env", "sample")}
    assert _stale_tracer_imports(sources, targets) == ["audit.check", "audit.sample"]


_NOQA_F401 = re.compile(r"#\s*noqa: F401 - \S")


def _dead_imports(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each name bound by a top-level import (other than
    ``from __future__``) that its module never reads and whose line carries
    no ``# noqa: F401 - <reason>``."""
    dead = []
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name in read or _NOQA_F401.search(lines[alias.lineno - 1]):
                    continue
                dead.append(f"{module}.{name}")
    return dead


def test_every_import_is_read_or_says_why():
    """No linter runs on the package, so this is its unused-import check:
    every top-level import is read in its module or marked
    ``# noqa: F401 - <reason>`` on its own line."""
    assert _dead_imports(_package_sources()) == []


def test_an_unread_import_without_a_reason_is_dead():
    sources = {
        "model": "from __future__ import annotations\n"
                 "import math\n"
                 "import os.path\n"
                 "import numpy as np\n"
                 "from dataclasses import dataclass, field, replace\n"
                 "from .diff import (\n"
                 "    backward,  # noqa: F401 - a tracer wraps it here\n"
                 "    constant,  # noqa: F401\n"
                 "    Tape,\n"
                 ")\n"
                 "__all__ = ['Tape']\n"
                 "@dataclass\n"
                 "class Point:\n"
                 "    x: float = field(default=0.0)\n"
                 "def norm(p):\n"
                 "    return np.hypot(p.x, os.path.sep and 0.0)\n",
    }
    assert _dead_imports(sources) == ["model.math", "model.replace", "model.constant",
                                      "model.Tape"]


def _surface_lists(sources: dict[str, str]) -> list[str]:
    """The modules of ``sources`` that assign ``__all__`` anywhere, by
    assignment, annotation or augmented assignment."""
    return [module for module, text in sorted(sources.items())
            if any(isinstance(node, ast.Name) and node.id == "__all__"
                   and isinstance(node.ctx, ast.Store) for node in ast.walk(ast.parse(text)))]


def test_no_module_states_its_surface_in_all():
    """An ``__all__`` states the public surface a second time, beside the
    spelling of each name, and only a test would keep the two in step."""
    assert _surface_lists(_package_sources()) == []


def test_a_module_assigning_all_states_its_surface_twice():
    sources = {
        "audit": "__all__ = ['run']\ndef run():\n    return 0\n",
        "bounds": "__all__: list[str] = []\n",
        "cli": "from .audit import run\n__all__ = []\n__all__ += ['run']\n",
        "env": "import sys\n"
               "def names():\n    return getattr(sys.modules[__name__], '__all__', ())\n",
        "gauss": "def names(module):\n    return module.__all__\n",
    }
    assert _surface_lists(sources) == ["audit", "bounds", "cli"]
