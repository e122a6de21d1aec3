"""Guard on the public surface of the package.

Every public top-level ``def`` or ``class`` in ``src/metabounds`` must be
used by other code in ``src/``, or be named in ``ALLOWED`` with the reason
it stays: the acceptance criteria's entry points and oracles. A use is a
reference outside the definition's own body that resolves to it: an
attribute of an alias of its module (``diff.exp``, but not ``np.exp``), or a
bare name in its own module or in a module that imports it from there. An
import or an ``__all__`` entry alone is not a use.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "metabounds"
PACKAGE = "metabounds"

RISK_CHAIN = "the reference chain of model.taped_mc_risk in tests/test_model.py is built from it"

ALLOWED = {
    "metalearn.adapt": "the benchmark adapts and certifies single tasks through it",
    "env.true_risk_mc": "the benchmark's meta-mlp1 item scores single tasks through it; it "
                        "goes together with metalearn.adapt",
    "metalearn.adaptation_objective": "criterion 3 gradchecks the adaptation certificate "
                                      "through it",
    "metalearn.meta_objective": "criterion 3 gradchecks the meta-level certificate through it",
    "metalearn.independent_baseline": "criterion 7 compares the meta-learner with from-scratch "
                                      "adaptation",
    "diff.gradcheck": "criterion 3's finite-difference oracle",
    "diff.exp": "criterion 3 builds the single-task certificate's divergence from it",
    "diff.sqrt": "criterion 3 builds the single-task certificate's square-root term from it",
    "diff.log": "the softplus reference chain in tests/test_diff.py is built from it",
    "diff.reparam": RISK_CHAIN,
    "diff.slice": RISK_CHAIN,
    "diff.tanh": RISK_CHAIN,
    "diff.softplus": RISK_CHAIN,
    "diff.softmax_cross_entropy": RISK_CHAIN,
    "diff.clip_rescale": RISK_CHAIN,
    "gauss.expected_kl_under_gaussian_mean": "criterion 2 checks the expected divergence "
                                             "against Monte Carlo through it; the sweep prices "
                                             "its array form",
    "audit.quadrature_kl_1d": "criterion 2's numerical-integration oracle for the closed-form "
                              "KLs",
    "bounds.kl_decomposition_check": "criterion 1's oracle",
    "bounds.random_discrete_system": "criterion 1's oracle",
    "bounds.lambda_star": "criterion 8 checks the closed-form trade-off parameter and its "
                          "clip flag",
    "bounds.lemma2_grid_minimum": "criterion 8's exact grid oracle",
    "bounds.lemma2_lambda_form": "the fixed-lambda gap that lambda_star and the grid minimum "
                                 "minimize; their tests scan it",
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
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
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
