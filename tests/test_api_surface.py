"""Guard on the public surface of the package.

Every public top-level ``def`` or ``class`` in ``src/metabounds`` must be
used by other code in ``src/``, or be named in ``ALLOWED`` with the reason
it stays: the acceptance criteria's entry points and oracles. A reference
counts as a use when it is a name or an attribute outside the definition's
own body; an import or an ``__all__`` entry alone does not.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "metabounds"

ALLOWED = {
    "adapt": "the benchmark adapts and certifies single tasks through it",
    "adaptation_objective": "criterion 3 gradchecks the adaptation certificate through it",
    "meta_objective": "criterion 3 gradchecks the meta-level certificate through it",
    "independent_baseline": "criterion 7 compares the meta-learner with from-scratch adaptation",
    "gradcheck": "criterion 3's finite-difference oracle",
    "expected_kl_under_gaussian_mean": "criterion 2 checks the expected divergence against Monte "
                                       "Carlo through it; the sweep prices its array form",
    "quadrature_kl_1d": "criterion 2's numerical-integration oracle for the closed-form KLs",
    "lambda_star": "criterion 8 checks the closed-form trade-off parameter and its clip flag",
    "lemma2_grid_minimum": "criterion 8's exact grid oracle",
    "lemma2_lambda_form": "the fixed-lambda gap that lambda_star and the grid minimum minimize; "
                          "their tests scan it",
}


def _public_definitions_and_uses():
    definitions = {}
    uses = Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    definitions[node.name] = path.name
                for sub in ast.walk(node):
                    owner[id(sub)] = node.name
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if owner.get(id(sub)) != name:
                uses[name] += 1
    return definitions, uses


def test_every_public_definition_is_used_or_allowed():
    definitions, uses = _public_definitions_and_uses()
    unused = sorted(f"{module}:{name}" for name, module in definitions.items()
                    if not uses[name] and name not in ALLOWED)
    assert unused == [], "public API that src/ does not use; delete it or allow it"


def test_allow_list_names_only_unused_definitions():
    definitions, uses = _public_definitions_and_uses()
    stale = sorted(name for name in ALLOWED if name not in definitions or uses[name])
    assert stale == []
