"""Design guards over the source tree, read with ast.

No helper is kept alive only by its own tests: every top-level function and
class of src/clarikit, and every method of a top-level class, is referenced
by name or attribute somewhere in src/ outside its own definition.  The
exceptions are the acceptance surface, definitions the program never calls
that the acceptance criteria and the benchmark use to state or check a
result; each of those must be referenced in tests/ or perfbench/.  Dunder
methods are called by Python itself and are not scanned, and a name inside
a string is no reference.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

ACCEPTANCE_SURFACE = (
    "oracle_click_rates",
    "simulate_stats",
    "fit_cascade_attractiveness",
    "engagement_rate",
    "conditional_click_distribution",
    "click_entropy",
    "fleiss_kappa",
    "UserModel.relevance_only",
    "UserModel.examination",
    "UserModel.cascade",
    "UserModel.size_offset_logistic",
    "RlcModel.score",
    "pair_probabilities",
    "pairwise_accuracy",
    "neg",
    "softmax",
    "layer_norm",
    "check_gradients",
)


def _trees(*dirs):
    paths = sorted(path for d in dirs for path in (ROOT / d).rglob("*.py") if path.name != "test_design.py")
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]


def _references(node) -> collections.Counter:
    """How often each name is read as a bare name or as an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """(qualified name, node) of the top-level functions and classes and of
    the non-dunder methods of the top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{node.name}.{method.name}", method


def test_every_definition_is_referenced_in_src_or_on_the_acceptance_surface():
    trees = _trees("src")
    everywhere = sum((_references(tree) for tree in trees), collections.Counter())
    unreferenced = {
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if everywhere[node.name] == _references(node)[node.name]
    }
    assert sorted(unreferenced - set(ACCEPTANCE_SURFACE)) == [], "referenced nowhere in src/: use or remove"
    assert sorted(set(ACCEPTANCE_SURFACE) - unreferenced) == [], "referenced in src/ or gone: drop from the surface"


def test_acceptance_surface_is_referenced_in_tests_or_perfbench():
    outside = sum((_references(tree) for tree in _trees("tests", "perfbench")), collections.Counter())
    assert [qualname for qualname in ACCEPTANCE_SURFACE if not outside[qualname.split(".")[-1]]] == []
