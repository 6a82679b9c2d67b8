"""Every public name in the library has a caller outside the tests.

A public module-level function or class, and a public method, passes when
it is read (an ``ast.Name`` or ``ast.Attribute`` load) somewhere in
``src/`` or ``bench/*.py`` outside its own definition, or when README.md
names it.  The allowlist holds the names kept without such a caller.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "shiftkrr").glob("*.py"))

# name -> why it stays without a caller in src/, bench/ or the README
ALLOWED = {
    "regular_bound": "a paper bound; ROADMAP plans a sweep that measures against it",
    "unbounded_unweighted_bound": "a paper bound; ROADMAP plans a sweep that measures against it",
    "unbounded_lambda_star": "the lambda of that bound, which the same sweep is to fit at",
    "expectation_bound": "a paper bound; ROADMAP plans a sweep that measures against it",
    "empirical_risk": "acceptance criterion 1 checks the ERM objective with it",
    "eta_sums": "acceptance criterion 6 checks the separation statistics with it",
    "estimate_chi_sq_moment": "acceptance criterion 5 estimates V^2 with it",
    "HardInstanceState.population": "the population state at which g_primal is checked exactly",
    "Dataset.to_csv": "acceptance criterion 8 writes the fit CLI's dataset with it",
}


def _public_definitions():
    """(label, name, path, node) for each public function, class and method in src/."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, node.name, path, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name, path, member


def _reads():
    """(name, path, line) for each name or attribute read in src/ and bench/."""
    for path in SRC + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None:
                    yield name, path, node.lineno


def _uncalled():
    readme = (ROOT / "README.md").read_text()
    reads = list(_reads())
    for label, name, path, node in _public_definitions():
        called = any(n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                     for n, p, line in reads)
        if not called and not re.search(rf"\b{re.escape(name)}\b", readme):
            yield label


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(set(_uncalled()) - set(ALLOWED)) == []


def test_the_allowlist_names_only_defined_names_without_a_caller():
    assert sorted(_uncalled()) == sorted(ALLOWED)
