"""Every public name and option in the library has a caller outside the tests.

A public module-level function or class, and a public method, passes when
it is read (an ``ast.Name`` or ``ast.Attribute`` load) somewhere in
``src/`` or ``bench/*.py`` outside its own definition, or when README.md
names it as a word not preceded by ``-`` (a flag such as ``--trace`` is
no mention).  A defaulted parameter of such a function or method passes
when a call there passes it, by keyword, by position or through a splat.
The allowlists hold what is kept without such a caller.
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

# "function.parameter" -> why the defaulted parameter stays without a caller that passes it;
# the parameters of the allowlisted names above are not checked
ALLOWED_PARAMETERS = {
    "g_primal.quad_coeff": "acceptance criterion 6 evaluates the sandwich surrogates with it",
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


def _nodes():
    """(path, node) for each node of src/ and bench/*.py."""
    for path in SRC + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path, node


def _reads():
    """(name, path, line) for each name or attribute read in src/ and bench/."""
    for path, node in _nodes():
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
        if not called and not re.search(rf"(?<!-)\b{re.escape(name)}\b", readme):
            yield label


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether ``call`` passes ``param``, which a positional argument at ``position`` fills."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed():
    """Each defaulted parameter that no call in src/ or bench/ passes, as "function.parameter"."""
    calls = [(node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None),
              path, node) for path, node in _nodes() if isinstance(node, ast.Call)]
    for label, name, path, node in _public_definitions():
        if label in ALLOWED or not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if "." in label:  # a method: calls through an instance or class fill self or cls
            positional = positional[1:]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        own = [call for n, p, call in calls if n == name
               and not (p == path and node.lineno <= call.lineno <= node.end_lineno)]
        for param in defaulted:
            position = positional.index(param) if param in positional else None
            if not any(_passes(call, param.arg, position) for call in own):
                yield f"{label}.{param.arg}"


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(set(_uncalled()) - set(ALLOWED)) == []


def test_the_allowlist_names_only_defined_names_without_a_caller():
    assert sorted(_uncalled()) == sorted(ALLOWED)


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    assert sorted(_unpassed()) == sorted(ALLOWED_PARAMETERS)
