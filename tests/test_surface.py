"""Every public name and option in the library has a caller outside the tests.

A public module-level function or class, and a public method, passes when
it is read (an ``ast.Name`` or ``ast.Attribute`` load) somewhere in
``src/`` or ``bench/*.py`` outside its own definition, or when README.md
names it as a word not preceded by ``-`` (a flag such as ``--trace`` is
no mention).  An attribute of a name imported from outside the package
(``np.trace``) or of the namespace ``parse_args()`` returns (``args.trace``)
is no read, and neither is a bare name spelled like a method.  A
defaulted parameter of such a function or method passes when a call
there passes it, by keyword, by position or through a splat.
The allowlists hold what is kept without such a caller.
"""

import ast
import pathlib
import re
import textwrap

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


def _sources():
    """(path, tree) for each file of src/ and bench/*.py."""
    return [(path, ast.parse(path.read_text()))
            for path in SRC + sorted((ROOT / "bench").glob("*.py"))]


def _public_definitions(sources):
    """(label, name, path, node) for each public function, class and method in ``sources``."""
    for path, tree in sources:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name, node.name, path, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name, path, member


def _nodes(sources):
    """(path, node) for each node of ``sources``."""
    for path, tree in sources:
        for node in ast.walk(tree):
            yield path, node


def _foreign_names(tree) -> set:
    """Names whose attributes are not the package's: imports from outside it, parse_args()."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names
                      if a.name.split(".")[0] != "shiftkrr"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] != "shiftkrr"):
            names |= {a.asname or a.name for a in node.names}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "attr", None) == "parse_args"):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def _reads(sources):
    """(name, is_attribute, path, line) for each name or attribute read in ``sources``."""
    for path, tree in sources:
        foreign = _foreign_names(tree)
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                yield node.id, False, path, node.lineno
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) not in foreign:
                yield node.attr, True, path, node.lineno


def _uncalled(defined, read, readme):
    """Labels of the public names in ``defined`` that ``read`` and ``readme`` never mention."""
    reads = list(_reads(read))
    for label, name, path, node in _public_definitions(defined):
        # a method is reached only as an attribute; a bare name of its spelling is a variable
        called = any(n == name and (attr or "." not in label)
                     and not (p == path and node.lineno <= line <= node.end_lineno)
                     for n, attr, p, line in reads)
        if not called and not re.search(rf"(?<!-)\b{re.escape(name)}\b", readme):
            yield label


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether ``call`` passes ``param``, which a positional argument at ``position`` fills."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def _unpassed(sources):
    """Each defaulted parameter that no call in ``sources`` passes, as "function.parameter"."""
    calls = [(node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None),
              path, node) for path, node in _nodes(sources) if isinstance(node, ast.Call)]
    src = [(path, tree) for path, tree in sources if path in SRC]
    for label, name, path, node in _public_definitions(src):
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


def _uncalled_in_tree():
    sources = _sources()
    return _uncalled([(p, t) for p, t in sources if p in SRC], sources,
                     (ROOT / "README.md").read_text())


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(set(_uncalled_in_tree()) - set(ALLOWED)) == []


def test_the_allowlist_names_only_defined_names_without_a_caller():
    assert sorted(_uncalled_in_tree()) == sorted(ALLOWED)


def test_every_defaulted_parameter_has_a_caller_that_passes_it():
    assert sorted(_unpassed(_sources())) == sorted(ALLOWED_PARAMETERS)


def test_a_foreign_attribute_an_option_or_a_variable_of_the_same_name_is_no_caller():
    def parsed(name, text):
        return pathlib.Path(name), ast.parse(textwrap.dedent(text))

    defined = [parsed("spectrum.py", """
        class EigenSequence:
            def trace(self):
                return 1.0
        """)]
    foreign = parsed("caller.py", """
        import argparse
        import numpy as np
        from numpy import linalg
        from shiftkrr.spectrum import EigenSequence

        def total(x, trace):
            args = argparse.ArgumentParser().parse_args([])
            return EigenSequence(), np.trace(x) + linalg.trace(x) + args.trace + trace
        """)
    called = parsed("caller.py", """
        from shiftkrr import spectrum

        def total(eigs):
            return eigs.trace() + spectrum.EigenSequence.trace(eigs)
        """)
    assert list(_uncalled(defined, defined + [foreign], "")) == ["EigenSequence.trace"]
    assert list(_uncalled(defined, defined + [called], "")) == []
