"""Every public top-level function and class of the package, and every
public method of those classes, has a caller outside tests/: in the
package itself, in scripts/ or in bench/.

A name counts as reached when that code mentions it as a `Name`, an
`Attribute`, an import alias or an exact identifier string (bench/tracer.py
looks layers up by name); a method counts by its own name, whatever the
object it is called on. Library code that only tests reach is deleted,
except the names below, which exist for the tests.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expanderlab"
CALLER_ROOTS = (PACKAGE, ROOT / "scripts", ROOT / "bench")

TEST_ONLY = {
    "dense_singular_values": "oracle that the spectral kernel is checked against",
    "verify_matching": "independent verifier of every matching a test builds",
    "verify_path_system": "independent verifier of every connector path system",
    "eml_matrix_audit": "acceptance criterion 3, the matrix mixing inequality",
    "normalize_array": "acceptance criterion 3, the matrix whose s2 it passes",
    "hypergeometric_tail": "acceptance criterion 8, the window tail bound",
    "exact_hypergeometric_tail": "acceptance criterion 8, its exact oracle",
}


def _public_definitions() -> dict:
    """{qualified name: name} of the public top-level functions and classes
    and of the public methods of those classes."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[f"{path.stem}.{node.name}"] = node.name
                for method in node.body if isinstance(node, ast.ClassDef) else ():
                    if (isinstance(method, ast.FunctionDef)
                            and not method.name.startswith("_")):
                        defined[f"{path.stem}.{node.name}.{method.name}"] = method.name
    return defined


def _mentioned_names() -> set:
    names = set()
    for root in CALLER_ROOTS:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def test_every_public_name_has_a_caller_outside_tests():
    mentioned = _mentioned_names()
    unreached = {qual: name for qual, name in _public_definitions().items()
                 if name not in mentioned}
    assert sorted(unreached.values()) == sorted(TEST_ONLY), (
        f"reached only by tests: "
        f"{sorted(q for q, n in unreached.items() if n not in TEST_ONLY)}; "
        f"allowed but reached or gone: "
        f"{sorted(set(TEST_ONLY) - set(unreached.values()))}")


def test_every_traced_layer_exists():
    """bench/tracer.py wraps each (owner, attribute) of SPANNED and COUNTED
    by name; one the package lost breaks `bench/run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{owner.__name__}.{attr}" for owner, attr in tracer.SPANNED + tracer.COUNTED
               if not hasattr(owner, attr)]
    assert not missing, f"traced but gone: {missing}"
