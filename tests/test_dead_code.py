"""Every name the package defines has a user in the package, its scripts or its benchmark."""
import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cpsforge"

# names whose only users are tests, each with the reason it stays
ALLOWED = {
    "section_pullback": "test oracle: pullback along a section, for the horizontal-form identities",
    "relative_integral": "test oracle: quadrature of a relative form, for the relative Stokes tests",
    "relative_stokes_residual": "public operator of the paper's relative Stokes identity",
    "rel_dd": "public operator of the paper's relative bicomplex (rel_dd o rel_dd = 0)",
    "NoetherData.identity_holds": "the Noether identity verdict that the pipeline tests assert",
}


def defined_names() -> list[str]:
    """Top-level functions and classes, and the methods of top-level classes, without dunders."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out += [f"{node.name}.{f.name}" for f in node.body if isinstance(f, ast.FunctionDef)]
    return [q for q in out if not re.fullmatch(r"__\w+__", q.rsplit(".", 1)[-1])]


def test_no_dead_code():
    words = Counter(
        w for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
        for w in re.findall(r"\w+", p.read_text())
    )
    names = defined_names()
    assert set(ALLOWED) <= set(names), "an allowed name is no longer defined"
    dead = [q for q in names if q not in ALLOWED and words[q.rsplit(".", 1)[-1]] < 2]
    assert not dead, f"defined but never used outside tests: {dead}"
