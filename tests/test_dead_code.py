"""Every name the package defines has a user in the package, its scripts or its
benchmark, and every method, property and dataclass field of a package class
is read there as ``.name``."""
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
    "SymmetryVerdict.obstruction_bulk": "the Euler sources of a refused d-symmetry, which the pipeline tests assert",
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


def dataclass_fields() -> list[str]:
    """The annotated fields of the package's dataclasses, as Class.field."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                out += [f"{node.name}.{f.target.id}" for f in node.body if isinstance(f, ast.AnnAssign)]
    return out


def user_source() -> str:
    return "\n".join(
        p.read_text() for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
    )


def test_allowed_names_exist():
    assert set(ALLOWED) <= set(defined_names()) | set(dataclass_fields()), "an allowed name is gone"


def test_no_dead_code():
    words = Counter(re.findall(r"\w+", user_source()))
    dead = [q for q in defined_names() if q not in ALLOWED and words[q.rsplit(".", 1)[-1]] < 2]
    assert not dead, f"defined but never used outside tests: {dead}"


def test_every_method_is_read():
    # a method named by a common word would pass test_no_dead_code on the word
    reads = Counter(re.findall(r"\.(\w+)", user_source()))
    unread = [q for q in defined_names() if "." in q and q not in ALLOWED and not reads[q.rsplit(".", 1)[-1]]]
    assert not unread, f"methods and properties never read as .name outside tests: {unread}"


def test_every_dataclass_field_is_read():
    reads = Counter(re.findall(r"\.(\w+)", user_source()))
    unread = [q for q in dataclass_fields() if q not in ALLOWED and not reads[q.rsplit(".", 1)[-1]]]
    assert not unread, f"dataclass fields never read as .field outside tests: {unread}"
