import ast
from pathlib import Path

import subfault

SOURCES = sorted(Path(subfault.__file__).parent.glob("*.py"))


def _is_comparison(node) -> bool:
    if isinstance(node, ast.GeneratorExp):
        node = node.elt
    return isinstance(node, ast.Compare)


def _counts_above_a_threshold(node) -> bool:
    """True for np.count_nonzero(...), np.sum(a > b), sum(a > b ...) and
    (a > b).sum(): a count of the values a threshold keeps."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "count_nonzero":
        return True
    if isinstance(func, ast.Attribute) and func.attr == "sum" and _is_comparison(func.value):
        return True
    is_sum = (isinstance(func, ast.Attribute) and func.attr == "sum") or (
        isinstance(func, ast.Name) and func.id == "sum"
    )
    return is_sum and bool(node.args) and _is_comparison(node.args[0])


def _threshold_counts(tree, prefix=""):
    """(qualified name of the enclosing definition, line) of every count."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _threshold_counts(child, f"{prefix}{child.name}.")
            continue
        if _counts_above_a_threshold(child):
            found.append((prefix.rstrip("."), child.lineno))
        found += _threshold_counts(child, prefix)
    return found


def test_every_rank_is_counted_by_the_rank_policy():
    # RankPolicy.rank is the package's one count of singular values above a
    # threshold; any other count is a rank rule of its own
    counts = [
        (path.name, name)
        for path in SOURCES
        for name, _ in _threshold_counts(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert counts == [("matstack.py", "RankPolicy.rank")]


def test_the_scan_sees_each_form_of_count():
    source = (
        "def a(s, t):\n    return int(np.sum(s > t))\n"
        "def b(s):\n    return np.count_nonzero(s)\n"
        "class C:\n    def d(self, s, t):\n        return (s >= t).sum() + sum(x > t for x in s)\n"
        "def e(s):\n    return np.sum(s ** 2)\n"
    )
    names = [name for name, _ in _threshold_counts(ast.parse(source))]
    assert names == ["a", "b", "C.d", "C.d"]
