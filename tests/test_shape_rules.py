"""The shape rules of ``matstack``: a state-space quadruple is checked by
``_quadruple`` and a depth by ``_depth``, whichever entry point reads it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import subfault
from subfault.faultrec import (
    behaviorally_equivalent,
    estimate_fault_dim,
    recover,
    select_representative,
    verify_rank_formula,
    window_in_behavior,
)
from subfault.harness import ExperimentConfig
from subfault.matstack import block_hankel, block_toeplitz, extended_observability
from subfault.subid import estimate_initial_state, markov_params, pi_moesp
from subfault.sysgen import FaultPair, StateSpace, fault_signal, transmission_zeros, white_input

SOURCES = sorted(Path(subfault.__file__).parent.glob("*.py"))


# ---------------------------------------------------------------------------
# the depth rule


@pytest.mark.parametrize("name, call", [
    ("s", lambda sys, u, y: estimate_fault_dim(y, u, sys, 5.0)),
    ("s", lambda sys, u, y: recover(y, u, sys, s=True)),
    ("horizon", lambda sys, u, y: estimate_initial_state(sys, u, y, horizon=50.0)),
    ("s", lambda sys, u, y: block_toeplitz(sys.A, sys.B, sys.C, sys.D, 2.0)),
    ("count", lambda sys, u, y: markov_params(sys, 3.0)),
    ("T", lambda sys, u, y: white_input(1, 5.0, seed=0)),
], ids=["estimate_fault_dim", "recover", "estimate_initial_state", "block_toeplitz",
        "markov_params", "white_input"])
def test_a_float_or_bool_depth_is_refused_by_name(demo_run, name, call):
    # a float or a bool is no depth, even where it equals an integer
    sys, _, _, u, _, y, _ = demo_run
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(sys, u, y)


@pytest.mark.parametrize("name, call", [
    ("depth", lambda sys, u, y, rec: block_hankel(u, 0)),
    ("width", lambda sys, u, y, rec: block_hankel(u, 3, 0)),
    ("s", lambda sys, u, y, rec: extended_observability(sys.A, sys.C, 0)),
    ("s", lambda sys, u, y, rec: block_toeplitz(sys.A, sys.B, sys.C, sys.D, 0)),
    ("count", lambda sys, u, y, rec: markov_params(sys, 0)),
    ("s", lambda sys, u, y, rec: estimate_fault_dim(y, u, sys, 0)),
    ("s", lambda sys, u, y, rec: pi_moesp(u, y, s=0)),
    ("order", lambda sys, u, y, rec: pi_moesp(u, y, order=0)),
    ("n_v", lambda sys, u, y, rec: select_representative(rec, n_v=0)),
    ("T", lambda sys, u, y, rec: white_input(1, 0, seed=0)),
    ("T", lambda sys, u, y, rec: fault_signal("v1", 0)),
    ("systems_per_count", lambda sys, u, y, rec: ExperimentConfig(systems_per_count=0)),
])
def test_a_depth_below_one_is_refused_by_name(demo_run, name, call):
    sys, _, _, u, _, y, _ = demo_run
    rec = recover(y, u, sys, 5)
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
        call(sys, u, y, rec)


@pytest.mark.parametrize("name, value, call", [
    ("order_hint", -3, lambda u, y: pi_moesp(u, y, order_hint=-3)),
    ("order_hint", 0, lambda u, y: pi_moesp(u, y, order_hint=0)),
    ("dims n_x", -1, lambda u, y: ExperimentConfig(dims=(-1, 1, 2, 1), zero_counts=())),
    ("dims n_u", 0, lambda u, y: ExperimentConfig(dims=(3, 0, 2, 1))),
    ("dims n_y", 0, lambda u, y: ExperimentConfig(dims=(3, 1, 0, 1))),
    ("dims n_v", 0, lambda u, y: ExperimentConfig(dims=(3, 1, 2, 0))),
], ids=["order_hint-negative", "order_hint-zero", "n_x", "n_u", "n_y", "n_v"])
def test_a_count_below_one_is_refused_under_its_own_name(demo_run, name, value, call):
    # refused as the count the caller set, not as a window derived from it
    _, _, _, u, _, y, _ = demo_run
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
        call(u, y)


# ---------------------------------------------------------------------------
# the quadruple rule

# a valid quadruple with 3 states, 1 input and 2 outputs, and one bad matrix
# in each case
_GOOD = {"A": 0.5 * np.eye(3), "B": np.ones((3, 1)), "C": np.eye(2, 3), "D": np.zeros((2, 1))}
_BAD = {
    "non-square A": ("A", np.ones((3, 2)), "{A} must be square, got 3x2"),
    "B/F rows": ("B", np.ones((2, 1)), "{B} has 2 rows but {A} is 3x3"),
    "C columns": ("C", np.ones((2, 2)), "{C} has 2 columns but {A} is 3x3"),
    "D/G shape": ("D", np.ones((3, 1)), "{D} must be 2x1, got 3x1"),
}

# each caller of the quadruple rule, the names it reads the four matrices
# under, and the cases it can be handed (extended_observability takes no B
# or D, and a pair is checked against a system that has passed the rule)
_CALLERS = {
    "StateSpace": (lambda a, b, c, d: StateSpace(a, b, c, d), "ABCD", _BAD),
    "block_toeplitz": (lambda a, b, c, d: block_toeplitz(a, b, c, d, 2), "ABCD", _BAD),
    "extended_observability": (lambda a, b, c, d: extended_observability(a, c, 2), "ABCD",
                               ("non-square A", "C columns")),
    "transmission_zeros": (lambda a, b, c, d: transmission_zeros(a, b, c, d), "AFCG", _BAD),
    "verify_rank_formula": (lambda a, b, c, d: verify_rank_formula(a, b, c, d, 3), "AFCG", _BAD),
    "behaviorally_equivalent": (
        lambda a, b, c, d: behaviorally_equivalent(a, c, FaultPair(b, d), FaultPair(b, d)),
        "AFCG", _BAD),
    "window_in_behavior": (lambda a, b, c, d: window_in_behavior(a, b, c, d, np.zeros((2, 2))),
                           "AFCG", _BAD),
    "FaultPair.check_matches": (
        lambda a, b, c, d: FaultPair(b, d).check_matches(StateSpace(a, _GOOD["B"], c, _GOOD["D"])),
        "AFCG", ("B/F rows", "D/G shape")),
}


@pytest.mark.parametrize("caller, case", [
    (caller, case) for caller, (_, _, cases) in _CALLERS.items() for case in cases
])
def test_every_caller_refuses_a_bad_quadruple_with_one_message(caller, case):
    call, names, _ = _CALLERS[caller]
    slot, bad, message = _BAD[case]
    matrices = {**_GOOD, slot: bad}
    with pytest.raises(ValueError, match=f"^{message.format(**dict(zip('ABCD', names)))}$"):
        call(*matrices.values())


def test_a_fault_pair_reads_the_quadruple_rule_on_its_own():
    # F and G of different widths fit no channel
    with pytest.raises(ValueError, match=r"^G must be 2x1, got 2x2$"):
        FaultPair(np.ones((3, 1)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# a scan of the source: the depth rule is the only refusal of a value below 1


def _reads_below_one(node) -> bool:
    """True for x < 1 and 1 > x."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return False
    left, op, right = node.left, node.ops[0], node.comparators[0]

    def one(n):
        return isinstance(n, ast.Constant) and n.value == 1

    return (isinstance(op, ast.Lt) and one(right)) or (isinstance(op, ast.Gt) and one(left))


def _raises_value_error(body) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def _below_one_refusals(tree, prefix=""):
    """(qualified name of the enclosing definition, line) of every ``if``
    that tests a value below 1 and raises a ValueError."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _below_one_refusals(child, f"{prefix}{child.name}.")
            continue
        if (isinstance(child, ast.If) and _raises_value_error(child.body)
                and any(_reads_below_one(n) for n in ast.walk(child.test))):
            found.append((prefix.rstrip("."), child.lineno))
        found += _below_one_refusals(child, prefix)
    return found


def test_every_depth_is_refused_by_the_depth_rule():
    # matstack._depth is the package's one refusal of a value below 1; any
    # other is a depth rule of its own
    refusals = [
        (path.name, name)
        for path in SOURCES
        for name, _ in _below_one_refusals(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert refusals == [("matstack.py", "_depth")]


def test_the_scan_sees_each_form_of_refusal():
    source = (
        "def a(s):\n    if s < 1:\n        raise ValueError('s')\n"
        "def b(n, t):\n    if t <= 2 * n or n < 1:\n        raise ValueError('n')\n"
        "class C:\n    def d(self):\n        if 1 > self.count:\n            raise ValueError\n"
        "def e(k):\n    if k.shape[0] < 1:\n        raise ValueError('k')\n"
        "def f(n):\n    if n < 1:\n        raise RuntimeError('no fault')\n"
        "def g(n):\n    if n < 1:\n        return 100.0\n"
        "def h(s):\n    if s < 2:\n        raise ValueError('two')\n"
        "def i(power):\n    if power <= 0:\n        raise ValueError('zero power')\n"
    )
    names = [name for name, _ in _below_one_refusals(ast.parse(source))]
    assert names == ["a", "b", "C.d", "e"]
