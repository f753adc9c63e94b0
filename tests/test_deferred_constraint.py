"""A symbolic comparison defers its path constraint.

``SymInt`` comparisons return a :class:`SymBool` that remembers the
comparison; the oriented :class:`Constraint` is built only when a sink
admits the evaluation into the path (constraint-set reduction, §IV-C) or
when code reads ``SymBool.constraint``.  These tests pin that the
deferred constraint is exactly the eager ``make_comparison`` result, and
that a run builds one constraint per admitted evaluation.
"""

import operator

import pytest
from hypothesis import given, strategies as st

from repro.concolic import HeavySink, SymBool, SymInt, sink_scope
from repro.concolic import sym as sym_mod
from repro.concolic.expr import LinearExpr, make_comparison
from repro.core import CompiConfig, TestSetup
from repro.core.runner import TestRunner
from repro.core.testcase import TestCase
from repro.instrument import instrument_program

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
#: the operator SymInt evaluates when it is the *right* operand
SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==",
           "!=": "!="}

VIDS = (0, 1, 2)


def _lin(value):
    if isinstance(value, SymInt):
        return value.lin
    return LinearExpr.constant(int(value))


def _eager(lhs, op, rhs, outcome):
    """The pre-deferral constraint: built, trivial-dropped, oriented."""
    c = make_comparison(_lin(lhs), op, _lin(rhs))
    if c.is_trivial:
        return None
    return c if outcome else c.negated()


@st.composite
def sym_ints(draw, assignment):
    """A SymInt over 0-3 of the variables, concrete under ``assignment``."""
    vids = draw(st.lists(st.sampled_from(VIDS), max_size=3, unique=True))
    coeffs = {v: draw(st.integers(-4, 4).filter(bool)) for v in vids}
    lin = LinearExpr(coeffs, draw(st.integers(-20, 20)))
    return SymInt(lin.evaluate(assignment), lin)


@st.composite
def comparisons(draw):
    assignment = {v: draw(st.integers(-10, 10)) for v in VIDS}
    left = draw(sym_ints(assignment))
    right = draw(st.one_of(st.integers(-30, 30), st.booleans(),
                           sym_ints(assignment)))
    return assignment, left, draw(st.sampled_from(sorted(OPS))), right


@given(comparisons(), st.booleans())
def test_deferred_constraint_equals_eager(case, reflected):
    assignment, left, op, right = case
    if reflected and not isinstance(right, SymInt):
        # `k < x` dispatches to `x > k`: SymInt is the left side
        b = OPS[op](right, left)
        lhs, op = left, SWAPPED[op]
        rhs = right
    else:
        b = OPS[op](left, right)
        lhs, rhs = left, right
    assert isinstance(b, SymBool)
    outcome = OPS[op](lhs.concrete, int(rhs))
    assert b.concrete is outcome
    expected = _eager(lhs, op, rhs, outcome)
    assert b.is_symbolic is (expected is not None)
    assert b.constraint == expected
    assert b.is_symbolic is (b.constraint is not None)
    if expected is not None:
        assert b.constraint.evaluate(assignment)   # holds on this run
        assert b.constraint is b.constraint          # built once

    inv = ~b
    assert inv.concrete is (not outcome)
    assert inv.is_symbolic is b.is_symbolic
    assert inv.constraint is b.constraint


@given(comparisons())
def test_invert_before_read_shares_the_constraint(case):
    _, left, op, right = case
    b = OPS[op](left, right)
    inv = ~b                          # nothing read from b yet
    assert inv.constraint is b.constraint


@given(comparisons())
def test_probe_and_implicit_routes_record_the_eager_constraint(case):
    _, left, op, right = case
    outcome = OPS[op](left.concrete, int(right))
    expected = _eager(left, op, right, outcome)
    sink = HeavySink()
    with sink_scope(sink):
        b = OPS[op](left, right)
        assert b.observe(7) is outcome          # instrumented probe route
        assert bool(OPS[op](left, right)) is outcome   # implicit branch
    res = sink.result()
    if expected is None:
        # a concrete SymBool forced outside a probe records nothing
        assert res.event_count == 1 and res.path == []
    else:
        assert res.event_count == 2
        assert [pe.constraint for pe in res.path] == [expected, expected]
        assert res.path[0].constraint is b.constraint
        assert res.path[0].site == 7 and res.path[1].site < 0
        assert all(pe.outcome is outcome for pe in res.path)


@given(st.integers(-10, 10), st.integers(-10, 10).filter(bool), st.integers(-5, 5))
def test_symint_truthiness_records_nonzero_check(value, coeff, const):
    lin = LinearExpr({0: coeff}, const)
    x = SymInt(lin.evaluate({0: value}), lin)
    sink = HeavySink()
    with sink_scope(sink):
        outcome = bool(x)
    assert outcome is (x.concrete != 0)
    (pe,) = sink.result().path
    assert pe.constraint == _eager(x, "!=", 0, outcome)


def test_cancelling_variables_are_not_symbolic():
    lin = LinearExpr({0: 1}, 0)
    x = SymInt(3, lin)
    for fn in OPS.values():
        b = fn(x, x)
        assert b.concrete is fn(3, 3)
        assert not b.is_symbolic and b.constraint is None
    sink = HeavySink()
    with sink_scope(sink):
        assert bool(x < x) is False
        assert b.observe(1) is False    # last b is `x != x`
    res = sink.result()
    assert res.path == [] and res.event_count == 1


# ----------------------------------------------------------------------
# constraints are built only for admitted evaluations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def demo_program():
    prog = instrument_program(["repro.targets.demo"])
    yield prog
    prog.unload()


def test_run_builds_one_constraint_per_admitted_evaluation(demo_program,
                                                           monkeypatch):
    built = []
    real = sym_mod.make_comparison

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(sym_mod, "make_comparison", counting)
    sinks = []
    real_make_sinks = TestRunner._make_sinks

    def keep_sinks(self, testcase):
        made = real_make_sinks(self, testcase)
        sinks.extend(made)
        return made

    monkeypatch.setattr(TestRunner, "_make_sinks", keep_sinks)
    runner = TestRunner(demo_program, CompiConfig(seed=0, test_timeout=10.0))
    # x * 50 + y == 100000: the largest x the sanity check lets through
    rec = runner.run(TestCase(inputs={"x": 1999, "y": 50},
                              setup=TestSetup(3, 1)))
    assert rec.ok
    admitted = sum(s.reduction.admitted for s in sinks if s.heavy)
    suppressed = sum(s.reduction.suppressed for s in sinks if s.heavy)
    assert rec.trace.event_count > 1999      # the `while i < x` loop ran
    assert suppressed > 1000                  # ...and reduction dropped it
    assert len(built) == admitted == len(rec.trace.path)
