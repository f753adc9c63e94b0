"""Tests for the concolic proxies: shadow propagation & concolic
simplification rules."""

import pytest
from hypothesis import given, strategies as st

from repro.concolic import (HeavySink, SymBool, SymInt, concrete, sink_scope)
from repro.concolic.expr import LinearExpr, Var


def sym(vid, value):
    return SymInt.from_var(Var(vid=vid, name=f"v{vid}", kind="input"), value)


# ----------------------------------------------------------------------
# linear arithmetic keeps the shadow exact
# ----------------------------------------------------------------------
def test_add_sub_of_symbolic_and_const():
    x = sym(0, 10)
    y = x + 5
    assert isinstance(y, SymInt) and y.concrete == 15
    assert y.lin.coeffs == {0: 1} and y.lin.const == 5
    z = 3 - x
    assert z.concrete == -7 and z.lin.coeffs == {0: -1} and z.lin.const == 3


def test_mul_by_const_scales_shadow():
    x = sym(0, 4)
    y = 3 * x
    assert y.concrete == 12 and y.lin.coeffs == {0: 3}
    z = x * -2
    assert z.concrete == -8 and z.lin.coeffs == {0: -2}


def test_sym_plus_sym_combines_coeffs():
    x, y = sym(0, 2), sym(1, 3)
    s = x + y
    assert s.concrete == 5 and s.lin.coeffs == {0: 1, 1: 1}
    d = x - y
    assert d.concrete == -1 and d.lin.coeffs == {0: 1, 1: -1}


def test_neg_and_pos():
    x = sym(0, 7)
    assert (-x).concrete == -7 and (-x).lin.coeffs == {0: -1}
    assert (+x) is x


def test_sym_times_sym_concretizes_right_operand():
    x, y = sym(0, 3), sym(1, 5)
    p = x * y
    assert p.concrete == 15
    # x stays symbolic; y's concrete 5 became the coefficient
    assert p.lin.coeffs == {0: 5}


@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-20, 20))
def test_shadow_matches_concrete_under_linear_ops(a, b, k):
    x = sym(0, a)
    expr = (x + b) * k - x
    if isinstance(expr, SymInt):
        assert expr.lin.evaluate({0: a}) == expr.concrete


# ----------------------------------------------------------------------
# non-linear ops concretize
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fn,expected", [
    (lambda x: x // 3, 3), (lambda x: x % 3, 1), (lambda x: x / 2, 5.0),
    (lambda x: x ** 2, 100), (lambda x: abs(x), 10), (lambda x: x << 1, 20),
    (lambda x: x >> 1, 5), (lambda x: x & 6, 2), (lambda x: x | 1, 11),
    (lambda x: x ^ 3, 9),
])
def test_nonlinear_returns_plain_value(fn, expected):
    x = sym(0, 10)
    result = fn(x)
    assert not isinstance(result, SymInt)
    assert result == expected


def test_rdiv_rmod_concretize():
    x = sym(0, 3)
    assert 10 // x == 3
    assert 10 % x == 1
    assert 9 / x == 3.0


# ----------------------------------------------------------------------
# comparisons produce SymBool with an oriented (holding) constraint
# ----------------------------------------------------------------------
def test_comparison_builds_constraint():
    x = sym(0, 10)
    b = x < 100
    assert isinstance(b, SymBool) and b.concrete is True
    assert b.constraint is not None
    assert b.constraint.evaluate({0: 10})      # holds at current value
    assert not b.constraint.evaluate({0: 200})


def test_false_comparison_stores_negated_constraint():
    x = sym(0, 10)
    b = x > 100
    assert b.concrete is False
    # stored constraint must HOLD under the current execution
    assert b.constraint.evaluate({0: 10})


def test_eq_ne_with_non_int_fall_back():
    x = sym(0, 1)
    assert (x == "a") is False
    assert (x != None) is True  # noqa: E711 - exercising the fallback


def test_eq_ne_with_float_agree_with_plain_ints():
    # `2 == 2.0` is True in the plain program; the concolic run must take
    # the same branch, with no constraint (floats have no linear shadow)
    x = sym(0, 2)
    for other in (2.0, 2.5, -0.0):
        eq, ne = x == other, x != other
        assert eq.concrete is (2 == other) and eq.constraint is None
        assert ne.concrete is (2 != other) and ne.constraint is None
        assert not eq.is_symbolic and not ne.is_symbolic
    assert bool(x == 2.0) and not bool(x != 2.0)
    assert (2.0 == x).concrete is True      # reflected: float defers to SymInt


def test_comparison_with_float_is_concrete_only():
    x = sym(0, 10)
    b = x < 10.5
    assert b.concrete is True and b.constraint is None


def test_comparison_between_equal_shadows_is_trivial():
    x = sym(0, 10)
    b = (x - x) == 0
    # shadow difference is constant → no symbolic content
    assert b.concrete is True and b.constraint is None


def test_invert_keeps_held_constraint():
    x = sym(0, 10)
    b = x < 100
    nb = ~b
    assert nb.concrete is False
    assert nb.constraint is b.constraint


# ----------------------------------------------------------------------
# coercions
# ----------------------------------------------------------------------
def test_index_int_float_hash():
    x = sym(0, 4)
    assert list(range(x)) == [0, 1, 2, 3]
    assert int(x) == 4 and float(x) == 4.0
    assert hash(x) == hash(4)
    assert [10, 11, 12, 13, 14][x] == 14


def test_concrete_helper():
    x = sym(0, 9)
    assert concrete(x) == 9
    assert concrete(x < 10) is True
    assert concrete("s") == "s"


# ----------------------------------------------------------------------
# implicit branch recording through a sink
# ----------------------------------------------------------------------
def test_bool_records_implicit_branch_in_sink():
    sink = HeavySink()
    with sink_scope(sink):
        x = sink.mark_input("x", 10)
        if x < 100:       # plain `if` without probe → implicit branch
            pass
        a = bool(x < 50)   # second implicit branch, distinct line
        b = bool(x > 2)    # third
        assert a and b
    res = sink.result()
    assert res.event_count == 3
    assert len(res.path) == 3
    # implicit sites get negative ids and are distinct per source line
    sites = {pe.site for pe in res.path}
    assert len(sites) == 3 and all(s < 0 for s in sites)


def test_short_circuit_and_forces_only_first_operand():
    sink = HeavySink()
    with sink_scope(sink):
        x = sink.mark_input("x", 10)
        flag = (x < 50) and (x > 2)   # `and` forces the first operand only
        assert isinstance(flag, SymBool)   # result is the unforced second
    res = sink.result()
    assert res.event_count == 1


def test_symint_bool_records_nonzero_check():
    sink = HeavySink()
    with sink_scope(sink):
        x = sink.mark_input("x", 5)
        if x:   # C-style truthiness: x != 0
            pass
    res = sink.result()
    assert len(res.path) == 1
    c = res.path[0].constraint
    assert c.evaluate({0: 5}) and not c.evaluate({0: 0})


def test_no_sink_means_pure_concrete_behaviour():
    x = sym(0, 10)
    assert bool(x < 100) is True
    assert bool(x) is True
