"""Concolic proxy values: concrete execution with a symbolic shadow.

A :class:`SymInt` carries a concrete Python ``int`` (driving real
execution) plus a :class:`~repro.concolic.expr.LinearExpr` shadow.
Linear operations propagate the shadow exactly; non-linear operations
apply *concolic simplification* — the rule CREST/CUTE use — replacing
enough operands by their concrete values to stay linear:

* ``sym * sym``    → the right operand's concrete value becomes the
  coefficient of the left (stays symbolic in the left operand);
* ``sym // any``, ``sym % any``, ``sym ** any``, float mixes
  → the result is fully concretized (linear arithmetic cannot express
  them), matching CREST's behaviour for unsupported operators.

A :class:`SymBool` carries a concrete ``bool`` plus the comparison it
witnessed.  Its :class:`~repro.concolic.expr.Constraint` is *deferred*:
constraint-set reduction (§IV-C) keeps well under 1% of a loop's
evaluations, so the constraint is built only when a sink admits the
evaluation into the path, or when code reads :attr:`SymBool.constraint`.
Forcing a SymBool with ``bool(...)`` *outside* an instrumented branch
probe records an **implicit branch** at the forcing source location — the
analog of CIL normalizing short-circuit ``&&``/``||`` into nested ``if``
statements.
"""

from __future__ import annotations

import numbers
import sys
from typing import Any, Optional, Union

from .context import current_sink
from .expr import Constraint, LinearExpr, Var, make_comparison

IntLike = Union[int, "SymInt"]


def _as_linear(value: Any) -> Optional[LinearExpr]:
    """Linear shadow of an operand, or ``None`` if it has none (float...)."""
    if isinstance(value, SymInt):
        return value.lin
    if isinstance(value, bool):  # bool before int: True/False are ints too
        return LinearExpr.constant(int(value))
    if isinstance(value, int):
        return LinearExpr.constant(value)
    return None


def concrete(value: Any) -> Any:
    """Strip the symbolic shadow off a value (deep for SymInt/SymBool)."""
    if isinstance(value, SymInt):
        return value.concrete
    if isinstance(value, SymBool):
        return value.concrete
    return value


class SymInt:
    """Concolic integer: concrete value + linear symbolic shadow."""

    __slots__ = ("concrete", "lin")

    def __init__(self, concrete_value: int, lin: Optional[LinearExpr] = None):
        self.concrete = int(concrete_value)
        self.lin = lin if lin is not None else LinearExpr.constant(self.concrete)

    @staticmethod
    def from_var(var: Var, value: int) -> "SymInt":
        return SymInt(value, LinearExpr.variable(var.vid))

    @property
    def is_symbolic(self) -> bool:
        return not self.lin.is_const

    # ------------------------------------------------------------------
    # linear arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Any) -> Any:
        lin = _as_linear(other)
        if lin is None:
            return self.concrete + other  # float etc: drop shadow
        return SymInt(self.concrete + concrete(other), self.lin.add(lin))

    __radd__ = __add__

    def __sub__(self, other: Any) -> Any:
        lin = _as_linear(other)
        if lin is None:
            return self.concrete - other
        return SymInt(self.concrete - concrete(other), self.lin.sub(lin))

    def __rsub__(self, other: Any) -> Any:
        lin = _as_linear(other)
        if lin is None:
            return other - self.concrete
        return SymInt(concrete(other) - self.concrete, lin.sub(self.lin))

    def __mul__(self, other: Any) -> Any:
        lin = _as_linear(other)
        if lin is None:
            return self.concrete * other
        oc = concrete(other)
        if lin.is_const:
            return SymInt(self.concrete * oc, self.lin.scale(oc))
        if self.lin.is_const:
            return SymInt(self.concrete * oc, lin.scale(self.concrete))
        # sym * sym: concolic simplification — concretize the right operand
        return SymInt(self.concrete * oc, self.lin.scale(oc))

    __rmul__ = __mul__

    def __neg__(self) -> "SymInt":
        return SymInt(-self.concrete, self.lin.scale(-1))

    def __pos__(self) -> "SymInt":
        return self

    # ------------------------------------------------------------------
    # non-linear: concretize (CREST drops symbolic info for these)
    # ------------------------------------------------------------------
    def __floordiv__(self, other: Any) -> Any:
        return self.concrete // concrete(other)

    def __rfloordiv__(self, other: Any) -> Any:
        return concrete(other) // self.concrete

    def __mod__(self, other: Any) -> Any:
        return self.concrete % concrete(other)

    def __rmod__(self, other: Any) -> Any:
        return concrete(other) % self.concrete

    def __truediv__(self, other: Any) -> Any:
        return self.concrete / concrete(other)

    def __rtruediv__(self, other: Any) -> Any:
        return concrete(other) / self.concrete

    def __pow__(self, other: Any) -> Any:
        return self.concrete ** concrete(other)

    def __rpow__(self, other: Any) -> Any:
        return concrete(other) ** self.concrete

    def __abs__(self) -> int:
        return abs(self.concrete)

    def __lshift__(self, other: Any) -> Any:
        return self.concrete << concrete(other)

    def __rshift__(self, other: Any) -> Any:
        return self.concrete >> concrete(other)

    def __and__(self, other: Any) -> Any:
        return self.concrete & concrete(other)

    __rand__ = __and__

    def __or__(self, other: Any) -> Any:
        return self.concrete | concrete(other)

    __ror__ = __or__

    def __xor__(self, other: Any) -> Any:
        return self.concrete ^ concrete(other)

    __rxor__ = __xor__

    # ------------------------------------------------------------------
    # comparisons → SymBool
    # ------------------------------------------------------------------
    def _compare(self, other: Any, op: str, concrete_result: bool) -> "SymBool":
        lin = self.lin
        if isinstance(other, SymInt):
            if lin.coeffs and other.lin.coeffs:
                # variables on both sides may cancel (``x < x``): only the
                # built constraint can tell, so build it now
                c = make_comparison(lin, op, other.lin)
                return SymBool(concrete_result, None if c.is_trivial else c)
            symbolic = bool(lin.coeffs or other.lin.coeffs)
        elif isinstance(other, int):
            symbolic = bool(lin.coeffs)
        else:
            return SymBool(concrete_result, None)  # float etc: concrete only
        if not symbolic:
            return SymBool(concrete_result, None)
        return _deferred(concrete_result, lin, op, other)

    def __lt__(self, other: Any) -> "SymBool":
        return self._compare(other, "<", self.concrete < concrete(other))

    def __le__(self, other: Any) -> "SymBool":
        return self._compare(other, "<=", self.concrete <= concrete(other))

    def __gt__(self, other: Any) -> "SymBool":
        return self._compare(other, ">", self.concrete > concrete(other))

    def __ge__(self, other: Any) -> "SymBool":
        return self._compare(other, ">=", self.concrete >= concrete(other))

    def __eq__(self, other: Any) -> Any:  # type: ignore[override]
        # non-int numbers (``x == 2.0``) compare concretely, like ``<``
        if not isinstance(other, (int, SymInt, numbers.Number)):
            return NotImplemented
        return self._compare(other, "==", self.concrete == concrete(other))

    def __ne__(self, other: Any) -> Any:  # type: ignore[override]
        if not isinstance(other, (int, SymInt, numbers.Number)):
            return NotImplemented
        return self._compare(other, "!=", self.concrete != concrete(other))

    # ------------------------------------------------------------------
    # coercions
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        # C's `if (x)` is `x != 0`: record it as an implicit branch.
        if self.is_symbolic:
            sb = self._compare(0, "!=", self.concrete != 0)
            return bool(sb)
        return self.concrete != 0

    def __index__(self) -> int:
        # range(), indexing, slicing: use the concrete value silently.
        return self.concrete

    def __int__(self) -> int:
        return self.concrete

    def __float__(self) -> float:
        return float(self.concrete)

    def __hash__(self) -> int:
        return hash(self.concrete)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_symbolic:
            return f"SymInt({self.concrete}, {self.lin!r})"
        return f"SymInt({self.concrete})"


class SymBool:
    """Concolic boolean: concrete outcome + the comparison it witnessed.

    :attr:`is_symbolic` is set at creation; the oriented constraint is
    built on first read of :attr:`constraint` (see the module docstring).
    """

    __slots__ = ("concrete", "is_symbolic", "_constraint", "_lhs", "_op",
                 "_rhs")

    def __init__(self, concrete_value: bool, constraint: Optional[Constraint]):
        self.concrete = bool(concrete_value)
        self.is_symbolic = constraint is not None
        self._constraint = None
        self._lhs = None
        if constraint is not None:
            self._constraint = (constraint if self.concrete
                                else constraint.negated())

    @property
    def constraint(self) -> Optional[Constraint]:
        """The constraint satisfied by the current execution, oriented so
        that it *holds* (i.e. already negated when concrete is False);
        ``None`` when the comparison has no symbolic content."""
        c = self._constraint
        if c is None and self._lhs is not None:
            c = make_comparison(self._lhs, self._op, _as_linear(self._rhs))
            if not self.concrete:
                c = c.negated()
            self._constraint = c
            self._lhs = self._rhs = None
        return c

    def observe(self, site: int) -> bool:
        """Record this evaluation against branch ``site`` (probe entry)."""
        sink = current_sink()
        if sink is not None and hasattr(sink, "on_branch"):
            sink.on_branch(site, self.concrete,
                           self if self.is_symbolic else None)
        return self.concrete

    def __bool__(self) -> bool:
        # Forced outside a probe (short-circuit and/or, assert, plain
        # assignment use): record an implicit branch at the caller.
        if self.is_symbolic:
            sink = current_sink()
            if sink is not None and hasattr(sink, "on_implicit_branch"):
                # Site identity is (file, function, line).  Deliberately no
                # bytecode offset: CPython 3.11 compiles a while-loop's test
                # at two offsets (entry check + loop-back check) and those
                # must count as ONE conditional for constraint-set reduction.
                f = sys._getframe(1)
                sink.on_implicit_branch(
                    (f.f_code.co_filename, f.f_code.co_name, f.f_lineno),
                    self.concrete, self)
        return self.concrete

    def __invert__(self) -> "SymBool":
        # The inverted condition is witnessed by the *same* execution, so
        # the held constraint is unchanged (the very same object); only
        # the concrete flips.
        inv = SymBool(not self.concrete, None)
        inv.is_symbolic = self.is_symbolic
        inv._constraint = self.constraint
        return inv

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SymBool({self.concrete}, {self.constraint!r})"


def _deferred(concrete_value: bool, lhs: LinearExpr, op: str,
              rhs: IntLike) -> SymBool:
    """A symbolic SymBool for ``lhs ⋈ rhs`` whose constraint is built on
    first read of :attr:`SymBool.constraint`."""
    b = SymBool.__new__(SymBool)
    b.concrete = concrete_value
    b.is_symbolic = True
    b._constraint = None
    b._lhs = lhs
    b._op = op
    b._rhs = rhs
    return b
