import os

import pytest

from permflow.interp import (
    ExecContext,
    Fuel,
    FuelExhausted,
    call_function,
    exec_cmd,
)
from permflow.parser import parse_system
from permflow.system import validate_system

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")


def load(name: str):
    with open(os.path.join(PROGRAMS, name), "r", encoding="utf-8") as fh:
        return validate_system(parse_system(fh.read()))


HEADER = """
lattice { levels L, H; order L < H; }
permissions { p }
"""


def one_fun(body: str, params: str = ""):
    src = HEADER + f"""
app A perms {{}} {{
  fun f({params}) {{ init r = 0 in {{ {body}; return r }} }}
}}
"""
    return validate_system(parse_system(src))


def test_arithmetic():
    csys = one_fun("r := x + 1", "x")
    assert call_function(csys, "A.f", [3], 0) == 4


def test_boolean_encoding():
    csys = one_fun("r := 0 == 0")
    assert call_function(csys, "A.f", [], 0) == 1
    csys = one_fun("r := x < y", "x, y")
    assert call_function(csys, "A.f", [2, 5], 0) == 1
    assert call_function(csys, "A.f", [5, 2], 0) == 0


def test_test_branches_on_caller_perms():
    csys = one_fun("test(p) r := 1 else r := 0")
    assert call_function(csys, "A.f", [], 0b1) == 1
    assert call_function(csys, "A.f", [], 0) == 0


def test_while_loop_unrolls():
    csys = one_fun("while x do x := x - 1; r := x", "x")
    assert call_function(csys, "A.f", [3], 0) == 0


def test_letvar_scope_is_dropped():
    csys = one_fun("letvar y = 1 in r := y")
    decl = csys.fd["A.f"]
    env = {"r": 0}
    exec_cmd(env, ExecContext("A", 0, Fuel(1000)), decl.body, csys)
    assert env == {"r": 1}


def test_unbound_variable_is_internal():
    from permflow.interp import UnboundVariable
    from permflow.syntax import Assign, Var

    csys = one_fun("r := 1")
    with pytest.raises(UnboundVariable):
        exec_cmd({}, ExecContext("A", 0, Fuel(10)), Assign("r", Var("ghost")), csys)


def test_call_uses_callers_app_permissions():
    # the secret flows only on the caller app's own permissions, never on
    # those of the transitive caller
    csys = load("laundering.pf")
    assert call_function(csys, "C.getsecret", [], 0b1) == 42
    assert call_function(csys, "C.getsecret", [], 0) == 0
    # B.g runs under Theta(A) = {} inside A.f, so its test(p) takes the
    # else branch and the argument flows straight through
    assert call_function(csys, "A.f", [7], 0b1) == 7
    assert call_function(csys, "A.f", [7], 0) == 7


def test_call_isolation_differential():
    # the callee's result depends only on (args, Theta(caller app))
    csys = load("laundering.pf")
    outs = {call_function(csys, "A.f", [9], perms) for perms in (0, 1)}
    assert outs == {9}
    outs = {call_function(csys, "M.main", [], perms) for perms in (0, 1)}
    assert outs == {42}


def test_identity_function_any_perms():
    csys = load("identity.pf")
    for perms in (0, 1):
        assert call_function(csys, "A.id", [13], perms) == 13


def test_determinism():
    csys = load("illustrative.pf")
    runs = [call_function(csys, "A.f", [], 0b11) for _ in range(3)]
    assert runs == [33, 33, 33]


def test_fuel_exhausted():
    csys = one_fun("while 1 do r := r + 1")
    with pytest.raises(FuelExhausted):
        call_function(csys, "A.f", [], 0, fuel=1000)


def test_wrapping_arithmetic():
    csys = one_fun("r := x * x", "x")
    big = (1 << 62) + 12345
    out = call_function(csys, "A.f", [big], 0)
    assert -(1 << 63) <= out <= (1 << 63) - 1
    assert out == _wrap_ref(big * big)


def _wrap_ref(v):
    v &= (1 << 64) - 1
    return v - (1 << 64) if v > (1 << 63) - 1 else v


def test_constants_readable_everywhere():
    csys = load("illustrative.pf")
    assert call_function(csys, "A.f", [], 0b01) == 11
    assert call_function(csys, "A.f", [], 0b10) == 22
    assert call_function(csys, "A.f", [], 0b00) == 0
