"""Micro-scale equivalence of the syntax-directed checker and a brute-force
derivation search over the declarative rules.

The family is exhaustive over call-free bodies of at most six AST nodes on
a two-point lattice with one permission, crossed with every annotation of
the parameter and return variable. Only one binary operator appears since
operator typing is uniform, and the literal pool is {0} since every literal
types at bottom.
"""

from itertools import product

from permflow.basetypes import FunctionType, PermUniverse
from permflow.constraints import gen_constraints
from permflow.inference import check_system
from permflow.lattice import load_lattice
from permflow.syntax import Assign, BinOp, Block, FunDecl, If, IntLit, LetVar, Var, While
from permflow.syntax import Test as PermTest
from permflow.system import System, validate_system

from .declarative import DeclarativeSearch, all_types


def _exprs(scope, budget):
    out = []
    if budget >= 1:
        out.append((IntLit(0), 1))
        out.extend((Var(v), 1) for v in scope)
    if budget >= 3:
        smaller = _exprs(scope, budget - 2)
        for (a, sa), (b, sb) in product(smaller, smaller):
            if 1 + sa + sb <= budget:
                out.append((BinOp("+", a, b), 1 + sa + sb))
    return out


def _cmds(scope, budget, fresh, tested_p):
    """All commands of size <= budget; at most one nested test of p."""
    out = []
    for target in scope:
        for e, se in _exprs(scope, budget - 1):
            out.append((Assign(target, e), 1 + se))
    parts = None
    if budget >= 5:
        parts = _cmds(scope, budget - 3, fresh, tested_p)
        for (c1, s1), (c2, s2) in product(parts, parts):
            if 1 + s1 + s2 <= budget:
                out.append((Block((c1, c2)), 1 + s1 + s2))
        if not tested_p:
            inner = _cmds(scope, budget - 3, fresh, True)
            for (c1, s1), (c2, s2) in product(inner, inner):
                if 1 + s1 + s2 <= budget:
                    out.append((PermTest("p", c1, c2), 1 + s1 + s2))
    if budget >= 4:
        for e, se in _exprs(scope, budget - 3):
            for c, sc in _cmds(scope, budget - 1 - se, fresh, tested_p):
                if 1 + se + sc <= budget:
                    out.append((While(e, c), 1 + se + sc))
        if fresh:
            name, rest = fresh[0], fresh[1:]
            for e, se in _exprs(scope, budget - 3):
                for c, sc in _cmds(scope + (name,), budget - 1 - se, rest, tested_p):
                    if 1 + se + sc <= budget:
                        out.append((LetVar(name, e, c), 1 + se + sc))
    if budget >= 6:
        for e, se in _exprs(scope, 1):
            for (c1, s1), (c2, s2) in product(parts, parts):
                if 1 + se + s1 + s2 <= budget:
                    out.append((If(e, c1, c2), 1 + se + s1 + s2))
    return out


def micro_bodies(max_nodes=6):
    seen = set()
    result = []
    for c, size in _cmds(("x", "r"), max_nodes, ("y",), False):
        if c not in seen:
            seen.add(c)
            result.append(c)
    return result


def test_trace_rules_match_declarative_search():
    lattice = load_lattice(["L", "H"], [("L", "H")])
    universe = PermUniverse(("p",))
    types = all_types(lattice, 1)
    search = DeclarativeSearch(lattice, 1, {"p": 0})
    bodies = micro_bodies()
    assert len(bodies) > 300  # the family is genuinely broad

    checked = 0
    disagreements = []
    for body in bodies:
        for t_x, t_r in product(types, types):
            decl = FunDecl(
                "A", "f", ("x",), "r", body, FunctionType((t_x,), t_r)
            )
            sys = System(lattice, universe, {"A": 0}, {"A.f": decl}, {})
            csys = validate_system(sys)
            algorithmic = check_system(csys).ok
            declarative = search.function_typable(
                ("x",), "r", body, (t_x,), t_r
            )
            checked += 1
            if algorithmic != declarative:
                disagreements.append((body, t_x.table, t_r.table, algorithmic))
    assert not disagreements, disagreements[:3]
    assert checked == len(bodies) * 16


def test_expression_types_are_minimal():
    # the checker's expression type is below every declaratively derivable one
    lattice = load_lattice(["L", "H"], [("L", "H")])
    universe = PermUniverse(("p",))
    types = all_types(lattice, 1)
    search = DeclarativeSearch(lattice, 1, {"p": 0})

    exprs = [e for e, _ in _exprs(("x", "r"), 5)]
    assert len(exprs) == 66 and len(types) ** 2 == 16
    for e in exprs:
        for t_x, t_r in product(types, types):
            gamma = {"x": t_x, "r": t_r}
            # the type is the left side of the one constraint of ``r := e``
            decl = FunDecl("A", "f", ("x",), "r", Assign("r", e),
                           FunctionType((t_x,), t_r))
            csys = validate_system(System(lattice, universe, {"A": 0}, {"A.f": decl}, {}))
            (c,) = gen_constraints(csys).by_function["A.f"]
            minimal = c.lhs.type
            assert minimal == search.min_expr_type(gamma, e)
            for t in types:
                if search.expr_has_type(gamma, e, t):
                    assert minimal.leq(t)
