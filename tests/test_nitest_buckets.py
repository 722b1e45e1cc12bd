"""The bucketed NI harness against its pairwise reference, and its cost.

``nitest._test_cell`` runs each environment once per bucket of equal
observable parts; ``tests/pairwise.py`` runs both sides of every pair.
Both must give field-for-field equal cells: verdicts, pair counts, fuel
notes and witnesses, down to the key order of the witness environments.
"""

import random
from dataclasses import replace

import pytest

from permflow import nitest
from permflow.basetypes import BaseType, FunctionType
from permflow.interp import DEFAULT_FUEL
from permflow.nitest import NIConfig, nitest_function, nitest_system
from permflow.parser import parse_system
from permflow.system import validate_system

from .conftest import SEED
from .pairwise import pairwise_cell
from .progen import _Gen


def _bucketed_matching_pairwise(monkeypatch, csys, **kwargs):
    """The harness's cells, checked against the pairwise reference's."""
    cells = nitest_system(csys, **kwargs).cells
    with monkeypatch.context() as m:
        m.setattr(nitest, "_test_cell", pairwise_cell)
        reference = nitest_system(csys, **kwargs).cells
    # reprs show the key order of the witness environments too
    assert [repr(c) for c in cells] == [repr(c) for c in reference]
    return cells


def _randomly_annotated(rnd):
    # random annotations, checked or not, so that violations show up
    gen = _Gen(rnd)
    sys0 = gen.system()
    size = 1 << gen.nperms

    def rand_type():
        return BaseType(gen.lat, gen.nperms,
                        tuple(rnd.randrange(len(gen.lat)) for _ in range(size)))

    fd = {
        q: replace(decl, annotation=FunctionType(
            tuple(rand_type() for _ in decl.params), rand_type()))
        for q, decl in sys0.fd.items()
    }
    return validate_system(replace(sys0, fd=fd))


@pytest.mark.parametrize("domain", [(0, 1), (0, 1, 2)], ids=["0..1", "0..2"])
def test_generated_systems_match_pairwise(monkeypatch, domain):
    rnd = random.Random(SEED + 40 + len(domain))
    verdicts = set()
    for _ in range(60):
        csys = _randomly_annotated(rnd)
        for fuel in (DEFAULT_FUEL, 12):
            cells = _bucketed_matching_pairwise(monkeypatch, csys, domain=domain,
                                                fuel=fuel, strict=True)
            verdicts |= {c.verdict for c in cells}
    assert {"ok", "violation", "inconclusive"} <= verdicts


# The loop runs 4 - n times, so a bucket's first hidden valuations (n = 0)
# cost the most fuel; x * h makes the output depend on h when x != 0.
HIDDEN_LOOP = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(x : L, n : H, h : H) : L {
    init r = 0 in {
      letvar i = 0 in {
        while i + n < 4 do { i := i + 1 }
      };
      r := r + x * h;
      return r
    }
  }
}
"""


def test_fuel_sweep_on_hidden_loop_matches_pairwise(monkeypatch):
    csys = validate_system(parse_system(HIDDEN_LOOP))
    cells = []
    for fuel in range(0, 60):
        for domain in ((0, 1), (0, 1, 2)):
            cells += _bucketed_matching_pairwise(monkeypatch, csys,
                                                 domain=domain, fuel=fuel)
    # partly exhausted buckets: some pairs ran out of fuel, others finished
    assert any(c.verdict == "inconclusive"
               and 0 < int(c.note.split()[0]) < c.pairs_tested for c in cells)
    # a violation whose first finished run follows exhausted ones
    assert any(c.verdict == "violation" and c.witness.env1["n"] != 0 for c in cells)
    assert any(c.verdict == "ok" for c in cells)


WIDE = """lattice { levels L, H; order L < H; }
permissions { p }
app A perms {} {
  fun f(a : L, b : L, h1 : H, h2 : H, h3 : H) : L {
    init r = 0 in { r := r + a * b; return r }
  }
}
"""


def test_one_interpreter_run_per_environment(monkeypatch):
    csys = validate_system(parse_system(WIDE))
    calls = []
    real = nitest.exec_cmd

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(nitest, "exec_cmd", counting)
    L = csys.lattice.level("L")
    domain = (0, 1, 2)
    cells = nitest_function(csys, "A.f", NIConfig(L, domain))
    tested = [c for c in cells if c.verdict != "skipped"]
    assert all(c.verdict == "ok" for c in tested)
    cell = next(c for c in cells if c.perms == 0)
    assert cell in tested
    obs, hidden = 3, 3  # a, b and the return variable r; h1, h2, h3
    d = len(domain)
    assert len(calls) == len(tested) * d ** (obs + hidden)
    assert cell.pairs_tested == d ** obs * d ** (2 * hidden)


# The ni-grid benchmark's shape: 2 L and 3 H parameters, a loop, a test,
# one secure function and one that leaks an H parameter.
NI_GRID = """lattice { levels L, H; order L < H; }
permissions { p }
app N perms {p} {
  fun safe(a : L, b : L, h1 : H, h2 : H, h3 : H) : { {p}: H, _: L } {
    init r = 0 in {
      letvar i = 0 in { while i < 2 do { r := r + a + b; i := i + 1 } };
      test(p) r := r + h3 + h2 + h1 else r := r + b;
      return r
    }
  }
  fun leak(a : L, b : L, h1 : H, h2 : H, h3 : H) : L {
    init r = 0 in {
      letvar i = 0 in { while i < 2 do { r := r * a + b; i := i + 1 } };
      r := r + h2;
      return r
    }
  }
}
"""


def test_one_interpreter_call_per_predicted_run(monkeypatch):
    # A traced run counts the calls of nitest.exec_cmd as interpreter runs,
    # so there must be one per run that the bucket math predicts.
    csys = validate_system(parse_system(NI_GRID))
    calls = []
    real = nitest.exec_cmd

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(nitest, "exec_cmd", counting)
    domain = range(0, 3)
    d = len(domain)
    cells = nitest_system(csys, domain=domain).cells
    predicted = 0
    for cell in cells:
        decl = csys.fd[cell.function]
        gamma = dict(zip(decl.params, decl.annotation.params))
        gamma[decl.ret_var] = decl.annotation.ret
        obs, hidden = nitest._observable_split(gamma, cell.perms, cell.observer)
        m = d ** len(hidden)
        if cell.verdict == "ok":
            predicted += d ** (len(obs) + len(hidden))
        elif cell.verdict == "violation":
            # no run runs out of fuel, so the witness pairs run 0 of bucket
            # b with run j: the cell stopped after b * m + j + 1 runs
            b, j = divmod(cell.pairs_tested - 1, m * m)
            predicted += b * m + j + 1
        else:
            assert cell.verdict == "skipped"
    assert {c.verdict for c in cells} == {"ok", "violation", "skipped"}
    assert len(calls) == predicted
