"""Pairwise reference for the noninterference harness's cell loop.

Runs both sides of every pair of environments that agree on the observable
part, in (observable, hidden 1, hidden 2) order, and stops at the first pair
whose outputs differ.  Used only as a test oracle for
``permflow.nitest._test_cell``, which runs each environment once and must
report the same verdicts, counts and witnesses.  Each side runs as a call
on the parameters' values.  It takes the harness's store of shared run
outcomes in the same place but never reads it: every run it compares, it
makes itself, so it returns its cell with 0 store runs.
"""

from __future__ import annotations

from itertools import product

from permflow.interp import FuelExhausted, call_function
from permflow.nitest import CellVerdict, Violation, _observable_split


def pairwise_cell(csys, qname, decl, gamma, perms, observer, domain, fuel, pair_cap,
                  store) -> tuple[CellVerdict, int]:
    obs, hidden = _observable_split(gamma, perms, observer)
    d = len(domain)
    pair_count = d ** len(obs) * d ** (2 * len(hidden))
    if pair_count > pair_cap:
        return CellVerdict(
            qname, perms, observer, 0, "inconclusive",
            note=f"{pair_count} pairs exceed the cap of {pair_cap}",
        ), 0
    tested = inconclusive = 0
    for obs_vals in product(domain, repeat=len(obs)):
        for hid1 in product(domain, repeat=len(hidden)):
            for hid2 in product(domain, repeat=len(hidden)):
                env1 = dict(zip(obs, obs_vals)) | dict(zip(hidden, hid1))
                env2 = dict(zip(obs, obs_vals)) | dict(zip(hidden, hid2))
                tested += 1
                try:
                    out1 = call_function(csys, qname, [env1[p] for p in decl.params],
                                         perms, fuel)
                    out2 = call_function(csys, qname, [env2[p] for p in decl.params],
                                         perms, fuel)
                except FuelExhausted:
                    inconclusive += 1
                    continue
                if out1 != out2:
                    return CellVerdict(
                        qname, perms, observer, tested, "violation",
                        witness=Violation(env1, env2, out1, out2),
                    ), 0
    if inconclusive:
        return CellVerdict(
            qname, perms, observer, tested, "inconclusive",
            note=f"{inconclusive} pair(s) ran out of fuel",
        ), 0
    return CellVerdict(qname, perms, observer, tested, "ok"), 0
