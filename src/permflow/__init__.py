"""Permission-dependent information-flow analysis toolkit.

Security types map permission sets to lattice levels, so what a function
reveals can depend on the permissions of its caller. The package bundles a
type checker for annotated systems, a constraint-based inference engine
with a worklist solver checked against the paper's symbolic one, a
reference interpreter, and an executable noninterference test harness, all
behind the ``permflow`` CLI. Each name is imported from the module that
defines it; the package root exports nothing.
"""
