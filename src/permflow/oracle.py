"""``solver.solve`` and ``solver.UnsatError`` under the names that
``perfbench/run.py`` checks its answers with; the module goes once that
import names ``solver`` directly (ROADMAP item 1).
"""

from .solver import UnsatError as OracleUnsat, solve as oracle_solve

__all__ = ["OracleUnsat", "oracle_solve"]
