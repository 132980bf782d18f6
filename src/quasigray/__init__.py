"""Gray and quasi-Gray code counters with bit-probe cost accounting.

The package generates cyclic (quasi-)Gray codes with a uniform counter
interface, charges every step's distinct bit reads and writes the way a
decision assignment tree would, and verifies cycle lengths, Hamming
steps, probe averages and space efficiency against the documented bounds
by exhaustive enumeration.
"""

from .bounds import check_bounds, paper_bounds
from .composite import PreconditionError, auto_plan, logstar_plan, make_composite_counter
from .counters import make_counter
from .harness import CycleReport, collect_metrics, enumerate_cycle, verify_quasi_gray
from .probes import BitState, CounterSpec, ProbeLedger, UsageError

__version__ = "0.1.0"

__all__ = [
    "BitState",
    "CounterSpec",
    "CycleReport",
    "PreconditionError",
    "ProbeLedger",
    "UsageError",
    "auto_plan",
    "check_bounds",
    "collect_metrics",
    "enumerate_cycle",
    "logstar_plan",
    "make_composite_counter",
    "make_counter",
    "paper_bounds",
    "verify_quasi_gray",
]
