"""Name-based construction of counters, shared by the CLI and the tests."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .brgc import make_brgc_counter
from .composite import auto_plan, build_layered, make_composite_counter
from .harness import make_binary_counter
from .lazy import (
    make_doublespin_counter,
    make_lazy_counter,
    make_spin_counter,
    make_wine_counter,
)
from .probes import CounterSpec, UsageError
from .rpgc import make_rpgc_counter

# per counter: the line `list` prints, and the make_counter parameters it
# takes; composite takes one of two sets, the first whose leading parameter
# is given (else the first set)
COUNTER_SCHEMAS = {
    "binary": (
        "--dim D            standard binary counter (folklore baseline)",
        [("dim",)],
    ),
    "brgc": ("--dim D            binary reflected Gray code", [("dim",)]),
    "rpgc": ("--dim D            recursive partition Gray code", [("dim",)]),
    "composite": (
        "--layers A,B,..    layered plan, innermost first (--inner rpgc|brgc);"
        " or --dim D --c C for the planned split",
        [("layers", "inner"), ("dim", "c")],
    ),
    "lazy": ("--n N              base lazy counter (N a power of two >= 2)", [("n",)]),
    "spin": ("--n N              lazy counter with a one-bit spin phase", [("n",)]),
    "doublespin": (
        "--n N --g G        lazy counter with a G-bit spin phase",
        [("n", "g")],
    ),
    "wine": (
        "--n N --g G        Gray-coded spin counter (write cap 3);"
        " optional --encoding brgc|rpgc",
        [("n", "g", "encoding")],
    ),
}


def unused_params(name: str, given: Dict[str, object]) -> List[str]:
    """The parameters in ``given`` that are set but that counter ``name``
    does not take."""
    options = COUNTER_SCHEMAS[name][1]
    taken = next((opt for opt in options if given.get(opt[0]) is not None), options[0])
    return [key for key, value in given.items() if value is not None and key not in taken]


def make_counter(
    name: str,
    dim: Optional[int] = None,
    n: Optional[int] = None,
    g: Optional[int] = None,
    layers: Optional[Sequence[int]] = None,
    inner: Optional[str] = None,
    c: Optional[int] = None,
    encoding: Optional[str] = None,
) -> CounterSpec:
    if name not in COUNTER_SCHEMAS:
        raise UsageError(
            f"unknown counter {name!r}; available: {', '.join(sorted(COUNTER_SCHEMAS))}"
        )
    given = dict(dim=dim, n=n, g=g, layers=layers, inner=inner, c=c, encoding=encoding)
    unused = unused_params(name, given)
    if unused:
        flags = ", ".join("--" + key for key in unused)
        raise UsageError(f"counter {name} does not take {flags}")
    if name in ("binary", "brgc", "rpgc"):
        if dim is None:
            raise UsageError(f"counter {name} needs --dim")
        factory = {
            "binary": make_binary_counter,
            "brgc": make_brgc_counter,
            "rpgc": make_rpgc_counter,
        }[name]
        return factory(dim)
    if name == "composite":
        if layers is not None:
            plan = build_layered(list(layers), inner or "rpgc")
        elif dim is not None:
            plan = auto_plan(dim, c if c is not None else 1)
        else:
            raise UsageError("composite needs --layers or --dim (with optional --c)")
        return make_composite_counter(plan)
    if n is None:
        raise UsageError(f"counter {name} needs --n")
    if name == "lazy":
        return make_lazy_counter(n)
    if name == "spin":
        return make_spin_counter(n)
    if g is None:
        raise UsageError(f"counter {name} needs --g")
    if name == "doublespin":
        return make_doublespin_counter(n, g)
    return make_wine_counter(n, g, encoding or "brgc")
