"""Name-based construction of counters, shared by the CLI and the tests."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

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

# per counter: the line `list` prints, and its forms. A form is (required
# parameters, optional parameters, factory taking them in that order); a
# form has at most one optional parameter, so the ones given are always a
# prefix of the factory's. A counter with several forms takes the first
# whose leading parameter is given, else its first.
COUNTERS = {
    "binary": (
        "--dim D            standard binary counter (folklore baseline)",
        [(("dim",), (), make_binary_counter)],
    ),
    "brgc": (
        "--dim D            binary reflected Gray code",
        [(("dim",), (), make_brgc_counter)],
    ),
    "rpgc": (
        "--dim D            recursive partition Gray code",
        [(("dim",), (), make_rpgc_counter)],
    ),
    "composite": (
        "--layers A,B,..    layered plan, innermost first (--inner rpgc|brgc);"
        " or --dim D --c C for the planned split",
        [
            (
                ("layers",),
                ("inner",),
                lambda layers, inner="rpgc": make_composite_counter(
                    build_layered(list(layers), inner)
                ),
            ),
            (("dim",), ("c",), lambda dim, c=1: make_composite_counter(auto_plan(dim, c))),
        ],
    ),
    "lazy": (
        "--n N              base lazy counter (N a power of two >= 2)",
        [(("n",), (), make_lazy_counter)],
    ),
    "spin": (
        "--n N              lazy counter with a one-bit spin phase",
        [(("n",), (), make_spin_counter)],
    ),
    "doublespin": (
        "--n N --g G        lazy counter with a G-bit spin phase",
        [(("n", "g"), (), make_doublespin_counter)],
    ),
    "wine": (
        "--n N --g G        Gray-coded spin counter (write cap 3);"
        " optional --encoding brgc|rpgc",
        [(("n", "g"), ("encoding",), make_wine_counter)],
    ),
}

Form = Tuple[Tuple[str, ...], Tuple[str, ...], Callable[..., CounterSpec]]


def select_form(
    forms: Sequence[Form],
    params: Dict[str, object],
    subject: str,
    swept: Sequence[str] = (),
) -> Tuple[List[str], Callable[..., CounterSpec]]:
    """The parameters set in ``params`` (None is unset), in the order the
    form among ``forms`` that takes them lists them, and that form's
    factory. ``subject`` opens the error messages, and a parameter in
    ``swept`` is spelled as its plural flag (--dims for dim)."""
    given = [key for key, value in params.items() if value is not None]
    required, optional, factory = next((f for f in forms if f[0][0] in given), forms[0])
    unused = [key for key in given if key not in required + optional]
    missing = [key for key in required if key not in given]
    for keys, verb in ((unused, "does not take"), (missing[:1], "needs")):
        if keys:
            flags = ", ".join(f"--{key}s" if key in swept else f"--{key}" for key in keys)
            raise UsageError(f"{subject} {verb} {flags}")
    return [key for key in required + optional if key in given], factory


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
    if name not in COUNTERS:
        raise UsageError(
            f"unknown counter {name!r}; available: {', '.join(sorted(COUNTERS))}"
        )
    params = dict(dim=dim, n=n, g=g, layers=layers, inner=inner, c=c, encoding=encoding)
    keys, factory = select_form(COUNTERS[name][1], params, f"counter {name}")
    return factory(*[params[key] for key in keys])
