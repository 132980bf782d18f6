"""Pinned charges of the Gray code step functions in both directions.

For every state of every dimension 1..12, each digest covers the step's
read set, write set and next state. The values were taken from the
hand-written increment/decrement and successor/predecessor pairs that the
direction-parameterised steps replaced, so any change to a read order, a
charge or a transition shows here.
"""

import hashlib

import pytest

from quasigray import BitState, ProbeLedger
from quasigray.brgc import brgc_next, brgc_prev
from quasigray.rpgc import rpgc_decrement, rpgc_increment

DIGESTS = {
    "rpgc_increment": "f1bcb76d20c7bad237a0eb643b19f7338133983274213555e14634de4c53b031",
    "rpgc_decrement": "d6883821341af188d257d3e5eb4473b4d9e6f1036cc4043afb7793c7d3490a8c",
    "brgc_next": "a44a0e86539b24f4853733fac613a06c6b7896691ca53abf48aeb3da43294ee9",
    "brgc_prev": "3f638d9c93df64ae9724903acabc7a11adacc0c077ba75c63f040faa029e8d85",
}


def charge_digest(step, max_dim=12):
    digest = hashlib.sha256()
    for d in range(1, max_dim + 1):
        for value in range(1 << d):
            state = BitState.from_int(value, d)
            ledger = ProbeLedger()
            ledger.open_step()
            step(state, ledger)
            line = (
                f"{d} {value} {sorted(ledger.read_set)} "
                f"{sorted(ledger.write_set)} {state.value}\n"
            )
            digest.update(line.encode())
            ledger.close_step()
    return digest.hexdigest()


@pytest.mark.parametrize(
    "step", [rpgc_increment, rpgc_decrement, brgc_next, brgc_prev], ids=lambda f: f.__name__
)
def test_step_charges_match_the_pinned_digest(step):
    assert charge_digest(step) == DIGESTS[step.__name__]
