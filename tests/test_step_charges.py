"""Pinned charges of the step functions.

Each digest covers, for every state of the given dimensions, the step's
read set, write set and next state, plus the name of any error it raised.
The Gray code values were taken from the hand-written increment/decrement
and successor/predecessor pairs that the direction-parameterised steps
replaced, the lazy family's from its four hand-written step functions
(lazy, spin, doublespin and wine), and the composite plans' from the step
that tested each layer for a wrap inline. Any change to a read order, a
charge or a transition shows here.
"""

import hashlib

import pytest

from quasigray import BitState, ProbeLedger
from quasigray.brgc import brgc_next, brgc_prev
from quasigray.composite import build_layered, make_composite_counter
from quasigray.lazy import (
    make_doublespin_counter,
    make_lazy_counter,
    make_spin_counter,
    make_wine_counter,
)
from quasigray.rpgc import rpgc_decrement, rpgc_increment

DIGESTS = {
    "rpgc_increment": "f1bcb76d20c7bad237a0eb643b19f7338133983274213555e14634de4c53b031",
    "rpgc_decrement": "d6883821341af188d257d3e5eb4473b4d9e6f1036cc4043afb7793c7d3490a8c",
    "brgc_next": "a44a0e86539b24f4853733fac613a06c6b7896691ca53abf48aeb3da43294ee9",
    "brgc_prev": "3f638d9c93df64ae9724903acabc7a11adacc0c077ba75c63f040faa029e8d85",
}


def _positions(mask):
    """The positions of a mask's set bits, in the text of a sorted list."""
    return str([pos for pos in range(mask.bit_length()) if mask >> pos & 1])


def charge_digest(step, dims):
    digest = hashlib.sha256()
    for d in dims:
        for value in range(1 << d):
            state = BitState.from_int(value, d)
            ledger = ProbeLedger()
            ledger.open_step()
            try:
                step(state, ledger)
                error = ""
            except Exception as exc:  # the error's name is part of the digest
                error = f" {type(exc).__name__}"
            line = (
                f"{d} {value} {_positions(ledger.rmask)} "
                f"{_positions(ledger.wmask)} {state.value}{error}\n"
            )
            digest.update(line.encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "step", [rpgc_increment, rpgc_decrement, brgc_next, brgc_prev], ids=lambda f: f.__name__
)
def test_step_charges_match_the_pinned_digest(step):
    assert charge_digest(step, range(1, 13)) == DIGESTS[step.__name__]


# rpgc at d = 13, the benchmark's: its odd top level reaches the calls
# served from 6-bit tables through a 12-bit tail, a route no d <= 12 takes.
# Taken before any call was served from a table.
RPGC_13_DIGESTS = {
    "rpgc_increment": "ec4b0272b4dc59acff5a5443a22c78039098b6d1b9e1ba6f75d5eef232501ef8",
    "rpgc_decrement": "715941d984a23d06182c18d847e10d7ca0f210fb4907b9a992b2ccfabb9a38ca",
}


@pytest.mark.parametrize("step", [rpgc_increment, rpgc_decrement], ids=lambda f: f.__name__)
def test_rpgc_charges_at_the_benchmark_dimension_match_the_pinned_digest(step):
    assert charge_digest(step, [13]) == RPGC_13_DIGESTS[step.__name__]


LAZY_DIGESTS = {
    "lazy-2": "3c60a2fa08cf39724fb691bf9351e31ab23be1055de44aa1d15f3d11b4fe0317",
    "lazy-4": "c9119cf0a1dc0899fbb3d613890f9d8f81ad28619853becd26846bfabbc389b6",
    "lazy-8": "fa3a1ed6554a8f1e917494b4f88f1cd6f99b66f0997a29a6217e93117b266345",
    "spin-2": "d70f9999c9817a862f7e8430a8ec65565474e5c670e5ee06528f843b3f1c91b0",
    "spin-4": "cc8eb4b8724856e1ae0c3d1ab962b2a00e7fda06e52706ec0a6f478aa1127713",
    "spin-8": "d073ec1de78446fd2d9f3f2585e371cb89c765d6e34fd5dd40e3f0b8b39e1abe",
    "doublespin-2-1": "d70f9999c9817a862f7e8430a8ec65565474e5c670e5ee06528f843b3f1c91b0",
    "doublespin-2-2": "c02cb4ca846021bfe06ebff208b52812f35c0395b8300b2915ec42af97739eca",
    "doublespin-2-3": "6c1bb0222d21c7a78521710abddf2ac0d8ed67e8925515e0f558be25246eddec",
    "doublespin-4-1": "cc8eb4b8724856e1ae0c3d1ab962b2a00e7fda06e52706ec0a6f478aa1127713",
    "doublespin-4-2": "7d48833f321e3d5ef0561e61d88bd54c6964b2791cd3ed989ddaffe0ba3fbbd5",
    "doublespin-4-3": "f3174729f1eda9df81eac05effa1c4d6aff81a422c7dcc1b5ab298384ec93888",
    "doublespin-8-1": "d073ec1de78446fd2d9f3f2585e371cb89c765d6e34fd5dd40e3f0b8b39e1abe",
    "doublespin-8-2": "ada7a269653d8e458b2d24c9b8a7a5b290191ef357b514a325b5ec534d03d0ee",
    "doublespin-8-3": "ca87eee981b9e1d02a735377969021ff965d4e2d4adf73a7472529ef91576e97",
    "wine-2-1-brgc": "c282bde991009891e521bf21a5dc96cb099af33fa5d99ba98286eae6eaf7b653",
    "wine-2-2-brgc": "5d1d033e79bcf2dc49ffbdc8de2bd77f8b9ffc6eca5b68c40d2c4364194201d7",
    "wine-2-3-brgc": "c5c3a28edb843c0998ff6bbc4b8a4deae92a0e86ef8b89f69ec5c98c2350c6d8",
    "wine-4-1-brgc": "858851149b5b2a580f888f9a9feaecc49244ff8b986b4f4460d854514c585535",
    "wine-4-2-brgc": "eea2dd00b3a24cd18da358a93a15d2aaaaf3809d8b600de69dea10597f902fcd",
    "wine-4-3-brgc": "58f44f01a02b9552e638565b05f9f624033f63837e112cd47e15813dad1d2f8b",
    "wine-8-1-brgc": "11528b4e954f3665f93315fd6a23efbda53983491fa06312912663e0b35e9e15",
    "wine-8-2-brgc": "f582e477a5e393c41b83425def81c33c5a7a2ab1ffad1495d8a7d5e338261e21",
    "wine-8-3-brgc": "403830bb541e42b8c4bd5b1b669b9e55e1b75b21b1e7c2727e689fcbc467b474",
    "wine-2-1-rpgc": "c282bde991009891e521bf21a5dc96cb099af33fa5d99ba98286eae6eaf7b653",
    "wine-2-2-rpgc": "e0936469dad699c3ba199c34095194bc946d0de3b3a4ada989c23d5b4edf2856",
    "wine-2-3-rpgc": "9894591830b450704ee29a1dba081267796f605d19fad4fb2a8aa934322ecf16",
    "wine-4-1-rpgc": "b210fa0e1b98d5215807e1fa01599839898a31aa9266f2bc6818140176f24ec3",
    "wine-4-2-rpgc": "5290ad792c9313a03a055f6fb785ea9d4cf1bfb7d4155c642df6796aeeb4b672",
    "wine-4-3-rpgc": "e90a3366d3cc65eadc75c437c378af884e1900e66e6dddf573b71731c188168e",
    "wine-8-1-rpgc": "b29ea00cfe7ad2fce2d2cc86e80cc15230c8ff4acfc229e53a715e3151522337",
    "wine-8-2-rpgc": "122d328159521576d240619614517443c1c4d1ee4a0e5e1e3da418c59f1b5be2",
    "wine-8-3-rpgc": "b6f17cf680e635286977202ac18cea7e2f2bf88b0d1c0219c447d20a09affc75",
    "wine-2-9-rpgc": "5e4a6dba08b236044c1100ea8460c58c490341a4f306b79264ccabde2fae9067",
}

LAZY_LAYOUTS = (
    [(make_lazy_counter, (n,)) for n in (2, 4, 8)]
    + [(make_spin_counter, (n,)) for n in (2, 4, 8)]
    + [(make_doublespin_counter, (n, g)) for n in (2, 4, 8) for g in (1, 2, 3)]
    + [
        (make_wine_counter, (n, g, e))
        for e in ("brgc", "rpgc")
        for n in (2, 4, 8)
        for g in (1, 2, 3)
    ]
    # the smallest rpgc phase field where a zero test after k's spin-phase
    # step would read bits that the step did not
    + [(make_wine_counter, (2, 9, "rpgc"))]
)


def _layout_id(layout):
    make, args = layout
    return "-".join([make.__name__[5:-8], *map(str, args)])


@pytest.mark.parametrize("layout", LAZY_LAYOUTS, ids=_layout_id)
def test_lazy_family_charges_match_the_pinned_digest(layout):
    make, args = layout
    counter = make(*args)
    assert charge_digest(counter.advance, [counter.dim]) == LAZY_DIGESTS[_layout_id(layout)]


# 6-4-2-rpgc is the benchmark's composite
COMPOSITE_DIGESTS = {
    "6-3-rpgc": "478701f5bf8c237865eb17058ed2d839af83684f6b8c0b1436efcd3634106834",
    "7-3-2-rpgc": "ff83db86a39a30563a9df058f008a1c3348c80395eac83156638be133e4e277a",
    "2-3-3-4-rpgc": "09a3f357e242deb118ae5fe8f568ce4edfc767557133391e670cafd4fffed36f",
    "6-4-2-rpgc": "ffd23205f650b4d8f8220d2b97dea789ba271d94b66182660658eb7be26a7646",
    "4-4-brgc": "100bc28aff9137169a88e3207e61a64deff33ffa9d3dd5d1619e5f695397379b",
}


@pytest.mark.parametrize("plan", COMPOSITE_DIGESTS)
def test_composite_charges_match_the_pinned_digest(plan):
    *dims, inner = plan.split("-")
    counter = make_composite_counter(build_layered([int(d) for d in dims], inner))
    assert charge_digest(counter.advance, [counter.dim]) == COMPOSITE_DIGESTS[plan]
