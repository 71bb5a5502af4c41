import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from abelianizer import partitions
from abelianizer.abelian_gw import MemoStore
from abelianizer.grassmannian import quantum_cup
from abelianizer.partitions import BoxSpec

ACCEPTANCE_LINES = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# The two classical per-hook signs of rim-hook reduction, as functions of
# (hook height, k); the first is partitions._hook_sign.
RIM_HOOK_SIGNS = {
    "k_minus_height": lambda height, k: -1 if (k - height) % 2 else 1,
    "height_minus_one": lambda height, k: -1 if (height - 1) % 2 else 1,
}


def calibrate_rim_hook_sign(d_max: int = 2) -> dict[str, bool]:
    """Nonnegativity calibration of the per-hook sign.

    Returns, for each candidate of RIM_HOOK_SIGNS, whether every 3-point
    structure constant of Gr(2,4) and Gr(2,5) up to degree d_max is
    nonnegative under it.  Exactly one candidate must survive.  Each is
    installed on partitions._hook_sign for its own products only, which
    are taken through the uncached quantum_cup.__wrapped__, so the shared
    quantum_cup cache never holds a product of a candidate.
    """
    verdict = {}
    for name, sign in RIM_HOOK_SIGNS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_hook_sign", sign)
            verdict[name] = all(
                v >= 0
                for box in (BoxSpec(2, 4), BoxSpec(2, 5))
                for lam, mu in itertools.combinations_with_replacement(box.basis, 2)
                for (q, _), v in quantum_cup.__wrapped__(lam, mu, box).items()
                if q <= d_max
            )
    return verdict


@pytest.fixture(scope="session")
def store():
    """One shared invariant cache; keys carry (k, n) so all targets coexist."""
    return MemoStore()


@pytest.fixture(scope="session")
def box24():
    return BoxSpec(2, 4)


@pytest.fixture(scope="session")
def box25():
    return BoxSpec(2, 5)


@pytest.fixture(scope="session")
def box36():
    return BoxSpec(3, 6)
