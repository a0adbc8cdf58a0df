import pytest

import torus_words
from qcluster import qarith, relations


@pytest.fixture
def kernel_widths(monkeypatch):
    """The slot width each q-commutator expansion chose, in order: in the
    relation plan builders, or in the test oracle
    torus_words.iterated_q_commutator."""
    seen = []
    slot_width = qarith._slot_width

    def spy(bound):
        seen.append(slot_width(bound))
        return seen[-1]

    for module in (relations, torus_words):
        monkeypatch.setattr(module, "_slot_width", spy)
    return seen
