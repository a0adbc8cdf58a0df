import pytest

from qcluster import qtorus, relations


@pytest.fixture
def kernel_widths(monkeypatch):
    """The slot width each q-commutator expansion chose, in order: in
    qtorus.iterated_q_commutator, or in the relation plan builders."""
    seen = []
    slot_width = qtorus._slot_width

    def spy(bound):
        seen.append(slot_width(bound))
        return seen[-1]

    for module in (qtorus, relations):
        monkeypatch.setattr(module, "_slot_width", spy)
    return seen
