import pytest

from qcluster import qtorus


@pytest.fixture
def kernel_widths(monkeypatch):
    """The slot width each qtorus.iterated_q_commutator call chose, in order."""
    seen = []
    slot_width = qtorus._slot_width

    def spy(bound):
        seen.append(slot_width(bound))
        return seen[-1]

    monkeypatch.setattr(qtorus, "_slot_width", spy)
    return seen
