"""Principal seeds whose Lambda has a nonzero mutable block.

`random_principal_seed` builds Lambda = [[0, -D], [D, -DB]], whose
mutable block is zero; the tests draw this second kind beside it.
"""

from qcluster.seeds import random_principal_seed


def compatible_principal_seed(rng, n):
    """A principal seed whose Lambda has a random nonzero mutable block, B
    and D drawn as `random_principal_seed` draws them with entries and d up
    to 2."""
    return random_principal_seed(rng, n, max_entry=2, max_d=2, mutable_block=True)
