"""Principal seeds whose Lambda has a nonzero mutable block.

`random_principal_seed` builds Lambda = [[0, -D], [D, -DB]], whose
mutable block is zero; the tests draw this second kind beside it, and
`with_mutable_block` gives one such seed for a chosen block.
"""

from qcluster.qtorus import SkewForm
from qcluster.seeds import QuantumSeed, random_principal_seed


def compatible_principal_seed(rng, n):
    """A principal seed whose Lambda has a random nonzero mutable block.

    B and D come from `random_principal_seed`, Lambda11 is random skew.
    """
    base = random_principal_seed(rng, n, max_entry=2, max_d=2)
    lam11 = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            lam11[r][c] = rng.choice([v for v in range(-2, 3) if v])
            lam11[c][r] = -lam11[r][c]
    return with_mutable_block(base, lam11)


def with_mutable_block(base, lam11):
    """The principal seed with the exchange matrix and d of `base` whose
    Lambda has the mutable block `lam11`: Lambda12 = -D - Lambda11 B,
    Lambda21 = -Lambda12^T and Lambda22 = B^T D + B^T Lambda11 B make
    Btilde^T Lambda = [D 0]."""
    n, b, d = base.n, base.exchange.principal_part(), base.d
    lam12 = [
        [-(d[r] if r == c else 0) - sum(lam11[r][t] * b[t][c] for t in range(n)) for c in range(n)]
        for r in range(n)
    ]
    lam22 = [
        [
            b[c][r] * d[c] + sum(b[s][r] * lam11[s][t] * b[t][c] for s in range(n) for t in range(n))
            for c in range(n)
        ]
        for r in range(n)
    ]
    rows = [list(lam11[r]) + lam12[r] for r in range(n)]
    rows += [[-lam12[c][r] for c in range(n)] + lam22[r] for r in range(n)]
    return QuantumSeed(form=SkewForm(rows), exchange=base.exchange, d=d)
