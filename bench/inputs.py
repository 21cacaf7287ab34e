"""Seeded inputs of the `charpoly-batch` workload.

This module imports only `random` and `spcover.spectral`, so a fresh
interpreter that imports it and draws one op's inputs pays spcover's own
set-up and nothing of the benchmark harness.
"""

import random

RANKS = range(1, 7)


def charpoly_inputs(seed: int) -> list[tuple[tuple, object]]:
    """Six (blocks, HamiltonianMatrix) pairs, n = 1..6, drawn from `seed`.

    Same law as `spectral.random_hamiltonian`, drawn here so that a change to
    that function cannot change the workload: entries in [-3, 3], B and C
    symmetrized as M + M^T.
    """
    from spcover.spectral import HamiltonianMatrix

    rng = random.Random(seed)
    out = []
    for n in RANKS:
        def draw():
            return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]

        A, M1, M2 = draw(), draw(), draw()
        B = [[M1[i][j] + M1[j][i] for j in range(n)] for i in range(n)]
        C = [[M2[i][j] + M2[j][i] for j in range(n)] for i in range(n)]
        out.append(((A, B, C), HamiltonianMatrix(n, A, B, C)))
    return out


def charpoly_sweep(seed: int) -> list:
    """One untraced op: the six char polys of `charpoly_inputs(seed)`."""
    from spcover.spectral import char_poly_hamiltonian

    return [char_poly_hamiltonian(h) for _, h in charpoly_inputs(seed)]
