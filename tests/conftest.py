import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import svpanneal as sa
from oracles import exhaustive_length_table

# ensemble encodings used across the acceptance-style tests: reduced Hamming
# range so 3D instances stay at 12 qubits, the default binary range at 9
HAM3 = sa.QuditEncoding.hamming(rng=(-2, 2))
BIN3 = sa.QuditEncoding.binary(k=2)


def true_lambda1_sq(inst: sa.Instance) -> int:
    h = sa.hnf(inst.bad)
    return sa.brute_force_svp(sa.Basis(h.rows), sa.auto_box(inst.bad)).lambda1_sq


def expressible(inst: sa.Instance, radius: int = 2) -> bool:
    """True if a shortest vector has all bad-basis coefficients within the
    given radius (and therefore fits both ensemble encodings)."""
    box = tuple((-radius, radius) for _ in range(inst.dim))
    return sa.brute_force_svp(inst.bad, box).lambda1_sq == true_lambda1_sq(inst)


def screened_seeds_3d(count: int, start: int = 0, max_diag: int | None = 300):
    """Deterministic 3D ensemble: seeds whose shortest vector is expressible
    with coefficients in [-2,2]^3, optionally capped on the largest problem
    energy so sweep scans stay affordable."""
    out = []
    seed = start
    while len(out) < count:
        inst = sa.generate_instance(3, seed)
        if expressible(inst):
            if max_diag is not None:
                d = exhaustive_length_table(sa.gram(inst.bad), HAM3)
                if int(d.max()) > max_diag:
                    seed += 1
                    continue
            out.append(seed)
        seed += 1
    return out


@pytest.fixture(scope="session")
def ensemble_3d():
    """Ten screened 3D instances shared by the heavy acceptance tests."""
    return [sa.generate_instance(3, s) for s in screened_seeds_3d(10)]
