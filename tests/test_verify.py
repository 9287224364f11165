"""The seeded draws behind the randomized verify suites."""

import numpy as np

from spintransfer.verify import _random_system

# (kind, delta, delta1, delta2, k0) of the first draws from seed 174,
# recorded when each kind was still drawn by its own branch.
FIRST_DRAWS = [
    ("rect-perp", 12.503477626424392, None, None, 4),
    ("rect-perp", 6.239066265878042, None, None, 4),
    ("box", None, 8.140971414630915, 14.539054251995404, 1),
    ("rect-along", 12.71096113042114, None, None, 4),
    ("box", None, 0.30081912442542635, 13.827507777163623, 6),
    ("rect-along", 7.975006214830125, None, None, 1),
    ("rect-perp", 12.116339710741777, None, None, 2),
    ("rect-perp", 2.323333361511835, None, None, 1),
]


def test_random_system_draws_frozen():
    rng = np.random.default_rng(174)
    for expected in FIRST_DRAWS:
        s = _random_system(rng)
        assert (s.kind, s.delta, s.delta1, s.delta2, s.k0) == expected
