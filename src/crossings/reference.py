"""Known-good values the verify command checks a build against.

Optima are stored as the decimal strings they are quoted at elsewhere
(ten places); read them with bounds.exact when arithmetic is needed.
Census triples follow orbits.orbit_census: relabel-only orbits, pair
orbits, swap classes.
"""

from __future__ import annotations

# certified optima of the single-block relaxation, by cycle length
SINGLE_BLOCK_OPTIMA = {
    4: "1.0000000000",
    5: "1.9270509831",
    6: "2.9519183588",
    7: "4.3107391257",
}

# orbit census per cycle length
CENSUS = {
    4: (3, 3, 3),
    5: (8, 8, 7),
    6: (24, 20, 17),
    7: (108, 78, 56),
    8: (640, 380, 239),
    9: (4492, 2438, 1366),
    10: (36336, 18744, 9848),
    11: (329900, 166870, 85058),
    12: (3326788, 1670114, 840906),
    13: (36846288, 18446184, 9244958),
}

# block dimension multisets of the full symmetrized relaxation
BLOCK_DIMS = {
    4: {1: 3},
    5: {2: 1, 1: 4},
    6: {2: 3, 1: 8},
    7: {3: 6, 2: 4, 1: 8},
}
