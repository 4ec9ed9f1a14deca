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
    8: "5.8284271247",
    9: "7.6527560430",
    10: "9.6866252078",
    11: "11.9987919703",
    12: "14.5115811776",
    13: "17.3135089904",
}

# certified optima of the full relaxation
FULL_OPTIMA = {
    4: "1.0000000000",
    5: "1.9472135954",
    6: "2.9519183588",
    7: "4.3593154948",
    8: "5.8599856417",
    9: "7.7352125975",
    10: "9.7411403685",
}

# asymptotic ratio columns as printed alongside the optima; the printed
# digits mix round-to-nearest with truncation, so checks accept either
RATIO_SINGLE = {
    4: "0.6667", 5: "0.7708", 6: "0.7872", 7: "0.8210", 8: "0.8326",
    9: "0.8503", 10: "0.8610", 11: "0.8726", 12: "0.8794", 13: "0.8878",
}
RATIO_FULL = {
    4: "0.6667", 5: "0.7789", 6: "0.7872", 7: "0.8303", 8: "0.8371",
    9: "0.8595", 10: "0.8659",
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
    8: {7: 2, 5: 2, 4: 9, 3: 7, 2: 4, 1: 9},
    9: {12: 8, 11: 2, 9: 6, 7: 3, 6: 5, 5: 2, 4: 2, 3: 16, 1: 5},
}

# quadratic statements derived from the strongest optimum at each level:
# coefficient of n^2 (five places, cut down) and of -n (exact)
QUADRATIC_COEFFS = {
    10: ("4.87057", "10"),
    11: ("5.99939", "12.5"),
    12: ("7.25579", "15"),
    13: ("8.65675", "18"),
}

# lifted statements covering all m at or above the level: coefficient of
# m(m-1)n^2 (four places, cut down) and of -m(m-1)n (exact)
LIFTED_COEFFS = {
    10: ("0.0541", "1/9"),
    11: ("0.0545", "5/44"),
    12: ("0.0549", "5/44"),
    13: ("0.0554", "3/26"),
}

# balanced bounds ceil(g n^2 / 2 - B n) at n = level
BALANCED_BOUNDS = {10: 388, 11: 589, 12: 865, 13: 1229}
