"""Known-good reference values for the reproduction gate.

The rating scenarios fix d = 100 obligors with one-year marginal
default probabilities by rating grade. Every table the `reproduce`
subcommand regenerates is checked cell by cell against the values
below, after the same display rounding the tables use (moments to 3
decimals, expected shortfall to 1 decimal, quantiles as exact
integers).
"""

DEFAULT_D = 100

SCENARIOS = {"A": 0.003, "BBB": 0.017, "B": 0.266}

DEFAULT_ALPHAS = (0.90, 0.95, 0.99)

RHO_LABELS = ("1/6", "1/2", "5/6")

# Cross-moment bounds (orders 1-4) and the correlation range of the
# mean-constrained class: row label -> (lower, upper), at 3 decimals.
MOMENTS = {
    "A": {
        "1": (0.003, 0.003),
        "2": (0.0, 0.003),
        "3": (0.0, 0.003),
        "4": (0.0, 0.003),
        "rho": (-0.003, 1.0),
    },
    "BBB": {
        "1": (0.017, 0.017),
        "2": (0.0, 0.017),
        "3": (0.0, 0.017),
        "4": (0.0, 0.017),
        "rho": (-0.009, 1.0),
    },
    "B": {
        "1": (0.266, 0.266),
        "2": (0.069, 0.266),
        "3": (0.017, 0.266),
        "4": (0.004, 0.266),
        "rho": (-0.010, 1.0),
    },
}

# Quantile bounds of the mean-constrained class: alpha -> (min, max).
VAR_MEAN = {
    "A": {0.90: (0, 2), 0.95: (0, 5), 0.99: (0, 29)},
    "BBB": {0.90: (0, 16), 0.95: (0, 33), 0.99: (1, 100)},
    "B": {0.90: (19, 100), 0.95: (23, 100), 0.99: (26, 100)},
}

# Expected-shortfall ray-scan extrema of the mean-constrained class,
# at 1 decimal: alpha -> (min, max).
ES_MEAN = {
    "A": {0.90: (0.3, 2.0), 0.95: (0.3, 5.0), 0.99: (0.3, 29.0)},
    "BBB": {0.90: (1.7, 16.0), 0.95: (1.7, 33.0), 0.99: (1.7, 100.0)},
    "B": {0.90: (26.6, 100.0), 0.95: (26.6, 100.0), 0.99: (26.6, 100.0)},
}

# Quantile bounds of the correlation-constrained classes plus the
# beta-binomial benchmark: (scenario, rho) -> alpha -> (min, max, beta).
VAR_CORR = {
    ("A", "1/6"): {0.90: (0, 2, 0), 0.95: (0, 5, 0), 0.99: (1, 22, 9)},
    ("A", "1/2"): {0.90: (0, 1, 0), 0.95: (0, 3, 0), 0.99: (0, 21, 4)},
    ("A", "5/6"): {0.90: (0, 0, 0), 0.95: (0, 1, 0), 0.99: (0, 7, 0)},
    ("BBB", "1/6"): {0.90: (0, 16, 5), 0.95: (1, 25, 11), 0.99: (2, 55, 29)},
    ("BBB", "1/2"): {0.90: (0, 9, 0), 0.95: (0, 25, 5), 0.99: (1, 93, 57)},
    ("BBB", "5/6"): {0.90: (0, 3, 0), 0.95: (0, 8, 0), 0.99: (61, 100, 94)},
    ("B", "1/6"): {
        0.90: (21, 82, 53),
        0.95: (26, 100, 62),
        0.99: (38, 100, 76),
    },
    ("B", "1/2"): {
        0.90: (42, 100, 82),
        0.95: (56, 100, 93),
        0.99: (63, 100, 100),
    },
    ("B", "5/6"): {
        0.90: (81, 100, 100),
        0.95: (86, 100, 100),
        0.99: (88, 100, 100),
    },
}
