"""Published data the benchmark builds its inputs and checks from.

Transcribed from the paper's tables, as full i < j product lists (1-based, the
(j, i, k) products follow from (A1)); the oracle's axiom check confirms that
each table is closed.
"""

from fractions import Fraction

from oracle import ONE, ZERO, add, neg, q


def _e(p, c=1):
    return {p: q(c) if not isinstance(c, tuple) else c}


ENTRIES = {
    "T1,1": (1, {}),
    "T2,1": (2, {}),
    "T3,1": (3, {}),
    "T3,2": (3, {(1, 2, 1): _e(3)}),
    "T4,1": (4, {}),
    "T4,2": (4, {(1, 2, 1): _e(3)}),
    "T4,3": (4, {(1, 2, 1): _e(3), (1, 2, 2): _e(4)}),
    "T4,4": (4, {(2, 3, 2): _e(4), (1, 3, 3): _e(4, -1)}),
    "T4,5": (4, {(2, 3, 1): _e(4), (1, 3, 2): _e(4, -1), (1, 2, 3): _e(4, -2),
                 (2, 3, 2): _e(4)}),
    "T4,7": (4, {(1, 2, 1): _e(3), (1, 2, 3): _e(4), (1, 3, 2): _e(4)}),
    "T4,8": (4, {(1, 2, 1): _e(3), (1, 3, 1): _e(4), (1, 2, 2): _e(4)}),
    "T4,9": (4, {(1, 2, 1): _e(3), (1, 3, 1): _e(4)}),
}

FAMILY = "T4,6"


def family_products(lam):
    """T4,6^lam: [e1,e2,e3] = -(lam+1)e4, [e2,e3,e1] = lam e4, [e3,e1,e2] = e4."""
    return {(1, 2, 3): {4: neg(add(lam, ONE))}, (2, 3, 1): {4: lam}, (1, 3, 2): {4: neg(ONE)}}


def products(name, lam=None):
    if name == FAMILY:
        return 4, family_products(lam)
    return ENTRIES[name]


# the lambda with derivation algebra of dimension 8, and the xi-singular pair
LAMBDA_ORBIT_OF_ONE = (q(1), q(-2), q(Fraction(-1, 2)))
LAMBDA_SINGULAR = (ZERO, q(-1))

# (dim Z3, dim B3, dim H3) as printed for the small abelian and Heisenberg-type systems
COHOMOLOGY_DIMS = {"T2,1": (2, 0, 2), "T3,1": (8, 0, 8), "T3,2": (4, 1, 3)}

# degeneration witnesses: rows of E_i(t) in the source basis
TABLE2 = [
    ("T4,7", None, "T4,6", "0", [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                                 ["0", "0", "1/t", "0"], ["0", "0", "0", "-1/t"]]),
    ("T4,5", None, "T4,6", "1", [["1", "0", "0", "0"], ["0", "t", "0", "0"],
                                 ["0", "0", "1", "0"], ["0", "0", "0", "t"]]),
    ("T4,8", None, "T4,3", None, [["t", "0", "0", "0"], ["0", "1", "0", "0"],
                                  ["0", "0", "t^2", "0"], ["0", "0", "0", "t"]]),
    ("T4,8", None, "T4,9", None, [["1", "0", "0", "0"], ["0", "t", "0", "0"],
                                  ["0", "0", "t", "0"], ["0", "0", "0", "t"]]),
    ("T4,4", None, "T4,2", None, [["0", "1", "0", "0"], ["0", "0", "t", "0"],
                                  ["0", "0", "0", "t"], ["t", "0", "0", "0"]]),
    ("T4,9", None, "T4,2", None, [["1", "0", "0", "0"], ["0", "t", "0", "0"],
                                  ["0", "0", "t", "0"], ["0", "0", "0", "1"]]),
    ("T4,3", None, "T4,2", None, [["1", "0", "0", "0"], ["0", "t", "0", "0"],
                                  ["0", "0", "t", "0"], ["0", "0", "0", "1"]]),
    ("T4,2", None, "T4,1", None, [["t", "0", "0", "0"], ["0", "t", "0", "0"],
                                  ["0", "0", "t", "0"], ["0", "0", "0", "t"]]),
    ("T4,8", None, "T4,4", None, [["0", "0", "1/t", "0"], ["0", "-i", "0", "0"],
                                  ["t", "0", "0", "0"], ["0", "0", "0", "t"]]),
    ("T4,6", "1", "T4,2", None, [["t", "0", "-1/(3*t)", "0"], ["0", "1", "0", "0"],
                                 ["0", "0", "0", "1"], ["0", "0", "1", "0"]]),
    ("T4,7", None, "T4,8", None, [["1", "-1/(2*t^3)", "-1/(4*t^5)", "0"],
                                  ["0", "1/(2*t)", "-1/(4*t^3)", "0"],
                                  ["0", "0", "1/(2*t)", "0"],
                                  ["0", "0", "0", "-1/(4*t^4)"]]),
    ("T4,5", None, "T4,4", None, [["t/3", "0", "0", "0"], ["0", "1", "0", "0"],
                                  ["-1/(3*t)", "1/t", "1", "0"], ["0", "0", "0", "1"]]),
]

# the family closure: T4,6 at the index (1-t)/(1+t) degenerates to T4,5
TABLE4 = {"source": {"name": "T4,6", "index_fn": "(1-t)/(1+t)"},
          "target": {"name": "T4,5"},
          "basis": [["1/2", "1/(2*t)", "0", "0"], ["-1/(2*t)", "1/(2*t^2)", "0", "0"],
                    ["0", "0", "1", "0"], ["0", "0", "0", "1/(2*t^2)"]]}

DIM3 = {"source": {"name": "T3,2"}, "target": {"name": "T3,1"},
        "basis": [["t", "0", "0"], ["0", "t", "0"], ["0", "0", "t"]]}


def family_to_t44_basis(lam):
    """Rows of the T4,6^lam -> T4,4 witness, lam rational outside {1, -2, -1/2}."""
    c1 = 1 / (lam - 1)
    c2 = -1 / (2 * lam + 1)
    c3 = -1 / (lam * lam + lam - 2)
    return [["0", "1", "0", "0"], ["1", f"({c1})/t", "0", "0"],
            [f"({c2})/t", f"({c3})/t^2", "1", "0"], ["0", "0", "0", "1/t"]]


# edges of the dimension-4 degeneration diagram (T4,6* is the whole family)
FIGURE_EDGES = {
    ("T4,7", "T4,6^0"), ("T4,7", "T4,8"), ("T4,5", "T4,6^1"), ("T4,5", "T4,4"),
    ("T4,8", "T4,3"), ("T4,8", "T4,9"), ("T4,8", "T4,4"), ("T4,4", "T4,2"),
    ("T4,9", "T4,2"), ("T4,3", "T4,2"), ("T4,2", "T4,1"), ("T4,6^1", "T4,2"),
    ("T4,6*", "T4,4"), ("T4,6*", "T4,5"), ("T4,6*", "T4,6^0"), ("T4,6*", "T4,6^1"),
}
FIGURE_MAXIMAL = ["T4,6*", "T4,7"]


def _skew(i, j, k, p):
    return [[i, j, k, p], [j, i, k, p], "-1"]


def separating_sets(lam):
    """The four printed separating sets; row 2 is given per rational family member lam."""
    row1 = [_skew(1, 2, 1, 3), _skew(1, 2, 1, 4), _skew(1, 2, 2, 4), _skew(1, 2, 3, 4),
            _skew(1, 3, 1, 4), _skew(1, 3, 2, 4), [[1, 3, 2, 4], [1, 2, 3, 4], "1"]]
    row2 = [_skew(1, 2, 1, 4), _skew(1, 2, 2, 4), _skew(1, 2, 3, 4),
            [[1, 2, 3, 4], [1, 3, 2, 4], str(1 + lam)],
            _skew(1, 3, 1, 4), _skew(1, 3, 2, 4), _skew(2, 3, 1, 4),
            [[2, 3, 1, 4], [1, 3, 2, 4], str(-lam)]]
    row3 = [_skew(1, 2, 1, 3), _skew(1, 2, 1, 4), _skew(1, 3, 1, 4)]
    # the printed c_{1,3,2}^4 = -c_{1,3,2}^4 is read as its (3,1,2) partner
    table5 = [_skew(1, 2, 1, 4), _skew(1, 2, 2, 4), _skew(1, 2, 3, 4), _skew(1, 3, 1, 4),
              _skew(1, 3, 2, 4), _skew(2, 3, 1, 4)]
    return {name: {"dim": 4, "equal": rels, "zero_otherwise": True}
            for name, rels in (("table3-row1", row1), ("table3-row2", row2),
                               ("table3-row3", row3), ("table5", table5))}
