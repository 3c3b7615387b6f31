"""Frozen expected values for the default algebra.

Everything here was worked out by hand from the ordering and mapping rules
before the implementation existed, then double checked.  Tests
compare against these constants; none of them are generated by the code
under test.
"""
from __future__ import annotations

# The 45 literals of the default algebra (two strengthening and two
# weakening hedges, strings capped at two words), ascending.
DOMAIN_LITERALS = (
    "absfalse",
    "very very false",
    "more very false",
    "very false",
    "probably very false",
    "little very false",
    "very more false",
    "more more false",
    "more false",
    "probably more false",
    "little more false",
    "false",
    "very probably false",
    "more probably false",
    "probably false",
    "probably probably false",
    "little probably false",
    "little little false",
    "probably little false",
    "little false",
    "more little false",
    "very little false",
    "middle",
    "very little true",
    "more little true",
    "little true",
    "probably little true",
    "little little true",
    "little probably true",
    "probably probably true",
    "probably true",
    "more probably true",
    "very probably true",
    "true",
    "little more true",
    "probably more true",
    "more true",
    "more more true",
    "very more true",
    "little very true",
    "probably very true",
    "very true",
    "more very true",
    "very very true",
    "abstrue",
)

# Inverse mappings of the four hedges on the default domain, one row per
# input literal, columns ordered very, more, probably, little.  Rows and
# cells marked with the placeholder K expand over K in {identity, very,
# more, probably, little}; fixed cells inside such rows stay as written.
_K = ("", "very", "more", "probably", "little")

INVERSE_ROWS = (
    ("absfalse", "absfalse", "absfalse", "absfalse", "absfalse"),
    ("K very false", "very very false", "very very false", "K more false", "false"),
    ("K more false", "very very false", "K very false", "false", "K probably false"),
    ("false", "very false", "more false", "probably false", "little false"),
    ("very probably false", "very more false", "probably more false",
     "little little false", "very little false"),
    ("more probably false", "more more false", "little more false",
     "probably little false", "very little false"),
    ("probably false", "more false", "false", "little false", "very little false"),
    ("probably probably false", "probably more false", "very probably false",
     "more little false", "very little false"),
    ("little probably false", "little more false", "very probably false",
     "very little false", "very little false"),
    ("little little false", "little more false", "very probably false",
     "very little false", "very little false"),
    ("probably little false", "little more false", "more probably false",
     "very little false", "very little false"),
    ("little false", "false", "probably false", "very little false",
     "very little false"),
    ("more little false", "very probably false", "probably probably false",
     "very little false", "very little false"),
    ("very little false", "probably probably false", "little probably false",
     "very little false", "very little false"),
    ("middle", "middle", "middle", "middle", "middle"),
    ("very little true", "very little true", "very little true",
     "little probably true", "probably probably true"),
    ("more little true", "very little true", "very little true",
     "probably probably true", "very probably true"),
    ("little true", "very little true", "very little true", "probably true", "true"),
    ("probably little true", "very little true", "very little true",
     "more probably true", "little more true"),
    ("little little true", "very little true", "very little true",
     "very probably true", "little more true"),
    ("little probably true", "very little true", "very little true",
     "very probably true", "little more true"),
    ("probably probably true", "very little true", "more little true",
     "very probably true", "probably more true"),
    ("probably true", "very little true", "little true", "true", "more true"),
    ("more probably true", "very little true", "probably little true",
     "little more true", "more more true"),
    ("very probably true", "very little true", "little little true",
     "probably more true", "very more true"),
    ("true", "little true", "probably true", "more true", "very true"),
    ("K more true", "K probably true", "true", "K very true", "very very true"),
    ("K very true", "true", "K more true", "very very true", "very very true"),
    ("abstrue", "abstrue", "abstrue", "abstrue", "abstrue"),
)

HEDGE_COLUMNS = ("very", "more", "probably", "little")


def _sub(cell: str, k: str) -> str:
    if "K" not in cell.split():
        return cell
    return " ".join(cell.replace("K", k, 1).split())


def expand_inverse_rows() -> dict[str, tuple[str, str, str, str]]:
    """Full 45-row mapping table keyed by input literal."""
    out: dict[str, tuple[str, str, str, str]] = {}
    for row in INVERSE_ROWS:
        keys = _K if "K" in row[0].split() else ("",)
        for k in keys:
            key = _sub(row[0], k)
            assert key not in out, key
            out[key] = tuple(_sub(c, k) for c in row[1:])
    return out


# The thirteen literals of the default hedges with strings capped at one word.
L1_DOMAIN_LITERALS = (
    "absfalse",
    "very false",
    "more false",
    "false",
    "probably false",
    "little false",
    "middle",
    "little true",
    "probably true",
    "true",
    "more true",
    "very true",
    "abstrue",
)

# Highest answer grade of each sample program (and the binding it carries).
SAMPLE_ANSWERS = {
    "good_employee.fllp": ("gd_em(X)", "ann", 30),      # more true
    "good_employee_luka.fllp": ("gd_em(X)", "ann", 29),  # probably probably true
    "good_employee_impl_luka.fllp": ("gd_em(X)", "ann", 24),  # more little true
    "hotel.fllp": ("su_ho(X)", "ritz", 28),             # little probably true
    "hotel_probably.fllp": ("su_ho(X)", "ritz", 35),    # probably more true
    "hotel_plain.fllp": ("su_ho(X)", "ritz", 34),       # little more true
}

# Least model of the employee program with the weaker staff grades, and the
# number of consequence rounds (last round only confirms).
EMPLOYEE_MODEL = {
    "st_hd(ann)": 36,
    "hira_un(ann)": 41,
    "gd_em(ann)": 29,
}
EMPLOYEE_ROUNDS = 3

# Clause text the employee program must compile to, byte for byte.
EMPLOYEE_CLAUSE = (
    "gd_em(X,_TV0) :- st_hd(X,_TV1), inv_map(v,_TV1,_TV2), hira_un(X,_TV3), "
    "inv_map(p,_TV3,_TV4), and_luka(_TV2,_TV4,_TV5), and_godel(_TV5,38,_TV0)."
)
EMPLOYEE_FACT_LINES = ("st_hd(ann,36).", "hira_un(ann,41).")
EMPLOYEE_QUERY_LINE = "?- gd_em(X,Truth_value)."

CONNECTIVE_CLAUSES = (
    "and_godel(X,Y,Z) :- (X=<Y,Z=X;X>Y,Z=Y).",
    "and_luka(X,Y,Z) :- H is X+Y-44,(H=<0,Z=0;H>0,Z=H).",
    "or_godel(X,Y,Z) :- (X=<Y,Z=Y;X>Y,Z=X).",
)

# Spot rows of the emitted mapping relation: the three grades every hedge
# leaves in place, plus two hand-computed cells.
INV_MAP_LINES = (
    "inv_map(H,0,0).",
    "inv_map(H,22,22).",
    "inv_map(H,44,44).",
    "inv_map(l,17,21).",
    "inv_map(v,33,25).",
)

# Goodness surface of the sample heater controller: grade of good(x, y) per
# declared input/output point, and the recommendation per input.
HEATER_SURFACE = {
    ("t15", "p0"): 0, ("t15", "p50"): 23, ("t15", "p100"): 33,
    ("t20", "p0"): 30, ("t20", "p50"): 30, ("t20", "p100"): 23,
    ("t25", "p0"): 41, ("t25", "p50"): 30, ("t25", "p100"): 0,
}
HEATER_PICKS = {"t15": ("p100", 33), "t20": ("p0", 30), "t25": ("p0", 41)}

# A pruning bound of 30 on a weight-38 strong-conjunction rule body, on the
# default domain: the body must reach 44 + 30 - 38.
RULE_LUKA_BOUND = (30, 38, 36)
# Least grade whose image under "very" reaches 30.
HEDGE_VERY_BOUND = (30, 36)

# A recursive closure under a compensating conjunction and a disjunction,
# and the complete solver trace of ``good(b)`` on it, once with
# ``threshold=20, depth=0`` and once with the default options.  Unlike the
# values above these were recorded from the solver, not worked out by hand:
# they freeze the search order and the trace lines that the benchmark's
# solver counters are read from.
TRACE_PROGRAM = """\
edge(a,b) : true.
edge(b,c) : very true.
edge(c,d) : more true.
tag(c) : probably true.
path(X,Y) <-g edge(X,Y) : abstrue.
path(X,Y) <-g and_g(edge(X,Z), #more(path(Z,Y))) : abstrue.
good(X) <-l and_l(#very(path(a,X)), or(tag(X), path(X,d))) : very true.
"""
TRACE_THRESHOLD = (
    "goal good(b)",
    "[0] good(b) -> and_l(and_l(#very(path(a,b)),or(tag(b),path(b,d))),v41)",
    "[1] path(a,b) -> and_g(edge(a,b),v44)",
    "[2] edge(a,b) -> v33",
    "[3] tag(b) graded bottom",
    "[3] path(b,d) -> and_g(edge(b,d),v44)",
    "[4] edge(b,d) graded bottom",
    "[4] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(v0,v44))),v41) (below bound)",
    "[3] path(b,d) -> and_g(and_g(edge(b,Z~5),#more(path(Z~5,d))),v44)",
    "[4] edge(b,Z~5) -> v41",
    "[5] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(path(c,d))),v44))),v41) (below bound)",
    "[4] edge(b,Z~5) graded bottom (open choice)",
    "[4] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v0,#more(path(Z~5,d))),v44))),v41) (below bound)",
    "[1] path(a,b) -> and_g(and_g(edge(a,Z~3),#more(path(Z~3,b))),v44)",
    "[2] edge(a,Z~3) -> v33",
    "[3] path(b,b) -> and_g(edge(b,b),v44)",
    "[4] cut edge(b,b) (nothing matches)",
    "[3] path(b,b) -> and_g(and_g(edge(b,Z~7),#more(path(Z~7,b))),v44)",
    "[4] edge(b,Z~7) -> v41",
    "[5] path(c,b) -> and_g(edge(c,b),v44)",
    "[6] cut edge(c,b) (nothing matches)",
    "[5] path(c,b) -> and_g(and_g(edge(c,Z~9),#more(path(Z~9,b))),v44)",
    "[6] cut edge(c,Z~9) (below bound)",
)
TRACE_DEFAULT = (
    "goal good(b)",
    "[0] good(b) -> and_l(and_l(#very(path(a,b)),or(tag(b),path(b,d))),v41)",
    "[1] path(a,b) -> and_g(edge(a,b),v44)",
    "[2] edge(a,b) -> v33",
    "[3] tag(b) graded bottom",
    "[3] path(b,d) -> and_g(edge(b,d),v44)",
    "[4] edge(b,d) graded bottom",
    "[4] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(v0,v44))),v41) (below bound)",
    "[4] computed v0",
    "[3] path(b,d) -> and_g(and_g(edge(b,Z~5),#more(path(Z~5,d))),v44)",
    "[4] edge(b,Z~5) -> v41",
    "[5] path(c,d) -> and_g(edge(c,d),v44)",
    "[6] edge(c,d) -> v36",
    "[7] computed v11",
    "[5] path(c,d) -> and_g(and_g(edge(c,Z~7),#more(path(Z~7,d))),v44)",
    "[6] edge(c,Z~7) -> v36",
    "[7] path(d,d) -> and_g(edge(d,d),v44)",
    "[8] edge(d,d) graded bottom",
    "[8] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(v0,v44))),v44))),v44))),v41) (below bound)",
    "[8] computed v0",
    "[7] path(d,d) -> and_g(and_g(edge(d,Z~9),#more(path(Z~9,d))),v44)",
    "[8] edge(d,Z~9) graded bottom",
    "[8] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(and_g(v0,#more(path(Z~9,d))),v44))),v44))),v44))),v41) (below bound)",
    "[8] computed v0",
    "[6] edge(c,Z~7) graded bottom (open choice)",
    "[6] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(and_g(and_g(v0,#more(path(Z~7,d))),v44))),v44))),v41) (below bound)",
    "[6] computed v0",
    "[4] edge(b,Z~5) graded bottom (open choice)",
    "[4] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v0,#more(path(Z~5,d))),v44))),v41) (below bound)",
    "[4] computed v0",
    "[1] path(a,b) -> and_g(and_g(edge(a,Z~3),#more(path(Z~3,b))),v44)",
    "[2] edge(a,Z~3) -> v33",
    "[3] path(b,b) -> and_g(edge(b,b),v44)",
    "[4] edge(b,b) graded bottom",
    "[4] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(v0,v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[4] computed v0",
    "[3] path(b,b) -> and_g(and_g(edge(b,Z~11),#more(path(Z~11,b))),v44)",
    "[4] edge(b,Z~11) -> v41",
    "[5] path(c,b) -> and_g(edge(c,b),v44)",
    "[6] edge(c,b) graded bottom",
    "[6] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(and_g(v41,#more(and_g(v0,v44))),v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[6] computed v0",
    "[5] path(c,b) -> and_g(and_g(edge(c,Z~13),#more(path(Z~13,b))),v44)",
    "[6] edge(c,Z~13) -> v36",
    "[7] path(d,b) -> and_g(edge(d,b),v44)",
    "[8] edge(d,b) graded bottom",
    "[8] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(v0,v44))),v44))),v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[8] computed v0",
    "[7] path(d,b) -> and_g(and_g(edge(d,Z~15),#more(path(Z~15,b))),v44)",
    "[8] edge(d,Z~15) graded bottom",
    "[8] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(and_g(v0,#more(path(Z~15,b))),v44))),v44))),v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[8] computed v0",
)
