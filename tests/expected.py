"""Frozen expected values.

The domain and the inverse table of the default algebra were worked out by
hand from the ordering and mapping rules before the implementation
existed, then double checked.  The solver traces and the table digests at
the end were recorded from earlier implementations, as their comments
say.  Tests compare against these constants; none of them are generated
by the code under test.
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
    "[2] tag(b) graded bottom",
    "[2] path(b,d) -> and_g(edge(b,d),v44)",
    "[3] cut edge(b,d) (nothing matches)",
    "[1] path(a,b) -> and_g(and_g(edge(a,Z~3),#more(path(Z~3,b))),v44)",
    "[2] edge(a,Z~3) -> v33",
    "[2] path(b,b) -> and_g(edge(b,b),v44)",
    "[3] cut edge(b,b) (nothing matches)",
    "[2] path(b,b) -> and_g(and_g(edge(b,Z~7),#more(path(Z~7,b))),v44)",
    "[3] edge(b,Z~7) -> v41",
    "[3] path(c,b) -> and_g(edge(c,b),v44)",
    "[4] cut edge(c,b) (nothing matches)",
)
TRACE_DEFAULT = (
    "goal good(b)",
    "[0] good(b) -> and_l(and_l(#very(path(a,b)),or(tag(b),path(b,d))),v41)",
    "[1] path(a,b) -> and_g(edge(a,b),v44)",
    "[2] edge(a,b) -> v33",
    "[2] tag(b) graded bottom",
    "[2] path(b,d) -> and_g(edge(b,d),v44)",
    "[3] edge(b,d) graded bottom",
    "[3] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(v0,v44))),v41) (below bound)",
    "[3] computed v0",
    "[2] path(b,d) -> and_g(and_g(edge(b,Z~5),#more(path(Z~5,d))),v44)",
    "[3] edge(b,Z~5) -> v41",
    "[3] path(c,d) -> and_g(edge(c,d),v44)",
    "[4] edge(c,d) -> v36",
    "[4] computed v11",
    "[3] path(c,d) -> and_g(and_g(edge(c,Z~7),#more(path(Z~7,d))),v44)",
    "[4] edge(c,Z~7) -> v36",
    "[4] path(d,d) -> and_g(edge(d,d),v44)",
    "[5] edge(d,d) graded bottom",
    "[5] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(v0,v44))),v44))),v44))),v41) (below bound)",
    "[5] computed v0",
    "[4] path(d,d) -> and_g(and_g(edge(d,Z~9),#more(path(Z~9,d))),v44)",
    "[5] edge(d,Z~9) graded bottom",
    "[5] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(and_g(v0,#more(path(Z~9,d))),v44))),v44))),v44))),v41) (below bound)",
    "[5] computed v0",
    "[4] edge(c,Z~7) graded bottom (open choice)",
    "[4] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v41,#more(and_g(and_g(v0,#more(path(Z~7,d))),v44))),v44))),v41) (below bound)",
    "[4] computed v0",
    "[3] edge(b,Z~5) graded bottom (open choice)",
    "[3] cut and_l(and_l(#very(and_g(v33,v44)),or(v0,and_g(and_g(v0,#more(path(Z~5,d))),v44))),v41) (below bound)",
    "[3] computed v0",
    "[1] path(a,b) -> and_g(and_g(edge(a,Z~3),#more(path(Z~3,b))),v44)",
    "[2] edge(a,Z~3) -> v33",
    "[2] path(b,b) -> and_g(edge(b,b),v44)",
    "[3] edge(b,b) graded bottom",
    "[3] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(v0,v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[3] computed v0",
    "[2] path(b,b) -> and_g(and_g(edge(b,Z~11),#more(path(Z~11,b))),v44)",
    "[3] edge(b,Z~11) -> v41",
    "[3] path(c,b) -> and_g(edge(c,b),v44)",
    "[4] edge(c,b) graded bottom",
    "[4] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(and_g(v41,#more(and_g(v0,v44))),v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[4] computed v0",
    "[3] path(c,b) -> and_g(and_g(edge(c,Z~13),#more(path(Z~13,b))),v44)",
    "[4] edge(c,Z~13) -> v36",
    "[4] path(d,b) -> and_g(edge(d,b),v44)",
    "[5] edge(d,b) graded bottom",
    "[5] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(v0,v44))),v44))),v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[5] computed v0",
    "[4] path(d,b) -> and_g(and_g(edge(d,Z~15),#more(path(Z~15,b))),v44)",
    "[5] edge(d,Z~15) graded bottom",
    "[5] cut and_l(and_l(#very(and_g(and_g(v33,#more(and_g(and_g(v41,#more(and_g(and_g(v36,#more(and_g(and_g(v0,#more(path(Z~15,b))),v44))),v44))),v44))),v44)),or(tag(b),path(b,d))),v41) (below bound)",
    "[5] computed v0",
)


# sha256 of ``fllp domain --inverse`` output, recorded from the sort-based
# domain enumeration and the two-sided inverse builder before either was
# rewritten; they pin every cell of these tables, including the shapes
# (seeds 0, 3, 4, 6, 9, 13, 14 and 17) that take the anchored fallback.
# ``default-5`` was recorded later, from the depth-first domain walk, before
# truth values became their literals.  Keys: the default algebra at limits
# 0-5, ``conftest.ASYM_CONFIG``, ``samples/vmpl.alg``, and
# ``randprog.random_algebra(seed)`` written out by
# ``randprog.algebra_config_text``.
DOMAIN_INVERSE_SHA256 = {
    "default-0": "f007285de49d0664effaf1ccc726331a3875d94eefc1bf298aa6a0fcf402bda3",
    "default-1": "be6891cd8ed9acdbdc2e37fe4429538690f9da0129936eebbb8ea3cb805f120e",
    "default-2": "abda56a2c65ff899ec722b25822bcd35e04cdc2aff7c64b34e05736b66497fcf",
    "default-3": "d0895234a1ef0385debc65e07bdbde6aca15eafedd7c8844eaf3918f68a63fa6",
    "default-4": "9d959651de67501cabfedcb6b8dc849425a2b4cb0cf4bcbcf8a979f4d8b64f33",
    "default-5": "746ef47fc79b4d7b9a205aab714fe7dd4626dfa5049be2378273304b6da62e97",
    "asym": "6dbe772e3ae4cdc7989b8b4a517022f1af2fe214aad32eb273c9ac7d5240f56a",
    "vmpl": "abda56a2c65ff899ec722b25822bcd35e04cdc2aff7c64b34e05736b66497fcf",
    "seed-0": "2309a92ee542f6d4a376d2c798c9ebf07e6103e5f57d76ebf5d70775ec92eb8a",
    "seed-1": "5bd6ad8b867791abb5218c90973ad10a9db5791aa57701cce6a4371b69d9153a",
    "seed-2": "63588092b4cff8b940a15d9147f6a4ea81bead7d03a8e8bd38cc21f8a02c3cbc",
    "seed-3": "bab790469fcb959023b96351143b57d65767f260b6c1736c86c21f2db7282759",
    "seed-4": "0a37088bfa68116bbb5c539c8a1c04e706fdf5eaa5a6d7d32b2d356306d21ea3",
    "seed-5": "1f6b6175d15d3a84ba34fca8e29be5968da21ade64b74bf62a395f3df17ce93c",
    "seed-6": "17441596b905f261147403b3f8839b208cfafd9fe9ed06897a7a433619d6b06b",
    "seed-7": "6fee77bd55a2b6efd57da46955daf079db9f8d22d6f01b8dada39c57882f7a08",
    "seed-8": "727ff9e229a5bbe842e5778bc61799d941cc2aabd480c5c85190713145385013",
    "seed-9": "8df42814c9cc253a72dae09bc047bb8decf9ba2a594f1fd6b0090aa701860275",
    "seed-10": "3a4cc71efe79b496ff0eb676c57aca0f2d08ff908f18af74d276afe95ac37a1b",
    "seed-11": "33cde13576031f3be47fb26ab49a1ff6e16214f42f89454a3cfe03d99cb21b86",
    "seed-12": "66022fb098656efa415f09afdb056f63758f399f5302e24393453fd8cb1ce9f9",
    "seed-13": "000c3600b63b60182314007fda8c3d63ee11ae58fd899bc4a86c1ba429dda680",
    "seed-14": "6bba51d6a5f8f81539fd00ebcf1a26e5ac9e63194d153be3937c91ce2c0e90ad",
    "seed-15": "6e652d34b2caf237a6e6fe6d2e5b3dbc621ff881b3aafe1c9e070f92ba32e1cd",
    "seed-16": "66022fb098656efa415f09afdb056f63758f399f5302e24393453fd8cb1ce9f9",
    "seed-17": "651d8ddeeb0c527b1c47e0c4cfbbba9b344f729d017ea7d350b1dc3afd072d2e",
    "seed-18": "15b2d9c474589e7051199c3725c0aa5bd0a74c901d4cf6a2d4e8b95786ea93af",
    "seed-19": "d0232aa7492605fd90fa6192d1db1daff84c2da8ba52c502d14a7ef9896f305b",
    "seed-20": "0c9b94d97c9023fd9dafcf550c65ede51580f876315e8508c895a3fa13b7dec2",
    "seed-21": "d39dd43a41e433b599d34e6b4a64399c13113f466d48a3a331d78bce9d0a2d8e",
    "seed-22": "a5172fd0e34e7f9dcfa006831175935551efc46a4fb7b58a381d911391d73532",
    "seed-23": "6fee77bd55a2b6efd57da46955daf079db9f8d22d6f01b8dada39c57882f7a08",
    "seed-24": "5810109d00317941ec16ad756a749e9d7eb94b250a468be728ef2cbcac427f03",
    "seed-25": "6fee77bd55a2b6efd57da46955daf079db9f8d22d6f01b8dada39c57882f7a08",
    "seed-26": "30cc1e9021c8180fa941e8899becdea28a9e76fc568f09c2f010caa5291a6691",
    "seed-27": "d2c5c74579e5f9e507effb4082759e3b6c140a1efd1526cbfc52a9c9ba81cee7",
    "seed-28": "5bd6ad8b867791abb5218c90973ad10a9db5791aa57701cce6a4371b69d9153a",
    "seed-29": "aa6144620b24facb6eb27457336efa906fa15b84a6479e9ff387c25853281b1a",
    "seed-30": "1f6b6175d15d3a84ba34fca8e29be5968da21ade64b74bf62a395f3df17ce93c",
    "seed-31": "939da04806e4949aa0004fffcfdb441ce9810a70a4314f194c8b49e776d69739",
    "seed-32": "6e652d34b2caf237a6e6fe6d2e5b3dbc621ff881b3aafe1c9e070f92ba32e1cd",
    "seed-33": "195d5930f96469bb05fedd40646c6693ca5dd0eea8e438c72ada35c5d1ec99cb",
    "seed-34": "d4ace5256e8ff1bd02c45c8ab6819b704e77069ffcc40d7f1449ba6973dcddae",
    "seed-35": "1f6b6175d15d3a84ba34fca8e29be5968da21ade64b74bf62a395f3df17ce93c",
    "seed-36": "7629708750d56bbd42c046f07457cfb60bb7a63c38790977c7011f33bb544ead",
    "seed-37": "f40584518b9499a907b52eb1f71f5453b9aa9b89ccd4e0968d2b7b1a0b39d535",
    "seed-38": "1f6b6175d15d3a84ba34fca8e29be5968da21ade64b74bf62a395f3df17ce93c",
    "seed-39": "d6c636e6fd844bf2824bc3ca5b1bb207e7a7c6fb2fbdf91b3804543fc090494b",
    "seed-40": "c09e0951682aad437e9620f9f012a1d72b2a3bfc15f0c25b4b87fad287d7b929",
    "seed-41": "66022fb098656efa415f09afdb056f63758f399f5302e24393453fd8cb1ce9f9",
    "seed-42": "3458ebd0c8f377869549a3f4bbc93026d3a87f2d3547bc2e9938301bbec41d3e",
    "seed-43": "c2bb1a83c3b53206792a8023cc0b492bccce6fd57266e78c76882ebe23b57b70",
    "seed-44": "c09e0951682aad437e9620f9f012a1d72b2a3bfc15f0c25b4b87fad287d7b929",
    "seed-45": "1b56665821e6735323e338a70768adfe82c1483dcc7e8bc6bbc17d0c1fa10a01",
    "seed-46": "6d591646c7a16d1ff52ebaed2baf91e346da15ae69a1f89c83e074c03aa5c490",
    "seed-47": "75557fbc6562957ce016bc394687161e83f656953f9677a394d104a48bb0eac1",
    "seed-48": "1f6b6175d15d3a84ba34fca8e29be5968da21ade64b74bf62a395f3df17ce93c",
    "seed-49": "111c687ff9ffb0ca22d80e9c470fd8efa372b3ce7d1913b38c1e3e62b016a7f1",
    "seed-50": "27f1648f258427a60bf8e9e1be3d693ffeabdf8570afd466b08597d1bac45dc4",
    "seed-51": "5bd6ad8b867791abb5218c90973ad10a9db5791aa57701cce6a4371b69d9153a",
    "seed-52": "4d1cdfa72e29617c9b85e02921c40e529fdbccb1f14c57b4ac4f0dcbd367c9ca",
    "seed-53": "d0232aa7492605fd90fa6192d1db1daff84c2da8ba52c502d14a7ef9896f305b",
    "seed-54": "56290764c59cd39f3c964ed89a31ec90f4fe24abeff1e4ea6ed64e8d325acd34",
    "seed-55": "63588092b4cff8b940a15d9147f6a4ea81bead7d03a8e8bd38cc21f8a02c3cbc",
    "seed-56": "d0232aa7492605fd90fa6192d1db1daff84c2da8ba52c502d14a7ef9896f305b",
    "seed-57": "acb95224b1f3afaea74bf56ec0cff40b77f2a9c777b118565dd6ab22abf7cbc0",
    "seed-58": "eb0daa8f3196d4d53f7a9aefed91f551e7b7bb44c06f5001f0f88e1adb5f7123",
    "seed-59": "5132cd2c8b682a137994f8058266eea1f0e51a17c6d06586644c713c867bc6b4",
}


# Solve count and sha256 of ``tracegrid.grid_digest(100)``: every traced
# search of the randprog grid (traces, answers, depth flags and the traces
# left at a lowered search limit), recorded before a bottom grade became
# one more branch of the solver's push loop.
TRACE_GRID_100 = (1144, "8fadfab28e6d89a849d47128c24ca56619e68332aa7c6d2635c2750e966a63d4")


# sha256 of the traces of ``path(nI,Y)``, I = 0..10, on the 10-edge chain of
# ``test_solver.CHAIN10`` under ``--best --depth 0 --threshold v1``,
# recorded when each rule unfolding still copied its body.
CHAIN10_TRACE = "ab3dc0ae49fd2ab499212cc5ef4e551dad5c6ae53c922121ef3e7758b35c0a45"
