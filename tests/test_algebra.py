from __future__ import annotations

from functools import cmp_to_key, partial

import pytest
from hypothesis import given, settings, strategies as st

from fllp.algebra import (
    DEFAULT_ALGEBRA_CONFIG,
    DOMAIN_LIMIT,
    AlgebraError,
    DomainLimitError,
    HedgeAlgebraSpec,
    HedgeDecl,
    InputError,
    LimitError,
    build_algebra,
    domain_size,
    enumerate_domain,
    load_algebra_config,
    parse_algebra_config,
)
from fllp.inverse import build_inverse_table

from conftest import ASYM_CONFIG, shape_config
from expected import DOMAIN_INVERSE_SHA256, DOMAIN_LITERALS, L1_DOMAIN_LITERALS
from randprog import algebra_config_text, random_algebra


def test_default_domain_enumeration(domain):
    assert len(domain) == 45
    assert tuple(domain.literal(i) for i in range(45)) == DOMAIN_LITERALS


def test_one_word_domain_enumeration():
    config = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 1")
    _, domain, _ = load_algebra_config(config)
    assert tuple(domain.literal(i) for i in range(len(domain))) == L1_DOMAIN_LITERALS


# The pairwise order the domain walk replaced, kept as an oracle over the
# literals: a literal's band (0, the negative terms, W, the positive terms,
# 1) and its hedges are read off its words.  A term's sign says whether it
# sits above (+1) or below (-1) the term it modifies: weakening hedges flip
# a primary's sign, and a hedge flips it again when it is negative w.r.t.
# the hedge it modifies.  Two terms over one primary compare at the first
# hedge position (innermost first) where they differ, by extended index,
# read backwards when chains over the shared prefix descend: when the
# greatest hedge moves that prefix against its class.

def oracle_band(algebra, literal):
    """``(band, hedges outermost first, primary)`` of a literal."""
    *hedges, last = literal.split()
    bands = {"absfalse": 0, algebra.negative_primary: 1, "middle": 2,
             algebra.positive_primary: 3, "abstrue": 4}
    return bands[last], tuple(hedges), last


def oracle_sign(algebra, literal) -> int:
    band, hedges, _ = oracle_band(algebra, literal)
    if band % 2 == 0:
        return 0
    s, inner = (1 if band == 3 else -1), None
    for h in reversed(hedges):  # innermost application first
        keeps = h in algebra.plus_hedges if inner is None else algebra.spec.positivity[h, inner]
        s, inner = (s if keeps else -s), h
    return s


def oracle_compare(algebra, x, y) -> int:
    (bx, xs, primary), (by, ys, _) = (oracle_band(algebra, v) for v in (x, y))
    if bx != by or bx % 2 == 0:
        return (bx > by) - (bx < by)
    xs, ys = xs[::-1], ys[::-1]
    j = 0
    while j < len(xs) and j < len(ys) and xs[j] == ys[j]:
        j += 1
    if j == len(xs) == len(ys):
        return 0
    eh, ek = (algebra.e_index(hs[j] if j < len(hs) else None) for hs in (xs, ys))
    ref = algebra.extended_order()[-1]
    prefix = xs[:j][::-1]
    direction = oracle_sign(algebra, " ".join((ref, *prefix, primary)))
    if ref not in algebra.plus_hedges:
        direction = -direction
    return ((eh > ek) - (eh < ek)) * direction


def literals(domain) -> list[str]:
    return [domain.literal(i) for i in range(len(domain))]


def test_walk_order_agrees_with_the_compare_oracle():
    for key in DOMAIN_INVERSE_SHA256:
        algebra, domain, _ = load_algebra_config(shape_config(key))
        want = sorted(literals(domain), key=cmp_to_key(partial(oracle_compare, algebra)))
        assert literals(domain) == want, key


def test_negation_mirrors_the_domain():
    # Negation swaps the primaries, and 0 with 1; the inverse builder's
    # mirror relies on it sending index i to n - i.
    for key in DOMAIN_INVERSE_SHA256:
        algebra, domain, _ = load_algebra_config(shape_config(key))
        neg, pos = algebra.negative_primary, algebra.positive_primary
        swap = {"absfalse": "abstrue", "middle": "middle", "abstrue": "absfalse",
                neg: pos, pos: neg}
        for i, literal in enumerate(literals(domain)):
            *hedges, last = literal.split()
            negated = " ".join((*hedges, swap[last]))
            assert domain.parse_literal(negated) == domain.n - i, (key, i)


def test_sign_spot_checks(algebra):
    assert oracle_sign(algebra, "true") == 1 and oracle_sign(algebra, "false") == -1
    assert oracle_sign(algebra, "very true") == 1
    assert oracle_sign(algebra, "little true") == -1
    assert oracle_sign(algebra, "very false") == -1
    assert oracle_sign(algebra, "little false") == 1
    # "very" is positive w.r.t. "little": the inner displacement is kept.
    assert oracle_sign(algebra, "very little true") == -1
    assert algebra.flip("very", "little") == 1
    # "probably" is negative w.r.t. "little": the displacement flips back.
    assert oracle_sign(algebra, "probably little true") == 1
    assert algebra.flip("probably", "little") == -1
    assert algebra.flip("little", None) == -1 and algebra.flip("more", None) == 1
    assert oracle_sign(algebra, "absfalse") == oracle_sign(algebra, "middle") == 0
    # Chains over "true" ascend; over "little true" they descend.
    assert algebra.direction(1, None) == 1 and algebra.direction(-1, "little") == -1


def test_extended_order_and_indices(algebra):
    assert algebra.extended_order() == ("little", "probably", "more", "very")
    assert [algebra.e_index(h) for h in ("little", "probably", "more", "very")] == [
        -2, -1, 1, 2,
    ]
    assert algebra.e_index(None) == 0
    assert algebra.hedge_by_e_index(0) is None
    for h in algebra.extended_order():
        assert algebra.hedge_by_e_index(algebra.e_index(h)) == h
    with pytest.raises(AlgebraError):
        algebra.e_index("extremely")
    with pytest.raises(AlgebraError):
        algebra.hedge_by_e_index(3)


def test_domain_boundary_terms(domain):
    # The terms next to the constants, where the inverse builder pulls
    # images that would land on a constant.
    n, w = domain.n, domain.middle_index
    assert w == 22
    assert domain.literal(w + 1) == "very little true"
    assert domain.literal(n - 1) == "very very true"
    assert domain.literal(1) == "very very false"
    assert domain.literal(w - 1) == "very little false"


def test_parse_literal_round_trip(domain):
    for i in range(len(domain)):
        assert domain.parse_literal(domain.literal(i)) == i
    assert domain.parse_literal("middle") == 22


@pytest.mark.parametrize("text, message", [
    ("", "empty truth literal"),
    ("very", "truth literal must end in a primary name, got 'very'"),
    ("very middle", "truth literal must end in a primary name, got 'very middle'"),
    ("very very very", "truth literal must end in a primary name, got 'very very very'"),
    ("quite true", "unknown hedge 'quite' in truth literal 'quite true'"),
    ("quite very very true", "unknown hedge 'quite' in truth literal 'quite very very true'"),
    ("very very very true", "value not in domain: very very very true"),
])
def test_parse_literal_rejections(domain, text, message):
    with pytest.raises(ValueError) as err:
        domain.parse_literal(text)
    assert str(err.value) == message


def test_parse_literal_reads_extra_blanks(domain):
    assert domain.parse_literal(" very  true ") == domain.parse_literal("very true")


def test_a_primary_with_blanks_reads_back():
    config = DEFAULT_ALGEBRA_CONFIG.replace("primary: false, true", "primary: false, so\ttrue")
    _, domain, overrides = load_algebra_config(config)
    build_inverse_table(domain, overrides)
    for literal in ("so\ttrue", "very so\ttrue"):
        assert domain.literal(domain.parse_literal(literal)) == literal


def test_config_problems_are_collected():
    bad = """\
    primary: only_one
    hedge: very class=* rank=2
    limit: soon
    """
    with pytest.raises(AlgebraError) as err:
        parse_algebra_config(bad)
    text = str(err.value)
    assert "primary" in text and "hedge" in text and "limit" in text


@settings(max_examples=12)
@given(st.one_of(
    st.sampled_from((DEFAULT_ALGEBRA_CONFIG, ASYM_CONFIG)).map(
        lambda text: parse_algebra_config(text)[0]),
    st.integers(0, 10**4).map(lambda seed: random_algebra(seed, max_limit=2)[0].spec),
))
def test_algebra_config_text_round_trips(spec):
    assert parse_algebra_config(algebra_config_text(spec)) == (spec, ())


@pytest.mark.parametrize(
    "line",
    [
        "hedge: very class= rank=2",
        "hedge: very class=+- rank=2",
        "hedge: very class=+ rank=1 rank=2",
        "hedge: very class=+ class=- rank=2",
        "hedge: very strong class=+ rank=2",
    ],
)
def test_config_rejects_misread_hedge_lines(line):
    config = DEFAULT_ALGEBRA_CONFIG.replace("hedge: very class=+ rank=2", line)
    with pytest.raises(AlgebraError, match="line 4: expected 'hedge: <name>"):
        parse_algebra_config(config)


# Only "\n" ends a line, as in programs; these other line breaks are blanks.
@pytest.mark.parametrize("blank", ("\r", "\x0c", "\x85", "\u2028"))
def test_only_newlines_end_config_lines(blank):
    want = parse_algebra_config(DEFAULT_ALGEBRA_CONFIG)
    assert parse_algebra_config(DEFAULT_ALGEBRA_CONFIG.replace(" ", blank)) == want
    # with "\r", a CRLF file
    assert parse_algebra_config(DEFAULT_ALGEBRA_CONFIG.replace("\n", f"{blank}\n")) == want
    config = DEFAULT_ALGEBRA_CONFIG.replace("\n", f"{blank}\n", 1)
    config = config.replace("limit: 2", "limit: soon")
    limit_line = DEFAULT_ALGEBRA_CONFIG.split("\n").index("limit: 2") + 1
    with pytest.raises(AlgebraError) as err:
        parse_algebra_config(config)
    assert err.value.violations == (
        f"line {limit_line}: limit must be an integer", "missing 'limit:' declaration"
    )


@pytest.mark.parametrize("config, violations", [
    (DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: -1"), ("limit must be >= 0, got -1",)),
    (DEFAULT_ALGEBRA_CONFIG + "hedge: very class=+ rank=2\n", (
        "duplicate hedge name 'very'", "hedges 'very' and 'very' share rank 2 in class +",
    )),
    (DEFAULT_ALGEBRA_CONFIG + "positive: very -> extremely\n",
     ("positivity entry mentions undeclared hedge 'extremely'",)),
    (DEFAULT_ALGEBRA_CONFIG + "limit 2\n", ("line 17: expected '<key>: ...', got 'limit 2'",)),
    (DEFAULT_ALGEBRA_CONFIG.replace("rank=1", "rank=x", 1), ("line 5: rank must be an integer",)),
    (DEFAULT_ALGEBRA_CONFIG + "positive: very\n",
     ("line 17: expected 'positive: <hedge> -> <list>'",)),
])
def test_config_violations_are_listed_exactly(config, violations):
    with pytest.raises(AlgebraError) as err:
        load_algebra_config(config)
    assert err.value.violations == violations


def test_config_rejects_conflicting_positivity():
    config = DEFAULT_ALGEBRA_CONFIG + "negative: very -> very\n"
    with pytest.raises(AlgebraError, match="already declared"):
        load_algebra_config(config)


def test_build_algebra_rejects_bad_specs():
    decls = (
        HedgeDecl("very", True, 1),
        HedgeDecl("more", True, 1),  # duplicate rank in one class
    )
    positivity = {(a, b): True for a in ("very", "more") for b in ("very", "more")}
    with pytest.raises(AlgebraError, match="share rank"):
        build_algebra(HedgeAlgebraSpec("false", "true", decls, positivity, 2))
    with pytest.raises(AlgebraError, match="not declared"):
        build_algebra(HedgeAlgebraSpec("false", "true", decls[:1], {}, 2))
    with pytest.raises(AlgebraError, match="must differ"):
        build_algebra(HedgeAlgebraSpec("same", "same", (), {}, 1))
    # only a library spec reaches this: the config parser refuses an empty name first
    with pytest.raises(AlgebraError) as err:
        build_algebra(HedgeAlgebraSpec("", "true", (), {}, 1))
    assert err.value.violations == ("primary names must be non-empty",)


def test_limit_zero_domain_is_the_five_constants_and_primaries():
    config = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 0")
    _, domain, _ = load_algebra_config(config)
    assert tuple(domain.literal(i) for i in range(len(domain))) == (
        "absfalse", "false", "middle", "true", "abstrue",
    )


def test_enumerate_domain_is_deterministic(algebra):
    assert literals(enumerate_domain(algebra)) == literals(enumerate_domain(algebra))


def words_of(domain) -> int:
    """The values and hedge words a domain holds: each literal's words."""
    return sum(len(literal.split()) for literal in literals(domain))


@pytest.mark.parametrize("config", [DEFAULT_ALGEBRA_CONFIG, ASYM_CONFIG])
@pytest.mark.parametrize("limit", range(5))
def test_domain_size_counts_the_enumeration(config, limit):
    spec, _ = parse_algebra_config(config.replace("limit: 2", f"limit: {limit}"))
    assert domain_size(spec) == words_of(enumerate_domain(build_algebra(spec)))


@pytest.mark.parametrize("config", [DEFAULT_ALGEBRA_CONFIG, ASYM_CONFIG])
@pytest.mark.parametrize("limit", range(4))
def test_domain_size_counts_the_hedge_words_too(config, limit):
    spec, _ = parse_algebra_config(config.replace("limit: 2", f"limit: {limit}"))
    algebra = build_algebra(spec)
    hedge_words = sum(len(hedges) for pos in (False, True) for hedges in algebra.terms(pos))
    assert domain_size(spec) == len(enumerate_domain(algebra)) + hedge_words


def test_domain_cap_admits_the_default_hedges_up_to_limit_seven():
    seven, _ = parse_algebra_config(DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 7"))
    assert domain_size(seven) == 334_965 <= DOMAIN_LIMIT
    build_algebra(seven)
    eight, _ = parse_algebra_config(DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 8"))
    with pytest.raises(DomainLimitError, match="values and hedge words"):
        build_algebra(eight)


def test_domain_size_on_random_algebras():
    for seed in range(10):
        algebra, domain = random_algebra(seed)
        assert domain_size(algebra.spec) == words_of(domain)


def test_build_algebra_refuses_a_domain_over_the_cap():
    spec, _ = parse_algebra_config(DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 99"))
    with pytest.raises(DomainLimitError) as err:
        build_algebra(spec)  # refused before anything is enumerated
    assert err.value.needed > DOMAIN_LIMIT == err.value.limit
    one = HedgeAlgebraSpec("false", "true", (HedgeDecl("very", True, 1),),
                           {("very", "very"): True}, 10**9)
    with pytest.raises(DomainLimitError):
        build_algebra(one)
    none = HedgeAlgebraSpec("false", "true", (), {}, 10**9)
    assert domain_size(none) == 5


# Config-line fragments: every declaration, well formed or not.
HEDGE_NAMES = ("very", "more", "little", "probably", "quite") * 4 + ("true", "middle")
PRIMARIES = ("primary: false, true",) * 12 + (
    "primary: true, true", "primary: x", "primary: absfalse, true", "primary: ,")
LIMITS = ("limit: 1", "limit: 2", "limit: 3") * 3 + (
    "limit: 0", "limit: 40", "limit: 99", "limit: 100000000", "limit: -1", "limit: soon")
FRAGMENTS = (
    "primary: low, high", "limit: 2", "hedge: very class=* rank=2",
    "hedge: very class=+ rank=two", "hedge: very", "positive: very ->", "negative: very",
    "positive: -> very", "inverse: very", "inverse: very absfalse -> true",
    "inverse: little very true ->", "inverse: very very very true -> true",
    "% a comment", "", "nonsense", "unknown: 1",
)


@st.composite
def config_texts(draw) -> str:
    k = draw(st.sampled_from((0, 1, 2, 2, 3, 3, 4, 4)))
    names = draw(st.lists(st.sampled_from(HEDGE_NAMES), min_size=k, max_size=k, unique=True))
    lines = [draw(st.sampled_from(PRIMARIES)), draw(st.sampled_from(LIMITS))]
    classes = []
    for i, name in enumerate(names):
        # mostly alternating classes, ranked in declaration order within
        # each class; now and then one-sided or clashing
        classes.append(draw(st.sampled_from(("+-"[i % 2],) * 3 + ("+", "-"))))
        rank = draw(st.sampled_from((None,) * 15 + (0, 1, 2)))
        rank = classes.count(classes[-1]) if rank is None else rank
        lines.append(f"hedge: {name} class={classes[-1]} rank={rank}")
    for a in names:
        for b in names:
            if draw(st.sampled_from((True,) * 39 + (False,))):  # now and then undeclared
                lines.append(f"{draw(st.sampled_from(('positive', 'negative')))}: {a} -> {b}")
    literals = [" ".join(words) + draw(st.sampled_from((" true", " false", ""))) for words in
                draw(st.lists(st.lists(st.sampled_from(names or ["very"]), max_size=2), max_size=3))]
    for src, dst in zip(literals, literals[1:]):
        lines.append(f"inverse: {draw(st.sampled_from(names or ['very']))} {src} -> {dst}")
    lines += draw(st.lists(st.sampled_from(FRAGMENTS + ("% fine",) * 16), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=150)
@given(config_texts())
def test_config_text_raises_only_input_or_limit_errors(text):
    try:
        _, domain, overrides = load_algebra_config(text)
        build_inverse_table(domain, overrides)
    except (InputError, LimitError) as exc:
        assert str(exc)
