from __future__ import annotations

import pytest

from fllp.algebra import (
    BOTTOM,
    DEFAULT_ALGEBRA_CONFIG,
    DOMAIN_LIMIT,
    MIDDLE,
    TOP,
    AlgebraError,
    DomainLimitError,
    HedgeAlgebraSpec,
    HedgeDecl,
    build_algebra,
    domain_size,
    enumerate_domain,
    load_algebra_config,
    parse_algebra_config,
    term,
)

from conftest import ASYM_CONFIG
from expected import DOMAIN_LITERALS, L1_DOMAIN_LITERALS
from randprog import random_algebra


def test_default_domain_enumeration(domain):
    assert len(domain) == 45
    assert tuple(domain.literal(i) for i in range(45)) == DOMAIN_LITERALS


def test_one_word_domain_enumeration():
    config = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 1")
    _, domain, _ = load_algebra_config(config)
    assert tuple(domain.literal(i) for i in range(len(domain))) == L1_DOMAIN_LITERALS


def test_compare_agrees_with_enumeration(algebra, domain):
    for i, x in enumerate(domain):
        for j, y in enumerate(domain):
            want = (i > j) - (i < j)
            assert algebra.compare(x, y) == want, (domain.literal(i), domain.literal(j))


def test_negation_mirrors_the_domain(algebra, domain):
    n = domain.n
    for i, x in enumerate(domain):
        assert domain.index_of(algebra.negate(x)) == n - i


def test_sign_spot_checks(algebra):
    t, f = term((), True), term((), False)
    assert algebra.sign(t) == 1 and algebra.sign(f) == -1
    assert algebra.sign(term(("very",), True)) == 1
    assert algebra.sign(term(("little",), True)) == -1
    assert algebra.sign(term(("very",), False)) == -1
    assert algebra.sign(term(("little",), False)) == 1
    # "very" is positive w.r.t. "little": the inner displacement is kept.
    assert algebra.sign(term(("very", "little"), True)) == -1
    # "probably" is negative w.r.t. "little": the displacement flips back.
    assert algebra.sign(term(("probably", "little"), True)) == 1
    assert algebra.sign(BOTTOM) == algebra.sign(MIDDLE) == algebra.sign(TOP) == 0


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


def test_apply_hedge_clamps_at_the_limit(algebra, domain):
    vvt = term(("very", "very"), True)
    assert algebra.apply_hedge("more", vvt) == vvt
    assert algebra.apply_hedge("more", TOP) == TOP
    assert algebra.apply_hedge("more", term((), True)) == term(("more",), True)


def test_domain_boundary_helpers(domain):
    assert domain.middle_index == 22
    assert domain.literal(domain.least_positive_term) == "very little true"
    assert domain.literal(domain.greatest_positive_term) == "very very true"
    assert domain.literal(domain.least_negative_term) == "very very false"
    assert domain.literal(domain.greatest_negative_term) == "very little false"


def test_parse_literal_round_trip(domain):
    for i in range(len(domain)):
        assert domain.parse_literal(domain.literal(i)) == i
    assert domain.parse_literal("middle") == 22
    with pytest.raises(ValueError):
        domain.parse_literal("quite true")
    with pytest.raises(ValueError):
        domain.parse_literal("very")
    with pytest.raises(ValueError):
        domain.parse_literal("very very very true")  # over the length limit
    with pytest.raises(ValueError):
        domain.parse_literal("")


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


def test_limit_zero_domain_is_the_five_constants_and_primaries():
    config = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", "limit: 0")
    _, domain, _ = load_algebra_config(config)
    assert tuple(domain.literal(i) for i in range(len(domain))) == (
        "absfalse", "false", "middle", "true", "abstrue",
    )


def test_enumerate_domain_is_deterministic(algebra):
    a = enumerate_domain(algebra)
    b = enumerate_domain(algebra)
    assert a.values == b.values


@pytest.mark.parametrize("config", [DEFAULT_ALGEBRA_CONFIG, ASYM_CONFIG])
@pytest.mark.parametrize("limit", range(5))
def test_domain_size_counts_the_enumeration(config, limit):
    spec, _ = parse_algebra_config(config.replace("limit: 2", f"limit: {limit}"))
    assert domain_size(spec) == len(enumerate_domain(build_algebra(spec)))


def test_domain_size_on_random_algebras():
    for seed in range(10):
        algebra, domain = random_algebra(seed)
        assert domain_size(algebra.spec) == len(domain)


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
