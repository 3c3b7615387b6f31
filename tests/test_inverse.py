from __future__ import annotations

import pytest

from fllp.algebra import DEFAULT_ALGEBRA_CONFIG, load_algebra_config
from fllp.inverse import InverseTableError, build_inverse_table, validate_inverse_table

from expected import HEDGE_COLUMNS, expand_inverse_rows
from randprog import random_algebra


def test_full_default_table(domain, table):
    rows = expand_inverse_rows()
    assert len(rows) == 45
    for v in range(45):
        got = tuple(domain.literal(table.columns[h][v]) for h in HEDGE_COLUMNS)
        assert got == rows[domain.literal(v)], domain.literal(v)


def test_identity_column():
    # The identity sits between the classes in the extended order, so its
    # column, the index itself, bounds strengthening images from above and
    # weakening ones from below.
    for row, violation in (
        ("more true -> very more true",
         "'more' above 'identity' needs smaller images, but at 'true': 'very more true' > 'true'"),
        ("probably true -> more probably true",
         "'identity' above 'probably' needs smaller images, but at 'true': "
         "'true' > 'more probably true'"),
    ):
        _, domain, overrides = load_algebra_config(DEFAULT_ALGEBRA_CONFIG + f"inverse: {row}\n")
        with pytest.raises(InverseTableError) as err:
            build_inverse_table(domain, overrides)
        assert violation in err.value.violations, row


def test_constants_are_fixed_points(domain, table):
    for h in HEDGE_COLUMNS:
        for v in (0, domain.middle_index, domain.n):
            assert table.columns[h][v] == v


def test_columns_are_monotone_and_side_preserving(domain, table):
    mid, n = domain.middle_index, domain.n
    for h, col in table.columns.items():
        assert all(col[v] <= col[v + 1] for v in range(n)), h
        assert all(col[v] < mid for v in range(1, mid)), h
        assert all(mid < col[v] for v in range(mid + 1, n)), h


def test_primary_cells_cancel(algebra, domain, table):
    # The defining cell of each column: mapping "h true" back through h
    # recovers "true".  The negative side comes from negation transfer and
    # deeper values only owe monotonicity, so no such law holds for them.
    for h in algebra.extended_order():
        hv = domain.parse_literal(f"{h} true")
        assert table.columns[h][hv] == domain.parse_literal("true"), h


def test_validators_pass_on_default_at_other_limits():
    for limit in (1, 2, 3):
        config = DEFAULT_ALGEBRA_CONFIG.replace("limit: 2", f"limit: {limit}")
        _, domain, overrides = load_algebra_config(config)
        table = build_inverse_table(domain, overrides)
        assert validate_inverse_table(table) == []


def test_asymmetric_hedge_classes(asym):
    _, domain, table = asym
    assert validate_inverse_table(table) == []
    for col in table.columns.values():
        assert col[0] == 0
        assert col[domain.n] == domain.n


@pytest.mark.parametrize("seed", range(60))
def test_random_shapes_yield_valid_tables(seed):
    _, domain = random_algebra(seed)
    table = build_inverse_table(domain)
    assert validate_inverse_table(table) == []


@pytest.mark.parametrize("seed", (0, 3, 4, 6, 9, 13, 14, 17))
def test_interpolation_fallback_still_cancels(seed):
    # These shapes defeat the shift construction, so the builder falls back
    # to anchored interpolation; the cancellation property must survive.
    algebra, domain = random_algebra(seed)
    table = build_inverse_table(domain)
    assert validate_inverse_table(table) == []
    true = algebra.positive_primary
    for h in algebra.extended_order():
        hv = domain.parse_literal(f"{h} {true}")
        assert table.columns[h][hv] == domain.parse_literal(true)


def test_legal_override_replaces_one_cell(domain):
    config = DEFAULT_ALGEBRA_CONFIG + "inverse: very true -> probably little true\n"
    _, domain2, overrides = load_algebra_config(config)
    table = build_inverse_table(domain2, overrides)
    very = table.columns["very"]
    assert very[33] == 26
    # neighbours keep their derived values
    assert very[32] == 23
    assert very[34] == 28


def test_override_breaking_a_condition_is_rejected():
    config = DEFAULT_ALGEBRA_CONFIG + "inverse: very abstrue -> very true\n"
    _, domain, overrides = load_algebra_config(config)
    with pytest.raises(InverseTableError, match="abstrue"):
        build_inverse_table(domain, overrides)


@pytest.mark.parametrize("row, violations", [
    ("inverse: very very true -> little false", (  # the cancellation cell of very
        "'very' must cancel on 'very true', maps to 'little false'",
        "'very' is not monotone: 'probably very true' -> 'true' but 'very true' -> 'little false'",
        "'very' maps 'very true' across the middle to 'little false'",
    )),
    ("inverse: little very false -> true", (
        "'little' is not monotone: 'very false' -> 'true' but 'probably very false' -> 'false'",
        "'little' maps 'very false' across the middle to 'true'",
    )),
])
def test_override_violations_are_listed_exactly(row, violations):
    _, domain, overrides = load_algebra_config(DEFAULT_ALGEBRA_CONFIG + row + "\n")
    with pytest.raises(InverseTableError) as err:
        build_inverse_table(domain, overrides)
    assert err.value.violations == violations


def test_override_on_unknown_hedge_is_rejected():
    config = DEFAULT_ALGEBRA_CONFIG + "inverse: extremely true -> true\n"
    _, domain, overrides = load_algebra_config(config)
    with pytest.raises(InverseTableError, match="extremely"):
        build_inverse_table(domain, overrides)


def test_conflicting_override_rows_are_rejected():
    first = DEFAULT_ALGEBRA_CONFIG.count("\n") + 1
    config = DEFAULT_ALGEBRA_CONFIG + (
        "inverse: very true -> probably little true\n"
        "inverse: very true -> more little true\n"
    )
    _, domain, overrides = load_algebra_config(config)
    with pytest.raises(InverseTableError) as err:
        build_inverse_table(domain, overrides)
    assert err.value.violations == (
        f"line {first + 1}: inverse 'very' of 'true' already set to "
        f"'probably little true' on line {first}",
    )


def test_repeated_override_rows_are_accepted():
    row = "inverse: very true -> probably little true\n"
    config = DEFAULT_ALGEBRA_CONFIG + row + row.replace("very true", "very  true")
    _, domain, overrides = load_algebra_config(config)
    assert build_inverse_table(domain, overrides).columns["very"][33] == 26
