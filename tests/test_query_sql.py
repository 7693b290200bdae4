"""Unit tests for the SQL-subset parser."""

import pytest

from repro.query.sql import Query, SQLSyntaxError, parse_query


def test_paper_figure6_query():
    query = parse_query(
        'SELECT 5 FROM * WHERE CPU_model = "Intel Core i7" '
        "AND CPU_utilization < 10% GROUPBY CPU_utilization DESC;"
    )
    assert query.k == 5
    assert query.sites is None
    assert len(query.predicates) == 2
    first, second = query.predicates
    assert (first.attribute, first.op, first.value) == ("CPU_model", "=", "Intel Core i7")
    assert (second.attribute, second.op, second.value) == ("CPU_utilization", "<", 10.0)
    assert query.order_by == "CPU_utilization"
    assert query.descending


def test_select_star_means_unbounded():
    assert parse_query("SELECT * FROM * WHERE a = 1").k is None


def test_select_nodeid_alias():
    assert parse_query("SELECT NodeId FROM * WHERE a = 1").k is None


def test_select_zero_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT 0 FROM *")


def test_site_list():
    query = parse_query("SELECT 1 FROM 'Virginia', Tokyo WHERE x = 1")
    assert query.sites == ["Virginia", "Tokyo"]


def test_where_is_optional():
    query = parse_query("SELECT 1 FROM Virginia")
    assert query.predicates == []


def test_operators():
    query = parse_query(
        "SELECT 1 FROM * WHERE a = 1 AND b < 2 AND c <= 3 AND d > 4 "
        "AND e >= 5 AND f <> 6 AND g != 7 AND h == 8"
    )
    ops = [p.op for p in query.predicates]
    assert ops == ["=", "<", "<=", ">", ">=", "<>", "<>", "="]


def test_value_types():
    query = parse_query(
        "SELECT 1 FROM * WHERE s = 'text' AND n = 2.5 AND p < 15% "
        "AND t = true AND f = false AND w = bareword"
    )
    values = [p.value for p in query.predicates]
    assert values == ["text", 2.5, 15.0, True, False, "bareword"]


def test_string_escapes():
    query = parse_query(r"SELECT 1 FROM * WHERE s = 'it\'s'")
    assert query.predicates[0].value == "it's"


def test_keywords_case_insensitive():
    query = parse_query("select 2 from * where A = 1 groupby A desc")
    assert query.k == 2 and query.descending


def test_order_by_alternative_syntax():
    query = parse_query("SELECT 1 FROM * WHERE a = 1 ORDER BY a ASC")
    assert query.order_by == "a" and not query.descending


def test_groupby_default_ascending():
    query = parse_query("SELECT 1 FROM * WHERE a = 1 GROUPBY a")
    assert not query.descending


def test_limit_clause():
    query = parse_query("SELECT * FROM * WHERE a = 1 LIMIT 7")
    assert query.k == 7


def test_attribute_names_allow_dots_and_dashes():
    query = parse_query("SELECT 1 FROM * WHERE instance_type = 'c3.8xlarge'")
    assert query.predicates[0].value == "c3.8xlarge"


def test_trailing_semicolon_optional():
    parse_query("SELECT 1 FROM *")
    parse_query("SELECT 1 FROM *;")


def test_missing_select_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_query("FROM * WHERE a = 1")


def test_missing_from_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT 1 WHERE a = 1")


def test_trailing_garbage_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT 1 FROM * WHERE a = 1 banana banana")


def test_bad_predicate_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT 1 FROM * WHERE = 1")


def test_unexpected_character_rejected():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT 1 FROM * WHERE a = $")


def test_str_round_trip_parses():
    original = parse_query(
        "SELECT 3 FROM Virginia, Tokyo WHERE a = 'x' AND b < 5 GROUPBY b DESC"
    )
    reparsed = parse_query(str(original))
    assert reparsed.k == original.k
    assert reparsed.sites == original.sites
    assert [p.pack() for p in reparsed.predicates] == [p.pack() for p in original.predicates]
    assert reparsed.order_by == original.order_by
    assert reparsed.descending == original.descending


# ----------------------------------------------------------------------
# Range extensions (ISSUE 6): BETWEEN, GROUP BY, literal-on-left.
# ----------------------------------------------------------------------
def test_between_parses_to_tuple_value():
    query = parse_query(
        "SELECT * FROM * WHERE CPU_utilization BETWEEN 10 AND 30")
    predicate = query.predicates[0]
    assert (predicate.op, predicate.value) == ("between", (10.0, 30.0))


def test_between_binds_tighter_than_and():
    query = parse_query(
        "SELECT * FROM * WHERE u BETWEEN 10 AND 30 AND GPU = true")
    assert [p.op for p in query.predicates] == ["between", "="]


def test_between_matches_is_inclusive():
    predicate = parse_query(
        "SELECT * FROM * WHERE u BETWEEN 10 AND 30").predicates[0]
    assert predicate.matches(10.0) and predicate.matches(30.0)
    assert not predicate.matches(9.999) and not predicate.matches(30.001)


def test_between_with_percent_literals():
    predicate = parse_query(
        "SELECT * FROM * WHERE u BETWEEN 10% AND 30%").predicates[0]
    assert predicate.value == (10.0, 30.0)


def test_literal_on_left_comparison_is_mirrored():
    # Regression: ``5 < CPU_utilization`` used to fail to parse; it must
    # normalize to the identical predicate as ``CPU_utilization > 5``.
    left = parse_query("SELECT * FROM * WHERE 5 < CPU_utilization")
    right = parse_query("SELECT * FROM * WHERE CPU_utilization > 5")
    assert left.predicates[0].pack() == right.predicates[0].pack()


def test_literal_on_left_mirrors_every_comparison():
    pairs = [("5 < u", (">", 5.0)), ("5 <= u", (">=", 5.0)),
             ("5 > u", ("<", 5.0)), ("5 >= u", ("<=", 5.0)),
             ("5 = u", ("=", 5.0)), ("5 <> u", ("<>", 5.0))]
    for clause, (op, value) in pairs:
        predicate = parse_query(f"SELECT * FROM * WHERE {clause}").predicates[0]
        assert (predicate.op, predicate.value) == (op, value), clause


def test_group_by_two_words_sets_group_by():
    query = parse_query("SELECT * FROM * WHERE u > 5 GROUP BY u")
    assert query.group_by == "u"
    assert query.order_by is None


def test_group_by_without_where():
    assert parse_query("SELECT * FROM * GROUP BY u").group_by == "u"


def test_group_by_coexists_with_groupby_ordering():
    query = parse_query(
        "SELECT * FROM * WHERE u > 5 GROUP BY u GROUPBY u DESC")
    assert query.group_by == "u" and query.order_by == "u"
    assert query.descending


def test_group_by_requires_by_and_name():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT * FROM * GROUP u")
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT * FROM * GROUP BY")


def test_between_requires_and():
    with pytest.raises(SQLSyntaxError):
        parse_query("SELECT * FROM * WHERE u BETWEEN 10 30")


def test_range_round_trip_parses():
    original = parse_query(
        "SELECT * FROM * WHERE u BETWEEN 10 AND 30 GROUP BY u")
    reparsed = parse_query(str(original))
    assert [p.pack() for p in reparsed.predicates] == [
        p.pack() for p in original.predicates]
    assert reparsed.group_by == original.group_by
