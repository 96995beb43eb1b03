import random
import time

import pytest

from posetpoly.posetfile import PosetParseError, parse_poset_file, render_poset_file
from posetpoly.posets import LabeledPoset, make_chain, make_poset
from posetpoly.stats import ORACLE_BOUND_ENV, BudgetError


def test_two_chain():
    lp = parse_poset_file("elements: 2\n0 < 1\n")
    assert lp == LabeledPoset(make_chain(2), (1, 2))


def test_explicit_labels():
    lp = parse_poset_file("elements: 2\nlabels: 2 1\n0 < 1\n")
    assert lp == LabeledPoset(make_chain(2), (2, 1))


def test_comments_and_blank_lines():
    text = "# a vee\nelements: 3\n\n0 < 2  # left leg\n1 < 2\n"
    lp = parse_poset_file(text)
    assert lp.poset == make_poset(3, [(0, 2), (1, 2)])
    assert lp.omega == (1, 2, 3)


def test_empty_poset():
    lp = parse_poset_file("elements: 0\n")
    assert lp.size == 0


def test_no_spaces_needed():
    assert parse_poset_file("elements: 2\n0<1\n").poset == make_chain(2)


def test_labels_synthesized_from_extension():
    lp = parse_poset_file("elements: 2\n1 < 0\n")
    # element 1 is the bottom, so it gets the smaller label
    assert lp.omega == (2, 1)
    assert lp.is_omega_natural(lp.poset.full_mask)


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "missing"),
        ("0 < 1\n", 1, "first line"),
        ("elements: x\n", 1, "not an integer"),
        ("elements: -1\n", 1, "nonnegative"),
        ("elements: 2\n0 - 1\n", 2, "expected 'i < j'"),
        ("elements: 2\n0 < q\n", 2, "integers"),
        ("elements: 2\n0 < 2\n", 2, "out of range"),
        ("elements: 2\n1 < 1\n", 2, "cover itself"),
        ("elements: 2\n0 < 1\n1 < 0\n", 3, "cycle"),
        ("elements: 3\n0 < 1\n1 < 2\n2 < 0\n", 4, "cycle"),
        ("elements: 2\nlabels: 1\n", 2, "expected 2 labels"),
        ("elements: 2\nlabels: 1 1\n", 2, "distinct"),
        ("elements: 2\nlabels: 0 1\n", 2, "positive"),
        ("elements: 2\nlabels: a b\n", 2, "integers"),
        ("elements: 2\nlabels: 1 2\nlabels: 2 1\n", 3, "twice"),
    ],
)
def test_rejections_carry_line_numbers(text, line, fragment):
    with pytest.raises(PosetParseError) as info:
        parse_poset_file(text)
    assert info.value.line == line
    assert fragment in str(info.value)
    assert f"line {line}:" in str(info.value)


def test_round_trip():
    text = "elements: 4\nlabels: 4 2 3 1\n0 < 2\n1 < 2\n2 < 3\n"
    lp = parse_poset_file(text)
    assert parse_poset_file(render_poset_file(lp)) == lp


def test_transitive_cover_input_is_tolerated():
    # redundant comparabilities collapse to the same order
    direct = parse_poset_file("elements: 3\n0 < 1\n1 < 2\n0 < 2\n")
    minimal = parse_poset_file("elements: 3\n0 < 1\n1 < 2\n")
    assert direct.poset == minimal.poset


def naive_closure(n, covers):
    """Warshall's closure of the cover relation, as above masks."""
    above = [0] * n
    for low, high in covers:
        above[low] |= 1 << high
    for k in range(n):
        for i in range(n):
            if (above[i] >> k) & 1:
                above[i] |= above[k]
    return tuple(above)


def random_cover_list(rng, n):
    """Covers of a random order on n elements in shuffled file order, with
    transitive and repeated covers mixed in."""
    rank = list(range(n))
    rng.shuffle(rank)
    covers = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b] and rng.random() < 0.3]
    closed = naive_closure(n, covers)
    implied = [(a, b) for a in range(n) for b in range(n) if (closed[a] >> b) & 1]
    covers += rng.sample(implied, min(len(implied), rng.randint(0, 3)))
    covers += rng.sample(covers, min(len(covers), rng.randint(0, 2)))
    rng.shuffle(covers)
    return covers


def render_covers(n, covers):
    return f"elements: {n}\n" + "".join(f"{low} < {high}\n" for low, high in covers)


def test_parsed_order_is_the_closure_of_its_covers():
    rng = random.Random(1414)
    for _ in range(300):
        n = rng.randint(0, 10)
        covers = random_cover_list(rng, n)
        expected = naive_closure(n, covers)
        assert parse_poset_file(render_covers(n, covers)).poset.above == expected
        assert make_poset(n, covers).above == expected


def test_cycle_is_reported_on_the_first_line_that_closes_one():
    rng = random.Random(2718)
    cycles = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        covers = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        text = render_covers(n, covers)
        for index, (low, high) in enumerate(covers):
            if (naive_closure(n, covers[:index])[high] >> low) & 1:
                cycles += 1
                with pytest.raises(PosetParseError) as info:
                    parse_poset_file(text)
                assert info.value.line == index + 2
                assert str(info.value) == f"line {index + 2}: cycle: {high} already precedes {low}"
                with pytest.raises(ValueError, match="cycle"):
                    make_poset(n, covers)
                break
        else:
            assert parse_poset_file(text).poset.above == naive_closure(n, covers)
    assert cycles > 50


def test_header_past_the_ideal_budget_is_refused_before_the_rest(monkeypatch):
    # N points have at least N + 1 ideals, so N >= B^B is refused from the
    # header, ahead of the later lines and of any O(N) allocation
    started = time.perf_counter()
    with pytest.raises(BudgetError) as refused:
        parse_poset_file("elements: 10000000\nnot a cover\n")
    assert time.perf_counter() - started < 1.0
    assert str(refused.value) == (
        "a poset on 10000000 elements has at least 10000001 ideals, past the "
        "enumeration budget 7^7; set POSET_ORACLE_MAX to raise it"
    )
    monkeypatch.setenv(ORACLE_BOUND_ENV, "2")  # 2^2 = 4
    assert parse_poset_file("elements: 3\n0 < 1\n").size == 3
    with pytest.raises(BudgetError):
        parse_poset_file("elements: 4\n")
