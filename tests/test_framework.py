import random
from fractions import Fraction

import pytest

from posetpoly.catalog import labeled_catalog
from posetpoly.eulerian import eulerian_from_chains, eulerian_tilde_recursive
from posetpoly.framework import (
    InvariantSpec,
    QSymTruncated,
    etilde_spec,
    eulerian_spec,
    lambda_operator,
    omega_spec,
    qsym_direct,
    qsym_recursive,
    qsym_spec,
    qsym_specialization_check,
    quasi_symmetry_check,
    run_invariant,
    shift_operator,
)
from posetpoly.invariants import ORACLE_BOUND_ENV, order_poly_recursive
from posetpoly.localized import LocalizedRatio
from posetpoly.polynomials import UniPoly, delta_inverse
from posetpoly.posets import (
    LabeledPoset,
    make_antichain,
    make_chain,
    make_poset,
    natural_labeling,
    reversed_labeling,
)


def natural(p):
    return LabeledPoset(p, natural_labeling(p))


def strict(p):
    return LabeledPoset(p, reversed_labeling(p))


def x(nvars, index):
    return QSymTruncated.variable(nvars, index)


def test_qsym_construction():
    q = QSymTruncated(2, {(1, 0): 1, (0, 1): Fraction(0)})
    assert q.terms() == [((1, 0), Fraction(1))]
    assert q.coefficient((0, 1)) == 0
    assert QSymTruncated.zero(3) == QSymTruncated(3)
    assert not QSymTruncated.zero(3)
    assert QSymTruncated.one(2).coefficient((0, 0)) == 1


def test_qsym_rejects_bad_input():
    with pytest.raises(ValueError):
        QSymTruncated(0)
    with pytest.raises(ValueError):
        QSymTruncated(2, {(1,): 1})
    with pytest.raises(ValueError):
        QSymTruncated(2, {(-1, 0): 1})
    with pytest.raises(ValueError):
        QSymTruncated.variable(2, 3)


def test_qsym_arithmetic():
    a = x(2, 1)
    b = x(2, 2)
    assert a + b == QSymTruncated(2, {(1, 0): 1, (0, 1): 1})
    assert a - a == QSymTruncated.zero(2)
    assert 3 * a == QSymTruncated(2, {(1, 0): 3})
    assert a * Fraction(1, 2) == QSymTruncated(2, {(1, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        a + x(3, 1)


def test_qsym_render():
    q = QSymTruncated(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert q.render() == "x1^2 + 2·x1·x2 + x2^2"
    assert QSymTruncated.zero(2).render() == "0"
    assert QSymTruncated.one(2).render() == "1"
    assert (-x(2, 1)).render() == "-x1"


def test_qsym_immutability():
    q = x(2, 1)
    with pytest.raises(AttributeError):
        q.nvars = 3  # type: ignore[misc]


def test_shift_operator():
    one = QSymTruncated.one(2)
    assert shift_operator(one) == one
    assert shift_operator(x(2, 1)) == x(2, 2)
    assert shift_operator(x(2, 1), 2) == QSymTruncated.zero(2)
    assert shift_operator(x(2, 2)) == QSymTruncated.zero(2)
    sq = QSymTruncated(3, {(2, 0, 0): 1})
    assert shift_operator(sq, 2) == QSymTruncated(3, {(0, 0, 2): 1})
    with pytest.raises(ValueError):
        shift_operator(one, -1)


def test_lambda_operator_pinned():
    assert lambda_operator(QSymTruncated.one(3), 1) == x(3, 1) + x(3, 2) + x(3, 3)
    assert lambda_operator(QSymTruncated.one(2), 2) == QSymTruncated(
        2, {(2, 0): 1, (0, 2): 1}
    )
    assert lambda_operator(x(3, 1), 1) == QSymTruncated(
        3, {(1, 1, 0): 1, (0, 1, 1): 1}
    )
    with pytest.raises(ValueError):
        lambda_operator(QSymTruncated.one(2), 0)


def test_direct_enumeration_pinned():
    assert qsym_direct(natural(make_antichain(0)), 2) == QSymTruncated.one(2)
    assert qsym_direct(natural(make_chain(1)), 3) == x(3, 1) + x(3, 2) + x(3, 3)
    assert qsym_direct(natural(make_antichain(2)), 2) == QSymTruncated(
        2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    assert qsym_direct(natural(make_chain(2)), 2) == QSymTruncated(
        2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    )
    assert qsym_direct(strict(make_chain(2)), 2) == QSymTruncated(2, {(1, 1): 1})


def test_direct_enumeration_budget(monkeypatch):
    # default bound 7: 8^7 maps exceed 7^7, and the refusal comes before any map
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        qsym_direct(natural(make_antichain(7)), 8)
    monkeypatch.setenv(ORACLE_BOUND_ENV, "2")
    chain = natural(make_chain(2))
    assert qsym_direct(chain, 2) == qsym_recursive(chain, 2)  # 2^2 = 2^2 maps
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        qsym_direct(chain, 3)  # 3^2 > 2^2
    with pytest.raises(ValueError, match=ORACLE_BOUND_ENV):
        qsym_direct(natural(make_chain(3)), 2)  # 2^3 > 2^2


def test_recursion_matches_direct_enumeration():
    for lp in labeled_catalog(3):
        for nvars in (1, 2, 3):
            assert qsym_recursive(lp, nvars) == qsym_direct(lp, nvars)
    lp = strict(make_poset(4, [(0, 2), (1, 2), (2, 3)]))
    assert qsym_recursive(lp, 4) == qsym_direct(lp, 4)


def test_specialization_hits_order_polynomial():
    for lp in labeled_catalog(3):
        for nvars in (1, 2, 4):
            assert qsym_specialization_check(lp, nvars)


def test_quasi_symmetry():
    for lp in labeled_catalog(3):
        assert quasi_symmetry_check(qsym_direct(lp, 3))
    # a bare x1 misses its x2 twin
    assert not quasi_symmetry_check(x(2, 1))
    assert not quasi_symmetry_check(x(2, 1) + 2 * x(2, 2))


def test_framework_omega_matches_direct_recursion():
    spec = omega_spec()
    for lp in labeled_catalog(4):
        assert run_invariant(spec, lp) == order_poly_recursive(lp)


def test_framework_etilde_matches_direct_recursion():
    spec = etilde_spec()
    for lp in labeled_catalog(4):
        assert run_invariant(spec, lp) == eulerian_tilde_recursive(lp)


def test_framework_eulerian_matches_chain_route():
    spec = eulerian_spec()
    for lp in labeled_catalog(4):
        assert run_invariant(spec, lp) == eulerian_from_chains(lp).e


def test_specs_sharing_a_name_do_not_share_values():
    lp = natural(make_chain(3))
    run_invariant(omega_spec(), lp)
    doubled = InvariantSpec(
        name="omega", carrier=UniPoly, base=UniPoly([2]), operator=delta_inverse
    )
    assert run_invariant(doubled, lp) == UniPoly([0, Fraction(2, 3), 1, Fraction(1, 3)])
    assert run_invariant(omega_spec(), lp) == UniPoly(
        [0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]
    )


def test_spec_factories_return_one_spec_per_argument():
    assert omega_spec() is omega_spec()
    assert etilde_spec() is etilde_spec()
    assert eulerian_spec() is eulerian_spec()
    assert qsym_spec(3) is qsym_spec(3)
    assert qsym_spec(2) is not qsym_spec(3)


def test_spec_validation():
    with pytest.raises(ValueError):
        InvariantSpec(name="bad", carrier=UniPoly, base=UniPoly([1]))
    with pytest.raises(ValueError):
        InvariantSpec(
            name="bad",
            carrier=UniPoly,
            base=UniPoly([1]),
            operator=lambda v: v,
            family=lambda m: (lambda v: v),
        )
    with pytest.raises(TypeError):
        InvariantSpec(name="bad", carrier=UniPoly, base=1, operator=lambda v: v)


def test_carrier_mismatch_is_reported():
    spec = InvariantSpec(
        name="broken-carrier",
        carrier=UniPoly,
        base=UniPoly([1]),
        operator=lambda value: 7,
    )
    with pytest.raises(TypeError):
        run_invariant(spec, natural(make_chain(1)))


def random_unipoly(rng):
    return UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 5))])


def random_localized(rng):
    return LocalizedRatio(random_unipoly(rng), rng.randint(0, 3))


def random_qsym(rng, nvars):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        exps = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-5, 5))
    return QSymTruncated(nvars, terms)


def test_operator_linearity_samples():
    rng = random.Random(271828)
    etilde_op = lambda value: LocalizedRatio(UniPoly((0, 1)), 1) * value
    eul = eulerian_spec()
    for _ in range(30):
        a, b = random_unipoly(rng), random_unipoly(rng)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert delta_inverse(a + b) == delta_inverse(a) + delta_inverse(b)
        assert delta_inverse(c * a) == c * delta_inverse(a)
        member = eul.family(rng.randint(1, 4))
        assert member(a + b) == member(a) + member(b)
        assert member(c * a) == c * member(a)
        ra, rb = random_localized(rng), random_localized(rng)
        assert etilde_op(ra + rb) == etilde_op(ra) + etilde_op(rb)
        assert etilde_op(c * ra) == c * etilde_op(ra)
        qa, qb = random_qsym(rng, 3), random_qsym(rng, 3)
        m = rng.randint(1, 3)
        assert lambda_operator(qa + qb, m) == lambda_operator(qa, m) + lambda_operator(qb, m)
        assert lambda_operator(c * qa, m) == c * lambda_operator(qa, m)


def test_order_polynomial_multiplies_over_disjoint_pieces():
    spec = omega_spec()
    dot = run_invariant(spec, natural(make_chain(1)))
    pair = run_invariant(spec, natural(make_antichain(2)))
    assert pair == dot * dot
    chain = run_invariant(spec, natural(make_chain(2)))
    mixed = run_invariant(spec, natural(make_poset(3, [(0, 1)])))
    assert mixed == chain * dot


def test_tilde_does_not_multiply_over_disjoint_pieces():
    spec = etilde_spec()
    dot = run_invariant(spec, natural(make_chain(1)))
    pair = run_invariant(spec, natural(make_antichain(2)))
    assert pair != dot * dot
