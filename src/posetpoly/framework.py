"""One recursion, many invariants.

Every invariant here is computed by the same scheme: start from a base
value on the empty poset, and for nonempty P apply a linear operator to
the sum of the invariant over the complements of the nonempty ideals
with order-preserving labels.  A spec either applies one operator to the
whole sum, or applies a size-indexed operator to each summand.  The
order polynomial, both Eulerian forms, and a truncated quasi-symmetric
refinement are all instances.

The quasi-symmetric carrier is a polynomial in x_1..x_N, stored as a map
from exponent vectors to rational coefficients.  The shift operator S
moves every variable up one slot, dropping whatever falls off the end;
the building-block operator for m is sum_k x_k^m S^k.

run_invariant evaluates any spec on its carrier, in Fractions; it is the
independent route the checks compare the dedicated recursions against.
The checks also sample the linearity of these specs' own operators, so an
operator that is not linear fails even where it agrees with the
recursion on every catalog class.
qsym_recursive is the dedicated one: it keeps integer coefficients on the
monomial quasi-symmetric basis, where the building-block operator for m
prepends the part m to a composition, M_alpha -> M_((m) + alpha), and
compositions with more than N parts drop.  Its class records are those of
invariants, which Omega and e/etilde share; the coordinates of a class of
more than 5 elements hold N, so a call with another N recomputes them.
qsym_direct, qsym_recursive and run_invariant's qsym specs are metered by
posetpoly.stats as maps, monomials and exponents, each counted before any
expansion; qsym_direct and qsym_recursive first charge the N exponents of
one vector, which alone bounds N on the empty poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations
from math import comb
from typing import Callable, Mapping

from posetpoly import stats
from posetpoly.invariants import (
    SMALL_CLASS_MAX,
    Step,
    admissible_maps,
    class_coordinates,
    order_poly_recursive,
    top_record,
)
from posetpoly.localized import LocalizedRatio
from posetpoly.polynomials import RationalLike, UniPoly, _as_fraction, delta_inverse
from posetpoly.posets import (
    LabeledPoset,
    canonical_key,
    induced_subposet,
    omega_natural_ideals,
)

__all__ = [
    "QSymTruncated",
    "qsym_direct",
    "shift_operator",
    "lambda_operator",
    "InvariantSpec",
    "run_invariant",
    "omega_spec",
    "etilde_spec",
    "eulerian_spec",
    "qsym_spec",
    "qsym_recursive",
    "qsym_specialization_check",
    "quasi_symmetry_check",
]

_LAMBDA = UniPoly((0, 1))
_ONE_MINUS_LAMBDA = UniPoly((1, -1))


class QSymTruncated:
    """A polynomial in x_1..x_nvars over Q, keyed by exponent vectors."""

    __slots__ = ("nvars", "_terms")

    nvars: int
    _terms: Mapping[tuple[int, ...], Fraction]

    def __init__(
        self, nvars: int, terms: Mapping[tuple[int, ...], RationalLike] | None = None
    ) -> None:
        if nvars < 1:
            raise ValueError("need at least one variable")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
            value = _as_fraction(coeff)
            if value:
                cleaned[tuple(exps)] = value
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QSymTruncated is immutable")

    @classmethod
    def zero(cls, nvars: int) -> QSymTruncated:
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> QSymTruncated:
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def variable(cls, nvars: int, index: int) -> QSymTruncated:
        """x_index, with index counted from 1."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if k == index - 1 else 0 for k in range(nvars))
        return cls(nvars, {exps: 1})

    def terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self._terms.items(), reverse=True)

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self._terms.get(exps, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSymTruncated):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def _check_compatible(self, other: QSymTruncated) -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: QSymTruncated) -> QSymTruncated:
        if not isinstance(other, QSymTruncated):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._terms)
        for exps, coeff in other._terms.items():
            merged[exps] = merged.get(exps, Fraction(0)) + coeff
        return QSymTruncated(self.nvars, merged)

    def __neg__(self) -> QSymTruncated:
        return QSymTruncated(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: QSymTruncated) -> QSymTruncated:
        if not isinstance(other, QSymTruncated):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar: RationalLike) -> QSymTruncated:
        value = _as_fraction(scalar)
        return QSymTruncated(self.nvars, {e: c * value for e, c in self._terms.items()})

    __rmul__ = __mul__

    def specialize_ones(self) -> Fraction:
        """The value with every variable set to 1."""
        return sum(self._terms.values(), Fraction(0))

    def render(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.terms():
            factors = [
                f"x{k + 1}" + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(exps)
                if e
            ]
            monomial = "·".join(factors) if factors else "1"
            if coeff == 1 and factors:
                pieces.append(monomial)
            elif coeff == -1 and factors:
                pieces.append(f"-{monomial}")
            elif factors:
                pieces.append(f"{coeff}·{monomial}")
            else:
                pieces.append(str(coeff))
        out = pieces[0]
        for piece in pieces[1:]:
            out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return out

    def __repr__(self) -> str:
        return f"QSymTruncated({self.nvars}, {dict(self.terms())!r})"

    def __str__(self) -> str:
        return self.render()


def shift_operator(q: QSymTruncated, steps: int = 1) -> QSymTruncated:
    """Move every variable up by steps slots, truncating past x_nvars."""
    if steps < 0:
        raise ValueError("shift must be nonnegative")
    if steps == 0:
        return q
    n = q.nvars
    shifted: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in q._terms.items():
        if any(exps[n - steps :]):
            continue  # pushed out of the window
        moved = (0,) * steps + exps[: n - steps]
        shifted[moved] = shifted.get(moved, Fraction(0)) + coeff
    return QSymTruncated(n, shifted)


def lambda_operator(q: QSymTruncated, m: int) -> QSymTruncated:
    """sum over k of x_k^m times the k-fold shift of q."""
    if m < 1:
        raise ValueError("operator index must be positive")
    n = q.nvars
    out: dict[tuple[int, ...], Fraction] = {}
    for k in range(1, n + 1):
        for exps, coeff in shift_operator(q, k)._terms.items():
            bumped = tuple(e + m if j == k - 1 else e for j, e in enumerate(exps))
            out[bumped] = out.get(bumped, Fraction(0)) + coeff
    return QSymTruncated(n, out)


def _charge_vector(nvars: int) -> None:
    """Charge the nvars exponents of one exponent vector to the exponents
    budget, before any is built.  On the empty poset the maps and monomials
    count 1 whatever nvars, so this is what refuses a huge nvars there."""
    stats.charge(
        "exponents",
        nvars,
        lambda b: f"an exponent vector in {nvars} variables exceeds the enumeration budget {b}^{b}",
    )


def qsym_direct(lp: LabeledPoset, nvars: int) -> QSymTruncated:
    """Sum the monomial of every order- and label-compatible map into
    {1..nvars}: weakly increasing along the order, strictly where the
    label decreases.  It walks the admissible maps of the order-polynomial
    oracle (invariants.admissible_maps, value v standing for x_(v+1)), each
    of the nvars^|P| maps once, and charges them to the maps budget.  The
    maps are counted in ints, which QSymTruncated turns into shared
    Fractions."""
    n = lp.size
    _charge_vector(nvars)
    stats.charge(
        "maps", nvars**n, lambda b: f"{nvars}^{n} maps exceed the enumeration budget {b}^{b}"
    )
    accumulated: dict[tuple[int, ...], int] = {}
    for f in admissible_maps(lp, nvars):
        exps = [0] * nvars
        for v in f:
            exps[v] += 1
        key = tuple(exps)
        accumulated[key] = accumulated.get(key, 0) + 1
    return QSymTruncated(nvars, accumulated)


@dataclass(frozen=True)
class InvariantSpec:
    """A recursion instance: base value plus either one operator applied
    to the sum over ideal complements, or a size-indexed operator family
    applied summand by summand."""

    name: str
    carrier: type
    base: object
    operator: Callable[[object], object] | None = None
    family: Callable[[int], Callable[[object], object]] | None = None

    def __post_init__(self) -> None:
        if (self.operator is None) == (self.family is None):
            raise ValueError("specify exactly one of operator or family")
        if not isinstance(self.base, self.carrier):
            raise TypeError(
                f"base value of {self.name!r} is {type(self.base).__name__}, "
                f"expected {self.carrier.__name__}"
            )


def run_invariant(spec: InvariantSpec, lp: LabeledPoset) -> object:
    """Evaluate the spec's recursion, with a table of values by class that
    lives for this call only.  A quasi-symmetric spec that fails
    _check_shift_budget is refused before anything expands."""
    return _run(spec, {}, lp)


def _check_shift_budget(nvars: int, size: int, charged: bool = True) -> None:
    """Charge the exponents a qsym recursion in Fractions would write to the
    exponents budget.  A value on size points has at most
    C(nvars+size-1, size) monomials, one per monomial of degree size
    (Σ_k C(nvars, k)·C(size-1, k-1), k the nonzero exponents), and
    lambda_operator writes each monomial once per variable, nvars exponents
    at a time; no expansion is needed to count this.  With charged False
    the same count is refused but not counted, for a caller that checks
    before run_invariant charges the class."""
    count = nvars * nvars * comb(nvars + size - 1, size)
    meter = partial(stats.charge, "exponents") if charged else stats.admit
    meter(
        count,
        lambda b: f"qsym:{nvars} on {size} points writes up to {count} exponents, over the "
        f"enumeration budget {b}^{b}",
    )


def _run(spec: InvariantSpec, memo: dict[tuple, object], lp: LabeledPoset) -> object:
    """run_invariant with the caller's table of this spec's values by class:
    a check that runs one spec over the catalog keeps one table for its loop,
    since the catalog's posets share most of their subposets.  The shift
    budget is checked before each class expands, the largest first."""
    key = canonical_key(lp)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(spec.base, QSymTruncated):
        _check_shift_budget(spec.base.nvars, lp.size)
    if lp.size == 0:
        value = spec.base
    else:
        full = lp.poset.full_mask
        terms = []
        for ideal in omega_natural_ideals(lp):
            if ideal == 0:
                continue
            child = _run(spec, memo, induced_subposet(lp, full ^ ideal))
            if spec.family is not None:
                child = spec.family(ideal.bit_count())(child)
            terms.append(child)
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        value = spec.operator(total) if spec.operator is not None else total
    if not isinstance(value, spec.carrier):
        raise TypeError(
            f"operator of {spec.name!r} produced {type(value).__name__}, "
            f"expected {spec.carrier.__name__}"
        )
    memo[key] = value
    return value


def omega_spec() -> InvariantSpec:
    return InvariantSpec(
        name="omega",
        carrier=UniPoly,
        base=UniPoly([1]),
        operator=delta_inverse,
    )


def etilde_spec() -> InvariantSpec:
    return InvariantSpec(
        name="etilde",
        carrier=LocalizedRatio,
        base=LocalizedRatio(UniPoly([1]), 1),
        operator=lambda value: LocalizedRatio(_LAMBDA, 1) * value,
    )


def eulerian_spec() -> InvariantSpec:
    def member(m: int) -> Callable[[UniPoly], UniPoly]:
        factor = _LAMBDA * _ONE_MINUS_LAMBDA ** (m - 1)
        return lambda value: factor * value

    return InvariantSpec(
        name="eulerian",
        carrier=UniPoly,
        base=UniPoly([1]),
        family=member,
    )


def qsym_spec(nvars: int) -> InvariantSpec:
    return InvariantSpec(
        name=f"qsym:{nvars}",
        carrier=QSymTruncated,
        base=QSymTruncated.one(nvars),
        family=lambda m: (lambda value: lambda_operator(value, m)),
    )


def _composition_step(nvars: int) -> Step:
    """Integer coefficients on the monomial quasi-symmetric basis M_alpha.

    The coordinates are a flat tuple (mask, coefficient, mask, ...), where a
    composition alpha of n is the mask of its partial sums below n (bit p
    set when some leading parts add up to p), so the empty composition and
    (n) are both 0 and alpha has bit_count + 1 parts when n > 0.  lambda_operator(M_alpha, m) = M_((m) + alpha): the removed size
    becomes the first part, which sets bit m and moves the rest up by m.
    M_alpha vanishes in nvars variables once alpha has more than nvars
    parts, so those drop; a class of at most SMALL_CLASS_MAX elements keeps
    every composition (at most 16), so its one entry serves every nvars.
    """

    def step(size: int, children: list[tuple[object, int, int]]) -> tuple[int, ...]:
        if size == 0:
            return (0, 1)
        below = (nvars if size > SMALL_CLASS_MAX else size) - 1  # bits a child may carry
        out: dict[int, int] = {}
        for coords, removed, mult in children:
            if removed == size:
                out[0] = out.get(0, 0) + mult
                continue
            pairs = iter(coords)
            for sums, c in zip(pairs, pairs):
                if sums.bit_count() < below:
                    key = (sums | 1) << removed
                    out[key] = out.get(key, 0) + mult * c
        return tuple(chain.from_iterable(out.items()))

    return step


@lru_cache(maxsize=256)
def _monomials(sums: int, size: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the monomials of M_alpha in nvars variables, alpha
    the composition of size with partial-sum mask sums.  The cache lets
    every value that holds a vector share one tuple.  Its keys are the
    compositions a value can hold: 2,100 deep-recursion queries (3
    variables, 8-10 points) use 109 of them and catalog-sweep 32, so 256
    keeps them all while bounding what other sizes can add."""
    cuts = [p for p in range(1, size) if (sums >> p) & 1]
    alpha = [b - a for a, b in zip([0, *cuts], [*cuts, size])] if size else []
    vectors = []
    for slots in combinations(range(nvars), len(alpha)):
        exps = [0] * nvars
        for slot, part in zip(slots, alpha):
            exps[slot] = part
        vectors.append(tuple(exps))
    return tuple(vectors)


def _monomial_expansion(coords: tuple[int, ...], size: int, nvars: int) -> QSymTruncated:
    """sum over alpha of coords[alpha]·M_alpha(x_1..x_nvars)."""
    terms: dict[tuple[int, ...], Fraction] = {}
    pairs = iter(coords)
    for sums, c in zip(pairs, pairs):
        coeff = _as_fraction(c)
        for exps in _monomials(sums, size, nvars):
            terms[exps] = coeff
    return QSymTruncated(nvars, terms)


def qsym_recursive(lp: LabeledPoset, nvars: int) -> QSymTruncated:
    """The quasi-symmetric recursion in integer composition coordinates.
    Its monomials are charged to the monomials budget before they expand:
    M_alpha has C(nvars, parts of alpha) of them.  A small class that kept
    its value for this nvars returns it, expanding and charging nothing."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    record, table = top_record(lp, nvars)
    last = record.qsym_value  # a small class keeps the value of its latest nvars
    if last is not None and last[0] == nvars:
        return last[1]
    _charge_vector(nvars)
    coords = class_coordinates(record, "qsym", _composition_step(nvars), table)
    pairs = iter(coords)
    count = sum(
        comb(nvars, sums.bit_count() + 1 if lp.size else 0) for sums, c in zip(pairs, pairs) if c
    )
    stats.charge(
        "monomials",
        count,
        lambda b: f"{count} monomials in {nvars} variables exceed the enumeration budget {b}^{b}",
    )
    value = _monomial_expansion(coords, lp.size, nvars)
    if lp.size <= SMALL_CLASS_MAX:
        record.qsym_value = (nvars, value)
    return value


def qsym_specialization_check(lp: LabeledPoset, nvars: int) -> bool:
    """All variables set to 1 must reproduce the order polynomial at nvars."""
    direct = qsym_direct(lp, nvars)
    return direct.specialize_ones() == order_poly_recursive(lp)(nvars)


def quasi_symmetry_check(q: QSymTruncated) -> bool:
    """Coefficients may depend only on the sequence of nonzero exponents:
    every choice of that many variable slots must carry the same one."""
    coefficients: dict[tuple[int, ...], set[Fraction]] = {}
    occupied: dict[tuple[int, ...], int] = {}
    for exps, coeff in q.terms():
        word = tuple(e for e in exps if e)
        coefficients.setdefault(word, set()).add(coeff)
        occupied[word] = occupied.get(word, 0) + 1
    for word, seen in coefficients.items():
        if len(seen) != 1:
            return False
        if occupied[word] != comb(q.nvars, len(word)):
            return False
    return True
