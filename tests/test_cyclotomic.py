from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seifertwrt.cyclotomic import (
    CyclotomicNumber,
    DivisionByZero,
    InvalidLevel,
    LevelMismatch,
    NotADivisor,
    _binomial,
    _gauss_vector,
    _pack,
    _reduce_int_vector,
    _widen,
    cyclotomic_polynomial,
    euler_phi,
    gauss_sum,
    root_power,
)
from seifertwrt.numtheory import NonInvertible

LEVELS = (3, 5, 7, 9, 15)

levels = st.sampled_from(LEVELS)
small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def elements(r: int):
    return st.lists(small_fracs, min_size=1, max_size=r).map(
        lambda cs: CyclotomicNumber(r, cs)
    )


pairs = levels.flatmap(lambda r: st.tuples(elements(r), elements(r)))
triples = levels.flatmap(
    lambda r: st.tuples(elements(r), elements(r), elements(r))
)


@pytest.mark.parametrize(
    "n,phi", [(1, 1), (2, 1), (3, 2), (5, 4), (9, 6), (15, 8), (21, 12), (35, 24)]
)
def test_euler_phi(n, phi):
    assert euler_phi(n) == phi


def test_euler_phi_domain():
    with pytest.raises(InvalidLevel):
        euler_phi(0)


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (5, (1, 1, 1, 1, 1)),
        (9, (1, 0, 0, 1, 0, 0, 1)),
        (15, (1, -1, 0, 1, -1, 1, 0, -1, 1)),
    ],
)
def test_cyclotomic_polynomial_frozen(n, coeffs):
    assert cyclotomic_polynomial(n) == coeffs


@given(levels)
def test_cyclotomic_polynomial_annihilates_root(r):
    z = root_power(r, 1)
    total = CyclotomicNumber.zero(r)
    for k, c in enumerate(cyclotomic_polynomial(r)):
        total = total + c * z**k
    assert total.is_zero()


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # prod_{d | n} Phi_d = x^n - 1, checked by multiplying, not dividing.
    for n in range(1, 106):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (n - 1) + [1], n
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n), n


# The reference for the reduction: a long division by ``Phi_n``, which is
# built recursively from ``x^n - 1``.  It shares no code with the package,
# which reduces through the binomial factors of ``x^n - 1`` instead.
def _divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomial ``num`` by a monic ``den``.

    Coefficient lists are low-degree first; the remainder is padded to
    ``len(den) - 1`` entries.  Each step subtracts a multiple of ``den`` at
    its nonzero coefficients below the leading one.
    """
    deg = len(den) - 1
    work = list(num) + [0] * (deg - len(num))
    terms = [(i, d) for i, d in enumerate(den[:-1]) if d]
    quotient = [0] * (len(work) - deg)
    for k in range(len(work) - deg - 1, -1, -1):
        c = work[k + deg]
        if c:
            quotient[k] = c
            for i, d in terms:
                work[k + i] -= c * d
    return quotient, work[:deg]


@lru_cache(maxsize=None)
def _reference_phi(n: int) -> tuple[int, ...]:
    """``Phi_n``: ``x^n - 1`` divided by every ``Phi_d`` with ``d | n``, ``d < n``."""
    quotient = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quotient, remainder = _divmod_monic(quotient, list(_reference_phi(d)))
            assert not any(remainder), (n, d)
    return tuple(quotient)


@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=40),
    st.lists(st.integers(-5, 5), max_size=12).map(lambda low: low + [1]),
)
@settings(deadline=None, max_examples=200)
def test_divmod_monic_identity(num, den):
    quotient, remainder = _divmod_monic(num, den)
    assert len(remainder) == len(den) - 1
    size = max(len(num), len(den))
    back = _poly_mul(quotient, den) if quotient else []
    back = back + [0] * (size - len(back))
    for i, c in enumerate(remainder):
        back[i] += c
    assert back == num + [0] * (size - len(num))


def test_cyclotomic_polynomial_matches_the_recursive_reference():
    for n in range(1, 316):
        assert cyclotomic_polynomial(n) == _reference_phi(n), n


# A reference reducer that does not divide: it folds ``x^r = 1``, then adds
# multiples of precomputed rows ``x^k mod Phi_r``, built from ``_reference_phi``.
@lru_cache(maxsize=None)
def _reduction_columns(r: int) -> tuple[tuple[int, ...], ...]:
    """The rows ``x^k mod Phi_r`` for ``k = phi .. r-1``, by columns: column
    ``i`` holds each row's coefficient of ``x^i``."""
    phi_r = _reference_phi(r)
    phi = len(phi_r) - 1
    top = [-c for c in phi_r[:phi]]  # x^phi in the basis
    rows = [top]
    for _ in range(phi + 1, r):
        lead = rows[-1][-1]
        rows.append([a + lead * b for a, b in zip([0] + rows[-1][:-1], top)])
    return tuple(zip(*rows))


def _reference_reduce(r: int, vec: list[int]) -> list[int]:
    """Reduce an integer coefficient vector (power basis) modulo ``Phi_r``."""
    folded = [0] * r
    for k, c in enumerate(vec):
        folded[k % r] += c
    columns = _reduction_columns(r)
    high = folded[len(columns) :]
    return [c + sum(map(mul, col, high)) for c, col in zip(folded, columns)]


REDUCE_LEVELS = (3, 5, 9, 15, 21, 25, 27, 45, 61, 63, 101, 105, 1155, 3003)
BIG = 2**600


def _vector(rng: random.Random, kind: str, n: int) -> list[int]:
    if kind == "dense":
        return [rng.randint(-3, 3) for _ in range(n)]
    if kind == "big":
        return [rng.choice((-1, 1)) * rng.randint(BIG - 5, BIG) for _ in range(n)]
    vec = [0] * n  # sparse: at most three nonzero slots
    for _ in range(min(n, 3)):
        vec[rng.randrange(n)] = rng.choice((-BIG, -1, 1, BIG))
    return vec


@pytest.mark.parametrize("r", REDUCE_LEVELS)
def test_reduce_matches_row_table_at_every_length(r):
    # Above 105, the lengths around phi, r and 2r - 3 stand for every length.
    rng = random.Random(r)
    phi = euler_phi(r)
    lengths = range(2 * r - 2) if r <= 105 else (0, 1, phi - 1, phi, r - 1, r, 2 * r - 3)
    for n in lengths:
        for kind in ("dense", "sparse", "big"):
            vec = _vector(rng, kind, n)
            assert _reduce_int_vector(r, vec) == _reference_reduce(r, vec), (n, kind)


def _vectors(r: int):
    """Length ``0 .. 2r-3`` vectors: dense small, sparse or +-2^600 entries."""

    def of_length(n: int):
        sparse = st.dictionaries(
            st.integers(0, max(n - 1, 0)),
            st.sampled_from((-BIG, -1, 1, BIG)),
            max_size=min(n, 3),
        ).map(lambda d: [d.get(i, 0) for i in range(n)])
        return st.one_of(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            sparse,
            st.lists(st.integers(-BIG, BIG), min_size=n, max_size=n),
        )

    return st.tuples(st.just(r), st.integers(0, 2 * r - 3).flatmap(of_length))


@given(st.sampled_from(REDUCE_LEVELS).flatmap(_vectors))
@settings(deadline=None, max_examples=100)
def test_reduce_matches_row_table(case):
    r, vec = case
    assert _reduce_int_vector(r, vec) == _reference_reduce(r, vec)


def test_reduce_matches_row_table_at_3999():
    # A level of three primes at the top of the range, dense and +-2^600.
    rng = random.Random(3999)
    for kind in ("dense", "big"):
        vec = _vector(rng, kind, 3999)
        assert _reduce_int_vector(3999, vec) == _reference_reduce(3999, vec), kind


@pytest.mark.parametrize("r", [45, 105, 315, 1155])
def test_reduce_keeps_the_value_at_every_sampled_primitive_root(r):
    # No cyclotomic polynomial at all: a vector and its reduction are the
    # same number at each primitive root zeta^u, in 60-digit arithmetic.
    rng = random.Random(r)
    units = [u for u in range(1, r) if gcd(u, r) == 1]
    with mpmath.workdps(60):
        roots = [mpmath.expjpi(mpmath.mpf(2 * k) / r) for k in range(r)]

        def at(vec: list[int], u: int):
            return mpmath.fsum(c * roots[u * k % r] for k, c in enumerate(vec) if c)

        for kind in ("dense", "big"):
            vec = _vector(rng, kind, r)
            reduced = _reduce_int_vector(r, vec)
            scale = sum(map(abs, vec)) + sum(map(abs, reduced))
            for u in [1, r - 1] + rng.sample(units, 4):
                assert abs(at(reduced, u) - at(vec, u)) < scale * mpmath.mpf(10) ** -50, (
                    kind, u)


def test_cyclotomic_imports_no_route_module():
    # Both routes share this layer; it must never reach either route's code.
    import ast
    import inspect

    import seifertwrt.cyclotomic as cyclotomic

    forbidden = {"wrt", "statesum", "seifert", "cli"}
    for node in ast.walk(ast.parse(inspect.getsource(cyclotomic))):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] not in forbidden
            assert not forbidden & {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] in forbidden for a in node.names)


@pytest.mark.parametrize("r", [9, 15, 45])
def test_gauss_vector_is_the_twisted_gauss_sum(r):
    # The closed formula reads g_c at zeta^t straight off Z[C_r]; the oracle
    # twists the reduced gauss_sum.  Every conductor c | r and every unit t,
    # negative ones included, since the formula also reads g_r at zeta^-t.
    for c in [d for d in range(1, r + 1) if r % d == 0]:
        g = gauss_sum(r, c)
        for t in range(1 - r, r):
            if gcd(t, r) == 1:
                twisted = CyclotomicNumber(r, _gauss_vector(r, c, t))
                assert twisted == g.galois(t), (r, c, t)


@given(levels, st.integers(-60, 60))
def test_binomial_is_the_difference_of_roots(r, a):
    expected = root_power(r, a) - root_power(r, -a)
    assert CyclotomicNumber(r, _binomial(r, a)) == expected


@st.composite
def packed_cases(draw):
    r = draw(st.integers(1, 22)) * 2 + 1  # odd levels 3..45, composites too
    width = draw(st.integers(1, 3))
    half = 1 << (8 * width - 1)
    # Coefficients up to X/2 - 1, the most a slot holds, and far below it.
    top = draw(st.sampled_from([half - 1, (half - 1) // r]))
    vec = draw(st.lists(st.integers(-top, top), min_size=r, max_size=r))
    return r, width, vec


@given(packed_cases(), st.integers(0, 3), st.integers(-2, 2))
@settings(deadline=None, max_examples=100)
def test_widen_matches_packing_at_the_wider_width(case, extra, turns):
    # Any representative modulo X^r - 1 of the packed vector widens to the
    # vector packed at the wider width.
    r, width, vec = case
    wider = width + extra
    value = _pack(vec, width) + turns * ((1 << 8 * width * r) - 1)
    assert _widen(value, r, width, wider) == _pack(vec, wider)


@given(levels, st.lists(small_fracs, max_size=40))
def test_constructor_is_the_sum_of_its_root_powers(r, coeffs):
    # Rational coefficients over mixed denominators, folded past x^r = 1.
    expected = CyclotomicNumber.zero(r)
    for k, c in enumerate(coeffs):
        expected = expected + root_power(r, k) * c
    assert CyclotomicNumber(r, coeffs) == expected


@given(levels, st.integers(-30, 30))
def test_root_power_folding(r, k):
    assert root_power(r, k) == root_power(r, k % r)
    assert root_power(r, k) * root_power(r, -k) == 1


@given(levels)
def test_root_powers_sum_to_zero(r):
    total = CyclotomicNumber.zero(r)
    for k in range(r):
        total = total + root_power(r, k)
    assert total.is_zero()


@given(triples)
@settings(deadline=None, max_examples=60)
def test_ring_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == -(y - x)


@given(pairs)
@settings(deadline=None, max_examples=60)
def test_inverse_and_division(xy):
    x, y = xy
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert (y / x) * x == y
    else:
        with pytest.raises(DivisionByZero):
            x.inverse()


def schoolbook_mul(a: CyclotomicNumber, b: CyclotomicNumber) -> CyclotomicNumber:
    """``a * b`` by the coefficient-by-coefficient product, folded by ``x^r = 1``
    and reduced modulo ``Phi_r``."""
    (x, dx), (y, dy) = a.integer_coefficients(), b.integer_coefficients()
    conv = [0] * a.r
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    conv[(i + j) % a.r] += xi * yj
    return CyclotomicNumber(a.r, conv, dx * dy)


def inverse_by_conjugates(a: CyclotomicNumber) -> CyclotomicNumber:
    """``1/a = rest / N(a)``, with ``rest`` the product of the conjugates
    ``sigma_u(a)``, ``u != 1``, taken one by one through :func:`schoolbook_mul`."""
    rest = CyclotomicNumber.one(a.r)
    for u in range(2, a.r):
        if gcd(u, a.r) == 1:
            rest = schoolbook_mul(rest, a.galois(u))
    norm = schoolbook_mul(a, rest).as_rational()
    return schoolbook_mul(rest, CyclotomicNumber.from_rational(a.r, 1 / norm))


WIDE_LEVELS = st.sampled_from([3, 5, 7, 9, 15, 21, 45, 63, 75])


@st.composite
def invertible_elements(draw, r=None):
    r = draw(WIDE_LEVELS) if r is None else r
    top = 2 ** draw(st.sampled_from([1, 8, 64, 600]))
    vec = [0] * r
    if draw(st.booleans()):  # sparse: at most three terms
        terms = st.tuples(st.integers(0, r - 1), st.integers(-top, top))
        for k, c in draw(st.lists(terms, min_size=1, max_size=3)):
            vec[k] += c
    else:
        vec = draw(st.lists(st.integers(-top, top), min_size=r, max_size=r))
    a = CyclotomicNumber(r, vec, draw(st.integers(1, top)))
    assume(not a.is_zero())
    return a


@given(WIDE_LEVELS.flatmap(lambda r: st.tuples(invertible_elements(r),
                                                invertible_elements(r))))
@settings(deadline=None, max_examples=60)
def test_product_matches_schoolbook_product(ab):
    # One packed product and one reduction against the coefficient loop, at
    # composite levels, sparse and dense, with coefficients up to 2^600.
    a, b = ab
    assert a * b == schoolbook_mul(a, b)


@given(invertible_elements())
@settings(deadline=None, max_examples=30)
def test_inverse_matches_conjugate_by_conjugate_inverse(a):
    # The pairwise product tree in Z[C_r] against the product of reduced
    # conjugates, at composite levels, with coefficients up to 2^600.
    inv = a.inverse()
    assert a * inv == 1
    assert inv == inverse_by_conjugates(a)


@pytest.mark.parametrize("r", [21, 25, 27, 45, 61])
def test_inverse_of_dense_element_at_larger_levels(r):
    # Prime powers and non-cyclic unit groups, beyond the Hypothesis levels.
    x = CyclotomicNumber(
        r, [Fraction((7 * k * k + 3 * k + 1) % 11 - 5, 1 + k % 4) for k in range(r)]
    )
    assert x * x.inverse() == 1
    assert x.inverse().inverse() == x


@given(levels.flatmap(lambda r: st.tuples(elements(r), st.integers(-4, 6))))
@settings(deadline=None, max_examples=60)
def test_pow_matches_repeated_product(xe):
    x, e = xe
    if x.is_zero() and e < 0:
        return
    expected = CyclotomicNumber.one(x.r)
    base = x if e >= 0 else x.inverse()
    for _ in range(abs(e)):
        expected = expected * base
    assert x**e == expected


@given(pairs, st.integers(1, 30))
@settings(deadline=None, max_examples=60)
def test_galois_ring_homomorphism(xy, t):
    x, y = xy
    r = x.r
    from math import gcd

    if gcd(t, r) != 1:
        with pytest.raises(NonInvertible):
            x.galois(t)
        return
    assert (x + y).galois(t) == x.galois(t) + y.galois(t)
    assert (x * y).galois(t) == x.galois(t) * y.galois(t)


@given(levels.flatmap(lambda r: st.tuples(elements(r), st.just(r))))
@settings(deadline=None, max_examples=60)
def test_galois_composition_and_identity(xr):
    x, r = xr
    from math import gcd

    units = [u for u in range(1, r) if gcd(u, r) == 1]
    assert x.galois(1) == x
    for t in units[:4]:
        for u in units[-3:]:
            assert x.galois(t).galois(u) == x.galois((t * u) % r)


def test_galois_on_root():
    z = root_power(7, 1)
    assert z.galois(3) == z**3
    assert (z + z**2).galois(2) == z**2 + z**4
    assert (z + z**2).galois(2 + 7) == (z + z**2).galois(2)
    assert (z + z**2).galois(-1) == (z + z**2).galois(6)


@pytest.mark.parametrize(("r", "t"), [(7, 14), (7, 0), (9, -3), (9, 12), (15, 25)])
def test_galois_error_names_the_given_exponent(r, t):
    with pytest.raises(NonInvertible, match=rf"^{t} is not a unit modulo {r}$"):
        root_power(r, 1).galois(t)


def test_conjugate_is_complex_conjugation():
    x = CyclotomicNumber(5, [1, 2, 0, Fraction(1, 3)])
    a = x.to_complex()
    b = x.conjugate().to_complex()
    assert abs(a.conjugate() - b) < 1e-12


@pytest.mark.parametrize("r", LEVELS + (11, 13))
def test_gauss_sum_magnitude_and_square(r):
    g = gauss_sum(r, r)
    assert g * g.conjugate() == r
    assert g * g == ((-1) ** ((r - 1) // 2)) * r
    assert g.inverse() == g.conjugate() / r


@pytest.mark.parametrize("r", range(3, 202, 2))
def test_gauss_sum_times_conjugate_is_level(r):
    # |g_r|^2 = r for every odd r, so (-2 g_r)^-1 = -conj(g_r) / (2r).
    g = gauss_sum(r, r)
    assert g * g.conjugate() == r
    twisted = g.galois(r - 2)
    assert twisted * twisted.conjugate() == r


def test_gauss_sum_frozen_and_numeric():
    g5 = gauss_sum(5, 5)
    assert g5.integer_coefficients() == ((-1, 0, -2, -2), 1)
    assert abs(g5.to_complex() - 5**0.5) < 1e-12
    g7 = gauss_sum(7, 7)
    assert abs(g7.to_complex() - 1j * 7**0.5) < 1e-12
    assert gauss_sum(9, 1) == 1
    assert gauss_sum(15, 3) * gauss_sum(15, 3).conjugate() == 3


def test_gauss_sum_divisor_domain():
    with pytest.raises(NotADivisor):
        gauss_sum(15, 7)
    with pytest.raises(NotADivisor):
        gauss_sum(9, 0)


@given(st.sampled_from([(9, 3), (15, 3), (15, 5), (21, 3), (21, 7)]))
def test_gauss_sum_subconductor_magnitude(rc):
    r, c = rc
    g = gauss_sum(r, c)
    assert g * g.conjugate() == c


def test_constructor_folds_exponents():
    # zeta**r = 1 and high powers fold down before reduction.
    x = CyclotomicNumber(5, [0, 0, 0, 0, 0, 1])  # zeta**5
    assert x == 1
    assert CyclotomicNumber(5, [0, 1]) == root_power(5, 6)


@given(
    levels,
    st.lists(st.integers(-50, 50), max_size=40),
    st.integers(-12, 12).filter(bool),
)
@settings(deadline=None, max_examples=100)
def test_integer_and_fraction_construction_agree(r, coeffs, den):
    as_ints = CyclotomicNumber(r, coeffs, den)
    as_fracs = CyclotomicNumber(r, [Fraction(c) for c in coeffs], den)
    assert as_ints.integer_coefficients() == as_fracs.integer_coefficients()


def test_rational_detection_and_integrality():
    x = CyclotomicNumber.from_rational(7, Fraction(6, 3))
    assert x.is_rational() and x.as_rational() == 2
    assert x.is_algebraic_integer()
    half = CyclotomicNumber.from_rational(7, Fraction(1, 2))
    assert not half.is_algebraic_integer()
    z = root_power(7, 1)
    assert (3 * z - z**2).is_algebraic_integer()
    assert not (z / 2).is_algebraic_integer()
    with pytest.raises(ValueError):
        z.as_rational()


def test_kummer_style_denominator():
    # r / (1 - zeta)^(r-1) is a unit times 1, so dividing r by powers of
    # (1 - zeta) keeps denominators trivial until the valuation runs out.
    for r in (5, 7):
        one_minus = 1 - root_power(r, 1)
        quotient = CyclotomicNumber.from_rational(r, r)
        for _ in range(r - 1):
            quotient = quotient / one_minus
            assert quotient.is_algebraic_integer()


def test_equality_and_hash():
    a = CyclotomicNumber.from_rational(5, 3)
    b = CyclotomicNumber.from_rational(7, 3)
    assert a == b == 3  # constants are level-independent
    assert hash(a) == hash(b) == hash(Fraction(3))
    z5, z7 = root_power(5, 1), root_power(7, 1)
    assert z5 != z7
    assert z5 != Fraction(1, 2)
    x = z5 + 1
    assert hash(x) == hash(z5 + 1)


def test_level_mismatch():
    with pytest.raises(LevelMismatch):
        root_power(5, 1) + root_power(7, 1)
    with pytest.raises(LevelMismatch):
        root_power(5, 1) * root_power(9, 1)


def test_invalid_level():
    with pytest.raises(InvalidLevel):
        CyclotomicNumber(4, [1])
    with pytest.raises(InvalidLevel):
        CyclotomicNumber(1, [1])
    with pytest.raises(InvalidLevel):
        root_power(6, 1)


def test_scalar_mixing():
    z = root_power(5, 1)
    assert 2 * z + z * Fraction(1, 2) == z * Fraction(5, 2)
    assert (1 - z) + z == 1
    assert 1 / (1 - z) * (1 - z) == 1
    assert (z + 1) - 1 == z


@given(levels.flatmap(elements))
@settings(deadline=None, max_examples=40)
def test_numeric_embedding_is_multiplicative(x):
    y = x * x + 3
    approx = x.to_complex() * x.to_complex() + 3
    assert abs(y.to_complex() - approx) < 1e-9


def test_high_precision_embedding():
    g = gauss_sum(13, 13)
    with mpmath.workdps(60):
        value = g.to_complex(precision=60)
        assert abs(value - mpmath.sqrt(13)) < mpmath.mpf(10) ** -55


def test_str_rendering():
    z = root_power(5, 1)
    assert str(CyclotomicNumber.zero(5)) == "0"
    assert str(z**2 - 1) == "-1 + z^2"
    assert str((z + 1) / 2) == "(1 + z)/2"
