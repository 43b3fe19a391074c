import math

import pytest
import sympy
from arith_oracles import r2_chi_divisor_sum

from quadpair.modarith import (
    MAX_ROOT_MODULUS,
    PrimePower,
    SumValue,
    _mobius,
    chi4,
    divisors,
    e_q,
    eps,
    eps_power,
    factorize,
    gauss_chi,
    is_prime,
    jacobi,
    one_d_quad_sum_direct,
    quad_gauss_1d,
    r2,
    ramanujan,
    sum_tol,
)


def test_is_prime_matches_sympy():
    for n in range(-3, 2000):
        assert is_prime(n) == sympy.isprime(n), n
    for n in (10**12 + 39, 2**31 - 1, 2**31 + 1):
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_roundtrip():
    for n in list(range(1, 400)) + [720720, 2**10 * 3**5]:
        f = factorize(n)
        prod = 1
        for p, e in f.items():
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n


def trial_factorize(n):
    """The factorization by trial division alone."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division():
    # two primes past the trial bound, near 1e5 and 1e6, split by rho
    cases = [sympy.nextprime(10**5) * sympy.nextprime(10**5 + 500),
             sympy.nextprime(10**6) ** 2, 1009 * 1013 * 1019,
             2**5 * 997 * 1009**2 * sympy.nextprime(10**5)]
    for n in list(range(1, 5000)) + cases:
        assert factorize(n) == trial_factorize(n), n
        assert list(factorize(n)) == sorted(factorize(n))


def test_factorize_products_of_primes_near_1e12():
    # trial division would need 3e11 divisions for each of these
    p = sympy.nextprime(10**12)
    q = sympy.nextprime(p + 10**6)
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}
    assert factorize(6 * p * q) == {2: 1, 3: 1, p: 1, q: 1}


def test_divisors_sorted_complete():
    for n in (1, 12, 49, 360):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_mobius_small():
    # A008683
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [_mobius(n) for n in range(1, 13)] == expected


def test_prime_power_of():
    pp = PrimePower.of(27)
    assert (pp.p, pp.r, pp.value) == (3, 3, 27)
    with pytest.raises(ValueError):
        PrimePower.of(12)
    with pytest.raises(ValueError):
        PrimePower.of(1)


def test_chi4():
    assert [chi4(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]
    for a in range(1, 30, 2):
        for b in range(1, 30, 2):
            assert chi4(a * b) == chi4(a) * chi4(b)


def test_jacobi_matches_sympy():
    for n in range(1, 60, 2):
        for a in range(-20, 60):
            assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_e_q_periodic_and_guarded():
    for q in (1, 5, 12):
        for x in range(-q, 2 * q):
            assert e_q(x + q, q) == pytest.approx(e_q(x, q))
    assert e_q(0, 7) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        e_q(1, MAX_ROOT_MODULUS + 1)


def test_ramanujan_vs_brute():
    for q in range(1, 30):
        units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
        for x in range(q):
            brute = sum(e_q(a * x, q) for a in units)
            assert abs(ramanujan(q, x) - brute) < 1e-9, (q, x)


def test_eps_values():
    assert eps(5).value == pytest.approx(1.0)
    assert eps(7).value == pytest.approx(1j)
    for p in (3, 5, 7, 13):
        for k in range(5):
            assert eps_power(p, k) == pytest.approx(eps(p).value ** k)


def test_gauss_chi_modulus():
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            g = gauss_chi(p, a)
            assert abs(abs(g.value) - math.sqrt(p)) < 1e-9
        # direct character sum as oracle
        brute = sum(jacobi(k, p) * e_q(k, p) for k in range(p))
        assert gauss_chi(p, 1).close_to(brute)


@pytest.mark.parametrize("p,rmax", [(3, 2), (5, 2), (7, 1)])
def test_quad_gauss_1d_sweep(p, rmax):
    for r in range(1, rmax + 1):
        q = p**r
        for alpha in range(1, q):
            if alpha % p == 0:
                continue
            for m in range(q):
                closed = quad_gauss_1d(q, alpha, m)
                direct = one_d_quad_sum_direct(q, alpha, m)
                assert abs(closed.value - direct) <= 1e-6 * p ** (r / 2), (p, r, alpha, m)


def test_r2_table_and_brute():
    # classical values: 1, 2, 0, 1, 2 representations scaled by 4
    assert [r2(m) for m in [1, 2, 3, 4, 5, 25]] == [4, 4, 0, 4, 8, 12]
    for M in range(1, 200):
        brute = sum(
            1
            for x in range(-15, 16)
            for y in range(-15, 16)
            if x * x + y * y == M
        )
        assert r2(M) == brute, M
        assert r2(M) == r2_chi_divisor_sum(M), M
    assert r2(-7) == 0


def test_sum_tol_formula():
    assert sum_tol(4) == pytest.approx(1e-8 * 2)
    assert sum_tol(9, 10.0) == pytest.approx(1e-8 * 3 * 10.0)


def test_sumvalue_algebra():
    a = SumValue(1.0, 0.0, 1e-8)
    b = SumValue(2.0, 1.0, 1e-8)
    s = a + b
    assert s.tol == pytest.approx(2e-8)
    prod = a * b
    assert prod.value == pytest.approx(2 + 1j)
    assert prod.tol >= abs(a.value) * b.tol
    assert (a * 3).value == pytest.approx(3.0)
    assert SumValue(2.0 + 5e-9, 0.0, 1e-8).as_integer() == 2
    with pytest.raises(ValueError):
        SumValue(2.5, 0.0, 1e-8).as_integer()
    assert SumValue(1e-9, -1e-9, 1e-8).is_zero()
    assert not SumValue(1.0, 0.0, 1e-8).is_zero()
