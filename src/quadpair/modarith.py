"""Exact modular arithmetic, quadratic characters, and one-dimensional
character / Gauss / Ramanujan sums.

Everything downstream (closed forms for multi-dimensional exponential sums,
local densities, the two-squares counter) bottoms out in the functions here.
Complex values are carried as :class:`SumValue`, a (re, im) pair together with
an explicit absolute tolerance, so that "this sum is an integer" and "these
two sums agree" are decidable statements rather than folklore.

Conventions
-----------
* ``e_q(x)`` denotes ``exp(2*pi*i*x/q)``; arguments are reduced mod q before
  any floating-point call, and q is capped at 10**6 so the cos/sin arguments
  stay tiny.
* ``chi4`` is the nonprincipal character mod 4 (+1 on 1 mod 4, -1 on 3 mod 4,
  0 on evens).
* ``chi_p(a) = jacobi(a, p)`` is the Legendre symbol for odd prime p.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

__all__ = [
    "PrimePower",
    "SumValue",
    "chi4",
    "e_q",
    "eps",
    "factorize",
    "gauss_chi",
    "is_prime",
    "jacobi",
    "one_d_quad_sum_direct",
    "quad_gauss_1d",
    "r2",
    "ramanujan",
    "sum_tol",
]

#: largest modulus for which double-precision roots of unity are trusted
MAX_ROOT_MODULUS = 10**6


# --------------------------------------------------------------------------
# primality / factorization utilities
# --------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for machine-scale integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: factorize tries division by every 6k +- 1 below this bound before rho
_TRIAL_BOUND = 1000


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, primes ascending.

    Trial division below _TRIAL_BOUND, then Brent's variant of Pollard's
    rho splits what is left, with is_prime deciding when a factor is
    prime (deterministic below 3.1e23, a strong probable-prime test to
    twelve bases above).
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f < _TRIAL_BOUND and f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _brent_rho(m)
            rest += [g, m // g]
    return dict(sorted(out.items()))


def _brent_rho(n: int) -> int:
    """A factor 1 < g < n of the odd composite n, by Brent's cycle search
    on x -> x^2 + c mod n (c = 1, 2, ... until one splits n), with the
    differences multiplied together in batches of 128 before each gcd."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    mu = 1
    for _, r in factorize(n).items():
        if r > 1:
            return 0
        mu = -mu
    return mu


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, r in factorize(n).items():
        ds = [d * p**k for d in ds for k in range(r + 1)]
    return sorted(ds)


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimePower:
    """A prime power p**r with both parts kept explicit."""

    p: int
    r: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.r < 1:
            raise ValueError("exponent must be >= 1")

    @property
    def value(self) -> int:
        return self.p**self.r

    @classmethod
    def of(cls, q: int) -> "PrimePower":
        """Parse q as a prime power, raising if it is not one."""
        fac = factorize(q)
        if len(fac) != 1:
            raise ValueError(f"{q} is not a prime power")
        ((p, r),) = fac.items()
        return cls(p, r)


def sum_tol(n_terms: int, max_modulus: float = 1.0) -> float:
    """Propagated absolute tolerance for a sum of roots of unity.

    tol = 1e-8 * sqrt(number of summands) * (max summand modulus).
    """
    return 1e-8 * math.sqrt(max(n_terms, 1)) * max(max_modulus, 1e-300)


@dataclass(frozen=True)
class SumValue:
    """A complex sum value with a declared absolute tolerance."""

    re: float
    im: float
    tol: float

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return self.value

    def __abs__(self) -> float:
        return abs(self.value)

    @classmethod
    def exact(cls, z: complex, tol: float = 1e-12) -> "SumValue":
        z = complex(z)
        return cls(z.real, z.imag, tol)

    def is_zero(self, slack: float = 1.0) -> bool:
        return abs(self.value) <= slack * self.tol

    def close_to(self, other: "SumValue | complex", slack: float = 1.0) -> bool:
        if isinstance(other, SumValue):
            return abs(self.value - other.value) <= slack * (self.tol + other.tol)
        return abs(self.value - complex(other)) <= slack * self.tol

    def as_integer(self, slack: float = 1.0) -> int:
        """Round to the nearest integer, insisting the value is integral."""
        k = round(self.re)
        if abs(self.re - k) > slack * self.tol or abs(self.im) > slack * self.tol:
            raise ValueError(f"value {self.value} is not integral within tol {self.tol}")
        return int(k)

    def __mul__(self, other: "SumValue | int | float | complex") -> "SumValue":
        if isinstance(other, SumValue):
            a, b = self.value, other.value
            tol = abs(a) * other.tol + abs(b) * self.tol + self.tol * other.tol
            z = a * b
            return SumValue(z.real, z.imag, max(tol, 1e-300))
        z = self.value * other
        return SumValue(z.real, z.imag, self.tol * max(abs(other), 1e-300))

    __rmul__ = __mul__

    def __add__(self, other: "SumValue | int | float | complex") -> "SumValue":
        if isinstance(other, SumValue):
            z = self.value + other.value
            return SumValue(z.real, z.imag, self.tol + other.tol)
        z = self.value + other
        return SumValue(z.real, z.imag, self.tol)

    __radd__ = __add__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SumValue({self.re:.12g}{self.im:+.12g}j, tol={self.tol:.3g})"


# --------------------------------------------------------------------------
# roots of unity and characters
# --------------------------------------------------------------------------


def e_q(x: int, q: int) -> complex:
    """exp(2*pi*i*x/q) with the argument reduced mod q first."""
    if q <= 0:
        raise ValueError("modulus must be positive")
    if q > MAX_ROOT_MODULUS:
        raise ValueError(f"modulus {q} exceeds the double-precision cap {MAX_ROOT_MODULUS}")
    return cmath.exp(2j * math.pi * (x % q) / q)


def chi4(n: int) -> int:
    """The nonprincipal character mod 4."""
    n %= 4
    if n == 1:
        return 1
    if n == 3:
        return -1
    return 0


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n, by binary reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive lower argument")
    a %= n
    t = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def eps(p: int) -> SumValue:
    """The classical Gauss-sum sign: 1 for p = 1 mod 4, i for p = 3 mod 4."""
    if p == 2 or not is_prime(p):
        raise ValueError("eps is defined for odd primes")
    if p % 4 == 1:
        return SumValue(1.0, 0.0, 1e-15)
    return SumValue(0.0, 1.0, 1e-15)


def eps_power(p: int, k: int) -> complex:
    """eps(p)**k computed exactly (it is a fourth root of unity)."""
    if p % 4 == 1:
        return 1 + 0j
    return (1j) ** (k % 4)


# --------------------------------------------------------------------------
# one-dimensional sums
# --------------------------------------------------------------------------


def ramanujan(q: int, a: int) -> int:
    """Ramanujan sum c_q(a) = sum over d | gcd(q, a) of d * mu(q/d)."""
    if q < 1:
        raise ValueError("modulus must be positive")
    if q == 1:
        return 1
    g = math.gcd(q, a)
    return sum(d * _mobius(q // d) for d in divisors(g))


def gauss_chi(q: PrimePower | int, a: int) -> SumValue:
    """g_{p^r}(a) = sum over x mod p^r of chi_p(x) e_{p^r}(a x), p odd.

    Computed by direct summation; for r = 1 and p coprime to a this equals
    chi_p(a) * eps(p) * sqrt(p).
    """
    pp = q if isinstance(q, PrimePower) else PrimePower.of(q)
    if pp.p == 2:
        raise ValueError("gauss_chi requires an odd prime power")
    pr = pp.value
    total = 0j
    for x in range(pr):
        c = jacobi(x, pp.p)
        if c:
            total += c * e_q(a * x, pr)
    return SumValue(total.real, total.imag, sum_tol(pr))


def one_d_quad_sum_direct(q: int, alpha: int, m: int) -> complex:
    """Direct summation of sum over k mod q of e_q(alpha k^2 + m k).

    Deliberately naive: the gauss suite's oracle for quad_gauss_1d,
    independent of the completed-square closed form.
    """
    total = 0j
    for k in range(q):
        total += e_q(alpha * k * k + m * k, q)
    return total


def quad_gauss_1d(q: PrimePower | int, alpha: int, m: int) -> SumValue:
    """Closed form of sum over k mod p^r of e_{p^r}(alpha k^2 + m k), p odd.

    Completing the square gives e_{p^r}(-(4 alpha)^{-1} m^2) * G_r with
    G_r = p^{r/2} for even r and chi_p(alpha) eps(p) p^{r/2} for odd r.
    """
    pp = q if isinstance(q, PrimePower) else PrimePower.of(q)
    if pp.p == 2:
        raise ValueError("quad_gauss_1d requires an odd prime power")
    if math.gcd(alpha, pp.p) != 1:
        raise ValueError("alpha must be coprime to p")
    pr = pp.value
    inv4a = pow(4 * alpha, -1, pr)
    shift = e_q(-inv4a * m * m, pr)
    scale = math.sqrt(pr)
    if pp.r % 2 == 0:
        g = complex(scale)
    else:
        g = jacobi(alpha, pp.p) * eps_power(pp.p, 1) * scale
    z = shift * g
    return SumValue(z.real, z.imag, sum_tol(pr, 1.0) * max(scale, 1.0))


# --------------------------------------------------------------------------
# sums of two squares
# --------------------------------------------------------------------------


def r2(M: int) -> int:
    """Number of (u, v) in Z^2 with u^2 + v^2 = M, by enumeration over u.

    Returns 0 for M <= 0 so weighted sums can apply it blindly to values
    that are not positive.  Kept independent of the chi4 divisor identity
    that it is used to verify.
    """
    if M <= 0:
        return 0
    count = 0
    for u in range(math.isqrt(M) + 1):
        v2 = M - u * u
        v = math.isqrt(v2)
        if v * v != v2:
            continue
        # (±u, ±v) with zero coordinates not double-counted
        fold = (1 if u == 0 else 2) * (1 if v == 0 else 2)
        count += fold
    return count

