import itertools
import random

from doublechar.modp import (
    charpoly,
    factorize,
    is_prime,
    nullspace,
    poly_roots,
    primitive_root,
    rref,
)

P = 97


def rand_matrix(rng, rows, cols, p=P):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


def reduces_to_zero(row, basis, pivots, p):
    """Eliminate row against an RREF basis; True iff it lands in the span."""
    row = list(row)
    for b, piv in zip(basis, pivots):
        f = row[piv] % p
        if f:
            row = [(x - f * y) % p for x, y in zip(row, b)]
    return not any(x % p for x in row)


def test_rref_shape_and_span():
    rng = random.Random(3)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis, pivots = rref([row[:] for row in m], P)
        assert len(basis) == len(pivots)
        assert list(pivots) == sorted(pivots)
        for i, (b, piv) in enumerate(zip(basis, pivots)):
            assert b[piv] == 1
            # pivot columns are cleared everywhere else
            for j, other in enumerate(basis):
                if j != i:
                    assert other[piv] == 0
        for row in m:
            assert reduces_to_zero(row, basis, pivots, P)


def test_nullspace_is_the_kernel():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = rand_matrix(rng, rng.randint(1, 6), n)
        basis, pivots = rref([row[:] for row in a], P)
        ns = nullspace([row[:] for row in a], P)
        assert len(ns) == n - len(basis)
        for v in ns:
            assert all(sum(x * y for x, y in zip(row, v)) % P == 0 for row in a)


def leibniz_charpoly(a, p):
    """det(xI - a) expanded over permutations; entries are linear polys."""
    n = len(a)

    def pmul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    total = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if not seen[i]:
                j, cyc = i, 0
                while not seen[j]:
                    seen[j] = True
                    j, cyc = perm[j], cyc + 1
                if cyc % 2 == 0:
                    sign = -sign
        term = [1]
        for i in range(n):
            entry = [(-a[i][perm[i]]) % p, 1 if perm[i] == i else 0]
            term = pmul(term, entry)
        for k, c in enumerate(term):
            total[k] = (total[k] + sign * c) % p
    return total


def test_charpoly_matches_leibniz_expansion():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, n)
        assert charpoly(a, P) == leibniz_charpoly(a, P)


def test_poly_roots():
    # (x - 3)(x - 5)^2 over F_97, ascending coefficients
    f = [1]
    for r in (3, 5, 5):
        shifted = [0] + f
        scaled = [(-r * c) % P for c in f] + [0]
        f = [(x + y) % P for x, y in zip(shifted, scaled)]
    assert poly_roots(f, P) == [3, 5]
    assert poly_roots([1], P) == []


def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n)
    assert is_prime(10 ** 9 + 7)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 10 ** 6)
        f = factorize(n)
        prod = 1
        for q, e in f.items():
            assert is_prime(q)
            prod *= q**e
        assert prod == n


def test_primitive_root_has_full_order():
    for p in (3, 7, 13, 97, 101):
        g = primitive_root(p)
        powers = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            powers.add(x)
        assert len(powers) == p - 1
