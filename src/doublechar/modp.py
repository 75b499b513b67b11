"""Small dense linear algebra over a prime field F_p.

Just enough machinery for the character-table eigenspace computation:
reduced row echelon form, nullspaces, characteristic polynomials through
Hessenberg reduction, exhaustive root scans and primitive roots.
Matrices are lists of int rows; everything is deterministic.
"""

from __future__ import annotations


def rref(rows, p):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows, p):
    """Canonical basis of the right nullspace {v : A v = 0}."""
    red, pivots = rref(rows, p)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][f]) % p
        basis.append(v)
    return basis


def charpoly(mat, p):
    """Characteristic polynomial of a square matrix, ascending coeffs, monic."""
    n = len(mat)
    H = [[x % p for x in row] for row in mat]
    # similarity reduction to upper Hessenberg form
    for j in range(n - 2):
        pr = None
        for i in range(j + 1, n):
            if H[i][j]:
                pr = i
                break
        if pr is None:
            continue
        if pr != j + 1:
            H[j + 1], H[pr] = H[pr], H[j + 1]
            for row in H:
                row[j + 1], row[pr] = row[pr], row[j + 1]
        inv = pow(H[j + 1][j], -1, p)
        for i in range(j + 2, n):
            f = (H[i][j] * inv) % p
            if f:
                Hj1 = H[j + 1]
                Hi = H[i]
                for c in range(n):
                    Hi[c] = (Hi[c] - f * Hj1[c]) % p
                for row in H:
                    row[j + 1] = (row[j + 1] + f * row[i]) % p
    # leading-principal-minor recurrence for Hessenberg matrices
    polys = [[1]]
    for m in range(1, n + 1):
        a = H[m - 1][m - 1]
        prev = polys[m - 1]
        cur = [0] + prev  # x * prev
        for idx, coef in enumerate(prev):
            cur[idx] = (cur[idx] - a * coef) % p
        cur = [c % p for c in cur]
        prod = 1
        for i in range(1, m):
            prod = (prod * H[m - i][m - i - 1]) % p
            if not prod:
                break
            coef = (H[m - 1 - i][m - 1] * prod) % p
            if coef:
                q = polys[m - 1 - i]
                for idx, qc in enumerate(q):
                    cur[idx] = (cur[idx] - coef * qc) % p
        polys.append([c % p for c in cur])
    return polys[n]


def poly_roots(coeffs, p):
    """All roots in F_p by direct scan (p is small here)."""
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p):
    """Smallest primitive root mod p."""
    if p == 2:
        return 1
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")
