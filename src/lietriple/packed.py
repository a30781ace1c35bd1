"""Gaussian integers packed into Python ints, so that unchanged kernels run on ints.

A packed value is a sum of balanced base-X digits d, X = 2^k, read back
exactly while |d| < X/2; ``_width`` is the least k with 2^(k-1) above the
kernel's bound on every digit:

    kernel                    lane             digits per lane   2^(k-1) >
    (A3) residual over Q(i)   coordinate q     a_q, then b_q     8 n M^2
    transport over Q(i)(t)    power t^e        c_0, ..., c_5     n^4 M_h^3 M_g M_r
    inverse over Z[i][t]      power t^e        a_e; b_e apart    prod_i L1(row i)

For (A3), M = max(|a|, |b|) over the cleared constants a + b*i; for transport,
M is the largest L1 norm sum |a_e| + |b_e| of a cleared entry of h, g or rows.
The inverse keeps minors of [matrix | I], each a minor of the matrix, whose
L1 norm is at most the product of the L1 norms of the matrix's rows.
"""

from __future__ import annotations

from math import prod

from .scalars import (_POLY_ONE, QI_ZERO, GaussianRational, Polynomial, RationalFunction, _reduced,
                      gaussian_integers, poly_gcd)


def _width(bound):
    """The least k with 2^(k-1) > bound, so every balanced digit up to bound reads back."""
    return bound.bit_length() + 1


def _balanced_digits(value, width, count):
    """The digits c_0, ..., c_(count-1) of value = sum_j c_j X^j, X = 2^width,
    read as balanced base-X digits |c_j| < X/2; exact when value has at most
    ``count`` of them."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    for _ in range(count):
        digit = ((value + half) & mask) - half
        digits.append(digit)
        value = (value - digit) >> width
    return digits


def _packed_gaussian_rows(dim, rows):
    """Rows over Q(i) as exact integers: ((rows, lanes), scale D, width k), or None.

    None unless every value is a GaussianRational.  The rows hold the Gaussian
    integers D*z = a + b*i, D the lcm of the denominators.  A row's lanes are
    P = sum_q (a_q + b_q*X) X^(2q), X = 2^k, and its twin iP: a product by
    a + b*i is a*P + b*iP, with no i^2 digit, so a cell is 0 exactly when its
    Gaussian value is.  (A1)/(A2) cells hold D times their residual, (A3) cells
    D^2 times.  An (A3) digit sums at most 4n terms a'a - b'b or a'b + b'a (n
    for [u,v,[x,y,z]], n per slot), each at most 2M^2.
    """
    cleared = gaussian_integers(val for row in rows.values() for val in row.values())
    if cleared is None:
        return None
    scale, pairs = cleared
    if scale != 1:
        rows = {key: {p: val * scale for p, val in row.items()} for key, row in rows.items()}
    bound = max((abs(x) for pair in pairs for x in pair), default=0)
    width = _width(8 * dim * bound * bound)
    pairs = iter(pairs)
    lanes = {}
    for key, row in rows.items():
        packed = twin = 0
        for p in row:
            a, b = next(pairs)
            packed += (a + (b << width)) << 2 * width * p
            twin += ((a << width) - b) << 2 * width * p
        lanes[key] = packed, twin
    return (rows, lanes), scale, width


def _add_lanes(cells, key, lanes, factor):
    """cells[key] += factor * row: a*P + b*iP for the lanes (P, iP) and factor a + b*i."""
    a, b, _ = factor._t
    cells[key] = cells.get(key, 0) + a * lanes[0] + b * lanes[1]


def _unpacked_residual(identity, cell, dim, scale, width):
    """The ``dim`` Gaussian coordinates of an ``identity`` residual from its packed cell."""
    digits = _balanced_digits(cell, width, 2 * dim)
    denominator = scale * scale if identity == "A3" else scale
    return tuple(_reduced(digits[2 * q], digits[2 * q + 1], denominator) for q in range(dim))


def _l1(poly):
    """sum |a_e| + |b_e| of a Z[i][t] pair list, 0 for None."""
    return sum(abs(a) + abs(b) for a, b in poly or ())


def _cleared(values):
    """Values of Q(i) or Q(i)(t) over one denominator: (polys, norm, factor).

    Each value v is P_v * t^shift / (scale * rest), factor = (scale, shift,
    rest).  P_v is a list of Gaussian-integer pairs (a_e, b_e) for
    sum (a_e + b_e*i) t^e, None when v is 0, and norm is the largest L1 norm
    sum |a_e| + |b_e| of a P_v.  scale is a positive integer and rest a monic
    polynomial with rest(0) != 0: the lcm of the denominators with their
    powers of t taken out.  Those powers of t and the lowest power of t of the
    numerators go into the one exponent shift, which may be negative.
    """
    parts = []  # (numerator coefficients, power of t in the denominator, the rest of it)
    power, rest = 0, _POLY_ONE
    for val in values:
        if not val:
            parts.append(None)
        elif type(val) is GaussianRational:
            parts.append(((val,), 0, _POLY_ONE))
        else:
            den, m = val.den.coeffs, 0
            while not den[m]:
                m += 1
            other = Polynomial(den[m:]) if m < len(den) - 1 else _POLY_ONE
            parts.append((val.num.coeffs, m, other))
            power = max(power, m)
            if other.degree > 0 and other != rest:
                rest = other if rest.degree == 0 else rest * (other // poly_gcd(rest, other))
    numerators = []  # (coefficients from the first nonzero one, its power of t) or None
    for part in parts:
        if part is None:
            numerators.append(None)
            continue
        num, m, other = part
        if rest.degree > 0 and other != rest:
            num = (Polynomial(num) * (rest if other.degree == 0 else rest // other)).coeffs
        low = 0
        while not num[low]:
            low += 1
        numerators.append((num[low:], low + power - m))
    lowest = min((num[1] for num in numerators if num), default=0)
    scale, pairs = gaussian_integers(c for num in numerators if num for c in num[0])
    pairs = iter(pairs)
    polys = [None if num is None else [(0, 0)] * (num[1] - lowest) + [next(pairs) for _ in num[0]]
             for num in numerators]
    norm = max(map(_l1, polys), default=0)
    return polys, norm, (scale, lowest - power, rest)


def _factor_product(*factors):
    """The (scale, shift, rest) of a product of ``_cleared`` values."""
    scale, shift, rest = 1, 0, _POLY_ONE
    for f_scale, f_shift, f_rest in factors:
        scale, shift = scale * f_scale, shift + f_shift
        if f_rest.degree > 0:
            rest = f_rest if rest.degree == 0 else rest * f_rest
    return scale, shift, rest


def _packed_polynomial(poly, width):
    """sum (a_e + b_e*X) X^(6e), X = 2^width, for the pairs (a_e, b_e) of
    sum (a_e + b_e*i) t^e: Z[i][t] read at i = X and t = X^6, 0 for None."""
    lane, value = 6 * width, 0
    for a, b in reversed(poly or ()):
        value = (value << lane) + a + (b << width)
    return value


def _unpacked_function(value, width, scale, shift, rest):
    """P * t^shift / (scale * rest) as a reduced rational function, for a nonzero
    value = P(X, X^6) whose lanes of six balanced base-X digits c_0..c_5 hold
    the coefficients (c_0 - c_2 + c_4) + (c_1 - c_3 + c_5)*i of P.

    Digits that are not all zero can still give a zero coefficient, since
    i^2 = -1 is applied here and not in the kernel; P = 0 gives 0.
    """
    lane = 6 * width
    zero_lanes = ((value & -value).bit_length() - 1) // lane
    value >>= zero_lanes * lane
    digits = _balanced_digits(value, width, 6 * (value.bit_length() // lane + 1))
    coeffs = [_reduced(c0 - c2 + c4, c1 - c3 + c5, scale)
              for c0, c1, c2, c3, c4, c5 in (digits[e:e + 6] for e in range(0, len(digits), 6))]
    shift += zero_lanes
    return RationalFunction(Polynomial([QI_ZERO] * shift + coeffs),
                            Polynomial([QI_ZERO] * -shift + list(rest.coeffs)))


def _fraction_free_inverse(matrix):
    """(det, adj) of a square matrix over Z[i][t], as pair lists; None when singular.

    Fraction-free Gauss-Jordan elimination (Bareiss) of [matrix | I] at
    t = X = 2^k, each entry held as the ints (sum a_e X^e, sum b_e X^e): an
    entry becomes (p*x - f*y) / prev, an exact division.  Reading at X is a
    ring homomorphism, so the products before a division may overflow lanes;
    every kept entry is a minor, bounded by the width rule above.
    """
    n = len(matrix)
    width = _width(prod(sum(abs(x) for poly in row if poly for pair in poly for x in pair)
                        for row in matrix))

    def at_x(poly):
        re = im = 0
        for a, b in reversed(poly):
            re, im = (re << width) + a, (im << width) + b
        return re, im

    # rows of [matrix | I] as {column: entry}, zeros left out
    rows = [{j: at_x(poly) for j, poly in enumerate(row) if poly} | {n + i: (1, 0)}
            for i, row in enumerate(matrix)]
    (pr, pi), sign = (1, 0), 1
    for k in range(n):
        r = next((r for r in range(k, n) if k in rows[r]), None)
        if r is None:
            return None
        if r != k:
            rows[k], rows[r], sign = rows[r], rows[k], -sign
        pivot = rows[k]
        (xr, xi), norm = pivot[k], pr * pr + pi * pi
        for i, row in enumerate(rows):
            fr, fi = row.get(k, (0, 0))
            if i == k or not (fr or fi) and xr == pr and xi == pi:  # the row stays
                continue
            rows[i] = updated = {}
            for j in row.keys() | pivot.keys():
                if j > k:
                    (yr, yi), (zr, zi) = pivot.get(j, (0, 0)), row.get(j, (0, 0))
                    ur = xr * zr - xi * zi - fr * yr + fi * yi
                    ui = xr * zi + xi * zr - fr * yi - fi * yr
                    if ur or ui:  # divided by prev, through its conjugate and norm
                        updated[j] = (ur // pr, ui // pr) if not pi else \
                            ((ur * pr + ui * pi) // norm, (ui * pr - ur * pi) // norm)
        pr, pi = xr, xi

    def read_back(entry):
        if entry is None:
            return None
        count = max(abs(x).bit_length() for x in entry) // width + 1
        poly = list(zip(*(_balanced_digits(sign * x, width, count) for x in entry)))
        while poly[-1] == (0, 0):
            poly.pop()
        return poly
    return read_back((pr, pi)), [[read_back(row.get(n + j)) for j in range(n)] for row in rows]


def _pair_product(p, q):
    """The product of two Z[i][t] polynomials given as pair lists."""
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for e, (a, b) in enumerate(p):
        for f, (c, d) in enumerate(q):
            x, y = out[e + f]
            out[e + f] = (x + a * c - b * d, y + a * d + b * c)
    return out


def _cleared_basis(rows):
    """(h_rows, h_factors, g_rows, g_factors) for ``_packed_transport``, or None
    when A is singular: h = A^T and g = (A^T)^-1 over Z[i][t], with factors.

    Row i of A is f_i M_i by ``_cleared``, so A^T = M^T diag(f) and
    g = diag(1/f) adj(M^T) / det M by ``_fraction_free_inverse``.  With
    det M = t^m D, D(0) != 0, l the leading coefficient of D, and
    rest_p = R_p / d_p over Z[i], row p of g is scale_p R_p conj(l) adj(M^T)[p]
    times t^(-shift_p - m) / (d_p N(l) D/l); a row whose every entry D/l
    divides is divided by it, so that its values read back without a gcd.
    """
    cleared = [_cleared(row) for row in rows]
    h_rows, h_factors = [polys for polys, _, _ in cleared], [factor for *_, factor in cleared]
    inverse = _fraction_free_inverse([list(column) for column in zip(*h_rows)])
    if inverse is None:
        return None
    det, adj = inverse
    low = next(e for e, pair in enumerate(det) if pair != (0, 0))
    lr, li = det[-1]
    norm = lr * lr + li * li
    over_lead = Polynomial([_reduced(a * lr + b * li, b * lr - a * li, norm) for a, b in det[low:]])
    g_rows, g_factors = [], []
    for (scale, shift, rest), row in zip(h_factors, adj):
        d, pairs = gaussian_integers(rest.coeffs)
        times = [(scale * (a * lr + b * li), scale * (b * lr - a * li)) for a, b in pairs]
        row, row_rest = [poly and _pair_product(times, poly) for poly in row], over_lead
        if over_lead.degree > 0:
            quotients = []
            for poly in row:
                q, r = divmod(Polynomial([GaussianRational(a, b) for a, b in poly]), over_lead) \
                    if poly else (None, None)
                if r:
                    break
                quotients.append(q)
            else:
                den, flat = gaussian_integers(c for q in quotients if q for c in q.coeffs)
                flat = iter(flat)
                row = [q and [next(flat) for _ in q.coeffs] for q in quotients]
                d, row_rest = d * den, _POLY_ONE
        g_rows.append(row)
        g_factors.append((d * norm, -shift - low, row_rest))
    return h_rows, h_factors, g_rows, g_factors


def _packed_transport(h_rows, h_factors, g_rows, g_factors, rows):
    """Packed operands of c'_ijk^p = sum h[a][i] h[b][j] h[c][k] g[p][q] c_abc^q.

    ``h_rows[i]`` is column i of h and ``g_rows[p]`` row p of g, pair lists
    over Z[i][t] times ``h_factors[i]`` and ``g_factors[p]``, as
    ``_cleared_basis`` gives them; ``rows`` maps (a, b, c) to {q: value}, put
    over one denominator by ``_cleared``.  A sum (a_e + b_e*i) t^e becomes the
    int sum (a_e + b_e*X) X^(6e) (Kronecker substitution).  An output
    coefficient sums at most n^4 products of five factors of degree at most 1
    in i, so six digits per power of t hold it.  Returns (rows, h, g, unpacked)
    for the conjugation kernel; unpacked reads the kernel's output back into
    nonzero rows of reduced rational functions.
    """
    n = len(h_rows)
    # the kernel reads h[a] and column q of g only for the indices a and q the rows use
    slots = {a for key in rows for a in key}
    targets = {q for row in rows.values() for q in row}
    values, source_norm, source = _cleared([val for row in rows.values() for val in row.values()])
    h_norm = max(_l1(row[a]) for row in h_rows for a in slots)
    g_norm = max(_l1(row[q]) for row in g_rows for q in targets)
    width = _width(n ** 4 * h_norm ** 3 * g_norm * source_norm)
    h = [[_packed_polynomial(row[a], width) if a in slots else 0 for row in h_rows]
         for a in range(n)]
    g = [[_packed_polynomial(poly, width) if q in targets else 0 for q, poly in enumerate(row)]
         for row in g_rows]
    values = iter(values)
    packed = {key: {p: _packed_polynomial(next(values), width) for p in row}
              for key, row in rows.items()}
    ends = [_factor_product(factor, source) for factor in g_factors]

    def unpacked(out):
        moved = {}
        for (i, j, k), row in out.items():
            factor = _factor_product(h_factors[i], h_factors[j], h_factors[k])
            for p, value in row.items():
                val = _unpacked_function(value, width, *_factor_product(factor, ends[p]))
                if val:
                    moved.setdefault((i, j, k), {})[p] = val
        return moved
    return packed, h, g, unpacked
