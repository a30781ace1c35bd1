"""Gaussian integers packed into Python ints, so that unchanged kernels run on ints.

A packed value is a sum of balanced base-X digits d, X = 2^k, read back
exactly while |d| < X/2; ``_width`` is the least k with 2^(k-1) above the
kernel's bound on every digit:

    kernel                    lane             digits per lane   2^(k-1) >
    (A3) residual over Q(i)   coordinate q     a_q, then b_q     8 n M^2
    transport over Q(i)(t)    power t^e        c_0, ..., c_5     n^4 M_h^3 M_g M_r

For (A3), M = max(|a|, |b|) over the cleared constants a + b*i; for transport,
M is the largest L1 norm sum |a_e| + |b_e| of a cleared entry of h, g or rows.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .linalg import mat_inverse
from .scalars import (_POLY_ONE, QI_ZERO, GaussianRational, Polynomial, RationalFunction, _make,
                      _reduced, gaussian_integers, poly_gcd)


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
    if scale != 1:  # the rows D*z, read off the cleared pairs
        values = iter(pairs)
        rows = {key: {p: _make(*next(values), 1) for p in row} for key, row in rows.items()}
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


def _cleared_monomials(coeffs, exponents):
    """(polys, factor) of the values c_j t^(e_j), c_j in Q(i), as ``_cleared``
    gives them, with rest = 1: no rational function is built."""
    lowest = min((e for c, e in zip(coeffs, exponents) if c), default=0)
    scale, pairs = gaussian_integers(c for c in coeffs if c)
    pairs = iter(pairs)
    polys = [[(0, 0)] * (e - lowest) + [next(pairs)] if c else None
             for c, e in zip(coeffs, exponents)]
    return polys, (scale, lowest, _POLY_ONE)


def _cleared_basis(rows, form):
    """(h_rows, h_factors, g_rows, g_factors) for ``_packed_transport``, or None
    when A is singular: the rows of A and of g = (A^T)^-1, each cleared on its own.

    With the Cartan form (u, h, h^-1, v) of A, h = g0^T, A^T is
    diag(t^v) h diag(t^u): row i of A is h[j][i] t^(u_i + v_j) and row p of g
    is h^-1[p][q] t^(-u_p - v_q), both cleared directly.  Without it, g comes
    from ``mat_inverse`` over Q(i)(t) and each row is cleared by ``_cleared``.
    """
    if form is None:
        try:
            inverse = mat_inverse([list(column) for column in zip(*rows)])
        except SingularMatrix:
            return None
        a_rows = [(polys, factor) for polys, _, factor in map(_cleared, rows)]
        g_rows = [(polys, factor) for polys, _, factor in map(_cleared, inverse)]
    else:
        u, h, h_inv, v = form
        a_rows = [_cleared_monomials([row[i] for row in h], [u_i + v_j for v_j in v])
                  for i, u_i in enumerate(u)]
        g_rows = [_cleared_monomials(row, [-u_p - v_q for v_q in v])
                  for row, u_p in zip(h_inv, u)]
    return ([polys for polys, _ in a_rows], [factor for _, factor in a_rows],
            [polys for polys, _ in g_rows], [factor for _, factor in g_rows])


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
