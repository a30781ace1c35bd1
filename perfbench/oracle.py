"""Exact reference arithmetic for checking lietriple, written apart from it.

Elements of Q(i) are pairs (re, im) of Fractions.  A structure tensor is a
sparse dict {(i, j, k): {p: value}} with 0-based indices holding only nonzero
constants, so [e_i, e_j, e_k] = sum_p value e_p.  Nothing here imports
lietriple: every answer the benchmark accepts is recomputed from these
definitions.
"""

from __future__ import annotations

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)
ZERO = (F0, F0)
ONE = (F1, F0)


# ---------------------------------------------------------------------------
# Q(i) on Fraction pairs

def q(re, im=0):
    return (Fraction(re), Fraction(im))


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def neg(a):
    return (-a[0], -a[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    if not n:
        raise ZeroDivisionError("inverse of zero in Q(i)")
    return (a[0] / n, -a[1] / n)


def div(a, b):
    return mul(a, inv(b))


def is_zero(a):
    return not a[0] and not a[1]


def text(a):
    """Scalar in the document syntax: "p/q", "r/s*i" or "p/q+r/s*i"."""
    re, im = a
    if not im:
        return str(re)
    body = f"{abs(im)}*i"
    if not re:
        return body if im > 0 else f"-{body}"
    return f"{re}{'+' if im > 0 else '-'}{body}"


def parse_pair(pair):
    """Read an element the worker wrote as ["p/q", "r/s"]."""
    return (Fraction(pair[0]), Fraction(pair[1]))


# ---------------------------------------------------------------------------
# matrices and ranks

def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[_dot(row, [b[k][j] for k in range(len(b))]) for j in range(len(b[0]))]
            for row in a]


def _dot(u, v):
    total = ZERO
    for x, y in zip(u, v):
        if not is_zero(x) and not is_zero(y):
            total = add(total, mul(x, y))
    return total


def transpose(a):
    return [list(col) for col in zip(*a)]


def _echelon_insert(basis, row):
    """Reduce row against {pivot: row} in place; add it if independent."""
    row = dict(row)
    for col, prow in basis.items():
        f = row.get(col)
        if f is None:
            continue
        for c, v in prow.items():
            w = sub(row.get(c, ZERO), mul(f, v))
            if is_zero(w):
                row.pop(c, None)
            else:
                row[c] = w
    if not row:
        return False
    col = min(row)
    scale = inv(row[col])
    row = {c: mul(v, scale) for c, v in row.items()}
    for prow in basis.values():
        f = prow.get(col)
        if f is not None:
            for c, v in row.items():
                w = sub(prow.get(c, ZERO), mul(f, v))
                if is_zero(w):
                    prow.pop(c, None)
                else:
                    prow[c] = w
    basis[col] = row
    return True


def _sparse(row):
    if isinstance(row, dict):
        return {c: v for c, v in row.items() if not is_zero(v)}
    return {c: v for c, v in enumerate(row) if not is_zero(v)}


def rank(rows):
    """Row rank of dense lists or sparse {column: value} rows."""
    basis = {}
    return sum(_echelon_insert(basis, _sparse(r)) for r in rows)


def nullspace(rows, ncols):
    """Basis of {x : row . x = 0 for every row}, as dense lists."""
    basis = {}
    for r in rows:
        _echelon_insert(basis, _sparse(r))
    free = [c for c in range(ncols) if c not in basis]
    out = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for col, prow in basis.items():
            if f in prow:
                vec[col] = neg(prow[f])
        out.append(vec)
    return out


def mat_inverse(m):
    n = len(m)
    aug = [list(m[i]) + identity(n)[i] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if not is_zero(aug[r][c])), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        s = inv(aug[c][c])
        aug[c] = [mul(x, s) for x in aug[c]]
        for r in range(n):
            if r != c and not is_zero(aug[r][c]):
                f = aug[r][c]
                aug[r] = [sub(x, mul(f, y)) for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# sparse structure tensors

def tensor_from_products(products):
    """Tensor from i < j generating products {(i, j, k): {p: value}}, 1-based.

    The (j, i, k) entries follow from (A1); nothing else is filled in, so a
    table that needs (A2) completion fails the axiom check.
    """
    t = {}
    for (i, j, k), vec in products.items():
        if not i < j:
            raise ValueError(f"generating product ({i},{j},{k}) needs i < j")
        vec = {p - 1: v for p, v in vec.items() if not is_zero(v)}
        if vec:
            t[(i - 1, j - 1, k - 1)] = vec
            t[(j - 1, i - 1, k - 1)] = {p: neg(v) for p, v in vec.items()}
    return t


def system_doc(dim, tensor):
    """The lietriple system document listing the i < j products."""
    products = []
    for (i, j, k) in sorted(tensor):
        if i < j:
            value = {str(p + 1): text(v) for p, v in sorted(tensor[(i, j, k)].items())}
            products.append({"args": [i + 1, j + 1, k + 1], "value": value})
    return {"dim": dim, "field": "Q(i)", "products": products}


def tensor_from_doc(doc):
    products = {}
    for entry in doc["products"]:
        i, j, k = entry["args"]
        products[(i, j, k)] = {int(p): parse_text(v) for p, v in entry["value"].items()}
    return tensor_from_products(products)


def parse_text(s):
    """Read a scalar written by text()."""
    s = s.strip()
    if not s.endswith("*i") and s not in ("i", "-i"):
        return (Fraction(s), F0)
    if s in ("i", "-i"):
        return (F0, F1 if s == "i" else -F1)
    body = s[:-2]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return (F0, Fraction(body))
    return (Fraction(body[:cut]), Fraction(body[cut:]))


def bracket(t, x, y, z):
    """Trilinear product of sparse vectors {index: value}."""
    out = {}
    for a, xa in x.items():
        for b, yb in y.items():
            if a == b:
                continue
            f = mul(xa, yb)
            for c, zc in z.items():
                vec = t.get((a, b, c))
                if vec is None:
                    continue
                g = mul(f, zc)
                for p, v in vec.items():
                    out[p] = add(out.get(p, ZERO), mul(g, v))
    return {p: v for p, v in out.items() if not is_zero(v)}


def _combine(*vectors):
    out = {}
    for sign, vec in vectors:
        for p, v in vec.items():
            out[p] = add(out.get(p, ZERO), v if sign > 0 else neg(v))
    return {p: v for p, v in out.items() if not is_zero(v)}


def axiom_violation(t, dim):
    """None when (A1)-(A3) hold, else (identity, 1-based indices)."""
    for (i, j, k), vec in t.items():
        if i == j or _combine((1, vec), (1, t.get((j, i, k), {}))):
            return "A1", (i + 1, j + 1, k + 1)
    for (i, j, k), vec in t.items():
        if _combine((1, vec), (1, t.get((j, k, i), {})), (1, t.get((k, i, j), {}))):
            return "A2", (i + 1, j + 1, k + 1)
    e = [{a: ONE} for a in range(dim)]
    for u in range(dim):
        for v in range(u + 1, dim):
            # D = [e_u, e_v, .] must be a derivation of the product (A3)
            d = [bracket(t, e[u], e[v], e[x]) for x in range(dim)]
            if not any(d):
                continue
            for x in range(dim):
                for y in range(dim):
                    for z in range(dim):
                        inner = t.get((x, y, z), {})
                        lhs = bracket(t, e[u], e[v], inner) if inner else {}
                        rhs = _combine((1, bracket(t, d[x], e[y], e[z])),
                                       (1, bracket(t, e[x], d[y], e[z])),
                                       (1, bracket(t, e[x], e[y], d[z])))
                        if _combine((1, lhs), (-1, rhs)):
                            return "A3", (u + 1, v + 1, x + 1, y + 1, z + 1)
    return None


def conjugate(t, g):
    """(g.mu)(x, y, z) = g mu(g^-1 x, g^-1 y, g^-1 z); columns of g are images."""
    n = len(g)
    h = mat_inverse(g)
    out = {}
    for (a, b, c), vec in t.items():
        gcol = {}
        for q_, val in vec.items():
            for p in range(n):
                if not is_zero(g[p][q_]):
                    gcol[p] = add(gcol.get(p, ZERO), mul(g[p][q_], val))
        for i in range(n):
            if is_zero(h[a][i]):
                continue
            for j in range(n):
                if is_zero(h[b][j]):
                    continue
                f = mul(h[a][i], h[b][j])
                for k in range(n):
                    if is_zero(h[c][k]):
                        continue
                    fk = mul(f, h[c][k])
                    cell = out.setdefault((i, j, k), {})
                    for p, v in gcol.items():
                        cell[p] = add(cell.get(p, ZERO), mul(fk, v))
    return _clean(out)


def _clean(t):
    out = {}
    for key, vec in t.items():
        vec = {p: v for p, v in vec.items() if not is_zero(v)}
        if vec:
            out[key] = vec
    return out


def transport(t, rows):
    """Constants in the basis E_i = sum_j rows[i][j] e_j (a numeric basis)."""
    return conjugate(t, mat_inverse(transpose(rows)))


def derived_rank(t):
    """dim [T, T, T]: the rank of all basis products."""
    return rank([vec for vec in t.values()])


def annihilator_rank(t, dim):
    """dim Ann(T) = dim - rank of x -> ([x, e_j, e_k])_{j,k}."""
    rows = {}
    for (i, j, k), vec in t.items():
        for p, v in vec.items():
            rows.setdefault((j, k, p), {})[i] = v
    return dim - rank(list(rows.values()))


# ---------------------------------------------------------------------------
# cochains: theta(e_i, e_j, e_k) for i < j, coordinates in lexicographic order

def cochain_index(dim):
    return [(i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim)]


def _theta_row(pos, x, y, z):
    """theta(x, y, z) as a linear form {coordinate: coefficient}."""
    row = {}
    for a, xa in x.items():
        for b, yb in y.items():
            if a == b:
                continue
            f = mul(xa, yb)
            for c, zc in z.items():
                if a < b:
                    col, val = pos[(a, b, c)], mul(f, zc)
                else:
                    col, val = pos[(b, a, c)], neg(mul(f, zc))
                row[col] = add(row.get(col, ZERO), val)
    return row


def cocycle_basis(t, dim):
    """Z^3 of the base: the cochains theta whose extension T_theta satisfies (A2), (A3).

    In T_theta the new coordinate annihilates everything, so (A2) and (A3) of
    T_theta reduce, on the new coordinate, to linear conditions on theta.
    """
    idx = cochain_index(dim)
    pos = {key: m for m, key in enumerate(idx)}
    e = [{a: ONE} for a in range(dim)]
    rows = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                rows.append(_combine((1, _theta_row(pos, e[i], e[j], e[k])),
                                     (1, _theta_row(pos, e[j], e[k], e[i])),
                                     (1, _theta_row(pos, e[k], e[i], e[j]))))
    for u in range(dim):
        for v in range(u + 1, dim):
            d = [bracket(t, e[u], e[v], e[x]) for x in range(dim)]
            for x in range(dim):
                for y in range(dim):
                    for z in range(dim):
                        inner = t.get((x, y, z), {})
                        if not inner and not (d[x] or d[y] or d[z]):
                            continue
                        rows.append(_combine(
                            (1, _theta_row(pos, e[u], e[v], inner)),
                            (-1, _theta_row(pos, d[x], e[y], e[z])),
                            (-1, _theta_row(pos, e[x], d[y], e[z])),
                            (-1, _theta_row(pos, e[x], e[y], d[z]))))
    return nullspace(rows, len(idx))


def coboundary(t, dim, functional):
    """delta f (x, y, z) = f([x, y, z]) as a cochain coordinate vector."""
    out = []
    for (i, j, k) in cochain_index(dim):
        vec = t.get((i, j, k), {})
        out.append(_dot([functional[p] for p in vec], list(vec.values())))
    return out


def extension(t, dim, thetas):
    """T_theta on dim + s coordinates: [x, y, z] + sum_r theta_r(x, y, z) e_{dim+r}."""
    out = {key: dict(vec) for key, vec in t.items()}
    for r, theta in enumerate(thetas):
        for (i, j, k), val in zip(cochain_index(dim), theta):
            if is_zero(val):
                continue
            out.setdefault((i, j, k), {})[dim + r] = val
            out.setdefault((j, i, k), {})[dim + r] = neg(val)
    return out


def class_rank(t, dim, thetas):
    """Rank of the classes [theta_r] in H^3 = Z^3 / B^3."""
    b3 = [coboundary(t, dim, [ONE if q_ == p else ZERO for q_ in range(dim)])
          for p in range(dim)]
    return rank(b3 + list(thetas)) - rank(b3)


# ---------------------------------------------------------------------------
# the family invariant and Q(i)(t) evaluation

def xi(lam):
    """xi(lam) = (lam^2 + lam + 1)^3 / (lam^2 (lam + 1)^2); None where undefined."""
    l2 = mul(lam, lam)
    lp1 = add(lam, ONE)
    den = mul(l2, mul(lp1, lp1))
    if is_zero(den):
        return None
    num = add(add(l2, lam), ONE)
    return div(mul(num, mul(num, num)), den)


def poly_at(coeffs, t0):
    """Horner evaluation of ascending coefficients at t0."""
    acc = ZERO
    for c in reversed(coeffs):
        acc = add(mul(acc, t0), c)
    return acc


def rf_at(num, den, t0):
    return div(poly_at(num, t0), poly_at(den, t0))
