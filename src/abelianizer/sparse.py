"""Exact sparse polynomials, the one arithmetic shared by every module.

A polynomial is a dict {exponent: coefficient} with no zero coefficient
stored.  An exponent is an int (a power of z, q or one H) or a tuple of
ints (a monomial in H_1, ..., H_k); exponents add, entry by entry for
tuples.  A z-series is a dict {z power: polynomial} with no empty
polynomial stored: a polynomial in z and 1/z with polynomial coefficients.
"""

from __future__ import annotations

from operator import add as _plus


def add_term(p: dict, e, c) -> None:
    """p += c * x^e, in place."""
    v = p.get(e, 0) + c
    if v:
        p[e] = v
    elif e in p:
        del p[e]


def add(p: dict, q: dict, c=1) -> dict:
    """p + c * q."""
    out = dict(p)
    for e, v in q.items():
        add_term(out, e, c * v)
    return out


def scale(p: dict, c) -> dict:
    """c * p."""
    if not c:
        return {}
    return {e: v * c for e, v in p.items()}


def mul(p: dict, q: dict, cap=None) -> dict:
    """p * q, dropping every term with an exponent (or an entry of one) >= cap.

    cap = n gives the relations H_i^n = 0.  On int exponents it serves only
    H^n = 0 in jfunctions.projective_j_closed_form; no power series is
    truncated here.
    """
    out = {}
    vector = bool(p) and isinstance(next(iter(p)), tuple)
    for a, ca in p.items():
        for b, cb in q.items():
            if vector:
                e = tuple(map(_plus, a, b))
                if cap is not None and max(e) >= cap:
                    continue
            else:
                e = a + b
                if cap is not None and e >= cap:
                    continue
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def series_add(a: dict, b: dict, c=1, shift: int = 0) -> dict:
    """a + c * z^shift * b for z-series."""
    out = dict(a)
    for p, v in b.items():
        s = add(out.get(p + shift, {}), v, c)
        if s:
            out[p + shift] = s
        else:
            out.pop(p + shift, None)
    return out


def series_mul(a: dict, b: dict, cap=None) -> dict:
    """a * b for z-series; cap applies to the polynomial coefficients."""
    out = {}
    for p, u in a.items():
        for q, v in b.items():
            w = mul(u, v, cap)
            if w:
                out = series_add(out, {p + q: w})
    return out
