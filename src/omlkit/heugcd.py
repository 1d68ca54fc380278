"""Heuristic gcd of sparse integer polynomials.

GCDHEU (Char, Geddes and Gonnet, *J. Symbolic Computation* 7, 1989): evaluate
one variable at an integer point, take the gcd of the images (recursively,
down to integers), rebuild a candidate by symmetric x-adic interpolation, and
accept it only if it divides both inputs exactly in Z[x].  The points are
sized and grown, and the candidates tried, as in sympy's
``heuristicgcd.py``; after six points with no candidate accepted the gcd
raises instead of returning one.

A polynomial in n variables is a dict {packed exponent: nonzero int}.  The
exponent of variable j is digit n - 1 - j, in base 2^32, of the packed key,
and every digit is nonnegative.  So variable 0 sits in the top digit, and the
int order of the keys is the lex order that reads variable 0 first: the
largest key is the lex leading term.
"""

from __future__ import annotations

import math

from .errors import HeuristicGCDFailed
from .hahn import _WIDTH, _divide

_MAX_POINTS = 6


def cofactors(f, g, n):
    """(h, f / h, g / h) for h a gcd of nonzero f and g in Z[x_0..x_(n-1)].

    h is unique up to sign.  Raises HeuristicGCDFailed when six evaluation
    points give no gcd.
    """
    if not n:
        (a,), (b,) = f.values(), g.values()
        h = math.gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    content = math.gcd(*f.values(), *g.values())
    if content != 1:
        f = {e: c // content for e, c in f.items()}
        g = {e: c // content for e, c in g.items()}
    f_norm = max(map(abs, f.values()))
    g_norm = max(map(abs, g.values()))
    bound = 2 * min(f_norm, g_norm) + 29
    # the point grows from the lex leading coefficients, variable 0 first
    x = max(min(bound, 99 * math.isqrt(bound)),
            2 * min(f_norm // abs(f[max(f)]), g_norm // abs(g[max(g)])) + 4)
    shift = _WIDTH * (n - 1)
    for _ in range(_MAX_POINTS):
        ff, gg = _evaluate(f, x, shift), _evaluate(g, x, shift)
        if ff and gg:
            h, cff, cfg = cofactors(ff, gg, n - 1)
            # try h itself, then h from either cofactor
            h = _primitive(_interpolate(h, x, shift))
            cff_ = _quo(f, h)
            if cff_ and (cfg_ := _quo(g, h)):
                return _scaled(h, content), cff_, cfg_
            cff = _interpolate(cff, x, shift)
            h = _quo(f, cff)
            if h and (cfg_ := _quo(g, h)):
                return _scaled(h, content), cff, cfg_
            cfg = _interpolate(cfg, x, shift)
            h = _quo(g, cfg)
            if h and (cff_ := _quo(f, h)):
                return _scaled(h, content), cff_, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise HeuristicGCDFailed(
        f"no gcd found at {_MAX_POINTS} evaluation points")


def _evaluate(f, x, shift):
    """f with its top variable, the digit at shift, set to the int x."""
    out = {}
    low = (1 << shift) - 1
    powers = [1]
    for e, c in f.items():
        d = e >> shift
        while len(powers) <= d:
            powers.append(powers[-1] * x)
        k = e & low
        out[k] = out.get(k, 0) + c * powers[d]
    return {k: c for k, c in out.items() if c}


def _interpolate(h, x, shift):
    """The polynomial whose value at the top variable x is h, reading each
    coefficient of h in base x with digits in (-x/2, x/2]; negated if its
    lex leading coefficient is negative."""
    out = {}
    half = x // 2
    power = 0
    while h:
        rest = {}
        for k, c in h.items():
            c, d = divmod(c, x)
            if d > half:
                c += 1
                d -= x
            if d:
                out[power | k] = d
            if c:
                rest[k] = c
        h = rest
        power += 1 << shift
    if out[max(out)] < 0:
        return {e: -c for e, c in out.items()}
    return out


def _quo(a, b):
    """a / b if b divides a in Z[x], else None."""
    out = _divide(a, b, polynomial=True)
    return out and out[0]


def _primitive(f):
    content = math.gcd(*f.values())
    return f if content == 1 else {e: c // content for e, c in f.items()}


def _scaled(f, k):
    return f if k == 1 else {e: c * k for e, c in f.items()}
