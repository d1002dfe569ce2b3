"""Multivariate polynomials with exact rational coefficients.

The symbolic workhorse of the package.  A Polynomial is a sparse map from
exponent tuples to nonzero rational coefficients (read through ``terms``);
variables are positional (index 0..nvars-1) and print as x1..xn.  Inside, the
coefficients are integer numerators over one common denominator, so the
arithmetic runs on Python ints whichever rational backend is installed.
Instances are treated as immutable: no method mutates self.

Sums of polynomials go through one of two integer kernels,
linear_combination or sum_of_products, which scale the terms to one common
denominator and accumulate a single term dict; + and - serve one pair.  The brackets of the algebra layer on entries of one kind
(LieAlgebra.bracket, the sparse ad of bch_product) still add term by term.

Matrices of polynomials that feed further matrix arithmetic stay in one
private form, ``(rows, den)`` as linalg names its integer matrices: rows of
integer term dicts (no zero stored, {} for a zero entry) over one common
positive denominator, the matrix being rows / den entrywise.  ``_to_prows``
and ``_from_prows`` convert at the API boundary, one reduced Polynomial per
entry dict, so a mirrored pair (one dict) stays one; ``_prows_mul``,
``_prows_rat_mul`` (by an integer matrix in linalg's form), ``_prows_times``
(by one polynomial), ``_prows_congruence`` (A M A^T for a symmetric M, upper
triangle mirrored) and ``_prows_combination`` multiply and add without
dividing, so a chain of them (the differential series of calculus, the
pushforward tables of operators, the commutation tables of conformal) takes
one gcd per entry, at the end.  MapPowers keeps the powers of a map's
components on integer term dicts, for every composition in that form.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod

from .rational import Rat, rat


def _mul_into(out: dict, a: dict, b: dict) -> dict:
    """out += a * b on integer term dicts; cancelled entries stay as zeros."""
    get, add = out.get, operator.add
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(add, ea, eb))
            out[key] = get(key, 0) + ca * cb
    return out


def _nonzero(num: dict) -> dict:
    """num without its zero entries (num itself when it has none)."""
    return num if all(num.values()) else {e: c for e, c in num.items() if c}


def _diff_num(num: dict, index: int) -> dict:
    """The derivative in variable index of an integer term dict."""
    out = {}
    for exps, c in num.items():
        e = exps[index]
        if e:
            out[exps[:index] + (e - 1,) + exps[index + 1:]] = c * e
    return out


def _raw(nvars: int, num: dict, den: int) -> "Polynomial":
    """Wrap a term dict already in normal form (no zeros, content coprime to den)."""
    p = Polynomial.__new__(Polynomial)
    p.nvars, p._num, p._den = nvars, num, den
    return p


def _reduced(nvars: int, num: dict, den: int) -> "Polynomial":
    """Wrap a term dict without zeros, dividing out what it shares with den."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return _raw(nvars, num, den)


class Polynomial:
    """sum of (_num[e] / _den) * x^e over the exponent tuples e of _num.

    The numerators are nonzero Python ints and the denominator is one positive
    int, with gcd(_den, *_num.values()) == 1.  That normal form is unique, so
    equality compares the stored dicts, and every arithmetic loop runs on ints.
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        coeffs = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent tuple %r has wrong length" % (exps,))
                coeff = rat(coeff)
                if coeff != 0:
                    coeffs[tuple(exps)] = coeff
        # each coefficient is in lowest terms, so over the lcm of their
        # denominators the numerators already share no factor with it
        den = lcm(*(int(c.denominator) for c in coeffs.values()))
        self._den = den
        self._num = {e: int(c.numerator) * (den // int(c.denominator))
                     for e, c in coeffs.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return _raw(nvars, {}, 1)

    @staticmethod
    def constant(value, nvars: int) -> "Polynomial":
        c = rat(value)
        if c == 0:
            return Polynomial.zero(nvars)
        return _raw(nvars, {(0,) * nvars: int(c.numerator)}, int(c.denominator))

    @staticmethod
    def variable(index: int, nvars: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range for %d vars" % (index, nvars))
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return _raw(nvars, {exps: 1}, 1)

    # -- predicates / views ------------------------------------------------

    @property
    def terms(self) -> dict:
        """Exponent tuple -> nonzero Rat coefficient, built afresh on each read."""
        den = self._den
        return {e: Rat(c, den) for e, c in self._num.items()}

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._num)

    def constant_value(self) -> Rat:
        """The value of a constant polynomial (raises if nonconstant)."""
        if not self.is_constant:
            raise ValueError("polynomial %s is not constant" % self)
        return self.coefficient((0,) * self.nvars)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._num), default=-1)

    def coefficient(self, exps) -> Rat:
        return Rat(self._num.get(tuple(exps), 0), self._den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return (self.nvars == other.nvars and self._den == other._den
                    and self._num == other._num)
        return NotImplemented

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomials in %d and %d variables" % (self.nvars, other.nvars))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        self._check(other)
        g = gcd(self._den, other._den)
        ka, kb = other._den // g, self._den // g
        out = {e: c * ka for e, c in self._num.items()}
        get = out.get
        for e, c in other._num.items():
            acc = get(e, 0) + c * kb
            if acc:
                out[e] = acc
            else:
                del out[e]
        return _reduced(self.nvars, out, self._den * ka)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.nvars, {e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = rat(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            n = int(c.numerator)
            return _reduced(self.nvars, {e: v * n for e, v in self._num.items()},
                            self._den * int(c.denominator))
        self._check(other)
        a, b = self._num, other._num
        if len(a) > len(b):
            a, b = b, a
        return _reduced(self.nvars, _nonzero(_mul_into({}, a, b)), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero scalar or a nonzero *constant* polynomial."""
        if isinstance(other, Polynomial):
            other = other.constant_value()
        return self * (1 / rat(other))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.constant(1, self.nvars) if result is None else result

    # -- calculus -----------------------------------------------------------

    def diff(self, index: int) -> "Polynomial":
        """Partial derivative with respect to variable ``index``."""
        return _reduced(self.nvars, _diff_num(self._num, index), self._den)

    def evaluate(self, point) -> Rat:
        """Value at a point of rationals (exact)."""
        point = [rat(x) for x in point]
        if len(point) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = Rat(0)
        for exps, c in self._num.items():
            v = Rat(c)
            for x, e in zip(point, exps):
                if e:
                    v = v * x**e
            total += v
        return total / self._den

    def subs(self, values) -> "Polynomial":
        """Substitute a Polynomial (or scalar) for every variable.

        All Polynomial values must share one variable count m; the result is a
        polynomial in those m variables.
        """
        values = list(values)
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        m = None
        for v in values:
            if isinstance(v, Polynomial):
                if m is not None and v.nvars != m:
                    raise ValueError("substituted polynomials disagree on nvars")
                m = v.nvars
        if m is None:
            raise ValueError("use evaluate() for an all-scalar substitution")
        polys = [v if isinstance(v, Polynomial) else Polynomial.constant(v, m) for v in values]
        cache = {}

        def power(i, e):
            got = cache.get((i, e))
            if got is None:
                got = polys[i] ** e
                cache[(i, e)] = got
            return got

        # each term c * prod(power) has denominator _den * prod(power._den);
        # scaling every term to the lcm of those lets one dict take all sums
        expanded = []
        for exps, c in self._num.items():
            factors = [power(i, e) for i, e in enumerate(exps) if e]
            den = 1
            for f in factors:
                den *= f._den
            expanded.append((c, factors, den))
        common = lcm(*(den for _, _, den in expanded))
        one = (0,) * m
        out = {}
        for c, factors, den in expanded:
            scale = c * (common // den)
            if not factors:
                out[one] = out.get(one, 0) + scale
                continue
            acc = {one: scale}
            for f in factors[:-1]:
                acc = _mul_into({}, acc, f._num)
            _mul_into(out, acc, factors[-1]._num)
        return _reduced(m, _nonzero(out), self._den * common)

    # -- printing / parsing ---------------------------------------------------

    def __str__(self) -> str:
        """Terms by descending total degree, then descending exponent tuple;
        each coefficient in lowest terms, a unit one left out before a
        monomial."""
        num, den = self._num, self._den
        if not num:
            return "0"
        pieces = []
        for _, exps, c in sorted(((sum(e), e, c) for e, c in num.items()), reverse=True):
            g = gcd(c, den)
            mag, d = abs(c) // g, den // g
            body = "*".join("x%d" % i if e == 1 else "x%d^%d" % (i, e)
                            for i, e in enumerate(exps, 1) if e)
            if d != 1:
                text = "%d/%d*%s" % (mag, d, body) if body else "%d/%d" % (mag, d)
            elif body:
                text = body if mag == 1 else "%d*%s" % (mag, body)
            else:
                text = "%d" % mag
            if pieces:
                pieces.append((" - " if c < 0 else " + ") + text)
            else:
                pieces.append("-" + text if c < 0 else text)
        return "".join(pieces)

    def __repr__(self) -> str:
        return "Polynomial(%r)" % str(self)

    @staticmethod
    def parse(text: str, nvars: int) -> "Polynomial":
        """text in the format __str__ emits; ValueError for any malformed
        text, a zero denominator and too deep nesting included."""
        try:
            return _parse_polynomial(text, nvars)
        except RecursionError:
            raise ValueError("polynomial is nested too deeply") from None


# The most terms Polynomial.parse lets one power or product make.  A t-term
# base raised to the k (k >= 2) may have C(t + k - 1, k) terms and a product
# of a t_a-term and a t_b-term factor takes t_a * t_b term products; either is
# refused, before it is computed, when that bound is over the budget.  A
# one-term power such as x1^99999999 stays one term and is never refused.  On
# the Fraction backend and a 2-vCPU host the slowest power under the budget,
# (x1 + 1)^1499 with its growing binomial coefficients, parses in 1.3 s, and
# (x1 + x2 + x3)^50 (1326 terms) in 0.1 s.
TERM_BUDGET = 1500

# The most coefficient bits Polynomial.parse lets one power or product make.
# A polynomial with absolute numerators summing to s over the denominator d
# has coefficients of at most ceil(log2(s d)) bits (numerator and denominator
# together); its k-th power has at most k times that, and a product at most
# the sum of its factors' bounds.  A power or product whose bound is over the
# budget is refused before it is computed.  ceil(log2 1) = 0, so x1^99999999
# is never refused.  Under both budgets (x1 + 1)^1499 (1499 bits) still
# parses in 1.3 s and (x1 + 3)^1024 (2048 bits) in 0.8 s, while
# (x1 + 10^100)^300 and (3*x1)^9999999, which took 7.9 s and 5.9 s, are
# refused at once.
COEFF_BIT_BUDGET = 2048


def _coeff_bits(p: Polynomial) -> int:
    """ceil(log2(s d)), s the sum of p's absolute numerators and d its
    denominator: a bound on the bits of each coefficient of p."""
    return (max(sum(map(abs, p._num.values())) * p._den, 1) - 1).bit_length()


# a zero denominator matches no token, so "1/0" cannot be tokenized
_TOKEN = re.compile(r"\s*(?:(\d+(?:/0*[1-9]\d*)?)|(x\d+)|([+\-*^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError("cannot tokenize polynomial at %r" % rest[:20])
        num, name, op = m.groups()
        if num:
            tokens.append(("num", rat(num)))
        elif name:
            tokens.append(("var", int(name[1:]) - 1))
        else:
            tokens.append((op, op))
        pos = m.end()
    return tokens


def _parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Recursive-descent parser for the format __str__ emits.

    Grammar: sums/differences of terms, terms are '*'-joined factors, factors
    are rationals ("3", "1/2"), variables ("x1"), parenthesized expressions,
    optionally raised to a nonnegative integer power with '^'.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of polynomial %r" % text)
        tok = tokens[pos]
        if kind and tok[0] != kind:
            raise ValueError("expected %s at token %d of %r" % (kind, pos, text))
        pos += 1
        return tok

    def parse_expr():
        sign = Rat(1)
        while peek() in ("+", "-"):
            if take()[0] == "-":
                sign = -sign
        total = parse_term() * sign
        while peek() in ("+", "-"):
            op = take()[0]
            term = parse_term()
            total = total + term if op == "+" else total - term
        return total

    def parse_term():
        out = parse_factor()
        while peek() == "*":
            take()
            factor = parse_factor()
            pairs = len(out._num) * len(factor._num)
            if pairs > TERM_BUDGET:
                raise ValueError("product of %d-term and %d-term factors takes %d term "
                                 "products, over the term budget of %d"
                                 % (len(out._num), len(factor._num), pairs, TERM_BUDGET))
            bits = _coeff_bits(out) + _coeff_bits(factor)
            if bits > COEFF_BIT_BUDGET:
                raise ValueError("product may have coefficients of %d bits, over the "
                                 "coefficient budget of %d bits" % (bits, COEFF_BIT_BUDGET))
            out = out * factor
        return out

    def parse_factor():
        base = parse_atom()
        if peek() == "^":
            take()
            kind, value = take("num")
            if value.denominator != 1 or value < 0:
                raise ValueError("exponent must be a nonnegative integer")
            k, t = int(value), len(base._num)
            # C(t + k - 1, k) >= max(t, k + 1) here, so comb() runs only on small
            # arguments
            if t > 1 and k > 1 and (max(t, k + 1) > TERM_BUDGET
                                    or comb(t + k - 1, k) > TERM_BUDGET):
                raise ValueError("power %d of a %d-term polynomial may have more terms "
                                 "than the term budget of %d" % (k, t, TERM_BUDGET))
            bits = k * _coeff_bits(base)
            if bits > COEFF_BIT_BUDGET:
                raise ValueError("power %d may have coefficients of %d bits, over the "
                                 "coefficient budget of %d bits" % (k, bits, COEFF_BIT_BUDGET))
            base = base ** k
        return base

    def parse_atom():
        kind = peek()
        if kind == "num":
            return Polynomial.constant(take()[1], nvars)
        if kind == "var":
            index = take()[1]
            if index >= nvars:
                raise ValueError("variable x%d exceeds declared dimension %d" % (index + 1, nvars))
            return Polynomial.variable(index, nvars)
        if kind == "(":
            take()
            inner = parse_expr()
            take(")")
            return inner
        if kind == "-":
            take()
            return -parse_atom()
        raise ValueError("unexpected token in polynomial %r" % text)

    result = parse_expr()
    if pos != len(tokens):
        raise ValueError("trailing tokens in polynomial %r" % text)
    return result


def sum_of_products(nvars: int, pairs) -> Polynomial:
    """The sum of a * b over (a, b) pairs of Polynomials in nvars variables.

    Every product is scaled to one common denominator and accumulated into a
    single term dict, instead of building a new Polynomial per partial sum.
    """
    pairs = [(a, b) for a, b in pairs if a and b]
    for a, b in pairs:
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError("expected polynomials in %d variables" % nvars)
    common = lcm(*(a._den * b._den for a, b in pairs))
    out = {}
    for a, b in pairs:
        x, y = a._num, b._num
        if len(x) > len(y):
            x, y = y, x
        k = common // (a._den * b._den)
        if k != 1:
            x = {e: c * k for e, c in x.items()}
        _mul_into(out, x, y)
    return _reduced(nvars, _nonzero(out), common)


def linear_combination(nvars: int, pairs) -> Polynomial:
    """The sum of w * p over (w, p) pairs, with w rational and p a Polynomial
    in nvars variables.  Every term is scaled to one common denominator and
    accumulated on integer numerators."""
    scaled = []
    for w, p in pairs:
        if p.nvars != nvars:
            raise ValueError("expected polynomials in %d variables" % nvars)
        w = rat(w)
        if w and p:
            scaled.append((int(w.numerator), int(w.denominator) * p._den, p._num))
    common = lcm(*(den for _, den, _ in scaled))
    out = {}
    get = out.get
    for k, den, num in scaled:
        k *= common // den
        for e, c in num.items():
            out[e] = get(e, 0) + c * k
    return _reduced(nvars, _nonzero(out), common)


# -- polynomial maps ----------------------------------------------------------


@dataclass(frozen=True, eq=True)
class PolyMap:
    """A polynomial map between coordinate spaces, one Polynomial per target
    coordinate, each in source_dim variables."""

    source_dim: int
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        for comp in self.components:
            if not isinstance(comp, Polynomial) or comp.nvars != self.source_dim:
                raise ValueError("components must be polynomials in %d variables" % self.source_dim)

    __hash__ = None

    @property
    def target_dim(self) -> int:
        return len(self.components)

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap(n, tuple(Polynomial.variable(i, n) for i in range(n)))

    @staticmethod
    def linear(matrix) -> "PolyMap":
        """The map p -> matrix @ p."""
        rows = [list(r) for r in matrix]
        n = len(rows[0]) if rows else 0
        return PolyMap(n, tuple(linear_combination(n, [(c, Polynomial.variable(j, n))
                                                       for j, c in enumerate(row)])
                                for row in rows))

    @staticmethod
    def parse(strings, source_dim: int) -> "PolyMap":
        return PolyMap(source_dim, tuple(Polynomial.parse(s, source_dim) for s in strings))

    def __call__(self, point):
        return tuple(comp.evaluate(point) for comp in self.components)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner."""
        if inner.target_dim != self.source_dim:
            raise ValueError("composition dimension mismatch")
        comps = tuple(comp.subs(inner.components) for comp in self.components)
        return PolyMap(inner.source_dim, comps)

    def jacobian(self):
        """Matrix of partials d(component_i)/d(x_j), entries Polynomial."""
        return tuple(
            tuple(comp.diff(j) for j in range(self.source_dim)) for comp in self.components
        )


@dataclass(frozen=True, eq=True)
class PolyVectorField:
    """A vector field on coordinate space with polynomial components."""

    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        n = len(self.components)
        for comp in self.components:
            if not isinstance(comp, Polynomial) or comp.nvars != n:
                raise ValueError("field components must be polynomials in %d variables" % n)

    __hash__ = None

    @property
    def nvars(self) -> int:
        return len(self.components)

    def apply(self, u: Polynomial) -> Polynomial:
        """Directional derivative of a scalar: sum_a comp_a * du/dx_a."""
        return sum_of_products(self.nvars, ((comp, u.diff(a))
                                            for a, comp in enumerate(self.components) if comp))

    def bracket(self, other: "PolyVectorField") -> "PolyVectorField":
        """Commutator [self, other] of vector fields."""
        n, x, y = self.nvars, self.components, other.components
        return PolyVectorField(tuple(
            sum_of_products(n, [(x[a], y[c].diff(a)) for a in range(n) if x[a]]
                            + [(y[a], -x[c].diff(a)) for a in range(n) if y[a]])
            for c in range(n)))


class MapPowers(dict):
    """The powers of the components of a PolyMap F on integer term dicts, each
    component F_i = num_i / den_i in its own normal form: self[beta] is
    prod_i num_i^beta_i = F^beta den(beta), den(beta) = prod_i den_i^beta_i.
    A missing power is built from the nearest kept one, as
    self[beta - e_i] num_i with i the index of beta whose component has the
    fewest terms, and kept for the life of the instance."""

    def __init__(self, pmap: PolyMap):
        super().__init__({(0,) * pmap.target_dim: {(0,) * pmap.source_dim: 1}})
        self.nums = tuple(x._num for x in pmap.components)
        self.dens = tuple(x._den for x in pmap.components)

    @cached_property
    def order(self) -> list:
        """The component indices, fewest terms first."""
        return sorted(range(len(self.nums)), key=lambda i: len(self.nums[i]))

    def __missing__(self, beta: tuple) -> dict:
        if len(beta) != len(self.nums) or min(beta) < 0:
            raise ValueError("%r is not an exponent tuple of the map's components" % (beta,))
        chain, got = [], None
        while got is None:
            for i in self.order:
                if beta[i]:
                    break
            chain.append((beta, i))
            beta = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            got = self.get(beta)
        for beta, i in reversed(chain):
            got = self[beta] = _nonzero(_mul_into({}, self.nums[i], got))
        return got

    def den(self, beta: tuple) -> int:
        return prod(map(pow, self.dens, beta))


# -- matrices with polynomial entries -----------------------------------------


def _to_prows(a) -> tuple:
    """(rows, den) with a == rows / den, for a matrix a of Polynomials: den
    the lcm of the entries' denominators."""
    den = lcm(*(x._den for row in a for x in row))
    return tuple(tuple(x._num if x._den == den else
                       {e: c * (den // x._den) for e, c in x._num.items()}
                       for x in row) for row in a), den


def _from_prows(a: tuple, nvars: int) -> tuple:
    """The matrix of Polynomials in nvars variables that a (rows, den) form
    stands for, one reduced Polynomial per entry object, so the mirrored
    entries of a symmetric table (_prows_congruence) become one."""
    rows, den = a
    zero = _raw(nvars, {}, 1)
    entries = {id(x): x for row in rows for x in row if x}
    done = {key: _reduced(nvars, x, den) for key, x in entries.items()}
    return tuple(tuple(done[id(x)] if x else zero for x in row) for row in rows)


def _prows_transpose(a: tuple) -> tuple:
    rows, den = a
    return tuple(zip(*rows)), den


def _dot(row, col: dict) -> dict:
    """sum row[k] * col[k] on integer term dicts, for row a list of (k, dict)
    and col {k: dict}, both without zero entries."""
    out = {}
    for k, x in row:
        y = col.get(k)
        if y:
            if len(x) > len(y):
                _mul_into(out, y, x)
            else:
                _mul_into(out, x, y)
    return _nonzero(out)


def _prows_mul(a: tuple, b: tuple) -> tuple:
    """The product of two polynomial matrices in the (rows, den) form, in the
    same form; each entry is one integer sum over the index pairs whose
    factors are both nonzero."""
    (ra, da), (rb, db) = a, b
    cols = [{k: y for k, y in enumerate(col) if y} for col in zip(*rb)]
    return tuple(tuple(_dot(row, col) for col in cols)
                 for row in ([(k, x) for k, x in enumerate(r) if x] for r in ra)), da * db


def _prows_rat_mul(a: tuple, m: tuple) -> tuple:
    """a m for a polynomial matrix a in the (rows, den) form and a rational
    matrix m as linalg's integer (rows, den); sparse in both."""
    (ra, da), (rm, dm) = a, m
    cols = [[(k, w) for k, w in enumerate(col) if w] for col in zip(*rm)]
    out = []
    for row in ra:
        entries = []
        for col in cols:
            acc = {}
            get = acc.get
            for k, w in col:
                x = row[k]
                if x:
                    for e, c in x.items():
                        acc[e] = get(e, 0) + c * w
            entries.append(_nonzero(acc))
        out.append(tuple(entries))
    return tuple(out), da * dm


def _prows_congruence(a: tuple, m: tuple) -> tuple:
    """a m a^T for a polynomial matrix a in the (rows, den) form and a
    symmetric rational matrix m as linalg's integer (rows, den): the upper
    triangle is summed and mirrored."""
    (rp, dp), (ra, da) = _prows_rat_mul(a, m), a
    rows = [[(k, x) for k, x in enumerate(r) if x] for r in rp]
    cols = [{k: y for k, y in enumerate(r) if y} for r in ra]
    size = len(ra)
    out = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            out[i][j] = out[j][i] = _dot(rows[i], cols[j])
    return tuple(map(tuple, out)), dp * da


def _prows_times(a: tuple, num: dict, den: int) -> tuple:
    """a p for a polynomial matrix a in the (rows, den) form and a polynomial
    p = num / den given by its integer term dict, in the same form."""
    rows, da = a
    return tuple(tuple(_nonzero(_mul_into({}, num, x)) if x else {} for x in row)
                 for row in rows), da * den


def _prows_combination(parts) -> tuple:
    """sum w a over (w, a) pairs, w a nonzero rational and a a polynomial
    matrix in the (rows, den) form, all of one shape, in the same form over
    the lcm of the scaled denominators; all-zero parts are left out unless
    every part is (the first then keeps the shape)."""
    parts = [part for part in parts if any(map(any, part[1][0]))] or parts[:1]
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    scaled = []
    for w, (rows, den) in parts:
        w = rat(w)
        scaled.append((int(w.numerator), int(w.denominator) * den, rows))
    common = lcm(*(den for _, den, _ in scaled))
    out = [[{} for _ in row] for row in scaled[0][2]]
    for k, den, rows in scaled:
        k *= common // den
        for acc_row, row in zip(out, rows):
            for acc, x in zip(acc_row, row):
                get = acc.get
                for e, c in x.items():
                    acc[e] = get(e, 0) + c * k
    return tuple(tuple(_nonzero(acc) for acc in row) for row in out), common


def monomials_up_to(nvars: int, degree: int):
    """All monomial Polynomials of total degree <= degree (including 1), by
    degree and then in the order of combinations_with_replacement.  Each
    call returns a new list; the Polynomials in it are built once per
    (nvars, degree) and shared between calls."""
    return list(_monomials(nvars, degree))


@lru_cache(maxsize=64)
def _monomials(nvars: int, degree: int) -> tuple:
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            out.append(_raw(nvars, {tuple(map(combo.count, range(nvars))): 1}, 1))
    return tuple(out)
