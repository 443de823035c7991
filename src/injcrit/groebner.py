"""Buchberger's algorithm, normal forms, and syzygies over the polynomial ring.

All computations are homogeneous-only and work on elements of graded free
modules (a polynomial ideal is the rank-1 case).  The term order is
grevlex with position over term (poly.term_key), the standard order for
graded computations (Bayer and Stillman, Duke Math. J. 54, 1987; Greuel
and Pfister, sec. 2.3, cited below); there is no other.  Quotient rings
are handled upstream by augmenting generator lists with ideal multiples
of the basis vectors.

Every basis is grown in a GBuilder.  MembershipTester is the one place
that seeds a builder from generators (lowest degree first, each reduced
before it is installed), optionally on top of a known Groebner basis
whose pairs need no processing, and completes it.  It refuses an
inhomogeneous generator, so every seeded basis, buchberger's and the
syzygy run's included, is homogeneous.  buchberger returns that
builder's reduced basis, and the tester itself answers normal-form and
membership queries and takes further elements.

Pairs are processed lowest degree first, and two criteria skip pairs
whose S-vector is known to reduce to zero: the product criterion (coprime
leads, rank 1 only) and Buchberger's chain criterion (a third element at
the same position whose lead divides the pair's lcm, with neither of its
pairs with the two still queued).  As the input is homogeneous,
complete(d) processes only the pairs of degree <= d; the basis is then
complete up to degree d, which decides membership of every element of
degree <= d.  The sieve in modules.minimal_generators completes that far,
one candidate degree at a time.  A reduced basis is unique, so neither
the criteria nor the truncation change any result.

Syzygies come from one tagged Groebner basis run, in the "modulo"
construction (Greuel and Pfister, A Singular Introduction to Commutative
Algebra, 2nd ed., 2008, sec. 2.8; Kreuzer and Robbiano, Computational
Commutative Algebra 1, 2000, sec. 3.3).  Only the map's columns are
tagged: column c_j enters as [c_j | e_j], with a fresh tag position e_j in
the degree of the j-th source generator, and each relation n enters
untagged as [n | 0].  These generate the module U of pairs
(phi(a) + n, a).  Under pot the target positions dominate the tags, so by
elimination the basis elements whose lead sits on a tag are supported on
the tags alone and form a Groebner basis of U's part there,
{(0, a) : phi(a) in <relations>}: the preimage of the relations, read on
the source.  A tail reduction of such an element only ever meets reducers
of the same kind, so reduced_basis(from_pos) tail-reduces the tag block
alone and returns the matching part of the full reduced basis.  A zero
column is simply [0 | e_j] and yields its unit syzygy.  Pairs among the
untagged relations yield only untagged elements, so the syzygies among
the relations themselves, which no caller wants, are never formed.

Inside a GBuilder each term (pos, mono) is one int, a packed monomial
(Bachmann and Schoenemann, "Monomial representations for Groebner bases
computations", ISSAC 1998).  From the top it holds LIMIT - pos, the
total degree, then LIMIT - e_i for each exponent, last variable first.
Every field below the position is WIDTH bits wide, and its top bit is a
guard, clear in every valid code.  Integer order is then the term order,
so a lead term is max() of the codes; multiplying a reducer by m / lead
adds m - lead to each of its packed terms; and lead | m is one subtraction
and mask on the exponent guards (Packing.divides).  A basis element is
kept only packed, as its lead code and monic tail.  Terms are encoded
where they enter (normal_form, _append, the lcm of an S-pair) and decoded
where they leave (normal_form's result, the S-vector handed to it, the
elements reduced_basis returns, the (pos, mono) leads in _lead) through
two tables per variable count that fill themselves on first use.  Poly,
Vec and every signature keep exponent tuples.

A term of degree above LIMIT = 2^15 - 1 does not fit, and raises
MonomialLimitError instead of wrapping; the session layer reports it as a
cap, "undecided".  Encoding checks the degree.  A shifted term can only
outgrow its fields by passing LIMIT, and then its lowest bad field shows
its guard bit.  Distinct terms keep distinct codes even so, so
cancellation stays exact until normal_form takes such a term as its
largest, finds the guard and raises; decoding one raises too.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .poly import FreeModule, Vec, mono_coprime, mono_deg, mono_lcm, term_key

WIDTH = 16                      # bits per packed field, its top bit a guard
LIMIT = (1 << (WIDTH - 1)) - 1  # the largest degree a packed term may have
_FIELD = (1 << WIDTH) - 1


class InhomogeneousInputError(ValueError):
    pass


class MonomialLimitError(ArithmeticError):
    """A term of degree above LIMIT, which a packed field cannot hold."""

    def __init__(self):
        super().__init__(f"a term exceeds degree {LIMIT}, the largest a "
                         "packed monomial holds")


class _Table(dict):
    """A dict that fills a missing entry by calling fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        return self.fill(key)


class Packing:
    """The terms (pos, mono) over n variables as ints, both ways.

    code[term] is the packed int and term[code] the term back; both tables
    fill themselves on first use and serve every builder over n variables.
    Encoding refuses a degree above LIMIT, and decoding a code with a
    guard bit set, with MonomialLimitError.
    """

    def __init__(self, n: int):
        self.n = n
        self.pos_shift = (n + 1) * WIDTH
        self.exp_guards = sum(1 << (WIDTH * f + WIDTH - 1) for f in range(n))
        self.guards = self.exp_guards | 1 << (WIDTH * n + WIDTH - 1)
        self.code = _Table(self._encode)
        self.term = _Table(self._decode)

    def _encode(self, term) -> int:
        pos, mono = term
        deg = sum(mono)
        if deg > LIMIT:
            raise MonomialLimitError()
        code = (LIMIT - pos) << WIDTH | deg
        for e in reversed(mono):
            code = code << WIDTH | LIMIT - e
        self.code[term] = code
        self.term[code] = term
        return code

    def _decode(self, code: int):
        if code & self.guards:
            # a shifted term whose degree or some exponent left its field
            raise MonomialLimitError()
        term = (LIMIT - (code >> self.pos_shift),
                tuple(LIMIT - (code >> WIDTH * f & _FIELD)
                      for f in range(self.n)))
        self.code[term] = code
        self.term[code] = term
        return term

    def divides(self, a: int, b: int) -> bool:
        """True iff the monomial of code a divides that of code b, both
        at one position: no complemented exponent field of a is below
        b's, so subtracting b from a with its guards set clears none."""
        return ((a | self.exp_guards) - b) & self.exp_guards == self.exp_guards


_PACKINGS = {}   # n -> Packing


def packing(n: int) -> Packing:
    """The one Packing of terms over n variables."""
    if n not in _PACKINGS:
        _PACKINGS[n] = Packing(n)
    return _PACKINGS[n]


class GBuilder:
    """Incremental Groebner basis of a homogeneous submodule.

    Elements can be installed after completion; the pair queue is kept and
    re-completed on demand, up to a degree if asked, which makes
    minimal-generator sieves cheap.
    """

    def __init__(self, module: FreeModule):
        self.module = module
        self._lead = []          # (pos, mono) per basis element
        self._by_pos = {}        # pos -> list of basis indices
        self._pairs = []         # heap of (degree, i, j, lcm term), i < j
        self._queued = set()     # the (i, j) still in the heap
        self._packing = packing(module.ring.n)
        self._packed = []        # (lead code, [(code, coeff)] of the tail)
        self._reducers = {}      # position field -> [(lead | exp guards,
        #                          lead code, tail)], in basis order

    # -- reduction ---------------------------------------------------------
    def normal_form(self, v: Vec) -> Vec:
        """Fully reduced remainder of v against the current basis.

        Raises MonomialLimitError if v, or a product met on the way, has
        a term of degree above LIMIT.
        """
        pk = self._packing
        code, term = pk.code, pk.term
        rem = self._remainder({code[t]: c for t, c in v.terms.items()})
        return Vec(self.module, {term[t]: c for t, c in rem.items()})

    def _remainder(self, work: dict) -> dict:
        """normal_form on packed terms: work, {code: coeff}, is consumed,
        and the remainder comes back with its codes in decreasing order."""
        pk = self._packing
        p = self.module.ring.p
        guards, exp_guards, pos_shift = pk.guards, pk.exp_guards, pk.pos_shift
        reducers = self._reducers
        rem = {}
        while work:
            t = max(work)
            if t & guards:
                raise MonomialLimitError()
            c = work.pop(t)
            for lg, lead, tail in reducers.get(t >> pos_shift, ()):
                if (lg - t) & exp_guards == exp_guards:  # Packing.divides
                    shift = t - lead
                    for g, gc in tail:
                        tt = g + shift
                        val = (work.get(tt, 0) - c * gc) % p
                        if val:
                            work[tt] = val
                        else:
                            del work[tt]
                    break
            else:
                rem[t] = c
        return rem

    # -- completion --------------------------------------------------------
    def _push_pairs(self, new_index: int):
        pos_new, lm_new = self._lead[new_index]
        shift = self.module.shifts[pos_new]
        for i in self._by_pos.get(pos_new, ()):
            if i == new_index:
                continue
            lm_i = self._lead[i][1]
            if self.module.rank == 1 and mono_coprime(lm_new, lm_i):
                continue  # product criterion, valid in the ideal case
            lcm = mono_lcm(lm_new, lm_i)
            heapq.heappush(self._pairs, (mono_deg(lcm) + shift, i, new_index,
                                         (pos_new, lcm)))
            self._queued.add((i, new_index))

    def _append(self, v: Vec) -> int:
        """Register v, made monic, as a reducer; push no S-pairs."""
        pk = self._packing
        terms = {pk.code[t]: c for t, c in v.terms.items()}
        lead = max(terms)
        c = terms.pop(lead)
        if c != 1:
            p = self.module.ring.p
            inv = self.module.ring.field.inv(c)
            terms = {t: d * inv % p for t, d in terms.items()}
        tail = list(terms.items())
        idx = len(self._packed)
        lead_term = pk.term[lead]
        self._lead.append(lead_term)
        self._packed.append((lead, tail))
        self._by_pos.setdefault(lead_term[0], []).append(idx)
        self._reducers.setdefault(lead >> pk.pos_shift, []).append(
            (lead | pk.exp_guards, lead, tail))
        return idx

    def install(self, v: Vec):
        """Register v, made monic, and queue its S-pairs.

        v must be nonzero; it should be in normal form against the basis.
        """
        self._push_pairs(self._append(v))

    def complete(self, degree: Optional[int] = None):
        """Process the queued pairs, or only those of degree <= degree."""
        pairs = self._pairs
        while pairs and (degree is None or pairs[0][0] <= degree):
            _, i, j, lcm_term = heapq.heappop(pairs)
            self._queued.remove((i, j))
            lcm = self._packing.code[lcm_term]
            if self._chain_covers(i, j, lcm):
                continue
            s = self._spair(i, j, lcm)
            nf = self.normal_form(s)
            if not nf.is_zero():
                self.install(nf)

    def _chain_covers(self, i: int, j: int, lcm: int) -> bool:
        """Buchberger's chain criterion: some k at the same position has a
        lead dividing lcm, the code of lcm(i, j), and neither (i, k) nor
        (j, k) is queued.
        """
        divides = self._packing.divides
        packed, queued = self._packed, self._queued
        for k in self._by_pos[self._lead[i][0]]:
            if (k != i and k != j and divides(packed[k][0], lcm)
                    and (min(i, k), max(i, k)) not in queued
                    and (min(j, k), max(j, k)) not in queued):
                return True
        return False

    def _spair(self, i: int, j: int, lcm: int) -> Vec:
        """The S-vector of i and j, built from their packed tails: both
        leads shift onto lcm, the code of their lcm, and cancel."""
        (lead_i, tail_i), (lead_j, tail_j) = self._packed[i], self._packed[j]
        shift = lcm - lead_i
        work = {g + shift: c for g, c in tail_i}
        shift = lcm - lead_j
        p = self.module.ring.p
        for g, c in tail_j:
            t = g + shift
            val = (work.get(t, 0) - c) % p
            if val:
                work[t] = val
            else:
                del work[t]
        term = self._packing.term
        return Vec(self.module, {term[t]: c for t, c in work.items()})

    # -- output ------------------------------------------------------------
    def reduced_basis(self, from_pos: int = 0) -> list:
        """Reduced, deterministically sorted Groebner basis.

        Only the elements whose lead sits at a position >= from_pos are
        built and returned.  Under pot such an element, and every reducer
        its tail meets, lives on positions >= from_pos alone, so the
        result is the matching sublist of the full reduced basis.

        Each element of the minimal basis keeps its lead, and its packed
        tail is reduced against this builder; only the result is decoded.
        The builder's elements form a Groebner basis, so the fully reduced
        remainder of the tail is the one with no term in the lead module,
        whichever reducer fires first, a redundant one included: the
        result is what reducing against the other minimal elements alone
        gives.  The element never fires on its own tail: every term met
        while reducing the tail is smaller than its lead, and a term
        divisible by the lead at the same position is at least the lead
        in any module term order.
        """
        divides = self._packing.divides
        packed = self._packed
        term = self._packing.term
        reduced = []
        for i, lead_term in enumerate(self._lead):
            if lead_term[0] < from_pos:
                continue
            lead, tail = packed[i]
            # minimalize: skip an element whose lead another lead divides
            if any(j != i and divides(packed[j][0], lead)
                   and (packed[j][0] != lead or j < i)
                   for j in self._by_pos[lead_term[0]]):
                continue
            rest = self._remainder(dict(tail))
            reduced.append((lead_term, Vec(self.module, {
                lead_term: 1, **{term[t]: c for t, c in rest.items()}})))
        reduced.sort(key=lambda e: (_max_degree(e[1]), term_key(e[0])))
        return [g for _, g in reduced]


def _max_degree(v: Vec) -> int:
    return max(mono_deg(m) + v.module.shifts[pos] for pos, m in v.terms)


class MembershipTester(GBuilder):
    """A builder seeded from generators, lowest degree first, and completed.

    The nonzero generators must be homogeneous, or InhomogeneousInputError
    is raised.  basis, if given, must already be a Groebner basis of the
    submodule it spans; its elements are registered as reducers before
    the generators are reduced, and no pairs among them are queued.
    """

    def __init__(self, gens, module: FreeModule, basis=()):
        super().__init__(module)
        gens = [g for g in gens if not g.is_zero()]
        for g in gens:
            if not g.is_homogeneous():
                raise InhomogeneousInputError(f"inhomogeneous generator {g}")
        for g in basis:
            self._append(g)
        for g in sorted(gens, key=_max_degree):
            nf = self.normal_form(g)
            if not nf.is_zero():
                self.install(nf)
        self.complete()

    def contains(self, v: Vec) -> bool:
        return self.normal_form(v).is_zero()


def buchberger(gens, module: FreeModule) -> list:
    """Reduced Groebner basis of the submodule generated by gens, which
    must be homogeneous."""
    return MembershipTester(gens, module).reduced_basis()


def syzygies(columns, source: FreeModule, target: FreeModule,
             relations=()) -> list:
    """Generators of {a in source : sum a_j * columns_j in <relations>}.

    columns[j], an element of target, is the image of the j-th generator
    of source and has its degree (or is zero); relations are elements of
    target.  The result is the reduced Groebner basis of that preimage
    over S, as elements of source: the tag block of a basis in which only
    the columns carry tags (see the module docstring).
    """
    ring = target.ring
    r = target.rank
    ext = FreeModule(ring, target.shifts + source.shifts)
    gens = [Vec(ext, {**c.terms, (r + j, ring._zero_mono): 1})
            for j, c in enumerate(columns)]
    gens += [Vec(ext, dict(n.terms)) for n in relations]
    return [Vec(source, {(pos - r, m): c for (pos, m), c in g.terms.items()})
            for g in MembershipTester(gens, ext).reduced_basis(from_pos=r)]
