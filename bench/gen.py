"""Seeded input generators for the benchmark, independent of skewrel.

Each family returns a ``Family``: the action document the CLI reads, plus the
invariants the benchmark expects (points, listed maps, freeness, R with its
witnesses, the classes by union-find, |R| = sum |C|^2 and the ideal count
2^k), all computed here without importing skewrel. Sizes are fixed by the
arguments; the seed only permutes the carrier, picks the restricted subsets
and draws coefficients, so every seed costs the program about the same work.

Families:
  cyc(n, k)        Z_n acting freely on k orbits of size n (a global action).
  chain(m)         Z acting by partial shifts on m points: one class, |R| = m^2.
  s3_restricted    S3 acting by left multiplication on one copy of S3 per
                   entry of ``sizes``, restricted to a seeded subset of the
                   stated size in each copy: partial, one class per copy
                   (global when every size is 6).

Elements are dense: every term t carries a coefficient at every point of X_t,
which is exactly one coefficient per pair of R.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class Family:
    """A generated action document and what the program must report on it."""

    name: str
    doc: dict
    carrier: list            # labels in carrier order
    group_elements: list     # every element name, identity first
    inverse: dict            # name -> inverse name
    maps: dict               # name -> {x: h_t(x)} for each non-identity t with X_t nonempty
    modulus: int | None      # None over Q
    witness: dict = field(default_factory=dict)   # (x, y) -> name of the unique t
    classes: list = field(default_factory=list)   # carrier-ordered, by least member

    @property
    def identity(self) -> str:
        return self.group_elements[0]

    @property
    def points(self) -> int:
        return len(self.carrier)

    @property
    def relation_size(self) -> int:
        return sum(len(block) ** 2 for block in self.classes)

    @property
    def ideal_count(self) -> int:
        return 1 << len(self.classes)

    def subset(self, t: str) -> set:
        """X_t: the targets of h_t."""
        if t == self.identity:
            return set(self.carrier)
        return set(self.maps.get(t, {}).values())

    def apply(self, t: str, x: str) -> str:
        return x if t == self.identity else self.maps[t][x]


def _finish(fam: Family) -> Family:
    """Derive R, witnesses and classes (union-find) from the maps."""
    parent = {x: x for x in fam.carrier}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    witness = {(x, x): fam.identity for x in fam.carrier}
    for t, pairs in fam.maps.items():
        for x, y in pairs.items():
            if x == y or (x, y) in witness:
                raise ValueError("generated action is not free at %s" % x)
            witness[(x, y)] = t
            parent[find(x)] = find(y)
    blocks: dict = {}
    for x in fam.carrier:
        blocks.setdefault(find(x), []).append(x)
    fam.classes = list(blocks.values())      # carrier order, by least member
    fam.witness = witness
    if len(witness) != fam.relation_size:
        raise ValueError("R is not the union of C x C over the classes")
    return fam


def _field_doc(modulus):
    return {"kind": "rationals"} if modulus is None else {"kind": "prime-field",
                                                          "modulus": modulus}


def _maps_doc(fam: Family, listed) -> list:
    index = {x: i for i, x in enumerate(fam.carrier)}
    return [{"t": t, "pairs": [[x, fam.maps[t][x]]
                               for x in sorted(fam.maps[t], key=index.__getitem__)]}
            for t in listed]


def cyc(n: int, k: int, rng: random.Random, modulus=None) -> Family:
    """Z_n acting freely on k orbits; point o<j>.<i> moves to o<j>.<i+t>."""
    carrier = ["o%d.%d" % (j, i) for j in range(k) for i in range(n)]
    rng.shuffle(carrier)
    names = [str(t) for t in range(n)]
    maps = {str(t): {"o%d.%d" % (j, i): "o%d.%d" % (j, (i + t) % n)
                     for j in range(k) for i in range(n)}
            for t in range(1, n)}
    name = "cyc-%d-%d" % (n, k) + ("" if modulus is None else "-gf%d" % modulus)
    fam = Family(name, {}, carrier, names,
                 {str(t): str(-t % n) for t in range(n)}, maps, modulus)
    fam.doc = {"field": _field_doc(modulus), "group": {"kind": "cyclic", "n": n},
               "set": carrier, "maps": _maps_doc(fam, names[1:])}
    return _finish(fam)


def chain(m: int, rng: random.Random, modulus=None) -> Family:
    """Z acting on points q0..q<m-1> by h_t(q<i>) = q<i+t> where both exist.

    Only h_t for t > 0 is listed; the program derives h_{-t}.
    """
    carrier = ["q%d" % i for i in range(m)]
    rng.shuffle(carrier)
    shifts = list(range(1, m)) + [-t for t in range(1, m)]
    maps = {str(t): {"q%d" % i: "q%d" % (i + t) for i in range(m) if 0 <= i + t < m}
            for t in shifts}
    names = ["0"] + [str(t) for t in shifts]
    fam = Family("chain-%d" % m, {}, carrier, names,
                 {t: str(-int(t)) for t in names}, maps, modulus)
    fam.doc = {"field": _field_doc(modulus), "group": {"kind": "integers"},
               "set": carrier, "maps": _maps_doc(fam, [str(t) for t in range(1, m)])}
    return _finish(fam)


def _perm_name(p) -> str:
    return "".join(map(str, p))


def s3_restricted(sizes, rng: random.Random, modulus=None) -> Family:
    """S3 (as a Cayley table) acting on copy c of S3 by g.(c, x) = (c, g x),
    restricted to a seeded subset of sizes[c] elements of each copy."""
    perms = list(itertools.permutations(range(3)))      # identity first
    names = [_perm_name(p) for p in perms]

    def compose(g, h):
        return tuple(g[h[i]] for i in range(3))

    table = [[_perm_name(compose(g, h)) for h in perms] for g in perms]
    inverse = {_perm_name(g): _perm_name(h) for g in perms for h in perms
               if compose(g, h) == perms[0]}
    members = set()
    for c, size in enumerate(sizes):
        for p in rng.sample(perms, size):
            members.add((c, p))
    label = {(c, p): "c%d.%s" % (c, _perm_name(p)) for (c, p) in members}
    carrier = sorted(label.values())
    rng.shuffle(carrier)
    maps = {}
    for g in perms[1:]:
        pairs = {label[(c, p)]: label[(c, compose(g, p))]
                 for (c, p) in members if (c, compose(g, p)) in members}
        if pairs:
            maps[_perm_name(g)] = pairs
    fam = Family("s3-%d-of-%d" % (len(carrier), 6 * len(sizes)), {}, carrier, names,
                 inverse, maps, modulus)
    listed = [t for t in names[1:] if t in maps]
    fam.doc = {"field": _field_doc(modulus),
               "group": {"kind": "table", "elements": names, "identity": names[0],
                         "table": table},
               "set": carrier, "maps": _maps_doc(fam, listed)}
    return _finish(fam)


# --- scalars and dense elements -------------------------------------------

def parse_scalar(text: str, modulus):
    """The value of a CLI scalar literal: a Fraction over Q, a residue mod p."""
    value = Fraction(text)
    if modulus is None:
        return value
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def _random_scalar(rng: random.Random, modulus):
    if modulus is not None:
        return rng.randrange(1, modulus)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def dense_skew(fam: Family, rng: random.Random) -> dict:
    """{(t, x): value} with a nonzero value at every t and x in X_t."""
    return {(t, x): _random_scalar(rng, fam.modulus)
            for t in fam.group_elements for x in sorted(fam.subset(t))}


def skew_doc(fam: Family, u: dict) -> list:
    index = {x: i for i, x in enumerate(fam.carrier)}
    out = []
    for t in fam.group_elements:
        xs = sorted((x for (s, x) in u if s == t), key=index.__getitem__)
        if xs:
            out.append({"t": t, "coeffs": {x: str(u[(t, x)]) for x in xs}})
    return out


def rel_doc(fam: Family, f: dict) -> list:
    index = {x: i for i, x in enumerate(fam.carrier)}
    return [{"x": x, "y": y, "value": str(f[(x, y)])}
            for (x, y) in sorted(f, key=lambda p: (index[p[0]], index[p[1]]))]


def gamma(fam: Family, u: dict) -> dict:
    """Gamma(a delta_t) is a(x) at (x, h_{t^-1}(x)); raises KeyError when a
    coefficient sits outside X_t."""
    out: dict = {}
    for (t, x), c in u.items():
        pair = (x, fam.apply(fam.inverse[t], x))
        out[pair] = _add(out.get(pair, 0), c, fam.modulus)
    return {p: c for p, c in out.items() if c != 0}


def convolve(fam: Family, f: dict, g: dict) -> dict:
    """(f * g)(x, z) = sum over y of f(x, y) g(y, z)."""
    by_first: dict = {}
    for (y, z), d in g.items():
        by_first.setdefault(y, []).append((z, d))
    out: dict = {}
    for (x, y), c in f.items():
        for z, d in by_first.get(y, ()):
            out[(x, z)] = _add(out.get((x, z), 0), c * d, fam.modulus)
    return {p: c for p, c in out.items() if c != 0}


def _add(a, b, modulus):
    return a + b if modulus is None else (a + b) % modulus
