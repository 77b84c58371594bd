"""Partial actions drawn as global actions restricted to a finite set.

By the globalization theorem (Abadie, J. Funct. Anal. 2003; Dokuchaev-Exel,
Trans. AMS 2005) every partial action on X is the restriction to X of a
global action on some Y containing X: X_t = X & t.X and h_t(x) = t.x. So
drawing Y and then X reaches every partial action. Here Y is

- for a cyclic or table group G, a disjoint union of coset spaces G/H, one
  copy per H drawn, where H is trivial, cyclic or all of G (t.gH = tgH);
- for the integers, copies of Z acted on by translation, cut to a window.

Each draw carries what the global action says about X, derived from the
copies alone, without skewrel: the R-classes are the orbits met by X (one per
copy), |R| = sum |C|^2, the action is free exactly when every point of X has
a trivial stabiliser (its copy has H = {e}), and F0(R) has 2^k ideals for k
classes. ``mutate`` breaks a drawn action by dropping one pair or redirecting
one image, the negative cases of the validator's differential test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from skewrel.actions import PartialAction
from skewrel.groups import GroupElement, GroupSpec

from helpers import group_elements


def permutation_group(perms) -> GroupSpec:
    """The table group of a set of permutation tuples closed under composition,
    (p*q)(i) = p(q(i)), as partial bijections compose."""
    perms = sorted(perms)
    names = ["".join(map(str, p)) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(len(p)))] for q in perms] for p in perms]
    return GroupSpec.from_table(names, names[index[tuple(range(len(perms[0])))]], table)


S3 = permutation_group(itertools.permutations(range(3)))
KLEIN_FOUR = permutation_group([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])
FINITE_GROUPS = [GroupSpec.cyclic(n) for n in range(1, 9)] + [S3, KLEIN_FOUR]


@dataclass
class Drawn:
    """A restricted global action and what the copies predict about it."""

    action: PartialAction
    classes: list           # orbits met by X: lists of labels in carrier order, by least member
    free: bool

    @property
    def relation_size(self) -> int:
        return sum(len(block) ** 2 for block in self.classes)

    @property
    def ideal_count(self) -> int:
        return 2 ** len(self.classes)


def _subgroup(rng, group: GroupSpec) -> frozenset:
    """{e} half the time, else the cyclic subgroup of a random element or, now and then, G."""
    elements = group_elements(group)
    if rng.random() < 0.5:
        return frozenset([group.identity()])
    if rng.random() < 0.15:
        return frozenset(elements)
    h, power, sub = rng.choice(elements), group.identity(), set()
    while power not in sub:
        sub.add(power)
        power = power * h
    return frozenset(sub)


def _finite_points(rng, group: GroupSpec, copies: int, free_only: bool):
    """[(copy, coset)], the copy's subgroup {copy: H}, and the action t.(c, gH) = (c, tgH)."""
    subgroups = {c: frozenset([group.identity()]) if free_only else _subgroup(rng, group)
                 for c in range(copies)}
    points = [(c, frozenset(g * k for k in sub))
              for c, sub in subgroups.items() for g in group_elements(group)]
    points = list(dict.fromkeys(points))                   # each coset once

    def act(t, point):
        c, coset = point
        return c, frozenset(t * g for g in coset)
    return points, subgroups, act


def draw(rng, group: GroupSpec, max_points=8, free_only=False, max_copies=3) -> Drawn:
    """A partial action of group on at most max_points points of at most
    max_copies copies, with its prediction.

    Inverse entries are listed explicitly or left to be synthesized at random;
    the carrier order is shuffled, so classes interleave in it.
    """
    copies = rng.randint(1, max_copies)
    if group.kind == "integers":
        window = range(-6, 7)
        universe = [(c, k) for c in range(copies) for k in window]
        chosen = rng.sample(universe, rng.randint(0, min(max_points, len(universe))))
        trivial = {c: True for c in range(copies)}
        elements = sorted({b - a for (_c, a), (_d, b) in itertools.product(chosen, repeat=2)})
        elements = [group.element(t) for t in elements if t]

        def act(t, point):
            return point[0], point[1] + t.payload
        label = {p: "z%d:%d" % p for p in universe}
    else:
        universe, subgroups, act = _finite_points(rng, group, copies, free_only)
        chosen = rng.sample(universe, rng.randint(0, min(max_points, len(universe))))
        trivial = {c: len(sub) == 1 for c, sub in subgroups.items()}
        elements = [t for t in group_elements(group) if not t.is_identity()]
        label = {p: "%d:%s" % (p[0], ",".join(sorted(map(str, p[1])))) for p in universe}
    kept = set(chosen)
    maps = {}
    for t in elements:
        if t.inverse() in maps and rng.random() < 0.5:
            continue                                       # synthesized from h_{t^-1}
        pairs = {label[p]: label[act(t, p)] for p in chosen if act(t, p) in kept}
        if pairs:
            maps[t] = pairs
    carrier = [label[p] for p in chosen]
    action = PartialAction(group, carrier, maps)
    by_copy: dict = {}
    for p in chosen:
        by_copy.setdefault(p[0], []).append(label[p])
    position = {x: i for i, x in enumerate(carrier)}
    classes = sorted((sorted(block, key=position.__getitem__) for block in by_copy.values()),
                     key=lambda block: position[block[0]])
    free = all(trivial[p[0]] for p in chosen)
    return Drawn(action, classes, free)


def draw_any(rng, max_points=8, free_only=False, max_copies=3) -> Drawn:
    """A draw over a random group among the finite ones and the integers."""
    groups = FINITE_GROUPS + [GroupSpec.integers()]
    return draw(rng, rng.choice(groups), max_points, free_only, max_copies)


def mutate(rng, action: PartialAction) -> PartialAction | None:
    """The action with one pair of one stored h_t dropped or its image redirected
    to a point outside h_t's image; h_{t^-1} keeps its mirror pair or loses it.
    The result is usually, not always, invalid. None when no h_t is stored."""
    maps = {t.inverse(): dict(h) for t, h in action.pulls.items() if t != action.group.identity()}
    if not maps:
        return None
    t = rng.choice(sorted(maps, key=GroupElement.sort_key))
    x = rng.choice(sorted(maps[t]))
    y = maps[t][x]
    unused = [z for z in action.carrier if z not in maps[t].values()]
    if unused and rng.random() < 0.5:
        maps[t][x] = rng.choice(unused)
    else:
        del maps[t][x]
    if t.inverse() != t and rng.random() < 0.5:
        maps[t.inverse()].pop(y, None)
        if rng.random() < 0.5:
            del maps[t.inverse()]                          # synthesized from the new h_t
    return PartialAction(action.group, action.carrier, maps)


def reference_elements(action: PartialAction) -> list:
    """Group elements a reference validator must check: the whole finite group,
    or for the integers the window |t| <= 2m around the listed |t| <= m, which
    holds the closure set."""
    group = action.group
    if group.kind != "integers":
        elements = group_elements(group)
    else:
        m = max((abs(t.payload) for t in action.pulls), default=0)
        elements = [group.element(k) for k in range(-2 * m, 2 * m + 1)]
    return sorted(elements, key=GroupElement.sort_key)
