"""Seeded benchmark inputs together with their ground truth.

Nothing here imports ultrabase: set-up and the truth the outputs are
checked against must not depend on the code under test. Only the standard
library and numpy are used.

A tree is ``(dist, children)`` where each child is a subtree or a leaf
index, and ``dist`` is the distance between any two leaves whose lowest
common ancestor is that node. Partner classes are the leaf children of one
node when there are at least two of them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WITNESS_CAP = 16  # violations ultrabase lists before it stops searching


@dataclass
class Case:
    """One generated input: its text, and the truth about it.

    ``codes[i, j]`` indexes ``values``, which is sorted ascending with
    ``values[0] == 0``, so comparing codes compares distances. ``classes``
    are the partner classes of the input, or for an invalid input those of
    its subdominant ultrametric, None when the generator does not know them.
    """

    kind: str
    fmt: str  # "csv" or "newick"
    text: str
    labels: list[str]
    values: list[Fraction]
    codes: np.ndarray
    classes: list[tuple[str, ...]] | None
    valid: bool = True
    perturbed: tuple[str, str] | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim1(self) -> int:
        return sum(len(c) - 1 for c in self.classes)

    @property
    def dim2(self) -> int:
        return sum(len(c) for c in self.classes)

    @property
    def basis_count(self) -> int:
        return math.prod(len(c) for c in self.classes)

    @property
    def first_basis(self) -> list[str]:
        """The lexicographically first metric basis: each class minus its largest label."""
        return sorted(lab for c in self.classes for lab in c[:-1])


def sorted_classes(groups) -> list[tuple[str, ...]]:
    return sorted(tuple(sorted(g)) for g in groups)


def _spell(value: Fraction) -> str:
    """Plain decimal spelling of a value with a power-of-ten denominator."""
    digits = 0
    while (value * 10**digits).denominator != 1:
        digits += 1
    scaled = int(value * 10**digits)
    if digits == 0:
        return str(scaled)
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _heights(rng: random.Random, count: int) -> list[Fraction]:
    """``count`` distinct merge heights with three decimals, largest first."""
    return sorted((Fraction(v, 1000) for v in rng.sample(range(1, 100_000), count)), reverse=True)


def _dendrogram(rng: random.Random, leaves: list[int], heights: list[Fraction], level: int = 0):
    """Split a block 2-4 ways per level; the last level is one uniform cluster."""
    if len(leaves) == 1:
        return leaves[0]
    if level == len(heights) - 1:
        return (heights[level], list(leaves))
    k = rng.randint(2, min(4, len(leaves)))
    cuts = sorted(rng.sample(range(1, len(leaves)), k - 1))
    parts = [leaves[a:b] for a, b in zip([0, *cuts], [*cuts, len(leaves)])]
    return (heights[level], [_dendrogram(rng, p, heights, level + 1) for p in parts])


def _walk(tree):
    """Internal nodes in post-order, without recursion."""
    order, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            continue
        order.append(node)
        stack.extend(node[1])
    return reversed(order)


def _tree_truth(tree, n: int):
    """Codes matrix, sorted values and partner classes (as leaf indices) of a tree."""
    dists = sorted({node[0] for node in _walk(tree)})
    code_of = {d: c + 1 for c, d in enumerate(dists)}
    codes = np.zeros((n, n), dtype=np.int32)
    members: dict[int, list[int]] = {}
    classes = []
    for node in _walk(tree):
        groups = [[c] if isinstance(c, int) else members.pop(id(c)) for c in node[1]]
        code = code_of[node[0]]
        for a, b in itertools.combinations(groups, 2):
            codes[np.ix_(a, b)] = code
            codes[np.ix_(b, a)] = code
        leaf_children = [c for c in node[1] if isinstance(c, int)]
        if len(leaf_children) >= 2:
            classes.append(leaf_children)
        members[id(node)] = [x for g in groups for x in g]
    return codes, [Fraction(0), *dists], classes


def _csv(labels: list[str], spelled: list[str], codes: np.ndarray) -> str:
    lines = [",".join(labels)]
    lines += [",".join(spelled[c] for c in row) for row in codes.tolist()]
    return "\n".join(lines) + "\n"


def _labels(rng: random.Random, n: int, prefix: str) -> list[str]:
    """Zero-padded labels in a random order, so label order says nothing of the tree."""
    width = len(str(n))
    labels = [f"{prefix}{i + 1:0{width}d}" for i in range(n)]
    rng.shuffle(labels)
    return labels


def dendrogram_case(rng: random.Random, n: int, levels: int, kind: str = "dendrogram") -> Case:
    """A valid distance CSV of a random dendrogram with ``levels`` distinct heights."""
    labels = _labels(rng, n, "p")
    tree = _dendrogram(rng, list(range(n)), _heights(rng, levels))
    codes, values, classes = _tree_truth(tree, n)
    text = _csv(labels, [_spell(v) for v in values], codes)
    named = sorted_classes([labels[i] for i in c] for c in classes)
    return Case(kind, "csv", text, labels, values, codes, named)


def perturbed_case(rng: random.Random, n: int, levels: int) -> Case:
    """A dendrogram CSV with one cell (and its mirror) raised above its true height.

    The pair is chosen with a third point z under its lowest common ancestor.
    Raising d(x,y) then breaks the triangle (x, y, z), and the path through z
    keeps the subdominant ultrametric of the result equal to the original
    dendrogram, so ``classes`` stays the truth for the repair. At most
    ``WITNESS_CAP - 1`` such z exist, so a validator that stops after
    ``WITNESS_CAP`` witnesses still has to search every triangle: the cost of
    the search does not depend on where the pair happens to sit.
    """
    case = dendrogram_case(rng, n, levels, kind="perturbed")
    while True:
        i, j = rng.sample(range(n), 2)
        c = case.codes[i, j]
        under = (case.codes[i] <= c) & (case.codes[j] <= c)
        if 3 <= under.sum() <= WITNESS_CAP + 1:  # i and j themselves are always under
            break
    raised = case.values[case.codes[i, j]] + Fraction(1, 2000)
    values = sorted({*case.values, raised})
    remap = np.array([values.index(v) for v in case.values], dtype=np.int32)
    codes = remap[case.codes]
    codes[i, j] = codes[j, i] = values.index(raised)
    text = _csv(case.labels, [_spell(v) for v in values], codes)
    return Case(
        "perturbed", "csv", text, case.labels, values, codes, case.classes, valid=False,
        perturbed=(case.labels[i], case.labels[j]),
    )


def dissimilarity_case(rng: random.Random, n: int) -> Case:
    """A random symmetric dissimilarity with many distinct values; never ultrametric."""
    labels = _labels(rng, n, "q")
    raw = np.zeros((n, n), dtype=np.int64)
    upper = np.triu_indices(n, 1)
    raw[upper] = [rng.randint(1, 1_000_000) for _ in range(len(upper[0]))]
    raw += raw.T
    distinct, codes = np.unique(raw, return_inverse=True)
    codes = codes.reshape(n, n).astype(np.int32)
    values = [Fraction(int(v), 1000) for v in distinct]
    if not has_violation(codes):
        raise AssertionError("random dissimilarity happens to be ultrametric")
    text = _csv(labels, [_spell(v) for v in values], codes)
    return Case("dissimilarity", "csv", text, labels, values, codes, None, valid=False)


def has_violation(codes: np.ndarray) -> bool:
    """Does some triangle break d(x,y) <= max(d(x,z), d(z,y))?"""
    for k in range(len(codes)):
        if (codes > np.maximum.outer(codes[:, k], codes[k, :])).any():
            return True
    return False


def _random_tree(rng: random.Random, leaves: list[int]):
    """Multifurcating tree with integer node heights; each node is above its children."""
    if len(leaves) == 1:
        return leaves[0], 0
    k = rng.randint(2, min(4, len(leaves)))
    cuts = sorted(rng.sample(range(1, len(leaves)), k - 1))
    subtrees = [_random_tree(rng, leaves[a:b]) for a, b in zip([0, *cuts], [*cuts, len(leaves)])]
    height = max(h for _, h in subtrees) + rng.randint(1, 40)
    return (height, subtrees), height


def _newick(node, parent_height: int | None, labels: list[str]) -> str:
    """Newick text of a tree of ``(height, [(subtree, height), ...])`` nodes."""
    tree, height = node
    length = "" if parent_height is None else f":{parent_height - height}"
    if isinstance(tree, int):
        return labels[tree] + length
    inner = ",".join(_newick(child, height, labels) for child in tree[1])
    return f"({inner}){length}"


def random_tree_case(rng: random.Random, n: int) -> Case:
    """An equidistant Newick tree with integer branch lengths and random fan-out."""
    labels = _labels(rng, n, "t")
    root = _random_tree(rng, list(range(n)))
    text = _newick(root, None, labels) + ";\n"

    def as_dist(node):  # leaf distance under a node is twice its height
        tree, height = node
        return tree if isinstance(tree, int) else (Fraction(2 * height), [as_dist(c) for c in tree[1]])

    codes, values, classes = _tree_truth(as_dist(root), n)
    named = sorted_classes([labels[i] for i in c] for c in classes)
    return Case("random-tree", "newick", text, labels, values, codes, named)


def caterpillar_case(rng: random.Random, n: int) -> Case:
    """A caterpillar: each internal node adds one leaf, heights strictly increase."""
    labels = _labels(rng, n, "c")
    heights = list(itertools.accumulate(rng.randint(1, 9) for _ in range(n - 1)))
    parts = ["(" * (n - 1), f"{labels[0]}:{heights[0]},{labels[1]}:{heights[0]})"]
    for k in range(1, n - 1):
        parts.append(f":{heights[k] - heights[k - 1]},{labels[k + 1]}:{heights[k]})")
    text = "".join(parts) + ";\n"

    codes = np.zeros((n, n), dtype=np.int32)
    for k in range(1, n):  # leaf k joins leaves 0..k-1 at heights[k-1]
        codes[k, :k] = codes[:k, k] = k
    values = [Fraction(0), *(Fraction(2 * h) for h in heights)]
    return Case("caterpillar", "newick", text, labels, values, codes, [tuple(sorted(labels[:2]))])


def small_case(rng: random.Random) -> Case:
    """A dendrogram CSV with 4-12 points and 1-5 distinct heights."""
    return dendrogram_case(rng, rng.randint(4, 12), rng.randint(1, 5), kind="small")


def classes_from_codes(codes: np.ndarray, labels: list[str]) -> list[tuple[str, ...]]:
    """Partner classes of an ultrametric straight from the definition.

    x and y are partners when d(x,y) is the minimum distance of both. In an
    ultrametric all partners of x are partners of each other, so each
    point's class is itself plus its partners.
    """
    n = len(labels)
    off = codes + np.eye(n, dtype=codes.dtype) * (codes.max() + 1)
    mins = off.min(axis=1)
    mate = (off == mins[:, None]) & (mins[:, None] == mins[None, :])
    found = {tuple(sorted(labels[j] for j in [i, *np.flatnonzero(mate[i])])) for i in range(n) if mate[i].any()}
    return sorted(found)
