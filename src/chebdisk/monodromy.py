"""Permutation-pair monodromy representations.

A representation of degree n is a pair (sigma1, sigma2) of permutations of
{1..n}, the images of the two free generators.  Composites are written
"apply sigma1 first, then sigma2"; only cycle counts are consumed
downstream and those are convention-invariant.
"""

import operator
import re

from ._value import Value
from .errors import DomainError, NotTransitiveError, NotTreeError, ParseError


def _as_int(value, what):
    """value as an int, or DomainError when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


class Permutation(Value):
    """One-line notation over {1..n}: images[i-1] is the image of i.

    images is the only field; the degree n is stored beside it at
    construction and the cycles once first asked for.
    """

    __slots__ = ("images", "n", "_cycles")
    _fields = ("images",)

    def __init__(self, images):
        images = tuple(_as_int(x, "a permutation image") for x in images)
        n = len(images)
        if n == 0:
            raise DomainError("permutation must act on at least one point")
        if sorted(images) != list(range(1, n + 1)):
            raise DomainError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "n", n)

    @classmethod
    def _unchecked(cls, images):
        """Wrap a tuple of ints already known to be a bijection of 1..n."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        object.__setattr__(perm, "n", len(images))
        return perm

    def apply_then(self, other):
        """The composite 'self first, then other'."""
        if other.n < self.n:
            raise DomainError(f"degree {other.n} cannot follow degree {self.n}")
        images = tuple(other.images[p - 1] for p in self.images)
        if other.n != self.n:  # only a same-degree composite is surely a bijection
            return Permutation(images)
        return Permutation._unchecked(images)

    def inverse(self):
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation._unchecked(tuple(inv))

    def cycles(self):
        """The cycles, fixed points included, each starting at its least point."""
        try:
            return self._cycles
        except AttributeError:
            pass
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = []
            p = start
            while not seen[p - 1]:
                seen[p - 1] = True
                cyc.append(p)
                p = self.images[p - 1]
            out.append(tuple(cyc))
        out = tuple(out)
        object.__setattr__(self, "_cycles", out)
        return out

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def to_cycle_string(self):
        parts = [
            "(" + " ".join(str(p) for p in c) + ")"
            for c in self.cycles()
            if len(c) > 1
        ]
        return "".join(parts) if parts else "()"


def cycle_count(perm):
    """Number of cycles, fixed points included."""
    return len(perm.cycles())


def parse_permutation(text, n=None):
    """Parse "(1 2)(3 4)" cycle notation or "2 1 4 3" one-line notation.

    A point is decimal digits after at most one '+'.  For cycle notation the
    degree is n when given, otherwise the largest point mentioned.  Out-of-range
    and duplicate entries are rejected with the offending position in the message.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty permutation text")
    one_line = not text.startswith("(")
    cycles = [_points(text, 0)] if one_line else _bracket_scan(text)
    points = [point for cyc in cycles for point in cyc]
    if one_line:
        if n is not None and len(points) != n:
            raise ParseError(f"one-line notation lists {len(points)} points, expected {n}")
        n = len(points)
    elif n is None:
        n = max((val for val, _ in points), default=1)
    seen = set()
    for val, pos in points:
        if not 1 <= val <= n:
            raise ParseError(f"point {val} out of range 1..{n}", pos)
        if val in seen:
            raise ParseError(f"duplicate point {val}", pos)
        seen.add(val)
    if one_line:
        return Permutation(tuple(val for val, _ in points))
    images = list(range(1, n + 1))
    for cyc in cycles:
        for i, (val, _) in enumerate(cyc):
            images[val - 1] = cyc[(i + 1) % len(cyc)][0]
    return Permutation(tuple(images))


def _points(text, offset):
    """(value, position) of each whitespace-separated token of text."""
    points = []
    for match in re.finditer(r"\S+", text):
        token, pos = match.group(), offset + match.start()
        if not re.fullmatch(r"\+?\d+", token):
            raise ParseError(f"expected integer, got {token!r}", pos)
        try:
            points.append((int(token), pos))
        except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
            raise ParseError(f"point of {len(token)} characters out of range", pos) from None
    return points


def _bracket_scan(text):
    """The points of each "(...)" group of cycle notation, in order."""
    cycles = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise ParseError(f"expected '(', got {text[pos]!r}", pos)
        end = text.find(")", pos)
        if end < 0:
            raise ParseError("unclosed cycle", pos)
        cycles.append(_points(text[pos + 1 : end], pos + 1))
        pos = end + 1
    return cycles


class MonodromyRep(Value):
    """Degree plus the two generator images.

    Transitivity is stored beside them at construction and the canonical
    form once first asked for.
    """

    __slots__ = ("n", "sigma1", "sigma2", "_transitive", "_canonical")
    _fields = ("n", "sigma1", "sigma2")

    def __init__(self, n, sigma1, sigma2):
        n = _as_int(n, "degree")
        if sigma1.n != n or sigma2.n != n:
            raise DomainError(
                f"permutation degrees {sigma1.n}, {sigma2.n} do not match n={n}"
            )
        _set_n(self, n)
        _set_sigma1(self, sigma1)
        _set_sigma2(self, sigma2)
        # depth-first orbit of 1, the two generators unrolled (a loop over the
        # pair is slower); images are 1-based, so seen[0] stays unused
        img1, img2 = sigma1.images, sigma2.images
        seen = [False] * (n + 1)
        seen[1] = True
        stack = [1]
        reached = 1
        while stack:
            p = stack.pop() - 1
            q = img1[p]
            if not seen[q]:
                seen[q] = True
                reached += 1
                stack.append(q)
            q = img2[p]
            if not seen[q]:
                seen[q] = True
                reached += 1
                stack.append(q)
        _set_transitive(self, reached == n)

    def canonical_form(self):
        """A relabeling-invariant form of the pair, built once.

        Each orbit of <sigma1, sigma2> is relabeled breadth-first from each
        of its points in turn, and its form is the least of the resulting
        image-tuple pairs; the rep's form is the sorted tuple of those.
        """
        try:
            return self._canonical
        except AttributeError:
            pass
        img1, img2 = self.sigma1.images, self.sigma2.images
        placed = [False] * (self.n + 1)
        forms = []
        for first in range(1, self.n + 1):
            if placed[first]:
                continue
            orbit, _ = _relabeled(img1, img2, first)
            for p in orbit:
                placed[p] = True
            forms.append(min(_relabeled(img1, img2, start)[1] for start in orbit))
        form = tuple(sorted(forms))
        object.__setattr__(self, "_canonical", form)
        return form


# The slots' own setters: criterion 9 builds 15,187 reps, and these are
# cheaper than object.__setattr__ by about a tenth of each construction.
_set_n, _set_sigma1, _set_sigma2, _set_transitive = (
    getattr(MonodromyRep, name).__set__ for name in ("n", "sigma1", "sigma2", "_transitive")
)


def _relabeled(img1, img2, start):
    """start's orbit in breadth-first order (sigma1's image before sigma2's),
    and both generators' images over that orbit with point order[i] renamed i+1."""
    label = {start: 1}
    order = [start]
    for p in order:
        for q in (img1[p - 1], img2[p - 1]):
            if q not in label:
                order.append(q)
                label[q] = len(order)
    return order, tuple(label[img1[p - 1]] for p in order) + tuple(
        label[img2[p - 1]] for p in order
    )


def is_transitive(rep):
    """Orbit of 1 under <sigma1, sigma2> covers all n points (computed at construction)."""
    return rep._transitive


def is_tree(rep):
    """c1 + c2 = n + 1 (transitivity required)."""
    if not rep._transitive:
        raise NotTransitiveError("tree test requires a transitive representation")
    return cycle_count(rep.sigma1) + cycle_count(rep.sigma2) == rep.n + 1


def euler_characteristic_disk(rep):
    """chi of the covering surface over the disk: -n + c1 + c2."""
    if not rep._transitive:
        raise NotTransitiveError("Euler characteristic requires transitivity")
    return -rep.n + cycle_count(rep.sigma1) + cycle_count(rep.sigma2)


def face_cycles(rep):
    """Cycle count of (sigma2 o sigma1)^{-1}; counts the faces c3.

    Cycle counts are inversion-invariant, so the inverse is not formed;
    nor is the composite: its cycles are walked on the two image tuples.
    """
    img1, img2 = rep.sigma1.images, rep.sigma2.images
    seen = [False] * (rep.n + 1)
    count = 0
    for start in range(1, rep.n + 1):
        if seen[start]:
            continue
        count += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = img2[img1[p - 1] - 1]
    return count


def are_equivalent(rep1, rep2):
    """Whether a relabeling iota with sigma_i o iota = iota o sigma_i' exists.

    Exactly the equivalent reps have equal canonical forms; each rep's form
    is built once, in O(n^2), so every degree is accepted.
    """
    if rep1.n != rep2.n:
        raise DomainError(f"degrees differ: {rep1.n} vs {rep2.n}")
    if rep1.sigma1.cycle_type() != rep2.sigma1.cycle_type():
        return False
    if rep1.sigma2.cycle_type() != rep2.sigma2.cycle_type():
        return False
    return rep1.canonical_form() == rep2.canonical_form()


def chebyshev_monodromy(n):
    """The chain representation: sigma1 = (1 2)(3 4)..., sigma2 = (2 3)(4 5)...

    This is the monodromy shared by the degree-n Chebyshev polynomial and
    the degree-n Chebyshev-Blaschke products; it is always a tree.
    """
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    img1 = list(range(1, n + 1))
    for start in range(1, n, 2):
        img1[start - 1], img1[start] = img1[start], img1[start - 1]
    img2 = list(range(1, n + 1))
    for start in range(2, n, 2):
        img2[start - 1], img2[start] = img2[start], img2[start - 1]
    return MonodromyRep(n, Permutation(tuple(img1)), Permutation(tuple(img2)))


class DessinStats(Value):
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices, edges):
        self._assign(vertices, edges)


def dessin_stats(rep):
    """Vertex and edge counts of the dessin of a tree representation."""
    if not is_tree(rep):
        raise NotTreeError("dessin statistics require a tree representation")
    return DessinStats(
        vertices=cycle_count(rep.sigma1) + cycle_count(rep.sigma2),
        edges=rep.n,
    )
