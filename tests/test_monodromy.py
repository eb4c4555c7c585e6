import dataclasses
import gc
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from chebdisk import monodromy as mono
from chebdisk.errors import DomainError, NotTransitiveError, NotTreeError, ParseError


def rep(n, s1, s2):
    return mono.MonodromyRep(
        n, mono.parse_permutation(s1, n), mono.parse_permutation(s2, n)
    )


# --- permutations and parsing -------------------------------------------------

def test_permutation_rejects_non_bijection():
    with pytest.raises(DomainError):
        mono.Permutation((1, 1, 3))


@pytest.mark.parametrize("images", [(2.7, 1.2), ("2", "1")], ids=["float", "str"])
def test_permutation_rejects_non_integer_images(images):
    with pytest.raises(DomainError, match="integer"):
        mono.Permutation(images)


def test_rep_rejects_non_integer_degree():
    p = mono.Permutation(tuple(range(1, 4)))
    with pytest.raises(DomainError, match="integer"):
        mono.MonodromyRep(3.0, p, p)


def test_permutation_fields_and_repr():
    assert [f.name for f in dataclasses.fields(mono.Permutation)] == ["images"]
    assert repr(mono.Permutation((2, 1))) == "Permutation(images=(2, 1))"


def test_parse_cycle_and_one_line_agree():
    assert mono.parse_permutation("(1 2)(3 4)") == mono.parse_permutation("2 1 4 3")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        mono.parse_permutation("(1 2)(2 3)")
    assert "duplicate" in str(err.value) and "position" in str(err.value)
    with pytest.raises(ParseError) as err:
        mono.parse_permutation("2 1 4")
    assert "out of range" in str(err.value)
    with pytest.raises(ParseError):
        mono.parse_permutation("(1 2")
    with pytest.raises(ParseError):
        mono.parse_permutation("")


@pytest.mark.parametrize("text", ["2 1 ++3", "(1 ²)", "2 1 ³"])
def test_parse_refuses_what_int_cannot_read(text):
    with pytest.raises(ParseError, match="expected integer") as err:
        mono.parse_permutation(text)
    assert err.value.position is not None
    assert mono.parse_permutation("(+2 1)") == mono.parse_permutation("(1 2)")


def test_parse_identity_cycles():
    p = mono.parse_permutation("()", 3)
    assert p == mono.Permutation(tuple(range(1, 4)))


# --- transitivity ---------------------------------------------------------------

def test_transitivity_examples():
    assert not mono.is_transitive(rep(2, "()", "()"))
    assert mono.is_transitive(rep(3, "(1 2)", "(2 3)"))
    assert mono.is_transitive(rep(1, "()", "()"))


def test_cycle_count_examples():
    assert mono.cycle_count(mono.Permutation(tuple(range(1, 5)))) == 4
    assert mono.cycle_count(mono.parse_permutation("(1 2)(3 4)")) == 2
    assert mono.cycle_count(mono.parse_permutation("(1 2 3)", 5)) == 3


# --- trees ------------------------------------------------------------------------

def test_tree_examples():
    assert mono.is_tree(rep(3, "(1 2)", "(2 3)"))
    assert mono.is_tree(rep(1, "()", "()"))
    assert not mono.is_tree(rep(3, "(1 2 3)", "(1 3 2)"))


def test_tree_requires_transitivity():
    with pytest.raises(NotTransitiveError):
        mono.is_tree(rep(2, "()", "()"))


# --- Euler characteristics ----------------------------------------------------------

def test_euler_characteristic_examples():
    assert mono.euler_characteristic_disk(rep(3, "(1 2)", "(2 3)")) == 1
    assert mono.euler_characteristic_disk(rep(3, "(1 2 3)", "(1 3 2)")) == -1
    assert mono.euler_characteristic_disk(rep(1, "()", "()")) == 1


def test_face_cycles_examples():
    assert mono.face_cycles(rep(3, "(1 2)", "(2 3)")) == 1
    assert mono.face_cycles(rep(4, "()", "()")) == 4
    assert mono.face_cycles(rep(3, "(1 2 3)", "(1 3 2)")) == 3


def _orbit_covers(a, b):
    """Reference transitivity: orbit closure of 1 on the raw image tuples."""
    orbit = {1}
    while True:
        grown = orbit | {a[p - 1] for p in orbit} | {b[p - 1] for p in orbit}
        if grown == orbit:
            return len(orbit) == len(a)
        orbit = grown


def test_rep_kernels_match_references_on_all_degree_four_pairs():
    perms = [mono.Permutation(p) for p in permutations((1, 2, 3, 4))]
    transitive = 0
    for a in perms:
        for b in perms:
            r = mono.MonodromyRep(4, a, b)
            assert mono.is_transitive(r) == _orbit_covers(a.images, b.images)
            assert mono.face_cycles(r) == mono.cycle_count(a.apply_then(b))
            transitive += mono.is_transitive(r)
    assert transitive == 426


def test_unvalidated_composites_match_validated_construction():
    perms = [mono.Permutation(p) for p in permutations((1, 2, 3, 4))]
    for a in perms:
        inv = a.inverse()
        checked_inv = mono.Permutation(tuple(a.images.index(i) + 1 for i in range(1, 5)))
        assert inv == checked_inv and hash(inv) == hash(checked_inv)
        assert repr(inv) == repr(checked_inv)
        for b in perms:
            comp = a.apply_then(b)
            checked = mono.Permutation(tuple(b.images[p - 1] for p in a.images))
            assert comp == checked and hash(comp) == hash(checked)
            assert repr(comp) == repr(checked)
            assert comp.cycles() == checked.cycles()
    perm = mono.parse_permutation("(1 3)(2 4)", 5)
    assert perm.cycles() == ((1, 3), (2, 4), (5,))
    assert perm.cycles() is perm.cycles()
    with pytest.raises(DomainError):
        mono.Permutation((2, 2, 1, 4))
    # composites across degrees are still validated
    swap = mono.Permutation((2, 1))
    assert swap.apply_then(mono.Permutation(tuple(range(1, 4)))) == swap
    with pytest.raises(DomainError):
        swap.apply_then(mono.Permutation((3, 1, 2)))
    with pytest.raises(DomainError, match="degree 2 cannot follow degree 3"):
        mono.Permutation((1, 2, 3)).apply_then(swap)


# --- equivalence ----------------------------------------------------------------------

def test_equivalence_reflexive():
    r = rep(3, "(1 2)", "(2 3)")
    assert mono.are_equivalent(r, r)


def test_equivalence_relabeled():
    r1 = rep(3, "(1 2)", "(2 3)")
    r2 = rep(3, "(2 3)", "(1 2)")  # relabeling by (1 3)
    assert mono.are_equivalent(r1, r2)


def test_equivalence_distinguishes_cycle_types():
    r1 = rep(3, "(1 2)", "(2 3)")
    r2 = rep(3, "(1 2 3)", "()")
    assert not mono.are_equivalent(r1, r2)


def _relabeled(r, iota):
    conj = lambda s: iota.inverse().apply_then(s).apply_then(iota)
    return mono.MonodromyRep(r.n, conj(r.sigma1), conj(r.sigma2))


def test_equivalence_has_no_degree_cap():
    identity = mono.Permutation(tuple(range(1, 12)))
    big = mono.MonodromyRep(11, identity, identity)
    assert mono.are_equivalent(big, big)
    chain = mono.chebyshev_monodromy(40)
    iota = mono.Permutation(tuple(random.Random(40).sample(range(1, 41), 40)))
    assert mono.are_equivalent(chain, _relabeled(chain, iota))
    # same cycle types as the chain (2^20 and 2^19 1^2), but intransitive
    pairs = mono.parse_permutation("".join(f"({p} {p + 1})" for p in range(1, 38, 2)), 40)
    split = mono.MonodromyRep(40, chain.sigma1, pairs)
    assert split.sigma2.cycle_type() == chain.sigma2.cycle_type()
    assert not mono.is_transitive(split)
    assert not mono.are_equivalent(chain, split)


def test_equivalence_leaves_no_cyclic_garbage():
    r = mono.chebyshev_monodromy(4)
    gc.collect()
    gc.disable()
    try:
        assert mono.are_equivalent(r, r)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _brute_force(rep1, rep2):
    for images in permutations(range(1, rep1.n + 1)):
        iota = mono.Permutation(images)
        if (
            iota.apply_then(rep1.sigma1) == rep2.sigma1.apply_then(iota)
            and iota.apply_then(rep1.sigma2) == rep2.sigma2.apply_then(iota)
        ):
            return True
    return False


def test_equivalence_matches_brute_force_degree_three():
    for n in (1, 2, 3):
        perms = [mono.Permutation(p) for p in permutations(range(1, n + 1))]
        reps = [mono.MonodromyRep(n, a, b) for a in perms for b in perms]
        for r1 in reps:
            for r2 in reps:
                assert mono.are_equivalent(r1, r2) == _brute_force(r1, r2)


def test_equivalence_matches_brute_force_degree_four_sample():
    perms = [mono.Permutation(p) for p in permutations((1, 2, 3, 4))]
    rng = random.Random(4)
    equivalent = 0
    for _ in range(3000):
        r1, r2 = (mono.MonodromyRep(4, *rng.choices(perms, k=2)) for _ in range(2))
        if rng.random() < 0.5:  # unrelated pairs are rarely equivalent
            r2 = _relabeled(r1, rng.choice(perms))
        fast = mono.are_equivalent(r1, r2)
        assert fast == _brute_force(r1, r2)
        equivalent += fast
    assert 1500 <= equivalent < 3000


# --- chains ----------------------------------------------------------------------------

def test_chebyshev_monodromy_small():
    r2 = mono.chebyshev_monodromy(2)
    assert r2.sigma1.to_cycle_string() == "(1 2)"
    assert r2.sigma2 == mono.Permutation(tuple(range(1, 3)))
    assert mono.is_tree(r2)
    r3 = mono.chebyshev_monodromy(3)
    assert (r3.sigma1.to_cycle_string(), r3.sigma2.to_cycle_string()) == ("(1 2)", "(2 3)")
    r1 = mono.chebyshev_monodromy(1)
    assert mono.is_tree(r1)


def test_dessin_stats():
    assert mono.dessin_stats(mono.chebyshev_monodromy(5)) == mono.DessinStats(6, 5)
    assert mono.dessin_stats(mono.chebyshev_monodromy(1)) == mono.DessinStats(2, 1)
    assert mono.dessin_stats(mono.chebyshev_monodromy(8)) == mono.DessinStats(9, 8)
    with pytest.raises(NotTreeError):
        mono.dessin_stats(rep(3, "(1 2 3)", "(1 3 2)"))


def test_exhaustive_small_degrees():
    for n in (1, 2, 3, 4):
        perms = [mono.Permutation(p) for p in permutations(range(1, n + 1))]
        for s1 in perms:
            for s2 in perms:
                r = mono.MonodromyRep(n, s1, s2)
                if not mono.is_transitive(r):
                    continue
                chi = mono.euler_characteristic_disk(r)
                assert mono.is_tree(r) == (chi == 1)
                gap = 2 - (chi + mono.face_cycles(r))
                assert gap >= 0 and gap % 2 == 0
                if mono.is_tree(r):
                    assert gap == 0  # trees are planar: sphere closure


# --- properties ---------------------------------------------------------------------------

perm_strategy = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_conjugation_is_equivalence(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    draw_perm = lambda: mono.Permutation(
        tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    )
    s1, s2, iota = draw_perm(), draw_perm(), draw_perm()
    conj = lambda s: iota.inverse().apply_then(s).apply_then(iota)
    r1 = mono.MonodromyRep(n, s1, s2)
    r2 = mono.MonodromyRep(n, conj(s1), conj(s2))
    assert mono.are_equivalent(r1, r2)
    assert r1.sigma1.cycle_type() == r2.sigma1.cycle_type()
    assert r1.sigma2.cycle_type() == r2.sigma2.cycle_type()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_parser_round_trip(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    p = mono.Permutation(tuple(data.draw(st.permutations(list(range(1, n + 1))))))
    assert mono.parse_permutation(p.to_cycle_string(), n) == p
    one_line = " ".join(str(x) for x in p.images)
    assert mono.parse_permutation(one_line) == p
