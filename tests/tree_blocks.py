"""Reference for block preservation, and leaf permutations planted outside
a tower's group, shared by the test modules."""

from wreathgen.permcore import Permutation, parse_cycles
from wreathgen.wreath import TowerSpec, apply_at_vertex, example_tower, parse_tower


def project(t: TowerSpec, perm: Permutation, level: int) -> Permutation:
    """The permutation a leaf permutation of tower t induces on the
    vertices of `level` (0-based indices); ValueError when it does not
    keep that level's blocks of leaves together."""
    if not 1 <= level <= t.k:
        raise ValueError("level out of range")
    stride = t.strides()[level - 1]
    images = []
    for v in range(t.leaf_count() // stride):
        start = v * stride
        target = perm(start) // stride
        if any(perm(start + off) // stride != target for off in range(1, stride)):
            raise ValueError("permutation does not preserve level blocks")
        images.append(target)
    return Permutation(images)


def planted_non_members():
    """(tower, a leaf permutation outside its group, what the refusal names)"""
    s3c2 = parse_tower("S3;C2")  # leaves 1,2 | 3,4 | 5,6
    c2a5 = parse_tower("C2;A5")
    c2c4 = parse_tower("C2;C4")
    return [
        (s3c2, parse_cycles("(2 3)", 6), "splits a block of level 1"),
        (c2a5, apply_at_vertex(c2a5, (2,), parse_cycles("(1 2)", 5)), "not an element of A5"),
        (c2c4, apply_at_vertex(c2c4, (1,), parse_cycles("(2 4)", 4)), "not an element of C4"),
    ]


PLANTED_IDS = ["across-top-subtrees", "odd-at-A5", "reflection-at-C4"]


def planted_example_non_members():
    """(a leaf permutation outside the A5;C3;C2;C2 group of the example
    pair, what the refusal names)"""
    t = example_tower(5)  # leaves 1,2 | 3,4 at the bottom level
    return [
        (parse_cycles("(2 3)", 60), "splits a block of level 3"),
        (apply_at_vertex(t, (), parse_cycles("(1 2)", 5)), "not an element of A5"),
        (apply_at_vertex(t, (1,), parse_cycles("(2 3)", 3)), "not an element of C3"),
    ]


EXAMPLE_PLANTED_IDS = ["across-bottom-blocks", "odd-at-A5", "reflection-at-C3"]
