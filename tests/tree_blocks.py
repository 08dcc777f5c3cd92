"""Reference for block preservation, shared by the test modules."""

from wreathgen.permcore import Permutation
from wreathgen.wreath import TowerSpec


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
