import itertools

from sidonkit.groups import AbelianGroup


def els(group, *codes):
    """Group elements from indices (rank 1) or coordinate tuples."""
    return [group.element(c) for c in codes]


def brute_sidon(group, idxs):
    """Reference Sidon predicate via all unordered pair sums."""
    items = [group.coords_of(i) for i in idxs]
    sums = [group.add_coords(a, b) for a, b in
            itertools.combinations_with_replacement(items, 2)]
    return len(sums) == len(set(sums))


def cyclic(n):
    return AbelianGroup((n,))


def frobenius_trace(ext, x):
    """Reference trace of x in a FieldExtension down to its base field:
    the Frobenius sum x + x^q (+ x^(q^2)), as an extension code (base
    field elements keep their own codes)."""
    acc, term = x, x
    for _ in range(ext.degree - 1):
        term = ext.pow(term, ext.base.q)
        acc = ext.add(acc, term)
    return acc
