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


def naive_order(g, op, identity):
    """Reference order of g under op: one multiplication per step."""
    k, x = 1, g
    while x != identity:
        x = op(x, g)
        k += 1
    return k


def naive_presentation(basis, op, identity):
    """Reference presentation table: (ks, b_1^k_1 * b_2^k_2 * ...) for every
    exponent tuple in itertools.product order, one product of powers each."""
    powers = []
    for b, o in basis:
        row = [identity]
        for _ in range(o - 1):
            row.append(op(row[-1], b))
        powers.append(row)
    table = []
    for ks in itertools.product(*(range(o) for _, o in basis)):
        g = identity
        for row, k in zip(powers, ks):
            g = op(g, row[k])
        table.append((ks, g))
    return table
