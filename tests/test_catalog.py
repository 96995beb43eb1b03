from posetpoly.catalog import (
    all_posets,
    labeled_catalog,
    labeled_classes,
    posets_up_to,
    standard_labelings,
)
from posetpoly.posets import canonical_key, unlabeled_canonical_key


def test_poset_counts_up_to_isomorphism():
    # the classical enumeration of posets by size
    expected = {0: 1, 1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
    for n, count in expected.items():
        assert len(all_posets(n)) == count


def test_representatives_are_pairwise_nonisomorphic():
    for n in range(5):
        keys = [unlabeled_canonical_key(p) for p in all_posets(n)]
        assert len(set(keys)) == len(keys)


def test_posets_up_to_concatenates_sizes():
    assert len(posets_up_to(4)) == 1 + 1 + 2 + 5 + 16


def test_standard_labelings_shape():
    p = all_posets(4)[5]
    batch = standard_labelings(p)
    assert len(batch) == 5
    for omega in batch:
        assert sorted(omega) == [1, 2, 3, 4]
    # deterministic across calls
    assert standard_labelings(p) == batch


def test_labeled_catalog_size():
    assert len(labeled_catalog(3)) == (1 + 1 + 2 + 5) * 5


def test_labeled_classes_are_every_class_once():
    # the labeled posets on an n-set up to isomorphism preserving relative labels
    for n, count in enumerate((1, 1, 3, 19, 219, 4231)):
        classes = labeled_classes(n)
        assert len(classes) == count
        assert len({canonical_key(lp) for lp in classes}) == count
        assert all(sorted(lp.omega) == list(range(1, n + 1)) for lp in classes)
