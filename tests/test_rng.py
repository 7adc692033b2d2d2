from corrlab.rng import SplitMix64, derive_seed


def test_reference_stream_is_frozen():
    # First outputs of seed 0, from the published splitmix64 reference.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derived_streams_differ_by_label():
    assert derive_seed(1, "rows") != derive_seed(1, "outcomes")
    assert derive_seed(1, "rows") == derive_seed(1, "rows")
    rows = SplitMix64(derive_seed(1, "rows"))
    outcomes = SplitMix64(derive_seed(1, "outcomes"))
    xs = [rows.next_u64() for _ in range(3)]
    ys = [outcomes.next_u64() for _ in range(3)]
    assert xs != ys


def test_below_in_range_and_covers_values():
    rng = SplitMix64(7)
    seen = {rng.below(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}

