import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import neighbour_lists, random_instance
from gsetbench import instances
from gsetbench.cli import main
from gsetbench.instances import (
    GsetFormatError,
    ProblemInstance,
    TorusSpec,
    check_seed,
    generate_torus,
    load_gset,
    parse_gset,
    parse_torus_name,
    write_gset,
)


def test_from_edges_normalises_endpoint_order():
    inst = ProblemInstance(3, [(2, 1, 5), (3, 2, -1)])
    assert inst.edges == ((1, 2, 5), (2, 3, -1))


def test_from_edges_rejects_self_loop():
    with pytest.raises(GsetFormatError, match="self-loop"):
        ProblemInstance(3, [(2, 2, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GsetFormatError, match="out of range"):
        ProblemInstance(3, [(1, 4, 1)])
    with pytest.raises(GsetFormatError, match="out of range"):
        ProblemInstance(3, [(0, 2, 1)])


def test_from_edges_rejects_duplicates_in_either_orientation():
    with pytest.raises(GsetFormatError, match="duplicate"):
        ProblemInstance(3, [(1, 2, 1), (1, 2, 4)])
    with pytest.raises(GsetFormatError, match="duplicate"):
        ProblemInstance(3, [(1, 2, 1), (2, 1, 4)])


def test_equality_ignores_name():
    a = ProblemInstance(2, [(1, 2, 3)], name="a")
    b = ProblemInstance(2, [(1, 2, 3)], name="b")
    assert a == b


def test_equal_instances_hash_equal():
    a = parse_gset("3 2\n2 1 5\n2 3 -1\n", name="a")
    b = ProblemInstance(3, [(1, 2, 5), (3, 2, -1)], name="b")
    assert a == b and hash(a) == hash(b)
    # equality is n plus the canonical edges in order
    assert a != ProblemInstance(3, [(2, 3, -1), (1, 2, 5)])
    assert a != ProblemInstance(4, [(1, 2, 5), (2, 3, -1)])
    assert a != ProblemInstance(3, [(1, 2, 5), (2, 3, 1)])


def test_edge_arrays_are_canonical_zero_based_and_read_only():
    inst = ProblemInstance(3, [(2, 1, 5), (3, 2, -1)])
    for array, expected in ((inst.eu, [0, 1]), (inst.ev, [1, 2]), (inst.ew, [5, -1])):
        assert array.dtype == np.int64
        assert array.tolist() == expected
        assert not array.flags.writeable
    empty = ProblemInstance(2, [])
    assert empty.m == 0 and empty.edges == () and empty.eu.shape == (0,)


def test_total_weight():
    inst = ProblemInstance(3, [(1, 2, 5), (2, 3, -1)])
    assert inst.total_weight() == 4


def test_parse_gset_basic_and_roundtrip():
    text = "3 2\n1 2 5\n2 3 -1\n"
    inst = parse_gset(text)
    assert inst.n == 3 and inst.m == 2
    assert parse_gset(write_gset(inst)) == inst


def test_write_gset_text_is_pinned():
    # input order kept, endpoints 1-based with u < v, weights written in full
    inst = ProblemInstance(4, [(3, 1, -7), (2, 4, 2**40), (1, 2, -(2**40)), (4, 3, 1)])
    assert write_gset(inst) == "4 4\n1 3 -7\n2 4 1099511627776\n1 2 -1099511627776\n3 4 1\n"
    assert write_gset(ProblemInstance(3, [])) == "3 0\n"


def test_parse_gset_is_whitespace_tolerant():
    ragged = "  3\n2   1 2\n5\n\n2 3 -1  "
    assert parse_gset(ragged) == parse_gset("3 2\n1 2 5\n2 3 -1\n")


def test_parse_gset_ignores_comments():
    text = "# header\n3 2 # counts\n1 2 5\n2 3 -1\n"
    assert parse_gset(text).m == 2


def test_parse_gset_rejects_garbage_token():
    with pytest.raises(GsetFormatError, match="expected integer"):
        parse_gset("3 1\n1 x 5\n")


def test_parse_gset_reads_signed_decimals_in_non_ascii_text():
    expected = ProblemInstance(3, [(1, 2, 5), (2, 3, -1)])
    # a non-ASCII separator sends the text through the token reader
    assert parse_gset("3 2\n+1\u00a02 5\n2 3 -1\n") == expected
    assert parse_gset("3 2 # café\n1 2 +5\n2 3 -1\n") == expected


def test_parse_gset_rejects_truncation():
    with pytest.raises(GsetFormatError, match="end of input"):
        parse_gset("3 2\n1 2 5\n")


def test_parse_gset_rejects_trailing_tokens():
    with pytest.raises(GsetFormatError, match="trailing"):
        parse_gset("3 1\n1 2 5\n9 9 9\n")


def test_parse_gset_rejects_bad_counts():
    with pytest.raises(GsetFormatError):
        parse_gset("0 0\n")
    with pytest.raises(GsetFormatError):
        parse_gset("3 -1\n")


# (text, message): each message and, where several faults meet, which
# one wins; a reader in token order meets malformed and missing tokens
# first, then the counts, then trailing tokens, then the edges
PARSE_ERRORS = [
    ("", "unexpected end of input while reading vertex count"),
    ("x 1", "line 1: expected integer vertex count, got 'x'"),
    ("3", "unexpected end of input while reading edge count"),
    ("0\nx", "line 2: expected integer edge count, got 'x'"),
    ("0 -1\n", "vertex count must be positive, got 0"),
    ("3 -1\n", "edge count must be non-negative, got -1"),
    ("3 2\n1 1 5\n2 x 1\n", "line 3: expected integer edge 2 endpoint, got 'x'"),
    ("3 1\n1 2 5.0\n", "line 2: expected integer edge 1 weight, got '5.0'"),
    ("# c\n3 1 # x\n\n1 q 1\n", "line 4: expected integer edge 1 endpoint, got 'q'"),
    ("3\n1 1\n\nz 5", "line 4: expected integer edge 1 endpoint, got 'z'"),
    ("3 2\n1 2 5\n2 3\n", "unexpected end of input while reading edge 2 weight"),
    ("3 1000000000000\n1 2 1\n", "unexpected end of input while reading edge 2 endpoint"),
    ("3 1\n1 2 5\n9 x 9\n", "line 3: trailing token '9' after 1 edges"),
    ("3 1\n1 2 5 # c\n\n  oops\n", "line 4: trailing token 'oops' after 1 edges"),
    ("3 1\n1 1 5\n7\n", "line 3: trailing token '7' after 1 edges"),
    ("4 2\n4 4 1\n1 2 1\n", "edge 1: self-loop at vertex 4"),
    ("3 1\n5 5 1\n", "edge 1: self-loop at vertex 5"),
    ("3 1\n4 1 1\n", "edge 1: endpoint out of range 1..3: (4, 1)"),
    ("3 3\n1 2 1\n2 4 1\n3 3 1\n", "edge 2: endpoint out of range 1..3: (2, 4)"),
    ("3 3\n1 2 1\n2 1 1\n3 3 1\n", "edge 2: duplicate edge (1, 2)"),
    ("3 3\n1 2 1\n1 2 1\n0 1 1\n", "edge 2: duplicate edge (1, 2)"),
    ("3 3\n2 3 1\n1 0 1\n3 2 1\n", "edge 2: endpoint out of range 1..3: (1, 0)"),
    # only optionally signed ASCII decimals, though int() reads these
    ("3 1\n1 2 1_0\n", "line 2: expected integer edge 1 weight, got '1_0'"),
    ("3 1_0\n", "line 1: expected integer edge count, got '1_0'"),
    ("٣ 1\n+1 2 -0\n", "line 1: expected integer vertex count, got '٣'"),
    ("3 1\n１ 2 1\n", "line 2: expected integer edge 1 endpoint, got '１'"),
    ("3 2\n1 2 5\n1 ٢ 1\n", "line 3: expected integer edge 2 endpoint, got '٢'"),
    ("3 1\n1 2 ٥\n", "line 2: expected integer edge 1 weight, got '٥'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_gset_error_messages_and_precedence(text, message):
    with pytest.raises(GsetFormatError) as excinfo:
        parse_gset(text)
    assert str(excinfo.value) == message


def test_parse_gset_rejects_numbers_beyond_int64():
    cases = [
        ("3 1\n1 2 99999999999999999999\n",
         "line 2: edge 1 weight 99999999999999999999 does not fit in 64 bits"),
        ("3 1\n1 -9223372036854775809 1\n",
         "line 2: edge 1 endpoint -9223372036854775809 does not fit in 64 bits"),
        ("9223372036854775808 0\n",
         "line 1: vertex count 9223372036854775808 does not fit in 64 bits"),
        # a malformed token earlier in the file still wins
        ("3 2\n1 2 x\n2 3 99999999999999999999\n",
         "line 2: expected integer edge 1 weight, got 'x'"),
    ]
    for text, message in cases:
        with pytest.raises(GsetFormatError) as excinfo:
            parse_gset(text)
        assert str(excinfo.value) == message


def parse_outcome(parse):
    """The instance ``parse()`` reads, or its error message."""
    try:
        return parse()
    except GsetFormatError as exc:
        return str(exc)


BIG = [10**18 - 1, 10**18, 2**63 - 1, 2**63]
# (text, whether the one-pass reader takes it); every other text, and a
# taken one whose counts do not fit, goes through the token reader
DIFFERENTIAL = [
    # whitespace reads as [0] in np.fromstring, a count the tokens refute
    ("", True), ("  ", False), ("\n", False), (" \t\n\r\v\f ", False),
    ("3 1\n1 2 5-1\n", False), ("3 1\n1 2 -\n", False), ("3 1\n1 2 +-1\n", False),
    ("3 1\n1 2 5+\n", False), ("5-1", False), ("-", False), ("+", False), ("3 1 1 2 -", False),
    ("3 1\n1 2 1\x00\n", False), ("3\x001 1 2 1", False), ("3 1\n1 2 5\x00", False),
    ("3\x1c1\x1d1\x1e2\x1f5", False), ("3 1\n1 2\x1f5\n", False),
    ("3\v1\f1 2 5", True), ("3 1\r\n1 2 5\r\n", True), ("\r\n3 1\r\n\r\n1\t2\t-5", True),
    ("003 001\n01 02 -0\n", True), ("3 1\n1 2 +0\n", True), ("3 1\n00001 2 -007\n", True),
    ("+3 +1\n+1 +2 +5\n", True), ("3 1\n1 2 --5\n", False), ("3 1\n1 2 5 -\n", False),
    *((f"2 1\n1 2 {v}\n", abs(v) < 10**18) for big in BIG for v in (big, -big)),
    *((f"{v} 0\n", abs(v) < 10**18) for big in BIG for v in (big, -big)),
    *((f"3 {v}\n1 2 1\n", abs(v) < 10**18) for big in BIG for v in (big, -big)),
    ("2 1\n1 2 99999999999999999999999\n", False), ("2 1\n1 2 -18446744073709551617\n", False),
    ("3 1\n1 2 0000000000000000000000005\n", True),
    ("\u0663 1\n1 2 1\n", False), ("3 1\n\uff11 2 1\n", False), ("3 1\n1 2 \u0665\n", False),
    ("3 1\n1\u00a02 5\n", False), ("3\u20031\n1 2 5\u3000", False), ("3 1\n1 2 5\u2028", False),
    ("3 1\n1 2 1_0\n", False), ("3 1_0\n", False), ("_", False), ("3 1\n1 2 _5\n", False),
    ("3 1\n1 2 1e5\n", False), ("3 1\n1 2 5.0\n", False), ("3 1\n0x1 2 5\n", False),
    ("# c\n3 1 # x\n1 2 5\n", True), ("3 1\n1 2 5#7\n9", True), ("# caf\u00e9\n3 1\n1 2 5", True),
    ("3 1 # 1 2 5\n", True), ("#", True),
    ("3 2\n1 2 5\n", True), ("3 2\n1 2 5\n2 3\n", True), ("3 1\n1 2 5 7\n", True),
    ("3 1\n1 2 5\n9 x 9\n", False), ("0 0\n", True), ("3 -1\n", True), ("3 0\n", True),
    ("3 1\n1 1 5\n", True), ("3 1\n4 1 5\n", True), ("3 2\n1 2 5\n2 1 5\n", True),
    (f"3 2\n1 2 {2**61}\n2 3 {2**61}\n", False),
    (write_gset(generate_torus(TorusSpec(100, 200, 7))), True),
]


@pytest.mark.parametrize("text, plain", DIFFERENTIAL,
                         ids=[repr(text)[:40] for text, _ in DIFFERENTIAL])
def test_parse_gset_agrees_with_the_token_reader(text, plain):
    """parse_gset reads each text as the token reader does: the same
    instance and name, or the same error message."""
    uncommented = instances._uncommented(text)
    got = parse_outcome(lambda: parse_gset(text, name="x"))
    want = parse_outcome(lambda: instances._read_tokens(uncommented, name="x"))
    assert got == want
    if isinstance(want, ProblemInstance):
        assert got.name == want.name
    assert (instances._plain_numbers(uncommented) is not None) == plain


def lexsort_repeats(n, lo, hi):
    """The duplicate mask as a two-key lexsort finds it."""
    order = np.lexsort((hi, lo))
    sorted_lo, sorted_hi = lo[order], hi[order]
    repeat = np.zeros(len(lo), dtype=bool)
    repeat[order[1:]] = (sorted_lo[1:] == sorted_lo[:-1]) & (sorted_hi[1:] == sorted_hi[:-1])
    return repeat


def random_edges(rng, n):
    """Up to 3n random (u, v, w) rows over 1..n, so repeats in either
    orientation and self-loops are common; now and then an endpoint is
    out of range, some chosen to share the one-key sort's key
    lo*(n+1) + hi with an edge in range, directly or by int64 wrap."""
    m = int(rng.integers(1, 3 * n + 1))
    edges = np.column_stack([rng.integers(1, n + 1, size=(m, 2)), rng.integers(-3, 4, size=m)])
    for i in np.flatnonzero(rng.random(m) < 0.05):
        a, b = sorted(int(x) for x in rng.integers(1, n + 1, size=2))
        wrap = 2**64 // (n + 1) if (n + 1) & n == 0 else 0
        edges[i, :2] = rng.choice([
            (0, a * (n + 1) + b), (-1, (a + 1) * (n + 1) + b), (a - wrap, b),
            (n + 1, a), (-(2**63), b), (2**63 - 1, a), (0, 0),
        ])
        if rng.random() < 0.5:
            edges[i, :2] = edges[i, 1::-1]
    return edges


def test_one_key_duplicate_check_agrees_with_lexsort(monkeypatch):
    rng = np.random.default_rng(13)
    cases = [(int(n), random_edges(rng, int(n))) for n in rng.choice([2, 3, 5, 7, 12, 15, 31], 3000)]
    one_key, one_key_repeats = [edge_outcome(n, edges) for n, edges in cases], instances._repeats
    monkeypatch.setattr(instances, "_repeats", lexsort_repeats)
    kinds = Counter()
    for (n, edges), got in zip(cases, one_key):
        assert got == edge_outcome(n, edges), (n, edges)
        kinds[got.split(":")[1].split()[0] if isinstance(got, str) else "built"] += 1
        # the masks agree up to the first edge out of range
        lo, hi = np.sort(edges[:, :2], axis=1).T
        first = np.append(np.flatnonzero((lo < 1) | (hi > n)), len(lo))[0]
        mask, reference = one_key_repeats(n, lo, hi), lexsort_repeats(n, lo, hi)
        assert np.array_equal(mask[:first], reference[:first])
        kinds["keys shared out of range"] += not np.array_equal(mask, reference)
    assert set(kinds) == {"built", "self-loop", "endpoint", "duplicate", "keys shared out of range"}
    assert min(kinds.values()) > 20


def edge_outcome(n, edges):
    """The instance ``edges`` build, or its error message."""
    return parse_outcome(lambda: ProblemInstance(n, edges))


def test_duplicates_where_one_key_would_overflow():
    # lo*(n+1) + hi wraps to one int64 key for these two distinct edges
    n = 2**40
    inst = ProblemInstance(n, [(1, n, 1), (2**24 + 1, n - 2**24, 1)])
    assert inst.m == 2
    with pytest.raises(GsetFormatError, match=f"^edge 3: duplicate edge \\(1, {n}\\)$"):
        ProblemInstance(n, [(1, n, 1), (2**24 + 1, n - 2**24, 1), (n, 1, 5)])
    # the largest n that the one key serves, and the smallest it does not
    for n in (2**31 - 1, 2**31):
        assert ProblemInstance(n, [(n - 1, n, 1), (n, n - 2, 1), (1, n, 1)]).m == 3
        with pytest.raises(GsetFormatError, match=f"^edge 3: duplicate edge \\({n - 1}, {n}\\)$"):
            ProblemInstance(n, [(n - 1, n, 1), (1, n, 1), (n, n - 1, 1)])


def test_absolute_weight_sum_must_stay_below_2_to_62():
    limit = 2**62
    cases = [
        (f"3 2\n1 2 {limit}\n2 3 1\n", 1),
        (f"3 2\n1 2 {limit // 2}\n2 3 {-limit // 2}\n", 2),
        (f"2 1\n1 2 {-(2**63)}\n", 1),
    ]
    for text, edge in cases:
        with pytest.raises(GsetFormatError) as excinfo:
            parse_gset(text)
        assert str(excinfo.value) == f"edge {edge}: absolute edge weights sum to 2^62 or more"
    with pytest.raises(GsetFormatError, match="sum to 2\\^62"):
        ProblemInstance(3, [(1, 2, limit // 2), (2, 3, limit // 2)])
    # just below the bound the sums stay exact
    inst = parse_gset(f"3 2\n1 2 {limit // 2}\n2 3 {-(limit // 2 - 1)}\n")
    assert inst.total_weight() == 1


def test_validate_reports_an_oversized_weight_without_a_traceback(tmp_path, capsys):
    instance = tmp_path / "big.txt"
    instance.write_text("2 1\n1 2 99999999999999999999\n")
    solution = tmp_path / "sol.txt"
    solution.write_text("c\n")
    assert main(["validate", str(instance), str(solution)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {instance}: line 2: edge 1 weight "
                   "99999999999999999999 does not fit in 64 bits\n")


def test_parse_gset_memory_does_not_grow_with_n():
    tracemalloc.start()
    try:
        inst = parse_gset("1000000 1\n1 2 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n == 1_000_000 and inst.m == 1
    assert peak < 2**20


def test_roundtrip_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = random_instance(rng, int(rng.integers(2, 15)))
        assert parse_gset(write_gset(inst)) == inst


def test_total_weight_invariant_under_relabeling():
    rng = np.random.default_rng(12)
    inst = random_instance(rng, 10)
    perm = rng.permutation(10) + 1
    relabeled = ProblemInstance(
        10, [(int(perm[u - 1]), int(perm[v - 1]), w) for u, v, w in inst.edges]
    )
    assert relabeled.total_weight() == inst.total_weight()


def test_load_gset_names_instance_after_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("2 1\n1 2 7\n")
    inst = load_gset(path)
    assert inst.name == "tiny"
    assert inst.edges == ((1, 2, 7),)


def test_torus_spec_validation():
    with pytest.raises(ValueError, match="3x3"):
        TorusSpec(2, 5, seed=0)
    with pytest.raises(ValueError, match="3x3"):
        TorusSpec(5, 2, seed=0)
    with pytest.raises(ValueError, match="64 bits"):
        TorusSpec(3, 3, seed=-1)
    with pytest.raises(ValueError, match="64 bits"):
        TorusSpec(3, 3, seed=2**64)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        TorusSpec(3, 3, seed=1.5)
    # an integer seed of another type names the torus as the equal int does
    for seed in (True, np.uint64(1)):
        spec = TorusSpec(3, 3, seed=seed)
        assert type(spec.seed) is int and spec.name == "torus:3x3:1"


def test_check_seed_is_the_one_64_bit_seed_rule():
    assert check_seed(2**64 - 1) == 2**64 - 1
    assert type(check_seed(np.uint64(5))) is int and check_seed(True) == 1
    for seed, message in ((2**64, "seed must fit in 64 bits, got 18446744073709551616"),
                          (np.int8(-3), "seed must fit in 64 bits, got -3"),
                          (3.0, "seed must be an integer, got 3.0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_seed(seed)
    with pytest.raises(ValueError, match="^master seed must fit in 64 bits, got -1$"):
        check_seed(-1, "master seed")


def test_torus_structure():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(3, 8))
        inst = generate_torus(TorusSpec(rows, cols, seed=int(rng.integers(2**32))))
        assert inst.n == rows * cols
        assert inst.m == 2 * rows * cols
        degrees = [len(nbrs) for nbrs in neighbour_lists(inst)[1:]]
        assert degrees == [4] * inst.n
        assert all(w in (-1, 1) for _, _, w in inst.edges)


def test_torus_vertex_numbering():
    # 3x3: cell (r, c) is vertex (r-1)*3 + c; vertex 1 wraps to 3 and 7
    inst = generate_torus(TorusSpec(3, 3, seed=0))
    neighbours = {v for v, _ in neighbour_lists(inst)[1]}
    assert neighbours == {2, 4, 3, 7}


def test_torus_deterministic_and_seed_sensitive():
    a = generate_torus(TorusSpec(4, 5, seed=9))
    b = generate_torus(TorusSpec(4, 5, seed=9))
    c = generate_torus(TorusSpec(4, 5, seed=10))
    assert a == b
    assert a != c
    assert a.name == "torus:4x5:9"


def test_torus_roundtrips_through_gset_text():
    inst = generate_torus(TorusSpec(3, 4, seed=2))
    assert parse_gset(write_gset(inst)) == inst


def test_parse_torus_name():
    spec = parse_torus_name("torus:4x7:123")
    assert spec == TorusSpec(4, 7, seed=123)
    for bad in ("torus:4x7", "grid:4x7:1", "torus:4:1", "torus:axb:1"):
        with pytest.raises(ValueError):
            parse_torus_name(bad)
