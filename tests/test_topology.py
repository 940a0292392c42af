import hashlib
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beepsync import topology
from beepsync.topology import (
    _DRAW_CHUNK,
    KINDS,
    MAX_EDGES,
    MAX_MEMO_ENTRIES,
    MAX_NODES,
    _diameter,
    _random_connected_edges,
    bfs_distances,
    build,
    format_topology,
    generate,
    load_topology,
    parse_topology,
    save_topology,
)


def test_build_single_node():
    topo = build([], 1)
    assert topo.node_count == 1
    assert topo.diameter == 0
    assert topo.neighbors == ((),)


def test_build_line_of_four():
    topo = build([(0, 1), (1, 2), (2, 3)], 4)
    assert topo.diameter == 3
    assert topo.neighbors[1] == (0, 2)


def test_build_star():
    edges = [(0, i) for i in range(1, 7)]
    topo = build(edges, 7)
    assert topo.diameter == 2
    assert len(topo.neighbors[0]) == 6


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build([(0, 1)], 3)  # node 2 unreachable
    with pytest.raises(ValueError):
        build([(0, 0)], 1)
    with pytest.raises(ValueError):
        build([(0, 5)], 3)
    with pytest.raises(ValueError):
        build([], 0)
    with pytest.raises(ValueError, match="not connected"):
        build([], 300_000_000)  # too few edges: rejected before allocating
    with pytest.raises(ValueError, match=r"edge \(0, 5\) out of range for 3 nodes"):
        build([(0, 1), (0, 5)], 3)
    with pytest.raises(ValueError, match="not connected"):
        build([(0, 1), (1, 0)], 3)  # enough edges, found by the search


def test_build_ignores_edge_order():
    a = build([(0, 1), (1, 2)], 3)
    b = build([(2, 1), (1, 0)], 3)
    assert a.neighbors == b.neighbors
    assert a.edges == b.edges

    # a shuffled 60-node list with reversed and repeated pairs: C4, C5 and C7
    # report violations in neighbour order, so every list must come out sorted
    rng = random.Random(5)
    base = generate("random_connected", 60, seed=5).edges
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in base]
    shuffled += rng.sample(shuffled, 20)
    rng.shuffle(shuffled)
    topo = build(shuffled, 60)
    assert topo.edges == base
    from_edges = [[] for _ in range(60)]
    for u, v in base:
        from_edges[u].append(v)
        from_edges[v].append(u)
    for v, around in enumerate(topo.neighbors):
        assert list(around) == sorted(from_edges[v])
        assert all(a < b for a, b in zip(around, around[1:]))


@pytest.mark.parametrize("size", range(2, 9))
def test_generate_line_diameter(size):
    assert generate("line", size).diameter == size - 1


@pytest.mark.parametrize("kind", ["line", "ring", "star", "clique"])
def test_generated_diameter_matches_search(kind):
    # generate fills in these kinds' diameters in closed form; a graph built
    # from the same edges searches for its own
    for size in range(2 if kind == "star" else 1, 41):
        topo = generate(kind, size)
        assert "diameter" in vars(topo)
        assert topo.diameter == build(list(topo.edges), size).diameter, (kind, size)


def test_generate_clique():
    topo = generate("clique", 5)
    assert topo.diameter == 1
    assert len(topo.edges) == 10


def test_generate_star():
    topo = generate("star", 7)
    assert topo.diameter == 2
    assert all(0 in topo.neighbors[v] for v in range(1, 7))


def test_generate_ring():
    topo = generate("ring", 6)
    assert topo.diameter == 3
    assert all(len(topo.neighbors[v]) == 2 for v in range(6))


def test_generate_kinds_constant():
    assert set(KINDS) == {"line", "star", "clique", "ring", "random_connected"}
    with pytest.raises(ValueError):
        generate("torus", 4)
    with pytest.raises(ValueError, match="size must be >= 1, got 0"):
        generate("line", 0)
    with pytest.raises(ValueError, match="random_connected requires a seed"):
        generate("random_connected", 5)


def test_random_connected_deterministic():
    a = generate("random_connected", 12, seed=7)
    b = generate("random_connected", 12, seed=7)
    assert a.edges == b.edges
    c = generate("random_connected", 12, seed=8)
    assert c.edges != a.edges


def _reference_random_connected_edges(
    size: int, seed: int, extra_edge_probability: float
) -> list[tuple[int, int]]:
    """The per-pair generator: one ``rng.random()`` per non-tree pair."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if size >= 2:
        order = list(range(size))
        rng.shuffle(order)
        for i in range(1, size):
            j = rng.randrange(i)
            edges.append((order[j], order[i]))
    tree = {(min(u, v), max(u, v)) for u, v in edges}
    for u in range(size):
        for v in range(u + 1, size):
            if (u, v) not in tree and rng.random() < extra_edge_probability:
                edges.append((u, v))
    return edges


# probabilities at and around the top-byte thresholds, and outside [0, 1]
EDGE_PROBABILITIES = (
    0.0, 1e-9, math.nextafter(2**-8, 0), 2**-8, math.nextafter(2**-8, 1),
    0.1, 0.5, 1.0, 1.5, -0.25, math.nan,
)
# the smallest size whose non-tree pairs take more than one draw chunk
CHUNK_CROSSING_SIZE = next(
    n for n in range(2, MAX_NODES) if (n - 1) * (n - 2) // 2 > _DRAW_CHUNK
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    size=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
    p=st.one_of(st.sampled_from(EDGE_PROBABILITIES), st.just("1/n"), st.floats(0, 1)),
)
@example(size=CHUNK_CROSSING_SIZE, seed=1, p=0.1)
@example(size=300, seed=2, p="1/n")
@example(size=300, seed=3, p=math.nextafter(2**-8, 0))
def test_random_connected_edges_match_per_pair_reference(size, seed, p):
    if p == "1/n":
        p = 1 / size
    assert _random_connected_edges(size, seed, p) == _reference_random_connected_edges(
        size, seed, p
    )


def test_random_connected_edges_at_drawn_values():
    # p at, just below and just above a pair's own draw, where only the full
    # 53-bit comparison tells hit from miss
    size, seed = 30, 5
    rng = random.Random(seed)
    rng.shuffle(list(range(size)))
    for i in range(1, size):
        rng.randrange(i)
    draws = [rng.random() for _ in range(20)]
    for r in draws:
        for p in (math.nextafter(r, 0), r, math.nextafter(r, 1)):
            assert _random_connected_edges(size, seed, p) == (
                _reference_random_connected_edges(size, seed, p)
            ), p


# large-n's random graph: benchmarks/workloads.py draws its seed from
# random.Random("large-n:0")
LARGE_N_SEED = random.Random("large-n:0").randrange(2**31)


def test_large_random_graph_edges_pinned():
    # the same edges as the per-pair reference, which takes about 1 s at this size
    topo = generate("random_connected", 3000, seed=LARGE_N_SEED, extra_edge_probability=1 / 1500)
    assert len(topo.edges) == 5913
    assert hashlib.sha256(repr(topo.edges).encode()).hexdigest() == (
        "cd82bdffcd9bea9a470ba35b3f3e97ca4835ea5ebe4d1ba0e6edf710bc83dbbd"
    )
    assert 4 * max(bfs_distances(topo.neighbors, 0)) < 3000  # the bitset search
    assert topo.diameter == 11


def test_large_random_graph_draws_in_bounded_memory():
    # drawing all 4.5M pairs at once would take 36 MB
    tracemalloc.start()
    try:
        edges = _random_connected_edges(3000, LARGE_N_SEED, 1 / 1500)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 5913
    assert peak - held < 1 << 20


def test_random_connected_is_connected_and_simple():
    for seed in range(25):
        topo = generate("random_connected", 9, seed=seed)
        dists = bfs_distances(topo.neighbors, 0)
        assert all(d >= 0 for d in dists)
        for v in range(9):
            assert v not in topo.neighbors[v]
            for w in topo.neighbors[v]:
                assert v in topo.neighbors[w]


def test_bfs_distance_symmetry():
    topo = generate("random_connected", 10, seed=3)
    table = [bfs_distances(topo.neighbors, v) for v in range(10)]
    for u in range(10):
        for v in range(10):
            assert table[u][v] == table[v][u]
    assert topo.diameter == max(max(row) for row in table)


def diameter_by_search(topo):
    """The reference: the largest distance of a plain search from every node."""
    return max(max(bfs_distances(topo.neighbors, s)) for s in range(topo.node_count))


def takes_bitset_pass(topo):
    # _diameter's rule: one plain search per source once 4 * ecc0 reaches n
    return 4 * max(bfs_distances(topo.neighbors, 0)) < topo.node_count


def grid_edges(width, height):
    n = width * height
    return [(v, v + 1) for v in range(n) if (v + 1) % width] + [
        (v, v + width) for v in range(n - width)
    ]


@pytest.mark.parametrize("size", [600, 1100, 3000])
def test_bitset_diameter_matches_search_on_random_graphs(size):
    topo = generate("random_connected", size, seed=size, extra_edge_probability=2 / size)
    assert takes_bitset_pass(topo)
    assert topo.diameter == diameter_by_search(topo)


@pytest.mark.parametrize(
    "width, height, bitset", [(40, 40, True), (100, 6, True), (300, 3, False)]
)
def test_diameter_of_grids_built_from_edges(width, height, bitset):
    topo = build(grid_edges(width, height), width * height)
    assert takes_bitset_pass(topo) is bitset
    assert topo.diameter == diameter_by_search(topo) == width + height - 2


@pytest.mark.parametrize("kind", ["ring", "line"])
def test_diameter_of_rings_and_lines_read_from_text(kind):
    topo = parse_topology(format_topology(generate(kind, 500)))
    assert "diameter" not in vars(topo)
    assert not takes_bitset_pass(topo)
    assert topo.diameter == diameter_by_search(topo) == generate(kind, 500).diameter


def test_bitset_diameter_memory_is_two_levels_of_node_sets():
    # two lists of n n-bit sets, n * n / 4 bytes, plus int headers and 30-bit digits
    topo = generate("random_connected", 3000, seed=LARGE_N_SEED, extra_edge_probability=1 / 1500)
    ecc0 = max(bfs_distances(topo.neighbors, 0))
    tracemalloc.start()
    try:
        _diameter(topo.neighbors, ecc0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 // 4 * 5 // 4


def test_band_graphs_take_the_neighborhood_method_per_run():
    ring = generate("ring", 40)
    assert ring.bands
    assert ring.neighborhood_for_run() == ring.neighborhood


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_neighborhood_memo_stops_storing_at_its_cap(monkeypatch, cap):
    monkeypatch.setattr(topology, "MAX_MEMO_ENTRIES", cap)
    star = generate("star", 10)
    assert not star.bands
    neighborhood = star.neighborhood_for_run()
    for nodes in (1, 2, 6, 1, 8, 2, 1):
        assert neighborhood(nodes) == star.neighborhood(nodes)
    memo = neighborhood.__self__
    assert list(memo) == [1, 2, 6, 8][:cap]
    # each run starts empty
    assert len(star.neighborhood_for_run().__self__) == 0


def test_full_neighborhood_memo_at_max_nodes_is_under_18_mib():
    # a key and its value are two node sets of up to MAX_NODES bits each
    node_set = sys.getsizeof((1 << MAX_NODES) - 1)
    table = sys.getsizeof(dict.fromkeys(range(MAX_MEMO_ENTRIES)))
    assert MAX_MEMO_ENTRIES * 2 * node_set + table < 18 << 20


def test_generate_rejects_oversized_graphs():
    for kind in KINDS:
        with pytest.raises(ValueError, match="node limit"):
            generate(kind, MAX_NODES + 1, seed=0)
    # a clique's and a random graph's (expected) edges count against MAX_EDGES
    clique = next(n for n in range(2, MAX_NODES) if n * (n - 1) // 2 > MAX_EDGES)
    with pytest.raises(ValueError, match="edges"):
        generate("clique", clique)
    with pytest.raises(ValueError, match="edges"):
        generate("random_connected", 2000, seed=0, extra_edge_probability=0.6)


def test_build_and_parse_refuse_oversized_graphs():
    n = MAX_NODES + 1
    ring = f"n {n}\n" + "".join(f"{v} {(v + 1) % n}\n" for v in range(n))
    with pytest.raises(ValueError, match=f"{n} nodes exceed the {MAX_NODES}-node limit"):
        parse_topology(ring)
    # the header is refused before any edge line is read
    with pytest.raises(ValueError, match=f"{n} nodes exceed the {MAX_NODES}-node limit"):
        parse_topology(f"n {n}\nnot an edge\n")
    # duplicates count: the edge list is refused before it is read
    with pytest.raises(ValueError, match=f"{MAX_EDGES + 1} edges are over the {MAX_EDGES} limit"):
        build([(0, 1)] * (MAX_EDGES + 1), 2)


def test_parse_refuses_the_edge_line_past_the_cap(monkeypatch):
    monkeypatch.setattr(topology, "MAX_EDGES", 3)
    ring = "n 4\n0 1\n1 2\n2 3\n"
    assert len(parse_topology(ring).edges) == 3
    with pytest.raises(ValueError, match="more than 3 edge lines, over the 3 limit"):
        parse_topology(ring + "3 0\n")
    # the line past the cap is refused before it is read
    with pytest.raises(ValueError, match="more than 3 edge lines, over the 3 limit"):
        parse_topology(ring + "not an edge\n")


def test_format_parse_round_trip():
    topo = generate("random_connected", 8, seed=11)
    again = parse_topology(format_topology(topo))
    assert again.edges == topo.edges
    assert again.node_count == topo.node_count


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_topology("3\n0 1\n")  # missing header keyword
    with pytest.raises(ValueError):
        parse_topology("n 3\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_topology("n 3\n0 one\n")
    with pytest.raises(ValueError, match="empty topology file"):
        parse_topology("# no header\n\n")


def test_parse_skips_indented_comments():
    # comment lines are recognized after stripping, as in the config and
    # automaton formats
    assert parse_topology("n 2\n  # note\n0 1\n").edges == ((0, 1),)
    topo = parse_topology("\t# two nodes\nn 2\n0 1\n")
    assert (topo.node_count, topo.edges) == (2, ((0, 1),))


def test_save_and_load(tmp_path):
    topo = generate("ring", 5)
    path = tmp_path / "ring.txt"
    save_topology(topo, str(path))
    assert load_topology(str(path)).edges == topo.edges
