"""Undirected connected graphs, generators, and the edge-list file format."""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, repeat
from math import ceil, floor
from operator import or_
from typing import Callable

# A graph takes its neighbourhoods by shifts when it has fewer than
# node_count / _BAND_RATIO distinct edge offsets. A shift costs about five
# n-bit operations per offset, the neighbour-set OR one per beeping node; on
# graphs with m random offsets and one node in eight beeping, the two break
# even at n / m of about 8, 16 and 20 for n = 100, 1,000 and 3,000 (2-core
# x86, Python 3.11). Only the neighbour-set OR is memoized per run (see
# Topology.neighborhood_for_run): shifts are cheap, and a single-source run
# on a 500-node ring beeps no set twice in its 1,001 rounds.
_BAND_RATIO = 16

# The most beeping sets one run's neighbourhood memo keeps. A key and its
# value are two node sets of up to n bits, 4.3 KiB together with their int
# headers at MAX_NODES, so a full memo holds at most 17.4 MiB with its hash
# table; later misses are computed and not stored.
MAX_MEMO_ENTRIES = 1 << 12


@dataclass(frozen=True)
class Topology:
    """A validated, connected, undirected graph.

    Attributes:
        node_count: Number of nodes, ids 0 .. node_count-1.
        edges: Deduplicated edges as sorted (u, v) pairs with u < v.
        neighbors: Per-node sorted neighbor tuples.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[tuple[int, ...], ...]

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Each node's neighbours as a node set (bit w for node w), built on first read."""
        return tuple(sum(1 << w for w in nbrs) for nbrs in self.neighbors)

    @cached_property
    def bands(self) -> tuple[tuple[int, int], ...]:
        """The edges by offset, built on first read: (k, the node set
        {u : (u, u + k) is an edge}) per distinct offset k, or () when the
        graph has too many offsets for :meth:`neighborhood` to shift them."""
        offsets = {v - u for u, v in self.edges}
        if _BAND_RATIO * len(offsets) >= self.node_count:
            return ()
        rows = dict.fromkeys(sorted(offsets), 0)
        for u, v in self.edges:
            rows[v - u] |= 1 << u
        return tuple(rows.items())

    def neighborhood(self, nodes: int) -> int:
        """The nodes adjacent to some node of the node set ``nodes``.

        On a graph with few edge offsets (rings, lines, grids) this is a few
        shifts per offset, the DIA sparse-matrix format of Bell and Garland
        (SC'09) with OR in place of +; otherwise it ORs the neighbour sets of
        the nodes in ``nodes``. Only that OR path is memoized, one memo per
        run, by :meth:`neighborhood_for_run`.
        """
        bands = self.bands
        if not bands:
            return reduce(or_, compress(self.neighbor_masks, bit_flags(nodes)), 0)
        near = 0
        for k, band in bands:
            near |= (nodes & band) << k | (nodes >> k) & band
        return near

    def neighborhood_for_run(self) -> Callable[[int], int]:
        """:meth:`neighborhood` for one run: on a graph with bands the method
        itself, otherwise a fresh memo from a beeping set to its neighbour-set
        OR. Synchronized groups beep the same sets again and again, so a run
        computes each one once; the memo is dropped with the run, and nothing
        is stored on the shared, frozen topology."""
        if self.bands:
            return self.neighborhood
        return _NeighborhoodMemo(self.neighborhood).__getitem__

    @cached_property
    def diameter(self) -> int:
        """Longest shortest path, 0 for a single node, computed on first read."""
        return _diameter(self.neighbors, max(bfs_distances(self.neighbors, 0)))


class _NeighborhoodMemo(dict):
    """Maps a node set to ``neighborhood(nodes)``, computed on a miss and
    kept while the memo holds fewer than MAX_MEMO_ENTRIES sets."""

    def __init__(self, neighborhood: Callable[[int], int]) -> None:
        super().__init__()
        self.neighborhood = neighborhood

    def __missing__(self, nodes: int) -> int:
        near = self.neighborhood(nodes)
        if len(self) < MAX_MEMO_ENTRIES:
            self[nodes] = near
        return near


_FLAG_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of ``mask`` up to its highest set bit, lowest first: 1 if set."""
    return bin(mask)[:1:-1].encode().translate(_FLAG_BYTES)


def bfs_distances(neighbors: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop distances from ``source``; -1 marks unreachable nodes."""
    dist = [-1] * len(neighbors)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _diameter(neighbors: tuple[tuple[int, ...], ...], ecc0: int) -> int:
    """Longest shortest path of a connected graph; ``ecc0`` is node 0's eccentricity.

    Breadth-first search expands every source at once on node bitsets: after
    level d, bit s of ``reach[v]`` is set when source s is within d hops of
    v, so the diameter is the first level at which every set is full. A
    level ORs each node's neighbours' sets into its own, skipping full sets,
    and the two levels held at once take n * n / 4 bytes. There are ``ecc0``
    to ``2 * ecc0`` levels; when ``4 * ecc0`` reaches the node count, as on
    rings and lines, one plain search per source is cheaper. On grids built
    from edges at n = 3,600 the two break even between ``4 * ecc0 = n`` and
    ``3 * ecc0 = n`` (2-core x86, Python 3.11).
    """
    n = len(neighbors)
    if 4 * ecc0 >= n:
        return max(max(bfs_distances(neighbors, s)) for s in range(n))
    full = (1 << n) - 1
    reach = [1 << v for v in range(n)]
    level = 0
    while reach.count(full) < n:
        reach = [
            full if r == full else reduce(or_, map(reach.__getitem__, nbrs), r)
            for r, nbrs in zip(reach, neighbors)
        ]
        level += 1
    return level


def build(edge_list: list[tuple[int, int]], node_count: int) -> Topology:
    """Validates an edge list and precomputes adjacency.

    Args:
        edge_list: Undirected edges; duplicates are merged.
        node_count: Number of nodes (>= 1).

    Returns:
        The Topology.

    Raises:
        ValueError: On self-loops, out-of-range ids, a disconnected graph, or
            more than MAX_NODES nodes or MAX_EDGES edges (duplicates count).
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")
    if len(edge_list) < node_count - 1:  # merging duplicates only lowers the count
        raise ValueError("graph is not connected")
    if node_count > MAX_NODES:
        raise ValueError(f"{node_count} nodes exceed the {MAX_NODES}-node limit")
    if len(edge_list) > MAX_EDGES:
        raise ValueError(f"{len(edge_list)} edges are over the {MAX_EDGES} limit")
    seen: set[tuple[int, int]] = set()
    for u, v in edge_list:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range for {node_count} nodes")
        seen.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(seen))
    # edges are sorted pairs u < v, so node w meets its lower neighbours
    # (as v) in increasing order before its higher ones (as u): adj is sorted
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    neighbors = tuple(map(tuple, adj))
    if min(bfs_distances(neighbors, 0)) < 0:
        raise ValueError("graph is not connected")
    return Topology(node_count=node_count, edges=edges, neighbors=neighbors)


KINDS = ("line", "star", "clique", "ring", "random_connected")

# Bounds on every graph, checked by build before it reads an edge, by generate
# before it makes an edge list and by parse_topology as it reads a file. The
# neighbour bitsets of n nodes take about n * n / 8 bytes, 32 MiB at
# MAX_NODES, the diameter's bitset search peaks at n * n / 4 bytes, 64 MiB at
# MAX_NODES, and random_connected draws 64 random bits per node pair: 3.3 s at
# n = 10,000 and 8 s at MAX_NODES, with edge probability 2 / n, on a 2-core
# x86 box with Python 3.11 (generate knows the other kinds' diameters; a
# search from every node takes 29 s on a 10,000-node ring read from a file).
# An edge costs about 240 bytes across the edge list, its set and the
# adjacency tuples (a 1,000-node clique peaks at 132 MiB RSS there), so
# MAX_EDGES edges take about 250 MiB.
MAX_NODES = 1 << 14
MAX_EDGES = 1 << 20


def generate(
    kind: str,
    size: int,
    seed: int | None = None,
    extra_edge_probability: float = 0.1,
) -> Topology:
    """Builds one of the standard topologies.

    Args:
        kind: One of line, star, clique, ring, random_connected.
        size: Node count (>= 1; star needs >= 2 to have a hub).
        seed: Required for random_connected; ignored otherwise.
        extra_edge_probability: Chance to add each non-tree edge in
            random_connected.

    Returns:
        The Topology.

    Raises:
        ValueError: On an unknown kind, a size outside [1, MAX_NODES], or
            more than MAX_EDGES edges (expected edges for random_connected).
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if size > MAX_NODES:
        raise ValueError(f"size {size} exceeds the {MAX_NODES}-node limit")
    pairs = size * (size - 1) // 2
    if kind == "clique":
        edge_count = pairs
    elif kind == "random_connected":
        edge_count = size - 1 + extra_edge_probability * (pairs - size + 1)
    else:
        edge_count = size
    if edge_count > MAX_EDGES:
        raise ValueError(
            f"{kind} of {size} nodes has {edge_count:.0f} edges, over the {MAX_EDGES} limit"
        )
    diameter = None  # known in closed form for every kind but random_connected
    if kind == "line":
        edges = [(i, i + 1) for i in range(size - 1)]
        diameter = size - 1
    elif kind == "star":
        if size < 2:
            raise ValueError("star needs at least 2 nodes")
        edges = [(0, i) for i in range(1, size)]
        diameter = min(size - 1, 2)
    elif kind == "clique":
        edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
        diameter = min(size - 1, 1)
    elif kind == "ring":
        if size <= 2:
            edges = [(i, i + 1) for i in range(size - 1)]
        else:
            edges = [(i, (i + 1) % size) for i in range(size)]
        diameter = size // 2
    elif kind == "random_connected":
        if seed is None:
            raise ValueError("random_connected requires a seed")
        edges = _random_connected_edges(size, seed, extra_edge_probability)
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    topology = build(edges, size)
    if diameter is not None:
        vars(topology)["diameter"] = diameter  # fills the cached_property
    return topology


# Pair draws one getrandbits call takes: 128 KiB of random bytes at a time,
# which keeps a 3,000-node graph's draws under 1 MiB of working memory.
_DRAW_CHUNK = 1 << 14


def _random_connected_edges(
    size: int, seed: int, extra_edge_probability: float
) -> list[tuple[int, int]]:
    """Uniform labeled spanning tree via a random parent sequence, then each
    other pair (u, v), u < v in order, as an edge when ``rng.random() < p``.

    The pair draws are taken in bulk, with the same outcome and the same
    consumption of the stream: ``random()`` is x / 2**53 with
    x = (a >> 5) << 26 | b >> 6 for the next two 32-bit Mersenne Twister
    outputs a and b, and ``getrandbits(64 * c)`` holds c such (a, b) pairs,
    each a in the low half of a 64-bit word. A draw's top byte, a >> 24 =
    x >> 45, settles ``x < p * 2**53`` for every byte value but at most one,
    and only draws with that byte are compared in full (an int compares
    exactly with a float).
    """
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if size >= 2:
        order = list(range(size))
        rng.shuffle(order)
        for i in range(1, size):
            j = rng.randrange(i)
            edges.append((order[j], order[i]))
    tree_above: list[list[int]] = [[] for _ in range(size)]
    for u, v in edges:
        if u < v:
            tree_above[u].append(v)
        else:
            tree_above[v].append(u)
    bound = extra_edge_probability * 2**53
    # top bytes below `sure` always hit, those from `maybe` on never; NaN maps to 0
    scaled = min(256.0, max(0.0, 256 * extra_edge_probability))
    sure, maybe = floor(scaled), ceil(scaled)
    byte_class = b"\1" * sure + b"\2" * (maybe - sure) + bytes(256 - maybe)
    left = size * (size - 1) // 2 - len(edges)
    hits = bytearray()  # 1 per drawn pair that is an edge, in pair order
    pos = 0
    nodes = list(range(size))
    for u in range(size):
        tree = tree_above[u]
        end = pos + size - 1 - u - len(tree)
        while len(hits) < end:
            count = min(_DRAW_CHUNK, left)
            left -= count
            words = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
            flags = bytearray(words[3::8].translate(byte_class))  # by a >> 24
            i = flags.find(2)
            while i >= 0:
                w = int.from_bytes(words[8 * i:8 * i + 8], "little")
                flags[i] = ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < bound
                i = flags.find(2, i + 1)
            del hits[:pos]
            end -= pos
            pos = 0
            hits += flags
        if hits.find(1, pos, end) >= 0:
            mask = hits[pos:end]
            for t in sorted(tree):  # a 0 at each tree pair: one byte per v > u
                mask.insert(t - u - 1, 0)
            edges += zip(repeat(u), compress(nodes[u + 1:], mask))
        pos = end
    return edges


def format_topology(topology: Topology) -> str:
    """Serializes to the edge-list text format: header 'n <count>', then 'u v' lines."""
    lines = [f"n {topology.node_count}"]
    lines.extend(f"{u} {v}" for u, v in topology.edges)
    return "\n".join(lines) + "\n"


def parse_topology(text: str) -> Topology:
    """Parses the edge-list text format produced by :func:`format_topology`.

    Lines are read one at a time, as ``str.splitlines`` splits them, so a
    header count over ``MAX_NODES`` is refused before any edge line is read,
    and a file is refused at its ``MAX_EDGES + 1``-th edge line.

    Raises:
        ValueError: On malformed header or edge lines, or an invalid or oversized graph.
    """
    import re  # json has loaded it already; only file parsing needs it here
    # the runs between str.splitlines' line boundaries
    runs = re.finditer(r"[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]+", text)
    lines = (ln for ln in (m.group().strip() for m in runs) if ln and not ln.startswith("#"))
    first = next(lines, None)
    if first is None:
        raise ValueError("empty topology file")
    header = first.split()
    if len(header) != 2 or header[0] != "n":
        raise ValueError(f"bad header {first!r}, expected 'n <count>'")
    node_count = int(header[1])
    if node_count > MAX_NODES:
        raise ValueError(f"{node_count} nodes exceed the {MAX_NODES}-node limit")
    edges: list[tuple[int, int]] = []
    for ln in lines:
        if len(edges) == MAX_EDGES:
            raise ValueError(f"more than {MAX_EDGES} edge lines, over the {MAX_EDGES} limit")
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build(edges, node_count)


def load_topology(path: str) -> Topology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_topology(fh.read())


def save_topology(topology: Topology, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_topology(topology))
