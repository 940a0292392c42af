"""Hypothesis property tests: text-format round trips, the bitset diameter,
neighbourhoods by edge offset, the two-node demo and the table kernel's
global run.

Every test is derandomized so the suite stays deterministic, and runs
without a per-example deadline.
"""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beepsync.fsm import (
    NotConstructible,
    ProtocolAutomaton,
    _global_run,
    decode_masks,
    find_silence_cycle,
    format_automaton,
    parse_automaton,
    runtime_lower_bound_demo,
)
from beepsync.selfstab import StabNodeConfig, StabState, format_configs, parse_configs
from beepsync.topology import (
    KINDS,
    bfs_distances,
    build,
    format_topology,
    generate,
    parse_topology,
)

PROPERTY = settings(derandomize=True, deadline=None)

INDENTS = st.sampled_from(["", " ", "  ", "\t", " \t"])
COMMENT_TEXT = st.text(alphabet=string.ascii_letters + string.digits + " #-=:", max_size=12)


@st.composite
def filler_lines(draw):
    """A blank line or an (indented) comment line."""
    indent = draw(INDENTS)
    if draw(st.booleans()):
        return indent
    return indent + "#" + draw(COMMENT_TEXT)


@st.composite
def with_noise(draw, text):
    """``text`` with blank and comment lines before, between and after its lines."""
    fillers = st.lists(filler_lines(), max_size=2)
    out = []
    for line in text.splitlines():
        out.extend(draw(fillers))
        out.append(line)
    out.extend(draw(fillers))
    return "\n".join(out) + "\n"


@st.composite
def topologies(draw, max_nodes=12):
    n = draw(st.integers(1, max_nodes))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=n))
    return build(edges, n)


STAB_CONFIGS = st.lists(
    st.builds(
        StabNodeConfig,
        clock=st.integers(0, 63),
        state=st.sampled_from(StabState),
        induced=st.booleans(),
        round_counter=st.integers(0, 500),
        beep_count=st.integers(0, 4),
    ),
    min_size=1,
    max_size=12,
)


@st.composite
def automata(draw):
    k = draw(st.integers(1, 12))
    targets = st.lists(st.integers(0, k - 1), min_size=k, max_size=k)
    clocks = draw(st.none() | st.lists(st.integers(0, 5), min_size=k, max_size=k))
    return ProtocolAutomaton(
        beep_next=tuple(draw(targets)),
        silence_next=tuple(draw(targets)),
        beeps=tuple(draw(st.lists(st.booleans(), min_size=k, max_size=k))),
        clock_of=None if clocks is None else tuple(clocks),
    )


@PROPERTY
@given(st.data(), topologies())
def test_topology_text_round_trip(data, topo):
    text = data.draw(with_noise(format_topology(topo)))
    again = parse_topology(text)
    assert again == topo
    # the neighbour bitsets and the diameter are cached on first read, outside the fields
    assert topo.neighbor_masks == tuple(sum(1 << w for w in nbrs) for nbrs in topo.neighbors)
    assert topo.diameter == again.diameter
    assert again == topo and hash(again) == hash(topo)


@st.composite
def neighborhood_cases(draw):
    """A graph of every kind, or a grid, with 1 to 40 nodes, possibly read
    back from its text form, and a node set of it."""
    kind = draw(st.sampled_from((*KINDS, "grid")))
    n = draw(st.integers(2 if kind == "star" else 1, 40))
    if kind == "grid":
        width = draw(st.integers(1, n))
        edges = [(u, u + 1) for u in range(n - 1) if (u + 1) % width]
        edges += [(u, u + width) for u in range(n - width)]
        topo = build(edges, n)
    else:
        topo = generate(kind, n, seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        topo = parse_topology(format_topology(topo))
    return topo, draw(st.integers(0, (1 << n) - 1))


def or_of_neighbor_sets(topo, nodes):
    near = 0
    for v, mask in enumerate(topo.neighbor_masks):
        if nodes >> v & 1:
            near |= mask
    return near


@PROPERTY
@given(neighborhood_cases())
def test_neighborhood_is_or_of_neighbor_sets(case):
    topo, nodes = case
    assert topo.neighborhood(nodes) == or_of_neighbor_sets(topo, nodes)


@PROPERTY
@given(st.data(), neighborhood_cases())
def test_per_run_neighborhood_is_or_of_neighbor_sets(data, case):
    topo, nodes = case
    sets = st.integers(0, (1 << topo.node_count) - 1)
    queries = data.draw(st.lists(st.sampled_from([nodes]) | sets, max_size=12))
    neighborhood = topo.neighborhood_for_run()
    for query in [nodes, *queries, nodes]:
        assert neighborhood(query) == or_of_neighbor_sets(topo, query)


@pytest.mark.parametrize(
    "kind, shifted",
    [("ring", True), ("line", True), ("star", False), ("clique", False),
     ("random_connected", False)],
)
def test_neighborhood_shifts_only_on_few_edge_offsets(kind, shifted):
    topo = generate(kind, 40, seed=3)
    assert bool(topo.bands) is shifted
    for nodes in (0, 1, 1 << 39, 0b1011 << 17, (1 << 40) - 1):
        assert topo.neighborhood(nodes) == or_of_neighbor_sets(topo, nodes)


@PROPERTY
@given(topologies())
def test_diameter_is_largest_bfs_distance(topo):
    sources = range(topo.node_count)
    assert topo.diameter == max(max(bfs_distances(topo.neighbors, s)) for s in sources)


@PROPERTY
@given(st.data(), STAB_CONFIGS)
def test_config_text_round_trip(data, configs):
    text = data.draw(with_noise(format_configs(configs)))
    assert parse_configs(text) == configs


@PROPERTY
@given(st.data(), automata())
def test_automaton_text_round_trip(data, automaton):
    text = data.draw(with_noise(format_automaton(automaton)))
    assert parse_automaton(text) == automaton


def transition(automaton, state, heard_beep):
    return automaton.beep_next[state] if heard_beep else automaton.silence_next[state]


def two_node_demo(automaton):
    """Reference for runtime_lower_bound_demo: the pair stepped by hand."""
    silence_core = find_silence_cycle(automaton)[:-1]
    beep_idx = [i for i, s in enumerate(silence_core) if automaton.beeps[s]]
    if not beep_idx:
        raise NotConstructible("silence cycle never beeps")
    anchor = beep_idx[0]
    if automaton.clock_of is not None:
        for i in beep_idx:
            if automaton.clock_of[silence_core[i]] == 0:
                anchor = i
                break
    pair = (
        silence_core[anchor],
        silence_core[(anchor + 1) % len(silence_core)],
    )
    seen = set()
    t = 0
    while pair not in seen:
        seen.add(pair)
        a, b = pair
        pair = (
            transition(automaton, a, automaton.beeps[b]),
            transition(automaton, b, automaton.beeps[a]),
        )
        t += 1
        if pair[0] == pair[1]:
            return t
    return float("inf")


@PROPERTY
@given(automata())
# a lone beeping self-loop: the pair merges in round 1 on its first repeat
@example(ProtocolAutomaton(beep_next=(0,), silence_next=(0,), beeps=(True,)))
def test_lower_bound_demo_matches_two_node_loop(automaton):
    try:
        expected = two_node_demo(automaton)
    except NotConstructible:
        with pytest.raises(NotConstructible):
            runtime_lower_bound_demo(automaton)
        return
    assert runtime_lower_bound_demo(automaton) == expected


def per_node_global_run(automaton, topology, initial):
    """Reference for _global_run: every node stepped by its transition each round."""
    neighbors = topology.neighbors
    n = topology.node_count
    seen = {}
    seq = []
    config = tuple(initial)
    while config not in seen:
        seen[config] = len(seq)
        seq.append(config)
        beeping = [automaton.beeps[s] for s in config]
        config = tuple(
            transition(automaton, config[v], any(beeping[w] for w in neighbors[v]))
            for v in range(n)
        )
    return seq, seen[config]


@PROPERTY
# at most 6 nodes keep the global state space, and so the run, small
@given(st.data(), automata(), topologies(max_nodes=6))
def test_global_run_matches_per_node_loop(data, automaton, topo):
    n = topo.node_count
    states = st.integers(0, automaton.state_count - 1)
    initial = tuple(data.draw(st.lists(states, min_size=n, max_size=n)))
    seq, start = _global_run(automaton, topo, initial)
    decoded = [tuple(decode_masks(dict(config), n)) for config in seq]
    assert (decoded, start) == per_node_global_run(automaton, topo, initial)
