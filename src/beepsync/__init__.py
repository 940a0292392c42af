"""Clock synchronization simulators and analyzers for the discrete beeping model."""

from .checkpoints import (
    CheckpointSet,
    compute_checkpoints,
    fast_runtime_bound,
    sync_round_budget,
)
from .engine import (
    ActivationSchedule,
    FastTrace,
    SimResult,
    StabTrace,
    Violation,
    check_closure,
    check_invariants,
    check_stab_invariants,
    random_schedule,
    run_fast,
    run_selfstab,
    single_source_schedule,
    write_trace_csv,
    write_trace_jsonl,
)
from .fast_protocol import (
    ACTIVATION_CONFIG,
    INACTIVE_CONFIG,
    BeepClass,
    FastNodeConfig,
    NodeState,
    classify_beep,
    config_bit_width,
    decode_config,
    encode_config,
    step,
    will_beep,
)
from .fsm import (
    Case,
    CycleReport,
    NotConstructible,
    ProtocolAutomaton,
    certify_no_sync,
    classify,
    extract_fast_automaton,
    extract_selfstab_automaton,
    find_beep_cycle,
    find_silence_cycle,
    format_automaton,
    load_automaton,
    parse_automaton,
    runtime_lower_bound_demo,
    save_automaton,
)
from .selfstab import (
    StabNodeConfig,
    StabState,
    consistency_check,
    legitimate_configs,
    load_configs,
    max_round_counter,
    parse_configs,
    random_configs,
    save_configs,
    stab_step,
    validate_config,
    will_beep_stab,
)
from .slots import (
    SlotRecord,
    alignment_time,
    run_slots,
    write_slot_csv,
)
from .topology import (
    KINDS,
    Topology,
    bfs_distances,
    build,
    format_topology,
    generate,
    load_topology,
    parse_topology,
    save_topology,
)

__version__ = "0.1.0"
