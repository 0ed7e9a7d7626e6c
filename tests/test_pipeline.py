"""End-to-end pipeline invariants on real app traces."""

import pytest

from repro.core import PipelineOptions, extract_logical_structure
from repro.core.pipeline import PipelineStats


def _check_invariants(trace, structure):
    # Every event is in exactly one phase and has exactly one step.
    counted = 0
    for phase in structure.phases:
        for ev in phase.events:
            assert structure.phase_of_event[ev] == phase.id
            assert structure.step_of_event[ev] >= 0
            counted += 1
    assert counted == sum(len(p) for p in structure.phases)

    # No two events of one chare share a global step.
    seen = {}
    for ev, step in enumerate(structure.step_of_event):
        if step < 0:
            continue
        key = (trace.events[ev].chare, step)
        assert key not in seen, f"chare-step collision: {key}"
        seen[key] = ev

    # Receives land strictly after their matching sends.
    for msg in trace.messages:
        if not msg.is_complete():
            continue
        s = structure.step_of_event[msg.send_event]
        r = structure.step_of_event[msg.recv_event]
        if s >= 0 and r >= 0:
            assert r >= s + 1

    # The phase DAG is consistent: preds/succs mirror each other and
    # offsets respect the DAG.
    for phase in structure.phases:
        for q in phase.preds:
            assert phase.id in structure.phases[q].succs
            pred = structure.phases[q]
            if pred.max_local_step >= 0:
                assert phase.offset > pred.max_global_step


@pytest.mark.parametrize("order", ["reordered", "physical"])
def test_invariants_jacobi(jacobi_trace, order):
    _check_invariants(jacobi_trace, extract_logical_structure(jacobi_trace, order=order))


@pytest.mark.parametrize("order", ["reordered", "physical"])
def test_invariants_lulesh_charm(lulesh_charm_trace, order):
    _check_invariants(
        lulesh_charm_trace, extract_logical_structure(lulesh_charm_trace, order=order)
    )


@pytest.mark.parametrize("order", ["reordered", "physical"])
def test_invariants_lulesh_mpi(lulesh_mpi_trace, order):
    _check_invariants(
        lulesh_mpi_trace, extract_logical_structure(lulesh_mpi_trace, order=order)
    )


def test_invariants_lassen_both_models(lassen_charm_trace, lassen_mpi_trace):
    _check_invariants(lassen_charm_trace, extract_logical_structure(lassen_charm_trace))
    _check_invariants(lassen_mpi_trace, extract_logical_structure(lassen_mpi_trace))


def test_invariants_pdes(pdes_trace):
    _check_invariants(pdes_trace, extract_logical_structure(pdes_trace))


def test_invariants_mergetree(mergetree_trace):
    for order in ("reordered", "physical"):
        _check_invariants(
            mergetree_trace, extract_logical_structure(mergetree_trace, order=order)
        )


def test_invariants_nasbt(nasbt_trace):
    _check_invariants(nasbt_trace, extract_logical_structure(nasbt_trace))


def test_mode_auto_detects_mpi(lulesh_mpi_trace):
    opts = PipelineOptions(mode="auto")
    assert opts.resolve_mode(lulesh_mpi_trace) == "mpi"


def test_mode_auto_defaults_charm(jacobi_trace):
    assert PipelineOptions().resolve_mode(jacobi_trace) == "charm"


def test_explicit_mode_respected(jacobi_trace):
    assert PipelineOptions(mode="mpi").resolve_mode(jacobi_trace) == "mpi"


def test_bad_order_rejected(jacobi_trace):
    with pytest.raises(ValueError, match="order"):
        extract_logical_structure(jacobi_trace, order="alphabetical")


@pytest.mark.parametrize("name", ["mode", "order", "tie_break", "repair",
                                  "on_error", "hook_errors", "ingest",
                                  "backend"])
def test_validate_names_the_bad_field(name):
    PipelineOptions().validate()
    with pytest.raises(ValueError, match=name):
        PipelineOptions(**{name: "bogus"}).validate()


@pytest.mark.parametrize("on_error", ["fallback", "degrade"])
def test_bad_tie_break_not_absorbed_by_fallback(jacobi_trace, on_error):
    # local_steps is degradable: a check inside it would let the typo
    # fall back to the physical_order rung and "succeed".
    with pytest.raises(ValueError, match="tie_break"):
        extract_logical_structure(jacobi_trace, tie_break="bogus",
                                  on_error=on_error)


def test_bad_tie_break_rejected_under_physical_order(jacobi_trace):
    # Physical ordering never consults the tie-break, so only an
    # up-front check stops the typo from minting its own cache key.
    with pytest.raises(ValueError, match="tie_break"):
        extract_logical_structure(jacobi_trace, tie_break="bogus",
                                  order="physical")


def test_bad_mode_fails_before_any_stage(jacobi_trace):
    stats = PipelineStats()
    with pytest.raises(ValueError, match="mode"):
        extract_logical_structure(
            jacobi_trace, PipelineOptions(mode="bogus", on_error="fallback"),
            stats)
    assert stats.stage_seconds == {}


def test_options_plus_kwargs_rejected(jacobi_trace):
    # Promoted from DeprecationWarning to a hard error: either pass an
    # options object or keywords, never both.
    with pytest.raises(TypeError, match="with_overrides"):
        extract_logical_structure(
            jacobi_trace, options=PipelineOptions(), order="physical"
        )


def test_unknown_kwarg_rejected(jacobi_trace):
    with pytest.raises(TypeError, match="no_such_option"):
        extract_logical_structure(jacobi_trace, no_such_option=True)


def test_stats_collected(jacobi_trace):
    stats = PipelineStats()
    extract_logical_structure(jacobi_trace, stats=stats)
    assert stats.initial_partitions > 0
    assert stats.final_phases > 0
    assert stats.total_seconds > 0
    assert "dependency_merge" in stats.stage_seconds


def test_leap_property_one_after_pipeline(jacobi_trace):
    """DAG property (1): no two phases at one leap share a chare."""
    structure = extract_logical_structure(jacobi_trace)
    seen = set()
    for phase in structure.phases:
        for c in phase.chares:
            key = (phase.leap, c)
            assert key not in seen
            seen.add(key)


def test_phases_sorted_and_dense(jacobi_trace):
    structure = extract_logical_structure(jacobi_trace)
    assert [p.id for p in structure.phases] == list(range(len(structure.phases)))
    leaps = [p.leap for p in structure.phases]
    assert leaps == sorted(leaps)


def test_chare_orders_cover_phase_events(jacobi_trace):
    structure = extract_logical_structure(jacobi_trace)
    for phase in structure.phases:
        ordered = []
        for chare in phase.chares:
            ordered.extend(structure.chare_orders[(phase.id, chare)])
        assert sorted(ordered) == sorted(phase.events)


def test_structure_accessors(jacobi_structure):
    s = jacobi_structure
    assert s.max_step >= 0
    assert len(s.events_at_step(0)) > 0
    summary = s.summary()
    assert summary["phases"] == len(s.phases)
    tl = s.chare_timeline(0)
    steps = [st for st, _ in tl]
    assert steps == sorted(steps)
    assert repr(s).startswith("LogicalStructure(")
