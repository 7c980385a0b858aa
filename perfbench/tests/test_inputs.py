import pytest

import workloads
from workloads import (
    ANCHOR_LAMBDAS, ROADMAP_GRID, TIMED_MIX, WORKLOADS, anchor_energies, make_inputs,
)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_inputs(workload, 5, 20) == make_inputs(workload, 5, 20)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert make_inputs(workload, 5, 20).timed != make_inputs(workload, 6, 20).timed


@pytest.mark.parametrize("workload", ["spectrum_sweep", "verify_sweep"])
def test_sweeps_cover_their_mix_every_cycle_with_bounded_jitter(workload):
    inputs = make_inputs(workload, 11, 20)
    mix = TIMED_MIX[workload]
    assert len(inputs.timed) % len(mix) == 0
    for start in range(0, len(inputs.timed), len(mix)):
        cycle = inputs.timed[start:start + len(mix)]
        bases = sorted((op.lam, base) for op in cycle for lam, base in mix
                       if op.lam == lam and 0.9 * base <= op.s <= 1.1 * base)
        assert bases == sorted(mix)
    assert [(op.lam) for op in inputs.grid] == [lam for lam, _ in ROADMAP_GRID]
    for op, (lam, base) in zip(inputs.grid, ROADMAP_GRID):
        assert 0.9 * base <= op.s <= 1.1 * base


def test_cli_cold_draws_anchor_points_and_every_command_each_cycle():
    inputs = make_inputs("cli_cold", 3, 20)
    assert inputs.grid == ()
    assert len(inputs.timed) % 5 == 0
    for start in range(0, len(inputs.timed), 5):
        assert sorted(op.kind for op in inputs.timed[start:start + 5]) == sorted(
            workloads.CLI_COMMANDS)
    for op in inputs.timed:
        assert op.lam in ANCHOR_LAMBDAS and 0.1 <= op.s <= 10.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_enough_ops_for_a_tail_above_the_median(workload):
    assert len(make_inputs(workload, 1, 0.1).timed) >= 21


@pytest.mark.parametrize("lam", ANCHOR_LAMBDAS)
@pytest.mark.parametrize("s", [0.1, 0.3, 1.0, 3.0, 10.0])
def test_anchor_closed_forms_match_the_solver(lam, s):
    params = workloads.params_for(lam, s)
    levels = workloads.pkg.solve_classification(params, workloads.pkg.enumerate_qes_sets(lam))
    expected = anchor_energies(lam, s)
    assert [level.energy for level in levels] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_closed_form_check_rejects_a_wrong_energy():
    op = workloads.Op("verify", 1.0, 0.5, "timed")
    with pytest.raises(workloads.CheckFailed):
        workloads._check_energies(op, [-0.75, 0.26])
    workloads._check_energies(op, [-0.75, 0.25])


@pytest.mark.parametrize("workload", ["spectrum_sweep", "verify_sweep"])
def test_each_point_takes_one_jitter_draw_per_stratum(workload):
    inputs = make_inputs(workload, 4, 25)
    k = workloads.cycles(workload, 25)
    for lam, base in TIMED_MIX[workload]:
        factors = [op.s / base for op in inputs.timed
                   if op.lam == lam and 0.85 * base < op.s < 1.15 * base]
        strata = sorted(int((f - 0.9) / (0.2 / k)) for f in factors)
        assert strata == list(range(k))
