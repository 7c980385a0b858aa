import pytest

from calibrate import WORKLOAD_KERNEL, Probe
from workloads import WORKLOADS


def test_every_workload_has_a_probe():
    assert set(WORKLOAD_KERNEL) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_probe_times_its_kernel(workload):
    probe = Probe(workload)
    assert 0.0 < probe() < 5.0


def test_rescale_uses_the_mean_of_the_bracketing_probes():
    probe = Probe("spectrum_sweep")
    ref = probe.reference_s
    probes = [ref, 3 * ref, 2 * ref]
    assert probe.rescale([1.0, 4.0, 6.0], [0, 0, 1], probes) == pytest.approx([0.5, 2.0, 2.4])


def test_rescale_is_identity_at_reference_speed():
    probe = Probe("verify_sweep")
    assert probe.rescale([0.3, 0.7], [0, 1], [probe.reference_s] * 3) == pytest.approx([0.3, 0.7])
