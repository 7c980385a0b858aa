import sys
import types

import pytest

from tracing import Span, Target, Tracer, covered, self_times


def span(name, start, end, parent=None):
    return Span(name, start, parent, None, end=end)


def test_self_time_subtracts_children():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 5.0, 6.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("op", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 7.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_covered_clips_to_the_parent():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(1.0, 2.0), (1.5, 1.8)], 0.0, 10.0) == pytest.approx(1.0)
    assert covered([], 0.0, 10.0) == 0.0


def test_self_times_sum_to_the_root_duration():
    spans = [span("op", 0.0, 8.0), span("a", 1.0, 3.0, 0), span("b", 1.5, 2.5, 1)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def package():
    """A package `fakepkg` whose `user` module binds `work` by name."""
    lib = types.ModuleType("fakepkg.lib")

    def work(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    lib.work = work
    user = types.ModuleType("fakepkg.user")
    user.work = work
    user.alias = work
    user.call = lambda x: user.work(x)
    root = types.ModuleType("fakepkg")
    root.work = work
    modules = {"fakepkg": root, "fakepkg.lib": lib, "fakepkg.user": user}
    sys.modules.update(modules)
    yield modules
    for name in modules:
        del sys.modules[name]


def test_patched_wraps_every_binding_site_and_restores(package):
    original = package["fakepkg.lib"].work
    tracer = Tracer(clock=FakeClock())
    target = Target("fakepkg.lib", "work", "lib.work", lambda a, k, r: {"out": r})
    with tracer.patched("fakepkg", [target]):
        for module, attr in (("fakepkg", "work"), ("fakepkg.lib", "work"),
                             ("fakepkg.user", "work"), ("fakepkg.user", "alias")):
            assert getattr(package[module], attr) is not original
        with tracer.span("op", op=7):
            assert package["fakepkg.user"].call(3) == 6
            with pytest.raises(ValueError):
                package["fakepkg.user"].alias(-1)
    for module, attr in (("fakepkg", "work"), ("fakepkg.lib", "work"),
                         ("fakepkg.user", "work"), ("fakepkg.user", "alias")):
        assert getattr(package[module], attr) is original

    root, ok, bad = tracer.spans
    assert [s.name for s in tracer.spans] == ["op", "lib.work", "lib.work"]
    assert ok.parent == 0 and bad.parent == 0
    assert {s.op for s in tracer.spans} == {7}
    assert ok.attrs == {"out": 6} and ok.error is None
    assert bad.error == "ValueError"
    assert root.start < ok.start < ok.end < bad.start < bad.end < root.end


def test_calls_outside_patched_are_not_traced(package):
    tracer = Tracer()
    target = Target("fakepkg.lib", "work", "lib.work")
    with tracer.patched("fakepkg", [target]):
        pass
    package["fakepkg.user"].call(1)
    assert tracer.spans == []
