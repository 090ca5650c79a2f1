"""Fig. 13a-c: knob sweeps vs resources and execution time."""

from conftest import report, run_once
from repro.experiments.fig13_14 import run_fig13a, run_fig13b, run_fig13c


def test_fig13a_nd_sweep(benchmark):
    result = run_once(benchmark, run_fig13a)
    report(result)
    times = result.column("time_ms")
    assert all(b <= a for a, b in zip(times, times[1:]))  # diminishing returns
    assert times[0] / times[-1] > 5.0  # large performance impact


def test_fig13b_nm_sweep(benchmark):
    result = run_once(benchmark, run_fig13b)
    report(result)
    times = result.column("time_ms")
    assert all(b <= a for a, b in zip(times, times[1:]))


def test_fig13c_s_sweep(benchmark):
    result = run_once(benchmark, run_fig13c)
    report(result)
    times = result.column("time_ms")
    dsp = result.column("dsp_pct")
    # Large impact with diminishing returns (one knob alone; the other
    # two floor the latency — the paper's full 20x span is joint).
    assert times[0] / min(times) > 3.0
    # s has the most significant resource impact (paper: ~50% more DSP
    # from s=1 to s=80).
    assert dsp[-1] - dsp[0] > 40.0


def test_joint_knob_span():
    """Sec. 4.1: varying the three knobs jointly changes the end-to-end
    latency by over 20x and the resource consumption by about 3x."""
    from repro.hw import DEFAULT_RESOURCE_MODEL, HardwareConfig, LatencyModel

    latency = LatencyModel()
    smallest = HardwareConfig(1, 1, 1)
    largest = HardwareConfig(30, 25, 120)
    assert latency.seconds(smallest) / latency.seconds(largest) > 20.0
    use_small = DEFAULT_RESOURCE_MODEL.usage(smallest)
    use_large = DEFAULT_RESOURCE_MODEL.usage(largest)
    assert use_large["dsp"] / use_small["dsp"] > 2.5
