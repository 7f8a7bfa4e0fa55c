"""The names that bench/probes.py patches at run time still exist and keep
the call shape its wrappers read, checked without running the benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

from gtlab import NoiseModel, estimate_average_error, estimate_sweep

PROBES = Path(__file__).resolve().parents[1] / "bench" / "probes.py"


@pytest.fixture(scope="module")
def probes():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(probes):
    targets = [(module, attr) for module, attr, _ in probes.SPAN_TARGETS]
    targets += [(module, attr) for module, attr, _ in probes.Capture(0).replacements()]
    missing = [(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_collect_histogram_leads_with_the_parameters_capture_reads(probes):
    import gtlab.montecarlo

    wrapper = probes.Capture(0)._wrap_collect(gtlab.montecarlo._collect_histogram)
    read = [p.name for p in inspect.signature(wrapper).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]
    assert len(read) == 7
    params = list(inspect.signature(gtlab.montecarlo._collect_histogram).parameters)
    assert params[:7] == read


def test_capture_counts_each_configuration_and_t_once(probes):
    capture = probes.Capture(0)
    capture.begin_job(SimpleNamespace(name="job", oracle_share=0.0))
    with probes.patched(capture.replacements()):
        estimate_average_error(8, 2, 10, 0.5, NoiseModel.additive(0.1), 5, 1)
        estimate_sweep(8, 2, 0.5, NoiseModel.noise_free(), [4, 70], 6, 2)
    capture.end_job()
    assert capture.trials["job"] == 5 + 2 * 6
    assert len(capture.histograms) == 3
