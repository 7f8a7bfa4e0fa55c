"""Runtime instrumentation of gtlab from outside the package.

Nothing under ``src/`` changes: ``patched`` swaps module attributes for
wrappers and restores them on exit.  The trial loop and the command line
look these names up at call time, so the wrappers see every call.

``Capture`` is used on the untimed first pass of a job list: it keeps a
deterministic subsample of decodes for the oracle, the miss histograms for
the digest, and the number of distinct (configuration, trial) pairs.

``Tracer`` records spans (name, start, end, parent, job) in flat arrays and
turns them into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import importlib
import random
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

ESTIMATORS = ("estimate_average_error", "estimate_partial_error", "empirical_pei_profile",
              "estimate_worstcase_error", "find_minimal_t")
BOUND_FUNCTIONS = ("achievable_tests", "fano_lower_bound", "additive_converse")

# (module, attribute, span name); the layer is the part before the first dot
SPAN_TARGETS = (
    [("gtlab.model", "bernoulli_grid", "rng.bernoulli_grid"),
     ("gtlab.model", "pack_bits", "bitops.pack_bits"),
     ("gtlab.model", "unpack_bits", "bitops.unpack_bits"),
     ("gtlab.montecarlo", "generate_codebook", "model.codebook"),
     ("gtlab.cli", "generate_codebook", "model.codebook"),
     ("gtlab.montecarlo", "apply_channel", "model.channel"),
     ("gtlab.montecarlo", "noiseless_outcome", "model.channel"),
     ("gtlab.montecarlo", "_sample_truth", "montecarlo.truth"),
     ("gtlab.montecarlo", "ml_decode", "decoder.ml_decode"),
     ("gtlab.cli", "main", "cli.main")]
    + [(module, fn, f"montecarlo.{fn}")
       for module in ("gtlab", "gtlab.montecarlo", "gtlab.cli") for fn in ESTIMATORS]
    + [("gtlab.cli", fn, f"bounds.{fn}") for fn in BOUND_FUNCTIONS]
)


@contextlib.contextmanager
def patched(replacements):
    """Install (module name, attribute, make_wrapper) replacements; undo them on exit."""
    saved = []
    try:
        for module_name, attr, make_wrapper in replacements:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# first-pass capture


class Capture:
    """Hooks for the untimed first pass of a job list."""

    def __init__(self, seed: int):
        self.seed = seed
        self.samples = []       # (job, codebook, outcome, k, noise, result)
        self.histograms = []    # (job, miss histogram as a list)
        self.trials = {}        # job -> distinct (configuration, trial) pairs
        self.decodes = {}       # job -> decoder calls
        self._job = None
        self._share = 0.0
        self._rng = random.Random()
        self._configs = {}
        self._worst_depth = 0

    def begin_job(self, job) -> None:
        self._job, self._share = job.name, job.oracle_share
        self._rng = random.Random(f"{self.seed}/{job.name}")
        self._configs = {}
        self.trials[job.name] = 0
        self.decodes[job.name] = 0

    def end_job(self) -> None:
        self.trials[self._job] += sum(self._configs.values())

    def replacements(self):
        return [
            ("gtlab.montecarlo", "ml_decode", self._wrap_decode),
            ("gtlab.montecarlo", "_collect_histogram", self._wrap_collect),
            ("gtlab.montecarlo", "_miss_histogram", self._wrap_histogram),
            ("gtlab.montecarlo", "estimate_worstcase_error", self._wrap_worst),
            ("gtlab.cli", "estimate_worstcase_error", self._wrap_worst),
        ]

    def _wrap_decode(self, fn):
        def ml_decode(codebook, outcome, k, noise_model, *args, **kwargs):
            result = fn(codebook, outcome, k, noise_model, *args, **kwargs)
            self.decodes[self._job] += 1
            if self._worst_depth:
                self.trials[self._job] += 1  # each (truth set, draw) is decoded once
            if self._rng.random() < self._share:
                self.samples.append((self._job, codebook, outcome, k, noise_model, result))
            return result
        return ml_decode

    def _wrap_collect(self, fn):
        def collect(n_items, k, n_tests, p, noise_model, trials, master_seed, *args):
            key = (n_items, k, n_tests, p, noise_model, master_seed)
            self._configs[key] = max(self._configs.get(key, 0), trials)
            return fn(n_items, k, n_tests, p, noise_model, trials, master_seed, *args)
        return collect

    def _wrap_histogram(self, fn):
        def miss_histogram(*args, **kwargs):
            hist = fn(*args, **kwargs)
            self.histograms.append((self._job, [int(v) for v in hist]))
            return hist
        return miss_histogram

    def _wrap_worst(self, fn):
        def worst(*args, **kwargs):
            self._worst_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._worst_depth -= 1
        return worst


# ---------------------------------------------------------------------------
# span tracing


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.job_id = -1
        self._stack: list[int] = []
        self.decode_candidates = 0
        self.decode_ties = 0
        self.decode_neg_inf = 0

    def replacements(self):
        return [(module, attr, self._maker(span)) for module, attr, span in SPAN_TARGETS]

    def _maker(self, span_name):
        name_id = self._name_ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        on_return = self._count_decode if span_name == "decoder.ml_decode" else None
        return lambda fn: self._wrap(fn, name_id, on_return)

    def _wrap(self, fn, name_id, on_return):
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            index = len(starts)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.job.append(self.job_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_decode(self, result) -> None:
        self.decode_candidates += result.n_evaluated
        self.decode_ties += bool(result.tie)
        self.decode_neg_inf += result.log_likelihood == float("-inf")

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> "Spans":
        names = np.array(self.names, dtype=object)[np.frombuffer(self.name, dtype=np.int32)]
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        layer = np.array([n.split(".")[0] for n in names], dtype=object)
        return Spans(names, layer, parent, duration, duration - child)

    def write(self, path) -> None:
        """One CSV line per span: name, start, end, parent, job."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start,end,parent,job\n")
            for i in range(len(self.start)):
                handle.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                             f"{self.end[i]:.9f},{self.parent[i]},{self.job[i]}\n")


@dataclass(frozen=True)
class Spans:
    """Column view of recorded spans; self time is duration minus direct children."""

    names: np.ndarray
    layer: np.ndarray
    parent: np.ndarray
    duration: np.ndarray
    self_time: np.ndarray

    def outermost(self, layer: str) -> np.ndarray:
        """Spans of a layer that are not nested in another span of the same layer."""
        parent_layer = np.where(self.parent >= 0, self.layer[np.maximum(self.parent, 0)], "")
        return (self.layer == layer) & (parent_layer != layer)

    def children_of(self, name: str) -> np.ndarray:
        return np.isin(self.parent, np.flatnonzero(self.names == name))


def layer_metrics(tracer: Tracer, passes: int, trials_per_pass: int) -> dict:
    """Per-layer metrics of a traced phase, as values per pass of the job list."""
    spans = tracer.arrays()
    names, duration, self_time = spans.names, spans.duration, spans.self_time

    def per_pass(value):
        return float(value) / passes

    def pct(mask, q):
        values = duration[mask]
        return float(np.percentile(values, q)) * 1e6 if values.size else 0.0

    rng, bitops = spans.outermost("rng"), spans.outermost("bitops")
    bounds = spans.outermost("bounds")
    codebook, channel = names == "model.codebook", names == "model.channel"
    truth, decoder = names == "montecarlo.truth", names == "decoder.ml_decode"
    estimator = (spans.layer == "montecarlo") & ~truth
    cli = names == "cli.main"
    decoder_calls = int(decoder.sum())
    p99 = pct(decoder, 99)
    return {
        "rng.busy_s": per_pass(duration[rng].sum()),
        "rng.calls": per_pass(rng.sum()),
        "bitops.busy_s": per_pass(duration[bitops].sum()),
        "bitops.calls": per_pass(bitops.sum()),
        "model.codebook.self_s": per_pass(self_time[codebook].sum()),
        "model.codebook.calls": per_pass(codebook.sum()),
        "model.codebook.p50_us": pct(codebook, 50),
        "model.channel.self_s": per_pass(self_time[channel].sum()),
        "model.channel.calls": per_pass(channel.sum()),
        "montecarlo.truth.busy_s": per_pass(duration[truth].sum()),
        "decoder.busy_s": per_pass(duration[decoder].sum()),
        "decoder.calls": per_pass(decoder_calls),
        "decoder.p50_us": pct(decoder, 50),
        "decoder.p99_us": p99,
        "decoder.latency_samples": float(decoder_calls),
        "decoder.p99_tail_samples": float((duration[decoder] * 1e6 > p99).sum()),
        "decoder.candidates": per_pass(tracer.decode_candidates),
        "decoder.ties": per_pass(tracer.decode_ties),
        "decoder.neg_inf": per_pass(tracer.decode_neg_inf),
        "montecarlo.self_s": per_pass(self_time[estimator].sum()),
        "montecarlo.decodes_per_trial": decoder_calls / max(1, passes * trials_per_pass),
        "bounds.busy_s": per_pass(duration[bounds].sum()),
        "bounds.calls": per_pass(bounds.sum()),
        "cli.self_s": per_pass(self_time[cli].sum()),
    }


def layer_shares(tracer: Tracer) -> dict:
    """Share of traced job time spent in each layer: inclusive for the trial
    stages, self time for the orchestrating layers."""
    spans = tracer.arrays()
    names, layer, duration = spans.names, spans.layer, spans.duration
    total = float(duration[spans.parent < 0].sum()) or 1.0
    in_codebook = spans.children_of("model.codebook")
    stages = {
        "model.codebook": names == "model.codebook",
        "rng (in codebook)": (layer == "rng") & in_codebook,
        "bitops (in codebook)": (layer == "bitops") & in_codebook,
        "montecarlo.truth": names == "montecarlo.truth",
        "model.channel": names == "model.channel",
        "decoder": names == "decoder.ml_decode",
        "bounds": layer == "bounds",
    }
    shares = {key: float(duration[mask].sum()) / total for key, mask in stages.items()}
    estimator = (layer == "montecarlo") & (names != "montecarlo.truth")
    shares["montecarlo (self)"] = float(spans.self_time[estimator].sum()) / total
    shares["cli (self)"] = float(spans.self_time[names == "cli.main"].sum()) / total
    return shares
