"""Span tracer that wraps fedgs_sim functions at their import sites.

A site is a (module, attribute) pair: the name a caller looks up at call
time. Wrapping `fedgs_sim.fl.backward` times every backward pass the client
loop makes, without touching the package's source. Each call records one
span (site, start, end, parent span, run id); spans stay in memory and are
written out by the caller when the sweep ends. A layer's self time is the
time its spans cover minus the time covered by their child spans.

The tracer fails loudly: a site whose attribute is missing raises at install
time, and a site that records no calls raises at summary time, so a rename
in the package cannot silently zero a layer.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, layer). Every site is on the training path of every
# workload, since every workload runs both strategies.
SITES: tuple[tuple[str, str, str], ...] = (
    ("fedgs_sim.cli", "parse_config", "config.parse"),
    ("fedgs_sim.cli", "run_experiment", "harness"),
    ("fedgs_sim.cli", "fedgs_overhead", "harness"),
    ("fedgs_sim.cli", "write_results_csv", "harness.csv_write"),
    ("fedgs_sim.harness", "_run_one", "harness"),
    ("fedgs_sim.harness", "build_federation", "data.generate"),
    ("fedgs_sim.data", "generate_client_dataset", "data.generate"),
    ("fedgs_sim.harness", "init_params", "model.init"),
    ("fedgs_sim.harness", "run_round", "fl.round"),
    ("fedgs_sim.harness", "evaluate", "metrics.evaluate"),
    ("fedgs_sim.fl", "run_client_round", "fl.client_round"),
    ("fedgs_sim.fl", "local_iteration", "fl.client_round"),
    ("fedgs_sim.fl", "backward", "model.backward"),
    ("fedgs_sim.fl", "optimizer_step", "model.optimizer_step"),
    ("fedgs_sim.fl", "difficulty_factor", "masks.difficulty"),
    ("fedgs_sim.fl", "batch_scaling_factor", "masks.difficulty"),
    ("fedgs_sim.fl", "aggregate_fedgs", "fl.aggregate"),
    ("fedgs_sim.fl", "aggregate_fedavg", "fl.aggregate"),
    ("fedgs_sim.fl", "apply_global_update", "fl.aggregate"),
    ("fedgs_sim.metrics", "forward", "model.forward"),
    ("fedgs_sim.metrics", "dice_score", "metrics.dice_score"),
    ("fedgs_sim.metrics", "difficulty_factor", "masks.difficulty"),
    ("fedgs_sim.metrics", "validate_mask", "masks.validate"),
    ("fedgs_sim.model", "validate_mask", "masks.validate"),
    ("fedgs_sim.masks", "validate_mask", "masks.validate"),
)

# The span the benchmark opens around one whole `fedgs-sim run` call.
ROOT_SITE = "cli.main"
ROOT_LAYER = "cli"

# Sites whose arguments or results feed a count beyond the number of calls.
_IMAGES_SITES = {"fedgs_sim.fl.backward", "fedgs_sim.metrics.forward"}
_DIFFICULTY_SITES = {"fedgs_sim.fl.difficulty_factor", "fedgs_sim.metrics.difficulty_factor"}
_ETA_SITE = "fedgs_sim.fl.batch_scaling_factor"
_RUN_SITE = "fedgs_sim.harness._run_one"


class TracerError(RuntimeError):
    """A wrapped site is missing, or a site on the training path never ran."""


def _images_in(image) -> int:
    """One image per call today; a batched kernel passes an (N, H, W) stack."""
    shape = np.shape(image)
    return int(shape[0]) if len(shape) == 3 else 1


class Tracer:
    """Spans and counts from every sweep run while installed; see summary()."""

    def __init__(self) -> None:
        self.site_names = [ROOT_SITE] + [f"{m}.{a}" for m, a, _ in SITES]
        self.site_layers = [ROOT_LAYER] + [layer for _, _, layer in SITES]
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.runs: list[tuple[int, str]] = []  # run id -> (seed, strategy)
        self.images: dict[str, int] = defaultdict(int)
        self.masks_seen: set[tuple[int, tuple[int, ...], bytes]] = set()
        self.etas: list[float] = []
        self._stack = [-1]
        self._run = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Replace every site's attribute with a timing wrapper."""
        if self._saved:
            raise TracerError("tracer is already installed")
        for site_id, (module_name, attr, _) in enumerate(SITES, start=1):
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise TracerError(f"wrapped site {module_name}.{attr} is missing")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, site_id, f"{module_name}.{attr}"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, site_id: int, site: str):
        spans, stack, run = self.spans, self._stack, self._run
        clock = time.perf_counter
        note = self._note_for(site)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (site_id, start, end, parent, run[0])
            if note is not None:
                note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return self._run_scope(wrapper) if site == _RUN_SITE else wrapper

    def _run_scope(self, wrapper):
        """Give every span inside one (seed, strategy) run that run's id."""

        def run_wrapper(cfg, seed, strategy_kind, *rest):
            previous = self._run[0]
            self._run[0] = len(self.runs)
            self.runs.append((seed, strategy_kind))
            try:
                return wrapper(cfg, seed, strategy_kind, *rest)
            finally:
                self._run[0] = previous

        return run_wrapper

    def _note_for(self, site: str):
        if site in _IMAGES_SITES:
            def note(args, kwargs, result):
                self.images[site] += _images_in(args[1] if len(args) > 1 else kwargs["image"])
            return note
        if site in _DIFFICULTY_SITES:
            def note(args, kwargs, result):
                mask = np.asarray(args[0] if args else kwargs["mask"])
                self.masks_seen.add((self._run[0], mask.shape, mask.tobytes()))
            return note
        if site == _ETA_SITE:
            def note(args, kwargs, result):
                self.etas.append(result)
            return note
        return None

    @contextlib.contextmanager
    def root(self):
        """The benchmark's own span around one whole sweep."""
        if self._stack != [-1]:
            raise TracerError("root span opened inside another span")
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (0, start, end, -1, -1)

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("index,site,start_s,end_s,parent,run_seed,run_strategy\n")
            for index, (site_id, start, end, parent, run) in enumerate(self.spans):
                seed, strategy = self.runs[run] if run >= 0 else ("", "")
                fh.write(f"{index},{self.site_names[site_id]},{start!r},{end!r},{parent},{seed},{strategy}\n")

    def summary(self) -> dict[str, float]:
        """Per-layer self times and counts per traced sweep, and layer shares.

        Every traced sweep runs the same config, so totals are divided by the
        number of root spans; counts stay whole numbers.
        """
        if any(span is None for span in self.spans):
            raise TracerError("summary taken while a span is still open")
        n_sites = len(self.site_names)
        calls = [0] * n_sites
        total = [0.0] * n_sites
        children = defaultdict(float)
        for site_id, start, end, parent, _ in self.spans:
            calls[site_id] += 1
            total[site_id] += end - start
            if parent >= 0:
                children[parent] += end - start
        self_time = [0.0] * n_sites
        for index, (site_id, start, end, _, _) in enumerate(self.spans):
            self_time[site_id] += (end - start) - children[index]

        idle = [self.site_names[i] for i in range(n_sites) if calls[i] == 0]
        if idle:
            raise TracerError(f"sites on the training path recorded zero calls: {', '.join(idle)}")

        def site(name: str) -> int:
            return self.site_names.index(name)

        layer_self: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        for i, layer in enumerate(self.site_layers):
            layer_self[layer] += self_time[i]
            layer_calls[layer] += calls[i]
        sweeps = calls[site(ROOT_SITE)]
        sweep_s = total[site(ROOT_SITE)]

        backward_images = self.images["fedgs_sim.fl.backward"]
        difficulty_calls = calls[site("fedgs_sim.fl.difficulty_factor")] + calls[
            site("fedgs_sim.metrics.difficulty_factor")
        ]
        per_sweep: dict[str, float] = {
            "trace.sweep_s": sweep_s,
            "trace.spans": len(self.spans),
            "model.backward_s": layer_self["model.backward"],
            "model.backward_calls": calls[site("fedgs_sim.fl.backward")],
            "model.backward_images": backward_images,
            "model.forward_s": layer_self["model.forward"],
            "model.forward_calls": calls[site("fedgs_sim.metrics.forward")],
            "model.forward_images": self.images["fedgs_sim.metrics.forward"],
            "model.optimizer_step_s": layer_self["model.optimizer_step"],
            "model.optimizer_steps": calls[site("fedgs_sim.fl.optimizer_step")],
            "masks.validate_s": layer_self["masks.validate"],
            "masks.validate_calls": layer_calls["masks.validate"],
            "masks.difficulty_s": layer_self["masks.difficulty"],
            "masks.difficulty_calls": difficulty_calls,
            "fl.client_round_self_s": layer_self["fl.client_round"],
            "fl.client_rounds": calls[site("fedgs_sim.fl.run_client_round")],
            "fl.local_steps": calls[site("fedgs_sim.fl.local_iteration")],
            "fl.round_self_s": layer_self["fl.round"],
            "fl.aggregate_s": layer_self["fl.aggregate"],
            "fl.aggregate_calls": calls[site("fedgs_sim.fl.aggregate_fedgs")]
            + calls[site("fedgs_sim.fl.aggregate_fedavg")],
            "metrics.evaluate_self_s": layer_self["metrics.evaluate"],
            "metrics.dice_score_s": layer_self["metrics.dice_score"],
            "metrics.dice_score_calls": calls[site("fedgs_sim.metrics.dice_score")],
            "data.generate_s": layer_self["data.generate"],
            "data.generate_calls": calls[site("fedgs_sim.data.generate_client_dataset")],
            "harness.self_s": layer_self["harness"],
            "harness.csv_write_s": layer_self["harness.csv_write"],
            "config.parse_s": layer_self["config.parse"],
        }
        out = {name: value / sweeps for name, value in per_sweep.items()}
        out["trace.sweeps"] = sweeps
        out["model.backward_us_per_image"] = layer_self["model.backward"] / backward_images * 1e6
        out["masks.difficulty_useful_ratio"] = len(self.masks_seen) / difficulty_calls
        out["fl.amplified_batch_ratio"] = sum(1 for eta in self.etas if eta > 1.0) / len(self.etas)
        for layer in sorted(layer_self):
            out[f"{layer}.share"] = layer_self[layer] / sweep_s
        return out


def wrapped_sites() -> list[str]:
    return [f"{m}.{a} -> {layer}" for m, a, layer in SITES]
