"""In-memory spans around the calls into each skysim layer.

Spans are recorded from outside the program: a traced round replaces
the module attributes through which one layer calls into another (for
example `skysim.experiments.generate_screen`) with timing wrappers, and
puts the originals back when the round ends. Nothing in `skysim` knows
it is being traced.

A span is (name, parent index, round, start, end). Self time is a
span's duration minus the durations of its direct children; the calls
are sequential, so children never overlap. A layer's busy time is the
sum of the self times of its spans, so the busy times of all layers
plus `experiments.self_s` add up to the round's wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name). The module is where the caller looks
# the function up, so one function can appear once per calling module.
# JSON serialisers (`density_to_json`, `record_to_json`) are not
# wrapped: writing artifacts is the experiments layer's own work.
WRAPPED = (
    ("skysim.experiments", "generate_screen", "turbulence.generate_screen"),
    ("skysim.channel", "lg_field", "modes.lg_field"),
    ("skysim.topology", "lg_field", "modes.lg_field"),
    ("skysim.states", "effective_channel", "channel.effective_channel"),
    ("skysim.states", "projective_probability", "channel.projective_probability"),
    ("skysim.experiments", "effective_channel", "channel.effective_channel"),
    ("skysim.channel", "crosstalk_amplitude", "channel.crosstalk_amplitude"),
    (
        "skysim.channel",
        "survival_probability_analytic",
        "channel.survival_probability_analytic",
    ),
    ("skysim.experiments", "simulate_tomography", "states.simulate_tomography"),
    ("skysim.experiments", "reconstruct_density", "states.reconstruct_density"),
    ("skysim.experiments", "ensemble_average", "states.ensemble_average"),
    ("skysim.experiments", "evaluate_witnesses", "witnesses.evaluate_witnesses"),
    ("skysim.experiments", "discord", "witnesses.discord"),
    ("skysim.experiments", "skyrmion_number", "topology.skyrmion_number"),
    ("skysim.topology", "spatial_density", "topology.spatial_density"),
)

ROOT_SPAN = "experiments.run"


def _note_reconstruction(counts: Counter, out) -> None:
    # experiments asks for diagnostics, so the result is (rho, diagnostics)
    if isinstance(out, tuple):
        diag = out[1]
        counts["states.refine_improved"] += diag.get("method") == "iterative"
        counts["states.repaired"] += bool(diag.get("repaired"))


def _note_wrapping(counts: Counter, out) -> None:
    if isinstance(out, tuple):
        counts["topology.octant_fallbacks"] += out[1].get("estimator") == "octant"


_RESULT_HOOKS = {
    "states.reconstruct_density": _note_reconstruction,
    "topology.skyrmion_number": _note_wrapping,
}


class Tracer:
    """Collects spans and counters for the rounds it is asked to trace."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._round = -1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._round, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        counts = self.counts[self._round]
        hook = _RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, out)
            return out

        return traced

    @contextmanager
    def round(self, round_idx: int):
        """Trace everything the block calls; the block is the root span."""
        self._round = round_idx
        self.counts[round_idx] = Counter()
        originals = []
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root)
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def round_profile(self, round_idx: int) -> tuple[Counter, Counter, Counter]:
        """(calls, self seconds, errors and result counters) per span name."""
        calls: Counter = Counter()
        own: Counter = Counter()
        index = [i for i, s in enumerate(self.spans) if s[2] == round_idx]
        child_time: Counter = Counter()
        for i in index:
            name, parent, _, t0, t1 = self.spans[i]
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i in index:
            name, _, _, t0, t1 = self.spans[i]
            calls[name] += 1
            own[name] += (t1 - t0) - child_time[i]
        return calls, own, self.counts[round_idx]

    def write(self, path) -> None:
        """One JSON object per span, written once at the end of a run."""
        with open(path, "w") as fh:
            for name, parent, rnd, t0, t1 in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "parent": parent, "round": rnd,
                         "start": t0, "end": t1}
                    )
                    + "\n"
                )


def _ratio(num: float, base: float) -> float:
    # a ratio over an empty base reads 0; its base is reported beside it
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, round_idx: int, tree: dict) -> dict[str, float]:
    """Per-layer figures of one traced round.

    `tree` holds what the round left on disk: files, bytes, and how many
    witness blocks and wrapping numbers were written. A round that
    writes no tree (calibration) counts zero of each.
    """
    written = {k: tree.get(k, 0) for k in
               ("files", "bytes", "witness_blocks", "wrapping_numbers")}
    calls, own, counts = tracer.round_profile(round_idx)

    def busy(layer: str) -> float:
        return sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)

    def n_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.split(".", 1)[0] == layer)

    recon = calls["states.reconstruct_density"]
    wit = calls["witnesses.evaluate_witnesses"]
    topo = calls["topology.skyrmion_number"]
    return {
        "turbulence.screens": calls["turbulence.generate_screen"],
        "turbulence.busy_s": busy("turbulence"),
        "modes.lg_field_calls": calls["modes.lg_field"],
        "modes.busy_s": busy("modes"),
        "channel.calls": n_calls("channel"),
        "channel.busy_s": busy("channel"),
        "states.busy_s": busy("states"),
        "states.tomography_busy_s": own["states.simulate_tomography"],
        "states.reconstruct_busy_s": own["states.reconstruct_density"],
        "states.reconstruct_calls": recon,
        "states.refine_useful_ratio": _ratio(counts["states.refine_improved"], recon),
        "states.repaired": counts["states.repaired"],
        "witnesses.calls": wit,
        "witnesses.busy_s": busy("witnesses"),
        "witnesses.useful_ratio": _ratio(written["witness_blocks"], wit),
        "topology.calls": topo,
        "topology.busy_s": busy("topology"),
        "topology.spatial_density_busy_s": own["topology.spatial_density"],
        "topology.useful_ratio": _ratio(written["wrapping_numbers"], topo),
        "topology.octant_fallbacks": counts["topology.octant_fallbacks"],
        "topology.errors": counts["topology.skyrmion_number.errors"],
        "experiments.self_s": own[ROOT_SPAN],
        "experiments.bytes_written": written["bytes"],
        "experiments.files_written": written["files"],
    }
