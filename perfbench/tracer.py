"""In-memory span tracer that wraps rnet's public functions from outside.

Nothing under ``src/`` knows about it.  ``install`` replaces each target
function in every ``rnet`` module namespace that binds it by name (for
example ``response_matrix`` is bound in ``lattice``, ``experiments``,
``measure_sim``, ``cli`` and the package itself) and ``uninstall`` puts
the originals back.  A target that no longer exists is skipped, so its
metrics read 0 instead of crashing the benchmark.

A span is ``(name, start, end, parent, op, attr, refused)``: ``parent`` is
the index of the enclosing span or -1, ``op`` the operation id, ``attr`` a
per-function number (matrix order, peel length, k, bytes) and ``refused`` the
layer of an ``RnetError`` that escaped the call, else ``None``.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _peel_length(obj) -> int:
    # face_blocks takes the matrix; the later peel stages carry .length or
    # .current_length.  The ring is derived from it once k is known.
    if hasattr(obj, "current_length"):
        return obj.current_length
    if hasattr(obj, "length"):
        return obj.length
    return len(obj) // 4


# (module, function, how to read the span attribute from the first argument
# or, for "result", from the return value).
TARGETS = (
    ("lattice", "build_kirchhoff", None),
    ("lattice", "response_matrix", None),
    ("lattice", "random_conductances", None),
    ("lattice", "network_to_json", None),
    ("lattice", "network_from_json", None),
    ("matrixkit", "lu_factor", ("arg", len)),
    ("matrixkit", "solve_linear_system", None),
    ("matrixkit", "condition_estimate", None),
    ("matrixkit", "schur_complement", None),
    ("matrixkit", "matrix_to_csv", ("result", len)),
    ("matrixkit", "matrix_from_csv", ("arg", len)),
    ("reconstruct", "reconstruct_full", ("k", None)),
    ("reconstruct", "face_blocks", ("arg", _peel_length)),
    ("reconstruct", "tilde_face_matrices", ("arg", _peel_length)),
    ("reconstruct", "extract_boundary_conductances", ("arg", _peel_length)),
    ("reconstruct", "peel_layer", ("arg", _peel_length)),
    ("reconstruct", "apply_schedule", None),
    ("reconstruct", "apply_spike_removal", None),
    ("reconstruct", "apply_edge_removal", None),
    ("reconstruct", "reconstruction_to_json", None),
    ("reconstruct", "reconstruction_edges_from_json", None),
    ("measure_sim", "simulate_measurement", None),
    ("measure_sim", "apply_elementwise_noise", None),
    ("experiments", "run_size_sweep", None),
    ("experiments", "run_noise_sweep", None),
    ("experiments", "rmse_metrics", None),
    ("render", "compute_delta_map", None),
    ("render", "render_delta_map", None),
    ("render", "delta_map_to_json", None),
    ("render", "delta_map_from_json", None),
    ("cli", "main", None),
)

CLI_COMMANDS = ("generate", "measure", "reconstruct", "delta", "render")


class Tracer:
    """Collects spans from wrapped rnet functions while installed."""

    def __init__(self, rnet_error: type):
        self.spans: list[tuple] = []
        self.op = -1
        self._rnet_error = rnet_error
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, how):
        spans = self.spans
        stack = self._stack
        rnet_error = self._rnet_error
        source, read = how if how else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            refused = None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except rnet_error as exc:
                refused = getattr(exc, "layer", -1)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if source == "arg":
                    attr = read(args[0])
                elif source == "result":
                    attr = read(result) if result is not None else 0
                elif source == "k":
                    attr = args[1] if len(args) > 1 else kwargs["k"]
                else:
                    attr = 0
                spans[index] = (name, start, end, parent, self.op, attr, refused)

        return traced

    def install(self) -> None:
        """Wrap every target in every rnet namespace that binds it."""
        if self._restore:
            return
        group = getattr(sys.modules.get("rnet.cli"), "main", None)
        commands = getattr(group, "commands", {})
        for command in CLI_COMMANDS:
            cmd = commands.get(command)
            if cmd is not None:
                self._restore.append((cmd, "callback", cmd.callback))
                cmd.callback = self._wrap(f"cli.{command}", cmd.callback, None)
        namespaces = [m for n, m in sys.modules.items() if n == "rnet" or n.startswith("rnet.")]
        for module_name, fn_name, how in TARGETS:
            original = getattr(sys.modules.get(f"rnet.{module_name}"), fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, how)
            for namespace in namespaces:
                if namespace.__dict__.get(fn_name) is original:
                    self._restore.append((namespace, fn_name, original))
                    setattr(namespace, fn_name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Dump every span as one JSON list per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
