"""In-memory span tracer for one traced run of the bladesense CLI.

Run as a child process in place of ``python -m bladesense``::

    python perfbench/tracer.py SPANS.json -- pipeline --config C --out O

It imports the package, wraps the layer entry points the CLI reaches,
runs the CLI and, when it returns, writes every span to ``SPANS.json``.
A span is ``[name_index, start_s, end_s, parent_span, note]``; ``note``
holds the manifest path of a dataset read or write, so the bytes moved can
be computed from the files afterwards.

The wrappers sit on the names ``bladesense.pipeline`` binds with
``from .x import y`` (patching the defining module would miss those
calls), on the ``pipeline._STAGES`` table ``run_pipeline`` dispatches
through, on the ``svgplot`` plot functions, and on ``generate_case`` /
``save_case`` for a traced ``synth``. A name that is missing is skipped
and reports zero calls.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (module, attribute, span name); the module binding is what gets patched
TARGETS = (
    ("bladesense.pipeline", "load_case", "dataset.load_case"),
    ("bladesense.pipeline", "load_torsion", "dataset.load_torsion"),
    ("bladesense.pipeline", "pod_fit", "decomposition.pod_fit"),
    ("bladesense.pipeline", "project", "decomposition.project"),
    ("bladesense.pipeline", "place_sensors", "sensing.place_sensors"),
    ("bladesense.pipeline", "observe", "sensing.observe"),
    ("bladesense.pipeline", "sparse_estimate", "sensing.sparse_estimate"),
    ("bladesense.pipeline", "bin_statistics", "azimuthal_rom.bin_statistics"),
    ("bladesense.pipeline", "fit_rom", "azimuthal_rom.fit_rom"),
    ("bladesense.pipeline", "evaluate_rom", "azimuthal_rom.evaluate_rom"),
    ("bladesense.pipeline", "fuse", "fusion.fuse"),
    ("bladesense.pipeline", "torsion_pod", "torsion.torsion_pod"),
    ("bladesense.pipeline", "fit_torsion_map", "torsion.fit_torsion_map"),
    ("bladesense.pipeline", "infer_torsion", "torsion.infer_torsion"),
    ("bladesense.pipeline", "psd", "spectral.psd"),
    ("bladesense.svgplot", "line_plot", "svgplot.line_plot"),
    ("bladesense.svgplot", "histogram_plot", "svgplot.histogram_plot"),
    ("bladesense.svgplot", "scatter_plot", "svgplot.scatter_plot"),
    ("bladesense.cli", "generate_case", "synthetic.generate_case"),
    ("bladesense.synthetic", "save_case", "dataset.save_case"),
)

# spans whose first argument (reads) or result (writes) is a manifest path
_NOTE_ARG = {"dataset.load_case", "dataset.load_torsion"}
_NOTE_RESULT = {"dataset.save_case"}


class Tracer:
    """Records nested call spans of one thread; nothing is written until dump."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        note_arg, note_result = name in _NOTE_ARG, name in _NOTE_RESULT

        def traced(*args, **kwargs):
            rec = [idx, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note_arg and args:
                rec[4] = os.fspath(args[0])
            elif note_result and result is not None:
                rec[4] = os.fspath(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            setattr(module, attr, self.wrap(name, fn))
            self.installed.append(name)
        stages = getattr(importlib.import_module("bladesense.pipeline"),
                         "_STAGES", {})
        for stage, fn in list(stages.items()):
            stages[stage] = self.wrap(f"pipeline.{stage}", fn)
            self.installed.append(f"pipeline.{stage}")

    def to_json(self, **extra) -> dict:
        return {"names": self.names, "spans": self.spans,
                "installed": self.installed, "missing": self.missing, **extra}


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <bladesense args>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import bladesense.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return bladesense.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(import_s=import_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
