"""Layered end-to-end benchmark of the XML-GL / WG-Log system.

Run from the root of a checkout::

    python3 layerbench/run.py --workload xmlgl-interactive --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same seeded ops through the individual layer calls under spans and
reports the per-layer metrics.  The last line of standard output is the
JSON result object; a record of the run (seed, host, metrics, and the
spans of a traced run) is written under ``.bench_out/``.  See
``layerbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "xmlgl-interactive": "interactive",
    "xmlgl-cold": "cold",
    "xmlgl-serve": "serve",
    "wglog-derive": "derive",
}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"layerbench: no program source at {source}/repro")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(
            f"layerbench: imported repro from {repro.__file__}, "
            f"not from {source}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_program()
    from importlib import import_module

    from harness import Context, Tracer, emit, load_declaration, pin_cpus

    declaration = load_declaration(ROOT)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cpu, spare_cpu = pin_cpus()
    ctx = Context(
        root=ROOT,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=out_dir,
        workload=args.workload,
        cpu=cpu,
        spare_cpu=spare_cpu,
        tracer=Tracer() if args.trace else None,
    )
    outcome = import_module(WORKLOADS[args.workload]).run(ctx)
    if ctx.trace:
        # Layers a workload does not exercise do no work on it: zero.
        filled = {entry["name"]: 0.0 for entry in declaration["per_layer"]}
        filled.update(outcome.per_layer)
        outcome.per_layer = filled
    result = emit(declaration, ctx, outcome)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
