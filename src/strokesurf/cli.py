"""Command-line interface.

Default invocation surfaces a drawing; `synth` and `eval` subcommands
generate synthetic corpora and score reconstructions. Exit codes:
0 success, 1 usage error, 2 input error, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import mesh_ops
from .consolidate import InvariantError
from .pipeline import PipelineOptions, run_pipeline
from .stroke_model import (Config, StrokeFormatError, ValidationError,
                           load_drawing, save_drawing)
from .synth_eval import GroundTruthSurface, SyntheticSpec, evaluate, generate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _surface_parser():
    p = _Parser(prog="strokesurf", description=__doc__)
    p.add_argument("--input", required=True, help="drawing JSON")
    p.add_argument("--output", required=True, help="output OBJ")
    p.add_argument("--use-color", action="store_true",
                   help="match only strokes of identical color")
    p.add_argument("--preserve-creases", action="store_true",
                   help="keep sharp folds instead of beveling them")
    p.add_argument("--skip-extension", action="store_true",
                   help="skip the boundary-extension phase")
    p.add_argument("--close-holes", type=int, default=0,
                   metavar="MAX_SIDES",
                   help="also fill holes up to this many sides")
    p.add_argument("--smooth", type=int, default=0, metavar="ITERS",
                   help="post-smoothing iterations")
    p.add_argument("--dump-stages", metavar="DIR",
                   help="write per-stage meshes and match tables")
    p.add_argument("--config", metavar="PATH",
                   help="JSON overriding tuning constants")
    p.add_argument("--report", metavar="PATH",
                   help="write the run report JSON here")
    return p


def _cmd_surface(argv):
    ns = _surface_parser().parse_args(argv)
    config = Config.from_json(ns.config) if ns.config else Config()
    options = PipelineOptions(
        use_color=ns.use_color,
        preserve_creases=ns.preserve_creases,
        skip_extension=ns.skip_extension,
        close_holes_max_sides=ns.close_holes,
        smooth_iterations=ns.smooth,
        dump_dir=ns.dump_stages,
        config=config,
    )
    drawing = load_drawing(ns.input)
    mesh, report = run_pipeline(drawing, options)
    nverts, ntris = mesh_ops.export_obj(mesh, ns.output)
    if ns.report:
        # compact: an indented dump runs json's pure-Python encoder,
        # several times slower than the whole write on small drawings
        with open(ns.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report) + "\n")
    print(f"{ns.output}: {ntris} triangles, {nverts} vertices, "
          f"{report['components']} components, "
          f"{report['nonmanifold_edges']} bad edges")
    return 0


def _cmd_synth(argv):
    p = _Parser(prog="strokesurf synth")
    p.add_argument("--spec", required=True, help="SyntheticSpec JSON")
    p.add_argument("--out", required=True, help="drawing JSON to write")
    p.add_argument("--truth", help="reference surface OBJ to write")
    ns = p.parse_args(argv)
    spec = SyntheticSpec.from_json(ns.spec)
    drawing, truth = generate(spec)
    save_drawing(drawing, ns.out)
    if ns.truth:
        positions, faces = truth.to_mesh()
        ref = mesh_ops.mesh_from_arrays(positions, faces)
        mesh_ops.export_obj(ref, ns.truth)
    print(f"{ns.out}: {len(drawing.strokes)} strokes, "
          f"{drawing.vertex_count()} vertices")
    return 0


def _cmd_eval(argv):
    p = _Parser(prog="strokesurf eval")
    p.add_argument("--mesh", required=True, help="reconstruction OBJ")
    p.add_argument("--truth", required=True, help="ground-truth OBJ")
    p.add_argument("--drawing", help="source drawing JSON (for the "
                                     "interpolated-edge fraction)")
    p.add_argument("--report", help="write the report JSON here")
    ns = p.parse_args(argv)
    pos, faces, _ = mesh_ops.load_obj(ns.mesh)
    if not len(faces):
        raise ValidationError(f"{ns.mesh}: no faces")
    mesh = mesh_ops.mesh_from_arrays(pos, faces)
    tpos, tfaces, _ = mesh_ops.load_obj(ns.truth)
    if not len(tfaces):
        raise ValidationError(f"{ns.truth}: no faces")
    truth = GroundTruthSurface.from_mesh(tpos, tfaces)
    drawing = load_drawing(ns.drawing) if ns.drawing else None
    report = evaluate(mesh, truth, drawing)
    payload = json.dumps(report.to_dict(), indent=1)
    if ns.report:
        with open(ns.report, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return 0


def cli_main(argv):
    """Dispatch and map failures to the documented exit codes."""
    argv = list(argv)
    try:
        if argv and argv[0] == "synth":
            return _cmd_synth(argv[1:])
        if argv and argv[0] == "eval":
            return _cmd_eval(argv[1:])
        return _cmd_surface(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (StrokeFormatError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
