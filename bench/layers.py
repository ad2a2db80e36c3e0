"""What the traced run wraps, and the per-layer metrics built from it.

Every wrapped function gets a span named ``<module>.<qualified name>``.
Counters come from the call's arguments or result: work in points for the
kernels and the symbolic coefficient, solver iterations, file bytes, masks.
"""

from __future__ import annotations

import functools
import inspect
import os

import numpy as np

from aotomo import (
    acousto,
    diffusion,
    fields,
    helmholtz,
    inversion,
    kernels,
    phantom,
    radon,
    segmentation,
)

MODULES = ("cli", "acousto", "phantom", "diffusion", "fields", "kernels",
           "radon", "helmholtz", "segmentation", "inversion")

KERNELS = ("bump", "bump_prime", "robin_apply", "dirichlet_apply",
           "edge_form_apply", "bilinear_gather", "bilinear_scatter",
           "radial_invert")

# float64 bytes a kernel reads and writes per point, counted from its
# arguments and result; the figure is computed, not measured
KERNEL_BYTES_PER_POINT = {
    "bump": 16,               # s in, value out
    "bump_prime": 16,
    "robin_apply": 24,        # x and a in, out
    "dirichlet_apply": 24,
    "edge_form_apply": 32,    # x, cx, cy in, out
    "bilinear_gather": 56,    # px, py and four corner values in, value out
    "bilinear_scatter": 56,   # px, py, value in, four corner updates
    "radial_invert": 16,      # distance in, root out
}

# which argument carries the points a kernel works on
KERNEL_POINT_ARG = {"bilinear_gather": 1}

PIPELINE_STAGES = ("phantom-gen", "forward", "sinogram", "recover-psi",
                   "segment", "reconstruct", "evaluate")


def _points_of(index):
    def tally(rec, name, args, out):
        rec.count(name + ".points", np.size(args[index]))
    return tally


def _eval_points(rec, name, args, out):
    rec.count(name + ".points", np.broadcast(np.asarray(args[1]),
                                             np.asarray(args[2])).size)


def _iterations(get):
    def tally(rec, name, args, out):
        rec.count(name + ".iterations", get(out))
    return tally


def _file_bytes(rec, name, args, out):
    rec.count(name + ".bytes", os.path.getsize(args[0]))


def _mask_count(rec, name, args, out):
    rec.count(name + ".masks", len(out))


def traced_functions():
    """(owner, attribute, span name, tally) for every wrapped function."""
    out = []
    for k in KERNELS:
        out.append((kernels, k, f"kernels.{k}",
                    _points_of(KERNEL_POINT_ARG.get(k, 0))))
    plain = {
        acousto: ("make_context", "sample_sinogram", "measure_M_eta",
                  "measure_Mtilde", "perturbed_solution", "displacement_u"),
        diffusion: ("solve_adjoint",),
        radon: ("recover_Rpsi", "radon_forward", "radon_adjoint"),
        helmholtz: ("psi_from_field", "ground_truth_psi", "decompose"),
        segmentation: ("detect_edges", "masks_from_phantom"),
        inversion: ("initial_guess_exhaustion", "estimate_step_size",
                    "F_apply", "DF_apply", "DF_adjoint", "project_K",
                    "truth_correction"),
    }
    for mod, attrs in plain.items():
        short = mod.__name__.rsplit(".", 1)[1]
        out.extend((mod, a, f"{short}.{a}", None) for a in attrs)
    out += [
        (phantom.Phantom, "eval", "phantom.Phantom.eval", _eval_points),
        (phantom.Phantom, "sample", "phantom.Phantom.sample", None),
        (phantom.Phantom, "sample_displaced",
         "phantom.Phantom.sample_displaced", None),
        (diffusion, "solve_T", "diffusion.solve_T",
         _iterations(lambda sol: sol.iterations)),
        (diffusion.RobinOperator, "solve", "diffusion.RobinOperator.solve",
         _iterations(lambda res: res[2])),
        (diffusion.RobinOperator, "factorized",
         "diffusion.RobinOperator.factorized", None),
        (diffusion.RobinOperator, "sparse_matrix",
         "diffusion.RobinOperator.sparse_matrix", None),
        (fields, "cg", "fields.cg", _iterations(lambda res: res[2])),
        (fields, "save_field", "fields.save_field", _file_bytes),
        (fields, "load_field", "fields.load_field", _file_bytes),
        (radon, "invert_radon", "radon.invert_radon",
         _iterations(lambda res: res[1]["iterations"])),
        (segmentation, "extract_inclusions",
         "segmentation.extract_inclusions", _mask_count),
        (inversion, "landweber_run", "inversion.landweber_run",
         _iterations(lambda state: len(state.residuals))),
        (inversion.MaskSpace, "riesz_solve", "inversion.MaskSpace.riesz_solve",
         None),
        (inversion.ReconstructionProblem, "solve_forward",
         "inversion.ReconstructionProblem.solve_forward", None),
    ]
    return out


def install_tracer(patcher, recorder):
    for owner, attr, name, tally in traced_functions():
        patcher.replace(
            owner, attr,
            lambda fn, name=name, tally=tally: recorder.wrap(name, fn, tally),
        )


class CgAudit:
    """Checks every ``fields.cg`` result against its tolerance.

    Installed on untraced and traced runs alike: ``cg`` raises when it
    misses its tolerance, and this audit also catches a solve that returns
    a residual above it. It adds one Python call per CG solve.
    """

    def __init__(self):
        self.calls = 0
        self.iterations = 0
        self.worst_ratio = 0.0

    def install(self, patcher):
        patcher.replace(fields, "cg", self._wrap)

    def _wrap(self, cg):
        default_tol = inspect.signature(cg).parameters["tol"].default

        @functools.wraps(cg)
        def audited(apply_op, b, *args, **kwargs):
            tol = kwargs.get("tol", args[0] if args else default_tol)
            x, res, it = cg(apply_op, b, *args, **kwargs)
            self.calls += 1
            self.iterations += it
            if tol > 0:
                self.worst_ratio = max(self.worst_ratio, res / tol)
            elif res > 0:
                self.worst_ratio = float("inf")
            return x, res, it

        return audited


def _per_layer_names():
    names = [("cli.import_s", "s")]
    names += [(f"cli.{st}.s", "s") for st in PIPELINE_STAGES]
    names += [(f"{m}.calls", "count") for m in MODULES]
    names += [
        ("acousto.make_context.s", "s"),
        ("acousto.sample_sinogram.s", "s"),
        ("acousto.measure_M_eta.calls", "count"),
        ("acousto.measure_M_eta.self_s", "s"),
        ("acousto.cells_computed_ratio", "1"),
        ("phantom.Phantom.eval.calls", "count"),
        ("phantom.Phantom.eval.points", "count"),
        ("phantom.Phantom.eval.self_s", "s"),
        ("phantom.Phantom.sample_displaced.self_s", "s"),
    ]
    for f in ("solve_T", "RobinOperator.solve"):
        names += [(f"diffusion.{f}.calls", "count"),
                  (f"diffusion.{f}.iterations", "count"),
                  (f"diffusion.{f}.self_s", "s")]
    names += [
        ("diffusion.RobinOperator.factorized.calls", "count"),
        ("diffusion.RobinOperator.factorized.self_s", "s"),
        ("fields.cg.calls", "count"),
        ("fields.cg.iterations", "count"),
        ("fields.cg.failures", "count"),
        ("fields.cg.self_s", "s"),
        ("fields.save_field.s", "s"),
        ("fields.save_field.bytes", "B"),
        ("fields.load_field.s", "s"),
        ("fields.load_field.bytes", "B"),
    ]
    for k in KERNELS:
        names += [(f"kernels.{k}.calls", "count"),
                  (f"kernels.{k}.points", "count"),
                  (f"kernels.{k}.s", "s"),
                  (f"kernels.{k}.ns_per_point", "ns"),
                  (f"kernels.{k}.computed_bytes", "B")]
    names += [
        ("radon.recover_Rpsi.s", "s"),
        ("radon.invert_radon.s", "s"),
        ("radon.invert_radon.iterations", "count"),
        ("helmholtz.psi_from_field.s", "s"),
        ("helmholtz.ground_truth_psi.s", "s"),
        ("segmentation.detect_edges.s", "s"),
        ("segmentation.extract_inclusions.s", "s"),
        ("segmentation.extract_inclusions.masks", "count"),
        ("inversion.initial_guess_exhaustion.s", "s"),
        ("inversion.estimate_step_size.s", "s"),
        ("inversion.landweber_run.s", "s"),
        ("inversion.landweber_run.iterations", "count"),
    ]
    for f in ("F_apply", "DF_apply", "DF_adjoint", "MaskSpace.riesz_solve"):
        names += [(f"inversion.{f}.calls", "count"),
                  (f"inversion.{f}.self_s", "s")]
    names.append(("trace.overhead_s", "s"))
    return names


PER_LAYER = _per_layer_names()


def layer_metrics(summary, counts, reps, extra):
    """Per-layer metric values.

    ``summary`` and ``counts`` come from the recorder of the traced
    repetitions, and counts and times are divided by their number ``reps``.
    ``extra`` holds the values measured elsewhere (import time, tracing
    overhead, set-up spans), which are reported as they are.
    """
    def row(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    def value(name):
        if name in extra:
            return extra[name]
        stem, _, field = name.rpartition(".")
        if name == "acousto.cells_computed_ratio":
            return ratio(row("acousto.perturbed_solution")["calls"],
                         row("acousto.measure_M_eta")["calls"])
        if field == "ns_per_point":
            return 1e9 * ratio(row(stem)["s"], counts.get(stem + ".points"))
        if stem in MODULES and field == "calls":
            total = sum(r["calls"] for n, r in summary.items()
                        if n.startswith(stem + "."))
        elif field in ("calls", "s", "self_s"):
            total = row(stem)[field]
        elif field == "computed_bytes":
            total = (KERNEL_BYTES_PER_POINT[stem.split(".", 1)[1]]
                     * counts.get(stem + ".points", 0.0))
        else:
            total = counts.get(name, 0.0)
        return total / reps

    return {name: value(name) for name, _ in PER_LAYER}
