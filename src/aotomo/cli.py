"""Command-line pipeline: phantom generation through reconstruction metrics.

Commands read a JSON experiment configuration and exchange the documented
file formats (binary fields, sinogram CSV, mask PGMs, metrics JSON). Exit
codes: 0 success, 2 configuration/validation error, 3 numerical failure.

Start-up: each command runs as its own process and loads NumPy only. Every
Robin solve is fast diagonalisation or CG on it, and so is every Riesz solve
of ``reconstruct``'s mask space (the capacitance matrix method, see
``inversion.MaskSpace``). ``recover-psi`` keeps its circle quadrature matrix
in NumPy arrays, and ``segment`` blurs, closes, floods and labels with NumPy
(see ``segmentation``). SciPy is left to the two assemblers that only tests
and benchmarks call, ``fields.edge_form_matrix`` and
``diffusion.RobinOperator.sparse_matrix``, which import it themselves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__, acousto, fields, helmholtz, inversion, radon
from . import phantom as phantom_mod
from . import segmentation
from .fields import FileFormatError, Grid, SolverError

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    n: int
    acoustic: acousto.AcousticConfig
    ny: int
    nr: int
    l: float
    g_value: float
    phantom_file: str
    theta: float | None
    tau: float | None
    max_iter: int
    stop_tol: float
    partition_step: float

    @property
    def grid(self) -> Grid:
        return Grid(self.n)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config is not a JSON object")

    def section(name):
        src = doc.get(name, {})
        if not isinstance(src, dict):
            raise ConfigError(f"config section {name} is not a JSON object")
        return src

    def need(section_name, key, typ, default=None):
        src = section(section_name)
        if key not in src:
            if default is not None:
                return default
            raise ConfigError(f"missing config field: {section_name}.{key}")
        value = src[key]
        # int() would truncate 41.9 and read "41" or true, and float() would
        # read "0.12" or true, so an integer field takes a JSON integer only
        # and a number field a JSON number only; no field takes nan or inf
        if type(value) is int or (typ is float and type(value) is float):
            try:
                value = typ(value)
                if math.isfinite(value):
                    return value
            except (TypeError, ValueError, OverflowError):
                pass
        what = "an integer" if typ is int else "a finite number"
        raise ConfigError(f"config field {section_name}.{key} must be {what}")

    n = need("grid", "n", int)
    if n < 17:
        raise ConfigError("config field grid.n must be at least 17")
    geometry = dict(
        mu=need("acoustic", "mu", float, 1.0),
        r0=need("acoustic", "r0", float, 0.25),
        R=need("acoustic", "R", float, 1.75),
        eta=need("acoustic", "eta", float, 0.02),
    )
    try:
        ac = acousto.AcousticConfig(**geometry)
    except ValueError as exc:
        raise ConfigError(f"config field acoustic: {exc}")
    ny = need("acoustic", "ny", int, 64)
    nr = need("acoustic", "nr", int, 128)
    if ny < 8 or nr < 16:
        raise ConfigError("config fields acoustic.ny/nr must be >= 8 and >= 16")
    problems = ac.resolution_problems(Grid(n))
    if problems:
        raise ConfigError(f"config fields grid.n/acoustic.eta: {problems[0]}")
    l = need("optics", "l", float, 0.1)
    if l < 0:
        raise ConfigError("config field optics.l must be nonnegative")
    g_value = need("optics", "g", float, 1.0)
    if g_value < 0:
        raise ConfigError("config field optics.g must be nonnegative")
    recon = section("reconstruction")
    phantom_file = doc.get("phantom_file", "")
    if not isinstance(phantom_file, str):
        raise ConfigError("config field phantom_file must be a string")

    def optional_positive(key):
        if recon.get(key) is None:
            return None
        value = need("reconstruction", key, float)
        if not value > 0:
            raise ConfigError(
                f"config field reconstruction.{key} must be positive")
        return value

    max_iter = need("reconstruction", "max_iter", int, 200)
    if max_iter < 1:
        raise ConfigError(
            "config field reconstruction.max_iter must be at least 1")
    stop_tol = need("reconstruction", "stop_tol", float, 1e-3)
    if not stop_tol >= 0:
        raise ConfigError(
            "config field reconstruction.stop_tol must be nonnegative")
    partition_step = need("reconstruction", "partition_step", float, 0.125)
    if not partition_step > 0:
        raise ConfigError(
            "config field reconstruction.partition_step must be positive")
    return ExperimentConfig(
        n=n,
        acoustic=ac,
        ny=ny,
        nr=nr,
        l=l,
        g_value=g_value,
        phantom_file=phantom_file,
        theta=optional_positive("theta"),
        tau=optional_positive("tau"),
        max_iter=max_iter,
        stop_tol=stop_tol,
        partition_step=partition_step,
    )


def _output_path(path):
    """Create the directory an output file goes in, as --outdir does."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _require_file(path, what):
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")


def _read_phantom(path):
    _require_file(path, "phantom file")
    try:
        return phantom_mod.load_phantom(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: not a phantom description ({exc!r})")


def _load_phantom(cfg, override=None):
    path = override or cfg.phantom_file
    if not path:
        raise ConfigError("missing config field: phantom_file")
    return _read_phantom(path)


PRESETS = {
    "disk": dict(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[dict(shape="disk", params=dict(center=[0.5, 0.5],
                                                   radius=0.2),
                         base=1.5, amplitude=0.3)],
    ),
    "two-disks": dict(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[
            dict(shape="disk", params=dict(center=[0.35, 0.4], radius=0.12),
                 base=1.5, amplitude=0.2),
            dict(shape="disk", params=dict(center=[0.68, 0.62], radius=0.1),
                 base=0.55, amplitude=0.1),
        ],
    ),
    "ellipse": dict(
        a0=1.0, lower=0.5, upper=2.0,
        inclusions=[dict(shape="ellipse",
                         params=dict(center=[0.55, 0.45],
                                     semi_axes=[0.16, 0.1], angle=0.5),
                         base=1.25, amplitude=0.25)],
    ),
}


def cmd_phantom_gen(cfg, args):
    preset = PRESETS.get(args.preset)
    if preset is None:
        raise ConfigError(f"unknown preset {args.preset!r}")
    doc = dict(preset)
    doc["D_margin"] = 0.1
    p = phantom_mod.from_dict(doc)
    phantom_mod.save_phantom(_output_path(args.out), p)
    print(f"wrote {args.out}")
    return 0


def _forward_context(cfg, phantom):
    return acousto.make_context(phantom, cfg.grid, g=cfg.g_value, l=cfg.l)


def cmd_forward(cfg, args):
    phantom = _load_phantom(cfg, args.phantom)
    ctx = _forward_context(cfg, phantom)
    os.makedirs(args.outdir, exist_ok=True)
    fields.save_field(os.path.join(args.outdir, "a.aorf"), ctx.a)
    fields.save_field(os.path.join(args.outdir, "phi.aorf"), ctx.solution.phi)
    fields.save_field(os.path.join(args.outdir, "flux.aorf"),
                      ctx.solution.flux)
    print(f"wrote a.aorf, phi.aorf, flux.aorf to {args.outdir}")
    return 0


def cmd_sinogram(cfg, args):
    phantom = _load_phantom(cfg, args.phantom)
    ctx = _forward_context(cfg, phantom)
    sino = acousto.sample_sinogram(ctx, cfg.acoustic, cfg.ny, cfg.nr,
                                   which=args.kind)
    os.makedirs(args.outdir, exist_ok=True)
    out = os.path.join(args.outdir, "sinogram.csv")
    sino.save_csv(out)
    print(f"wrote {out}")
    return 0


def cmd_recover_psi(cfg, args):
    _require_file(args.sinogram, "sinogram file")
    sino = acousto.Sinogram.load_csv(args.sinogram, cfg.acoustic)
    if (sino.ny, sino.nr) != (cfg.ny, cfg.nr):
        raise FileFormatError(
            f"{args.sinogram}: {sino.ny} x {sino.nr} samples, but the config "
            f"has acoustic.ny x nr = {cfg.ny} x {cfg.nr}")
    rpsi = radon.recover_Rpsi(sino, cfg.acoustic)
    rec, info = radon.invert_radon(rpsi, cfg.grid, tikhonov=args.tikhonov,
                                   max_iter=args.max_iter)
    psi = helmholtz.psi_from_field(rec)
    fields.save_field(_output_path(args.out), psi.psi)
    print(f"wrote {args.out} (inversion iterations {info['iterations']}, "
          f"residual {info['residual']:.2e})")
    return 0


def _masks_from_manifest(path, grid):
    _require_file(path, "mask manifest")
    try:
        with open(path) as fh:
            entries = [(str(e["file"]), int(e["label"]),
                        bool(e.get("clipped"))) for e in json.load(fh)["masks"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: not a mask manifest ({exc!r})")
    base = os.path.dirname(path)
    masks = []
    for name, label, clipped in entries:
        pgm = os.path.join(base, name)
        _require_file(pgm, "mask image")
        img = segmentation.load_pgm(pgm)
        if img.shape != grid.shape:
            raise FileFormatError(
                f"{pgm}: {img.shape[0]} x {img.shape[1]} mask, but the "
                f"config has grid.n = {grid.n}")
        mask = img > 127
        if not mask.any():
            raise FileFormatError(f"{pgm}: the mask marks no node")
        masks.append(segmentation.InclusionMask(grid, mask, label, clipped))
    if not masks:
        raise ConfigError("mask manifest contains no masks")
    return masks


def _load_field(path):
    _require_file(path, "field file")
    return fields.load_field(path)


def _load_on_grid(path, kind, grid):
    """Load a field file that must hold a ``kind`` on the config's grid."""
    obj = _load_field(path)
    if not isinstance(obj, kind):
        raise FileFormatError(f"{path} does not contain a {kind.__name__}")
    if obj.grid != grid:
        raise FileFormatError(
            f"{path} is on an n={obj.grid.n} grid, but the config has "
            f"grid.n = {grid.n}")
    return obj


def cmd_segment(cfg, args):
    # a kernel wider than the grid blurs psi flat, and its taps grow with it
    if args.smooth > cfg.grid.n:
        raise ConfigError(
            f"segment needs --smooth <= grid.n = {cfg.grid.n} nodes, got "
            f"{args.smooth:g}")
    psi_field = _load_on_grid(args.psi, fields.ScalarField, cfg.grid)
    psi = helmholtz.PsiField(psi_field, "from_measurements")
    edge = segmentation.detect_edges(psi, threshold=args.threshold,
                                     smooth_sigma=args.smooth)
    masks = segmentation.extract_inclusions(edge, cfg.grid)
    os.makedirs(args.outdir, exist_ok=True)
    manifest = {"masks": []}
    for m in masks:
        name = f"mask_{m.label:02d}.pgm"
        segmentation.save_mask_pgm(os.path.join(args.outdir, name), m)
        manifest["masks"].append(
            {"file": name, "label": m.label, "clipped": m.clipped}
        )
    path = os.path.join(args.outdir, "masks.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(masks)} masks and {path}")
    return 0


def cmd_reconstruct(cfg, args):
    if cfg.l <= 0:
        raise ConfigError("reconstruct needs optics.l > 0")
    # the rule of Phantom.validate
    if not 0 < args.lower <= args.a0 <= args.upper:
        raise ConfigError(
            "reconstruct needs 0 < --lower <= --a0 <= --upper, got "
            f"{args.lower:g}, {args.a0:g}, {args.upper:g}")
    masks = _masks_from_manifest(args.masks, cfg.grid)
    psi = helmholtz.PsiField(
        _load_on_grid(args.psi, fields.ScalarField, cfg.grid),
        "from_measurements")
    flux = _load_on_grid(args.flux, fields.BoundaryTrace, cfg.grid)
    truth_phantom = None
    if args.truth:
        truth_phantom = _read_phantom(args.truth)
    try:
        problem = inversion.ReconstructionProblem(
            cfg.grid, masks, a0=args.a0, lower=args.lower, upper=args.upper,
            g=cfg.g_value, l=cfg.l, theta=cfg.theta,
        )
    except ValueError as exc:
        # a mask with no interior, or two masks that overlap
        raise ConfigError(f"reconstruct: {exc}")
    guess = inversion.initial_guess_exhaustion(
        problem, flux, partition_step=cfg.partition_step,
        mode="coordinate" if problem.k > 3 else "exhaustive",
    )
    truth = None
    if truth_phantom is not None:
        truth = inversion.truth_correction(problem, truth_phantom,
                                           guess.alphas)
    state = inversion.landweber_run(
        problem, psi, guess.alphas, max_iter=cfg.max_iter,
        stop_tol=cfg.stop_tol, tau=cfg.tau, truth=truth,
    )
    os.makedirs(args.outdir, exist_ok=True)
    rec = state.coefficient(problem)
    fields.save_field(os.path.join(args.outdir, "recon.aorf"), rec)
    inversion.save_log_csv(os.path.join(args.outdir, "recon_log.csv"), state)
    print(
        f"initial guess {[float(a) for a in guess.alphas]} "
        f"(J = {guess.misfit:.3e}); "
        f"{len(state.residuals)} iterations, {state.stopped_reason}"
    )
    return 0


def cmd_evaluate(cfg, args):
    truth = _load_phantom(cfg, args.phantom)
    rec = _load_on_grid(args.recon, fields.ScalarField, cfg.grid)
    grid = rec.grid
    a_true = truth.sample(grid)
    with np.errstate(over="ignore"):
        num = fields.inner(rec - a_true, rec - a_true)
    den = fields.inner(a_true, a_true)
    l2_rel = math.sqrt(num / den) if den > 0 else 0.0
    if not math.isfinite(l2_rel):
        raise FileFormatError(f"{args.recon}: values too large to compare")

    # a metric that is not computed is null
    hausdorff = residual_final = monotone_fraction = None
    if args.masks:
        masks = _masks_from_manifest(args.masks, grid)
        dists = []
        for inc in truth.inclusions:
            pts = inc.boundary_points(720)
            # the manifest has a mask, and every mask a node
            dists.append(min(segmentation.boundary_hausdorff(m, pts)
                             for m in masks))
        hausdorff = max(dists, default=None)

    if args.log:
        _require_file(args.log, "log file")
        try:
            with warnings.catch_warnings():
                # an empty file is only a warning to genfromtxt
                warnings.simplefilter("error", UserWarning)
                rows = np.genfromtxt(args.log, delimiter=",", names=True)
            res = np.atleast_1d(rows["residual_Hstar"])
            dist = np.atleast_1d(rows["dist_to_truth_H"])
            if not np.all(np.isfinite(res)):
                raise ValueError("a residual is not finite")
            residual_final = float(res[-1])
        except (ValueError, IndexError, UserWarning) as exc:
            raise FileFormatError(
                f"{args.log}: not a reconstruction log ({exc})")
        dist = dist[np.isfinite(dist)]
        series = dist if dist.size > 1 else res
        if series.size > 1:
            monotone_fraction = float(np.mean(np.diff(series) < 1e-12))

    metrics = {
        "l2_rel_error": l2_rel,
        "hausdorff_boundary": hausdorff,
        "residual_final": residual_final,
        "monotone_fraction": monotone_fraction,
    }
    with open(_output_path(args.out), "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_export(cfg, args):
    obj = _load_field(args.field)
    if not isinstance(obj, fields.ScalarField):
        raise ConfigError("export needs a scalar field file")
    segmentation.save_field_pgm(_output_path(args.out), obj)
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so that it ends in one
    ``error:`` line and exit code 2 like every other bad input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# argparse names the type function when it rejects a value; it applies none
# to a default that is not a string
def finite(text):
    """A finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def nonnegative(text):
    """A finite number >= 0."""
    value = finite(text)
    if value < 0:
        raise ValueError(text)
    return value


def count(text):
    """An integer >= 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def threshold(text):
    """``segment --threshold``: ``auto`` or a finite number > 0."""
    if text == "auto":
        return text
    value = finite(text)
    if value <= 0:
        raise ValueError(text)
    return value


def build_parser():
    parser = _Parser(
        prog="aotomo",
        description="acousto-optic absorption reconstruction pipeline",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"aotomo {__version__} (schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("phantom", help="phantom file utilities")
    phsub = ph.add_subparsers(dest="phantom_command", required=True)
    gen = phsub.add_parser("gen", help="write a preset phantom description")
    gen.add_argument("--config", required=True)
    gen.add_argument("--preset", default="disk", choices=sorted(PRESETS))
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_phantom_gen)

    fw = sub.add_parser("forward", help="unperturbed optical solve")
    fw.add_argument("--config", required=True)
    fw.add_argument("--phantom", default=None)
    fw.add_argument("--outdir", required=True)
    fw.set_defaults(func=cmd_forward)

    sg = sub.add_parser("sinogram", help="acoustic measurement sweep")
    sg.add_argument("--config", required=True)
    sg.add_argument("--phantom", default=None)
    sg.add_argument("--kind", default="M_eta", choices=["M_eta", "Mtilde"])
    sg.add_argument("--outdir", required=True)
    sg.set_defaults(func=cmd_sinogram)

    rp = sub.add_parser("recover-psi", help="potential from measurements")
    rp.add_argument("--config", required=True)
    rp.add_argument("--sinogram", required=True)
    rp.add_argument("--out", required=True)
    rp.add_argument("--tikhonov", type=nonnegative, default=1e-6)
    rp.add_argument("--max-iter", type=count, default=200)
    rp.set_defaults(func=cmd_recover_psi)

    se = sub.add_parser("segment", help="inclusion masks from the potential")
    se.add_argument("--config", required=True)
    se.add_argument("--psi", required=True)
    se.add_argument("--threshold", type=threshold, default="auto")
    se.add_argument("--smooth", type=nonnegative, default=2.0,
                    help="pre-smoothing sigma in nodes for measured data, "
                    "at most grid.n")
    se.add_argument("--outdir", required=True)
    se.set_defaults(func=cmd_segment)

    rc = sub.add_parser("reconstruct", help="exhaustion plus Landweber")
    rc.add_argument("--config", required=True)
    rc.add_argument("--psi", required=True)
    rc.add_argument("--masks", required=True)
    rc.add_argument("--flux", required=True)
    rc.add_argument("--a0", type=finite, default=1.0)
    rc.add_argument("--lower", type=finite, default=0.5)
    rc.add_argument("--upper", type=finite, default=2.0)
    rc.add_argument("--truth", default=None,
                    help="optional truth phantom for the distance audit")
    rc.add_argument("--outdir", required=True)
    rc.set_defaults(func=cmd_reconstruct)

    ev = sub.add_parser("evaluate", help="metrics against a truth phantom")
    ev.add_argument("--config", required=True)
    ev.add_argument("--phantom", required=True)
    ev.add_argument("--recon", required=True)
    ev.add_argument("--masks", default=None)
    ev.add_argument("--log", default=None)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_evaluate)

    ex = sub.add_parser("export", help="scalar field file to PGM image")
    ex.add_argument("field")
    ex.add_argument("out")
    ex.set_defaults(func=cmd_export)

    return parser


def _one_line(exc):
    """The message of ``exc`` with line breaks (genfromtxt's, say) folded."""
    return " ".join(str(exc).split())


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # export is the one command without --config
        cfg = load_config(args.config) if "config" in args else None
        return args.func(cfg, args)
    except (ConfigError, FileFormatError, OSError) as exc:
        # an unwritable output path is an OSError; every message is one line
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except (SolverError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {_one_line(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
