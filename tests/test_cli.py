"""The command-line pipeline, driven through ``cli.main`` in a temp dir."""

import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import aotomo
from aotomo import acousto, cli, fields, phantom, segmentation


def write_config(d):
    """A small config (n=35, eta=0.12, 8 x 16 sweep, 2 Landweber steps)
    in ``d``, pointing to the phantom file ``d / "phantom.json"``."""
    config = {
        "grid": {"n": 35},
        "acoustic": {"eta": 0.12, "ny": 8, "nr": 16},
        "optics": {"l": 0.1, "g": 1.0},
        "phantom_file": str(d / "phantom.json"),
        "reconstruction": {"max_iter": 2},
    }
    (d / "config.json").write_text(json.dumps(config))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """The small config and the preset disk phantom it points to."""
    d = tmp_path_factory.mktemp("cli")
    write_config(d)
    return d


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


def pipeline_steps(d):
    """(argv, files written) of every command in order, on the config in
    ``d``."""
    cfg = d / "config.json"
    return [
        (["phantom", "gen", "--config", cfg, "--out", d / "phantom.json"],
         ["phantom.json"]),
        (["forward", "--config", cfg, "--outdir", d / "fwd"],
         ["fwd/a.aorf", "fwd/phi.aorf", "fwd/flux.aorf"]),
        (["sinogram", "--config", cfg, "--outdir", d / "sino"],
         ["sino/sinogram.csv"]),
        (["recover-psi", "--config", cfg, "--sinogram",
          d / "sino" / "sinogram.csv", "--out", d / "psi.aorf"],
         ["psi.aorf"]),
        (["segment", "--config", cfg, "--psi", d / "psi.aorf", "--outdir",
          d / "seg"], ["seg/masks.json"]),
        (["reconstruct", "--config", cfg, "--psi", d / "psi.aorf",
          "--masks", d / "seg" / "masks.json", "--flux",
          d / "fwd" / "flux.aorf", "--outdir", d / "rec"],
         ["rec/recon.aorf", "rec/recon_log.csv"]),
        (["evaluate", "--config", cfg, "--phantom", d / "phantom.json",
          "--recon", d / "rec" / "recon.aorf", "--masks",
          d / "seg" / "masks.json", "--log", d / "rec" / "recon_log.csv",
          "--out", d / "metrics.json"], ["metrics.json"]),
        (["export", d / "rec" / "recon.aorf", d / "recon.pgm"],
         ["recon.pgm"]),
    ]


def test_every_command_in_sequence(workdir, capsys):
    d = workdir
    outputs = {}
    for argv, written in pipeline_steps(d):
        code, out = run(argv, capsys)
        assert code == 0, (argv[0], out)
        for name in written:
            assert os.path.getsize(d / name) > 0, name
        outputs[argv[0]] = out

    # the initial guess prints as plain floats, not NumPy scalar reprs
    assert "initial guess [" in outputs["reconstruct"]
    assert "np.float64" not in outputs["reconstruct"]
    metrics = strict_json((d / "metrics.json").read_text())
    assert np.isfinite(metrics["l2_rel_error"])
    assert (d / "recon.pgm").read_bytes().startswith(b"P5")
    assert isinstance(fields.load_field(d / "psi.aorf"), fields.ScalarField)


def strict_json(text):
    """``text`` parsed as standard JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")

    return json.loads(text, parse_constant=reject)


def test_evaluate_writes_null_for_what_it_skips(workdir, capsys):
    d = workdir / "skips"
    d.mkdir()
    grid = fields.Grid(35)
    phantom.save_phantom(d / "truth.json",
                         phantom.from_dict(cli.PRESETS["disk"]))
    fields.save_field(d / "recon.aorf",
                      fields.ScalarField(grid, np.ones(grid.shape)))
    code, out = run(["evaluate", "--config", workdir / "config.json",
                     "--phantom", d / "truth.json", "--recon",
                     d / "recon.aorf", "--out", d / "metrics.json"], capsys)
    assert code == 0
    metrics = strict_json((d / "metrics.json").read_text())
    assert strict_json(out) == metrics
    assert np.isfinite(metrics["l2_rel_error"])
    # without --masks and --log these are not computed
    for key in ("hausdorff_boundary", "residual_final", "monotone_fraction"):
        assert metrics[key] is None, key


def test_dirichlet_forward_and_sinogram(workdir, capsys):
    """At optics.l = 0, forward and sinogram run, and write what the library
    computes on the same context."""
    d = workdir
    doc = json.loads((d / "config.json").read_text())
    doc["optics"]["l"] = 0.0
    doc["phantom_file"] = str(d / "l0" / "phantom.json")
    cfg = d / "config_l0.json"
    cfg.write_text(json.dumps(doc))
    for argv in (["phantom", "gen", "--config", cfg, "--preset", "two-disks",
                  "--out", d / "l0" / "phantom.json"],
                 ["forward", "--config", cfg, "--outdir", d / "l0"],
                 ["sinogram", "--config", cfg, "--outdir", d / "l0"]):
        code, out = run(argv, capsys)
        assert code == 0, (argv[0], out)
    config = cli.load_config(cfg)
    ctx = acousto.make_context(phantom.load_phantom(d / "l0" / "phantom.json"),
                               config.grid, g=config.g_value, l=config.l)
    assert ctx.l == 0.0
    assert np.array_equal(fields.load_field(d / "l0" / "phi.aorf").values,
                          ctx.solution.phi.values)
    expected = acousto.sample_sinogram(ctx, config.acoustic, config.ny,
                                       config.nr)
    got = acousto.Sinogram.load_csv(d / "l0" / "sinogram.csv",
                                    config.acoustic)
    assert expected.values.any()
    assert np.array_equal(got.values, expected.values)


def test_missing_config_is_exit_code_2(tmp_path, capsys):
    code = cli.main(["forward", "--config", str(tmp_path / "none.json"),
                     "--outdir", str(tmp_path)])
    assert code == 2
    assert "config file not found" in capsys.readouterr().err


def _bad_inputs(d):
    """(name, argv) pairs whose input does not fit the workdir config."""
    cfg = d / "config.json"
    doc = json.loads(cfg.read_text())
    doc["optics"]["l"] = 0.0
    (d / "dirichlet.json").write_text(json.dumps(doc))
    bad_recon = ("max_iter", "stop_tol", "partition_step", "theta", "tau")
    for key in bad_recon:
        doc = json.loads(cfg.read_text())
        doc["reconstruction"][key] = "abc"
        (d / f"recon_{key}.json").write_text(json.dumps(doc))
    # values that int() or the solvers would silently reinterpret, or
    # reject only with a traceback
    out_of_range = [("grid", "n", 35.5), ("grid", "n", "35"),
                    ("acoustic", "ny", 8.5), ("acoustic", "nr", True),
                    ("grid", "n", 10**400), ("optics", "g", "nan"),
                    ("optics", "l", float("inf")),
                    ("reconstruction", "max_iter", -3),
                    ("reconstruction", "max_iter", 0),
                    ("reconstruction", "max_iter", 2.0),
                    ("reconstruction", "partition_step", 0),
                    ("reconstruction", "partition_step", -0.1),
                    ("reconstruction", "stop_tol", -1e-3),
                    ("reconstruction", "tau", 0),
                    ("reconstruction", "theta", -1.0),
                    ("optics", "g", True),
                    ("reconstruction", "stop_tol", False),
                    ("acoustic", "eta", "0.12")]
    for k, (sec, key, value) in enumerate(out_of_range):
        doc = json.loads(cfg.read_text())
        doc[sec][key] = value
        (d / f"range_{k}.json").write_text(json.dumps(doc))
    (d / "config_list.json").write_text("[1]")
    not_objects = {"grid": 5, "acoustic": [1], "reconstruction": 5,
                   "phantom_file": 5}
    for key, value in not_objects.items():
        doc = json.loads(cfg.read_text())
        doc[key] = value
        (d / f"config_{key}.json").write_text(json.dumps(doc))

    (d / "magic.aorf").write_bytes(b"NOPE" + bytes(16))
    (d / "header.aorf").write_bytes(b"AORF" + bytes(3))
    grid = fields.Grid(35)
    fields.save_field(d / "short.aorf",
                      fields.ScalarField(grid, np.ones(grid.shape)))
    (d / "short.aorf").write_bytes((d / "short.aorf").read_bytes()[:-8])
    grid33 = fields.Grid(33)
    fields.save_field(d / "grid33.aorf",
                      fields.ScalarField(grid33, np.ones(grid33.shape)))

    acoustic = cli.load_config(cfg).acoustic
    sino = acousto.Sinogram(acoustic, 8, 16, np.zeros((8, 16)))
    sino.save_csv(d / "sino_ok.csv")
    # the header and the geometry line, then the data rows
    lines = (d / "sino_ok.csv").read_text().splitlines()
    head, rows = lines[:2], lines[2:]
    m, r, v = rows[4].split(",")
    rows[4] = f"{m},{float(r) + 1e-6!r},{v}"
    (d / "sino_r.csv").write_text("\n".join(head + rows) + "\n")
    (d / "sino_no_geometry.csv").write_text("\n".join(head[:1] + rows) + "\n")
    # a sweep at eta = 0.12 read under eta = 0.1, on a grid fine enough for it
    doc = json.loads(cfg.read_text())
    doc["grid"]["n"], doc["acoustic"]["eta"] = 41, 0.1
    (d / "eta_0.1.json").write_text(json.dumps(doc))
    # one byte that no UTF-8 text holds, in a row and in the header
    raw = bytearray((d / "sino_ok.csv").read_bytes())
    for name, at in (("sino_byte.csv", len(raw) // 2), ("sino_head.csv", 3)):
        (d / name).write_bytes(raw[:at] + b"\xff" + raw[at + 1:])

    # well-formed reconstruct inputs on the config's n=35 grid
    fields.save_field(d / "psi_ok.aorf",
                      fields.ScalarField(grid, np.zeros(grid.shape)))
    fields.save_field(d / "flux_ok.aorf",
                      fields.BoundaryTrace.constant(grid, 1.0))
    # finite, but its squared distance to any truth overflows
    fields.save_field(d / "recon_huge.aorf",
                      fields.ScalarField(grid, np.full(grid.shape, 1e200)))
    for n, name in ((35, "mask_ok.pgm"), (33, "mask33.pgm")):
        g = fields.Grid(n)
        x, y = g.meshgrid()
        segmentation.save_mask_pgm(d / name, segmentation.InclusionMask(
            g, (x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.04, 1))
    (d / "pgm_dims.pgm").write_bytes(b"P5\n35 x\n255\n" + bytes(35 * 35))
    (d / "pgm_cut.pgm").write_bytes(b"P5\n35 35")
    (d / "pgm_maxval.pgm").write_bytes(b"P5\n35 35\n1\n" + b"\1" * 35 * 35)
    (d / "pgm_empty.pgm").write_bytes(b"P5\n35 35\n255\n" + bytes(35 * 35))
    manifests = {"ok": "mask_ok.pgm", "none_pgm": "none.pgm",
                 "dims": "pgm_dims.pgm", "cut": "pgm_cut.pgm",
                 "maxval": "pgm_maxval.pgm", "empty": "pgm_empty.pgm",
                 "grid33": "mask33.pgm"}
    for key, name in manifests.items():
        (d / f"masks_{key}.json").write_text(json.dumps(
            {"masks": [{"file": name, "label": 1, "clipped": False}]}))
    (d / "masks_nokey.json").write_text(json.dumps({"files": []}))
    (d / "masks_no_entries.json").write_text(json.dumps({"masks": []}))
    # one mask listed twice: the two copies overlap everywhere
    (d / "masks_twice.json").write_text(json.dumps({"masks": [
        {"file": "mask_ok.pgm", "label": label, "clipped": False}
        for label in (1, 2)]}))
    phantom.save_phantom(d / "truth_ok.json", phantom.from_dict(
        dict(cli.PRESETS["disk"], D_margin=0.1)))
    (d / "truth_bad.json").write_text(json.dumps({"a0": 1.0}))
    (d / "log_no_residual.csv").write_text("iter,foo\n0,1.0\n")
    (d / "log_no_dist.csv").write_text("iter,residual_Hstar\n0,1.0\n")
    (d / "log_no_rows.csv").write_text(
        "iter,residual_Hstar,dist_to_truth_H,tau\n")
    (d / "log_empty.csv").write_text("")
    (d / "log_nan.csv").write_text(
        "iter,residual_Hstar,dist_to_truth_H,tau\n0,1.0,,1.0\n1,nan,,1.0\n")
    # genfromtxt's message for a short row spans two lines
    (d / "log_ragged.csv").write_text(
        "iter,residual_Hstar,dist_to_truth_H\n0,1.0,2.0\n1,1.0\n")

    def reconstruct(*extra, masks="masks_ok.json", flux="flux_ok.aorf"):
        return ["reconstruct", "--config", cfg, "--psi", d / "psi_ok.aorf",
                "--masks", d / masks, "--flux", d / flux,
                "--outdir", d / "bad_rec", *extra]

    def evaluate(log):
        return ["evaluate", "--config", cfg, "--phantom", d / "truth_ok.json",
                "--recon", d / "psi_ok.aorf", "--log", d / log,
                "--out", d / "bad_metrics.json"]

    def recover_psi(*extra):
        return ["recover-psi", "--config", cfg, "--sinogram",
                d / "sino_ok.csv", "--out", d / "bad_psi.aorf", *extra]

    segment = ["segment", "--config", cfg, "--outdir", d / "bad_seg",
               "--psi"]
    # flag values outside the range the option's rule allows
    bad_flags = [
        *((f"--tikhonov {v}", recover_psi("--tikhonov", v))
          for v in ("nan", "-1")),
        *((f"--max-iter {v}", recover_psi("--max-iter", v))
          for v in ("0", "-3")),
        *((f"--threshold {v}", segment + [d / "psi_ok.aorf", "--threshold",
                                          v]) for v in ("nan", "inf", "0")),
        *((f"--smooth {v}", segment + [d / "psi_ok.aorf", "--smooth", v])
          for v in ("nan", "-1")),
        # wider than the n=35 grid: it blurs psi flat, at a cost that grows
        # with sigma
        *((f"--smooth {v}", segment + [d / "psi_ok.aorf", "--smooth", v])
          for v in ("35.5", "1e9")),
        ("--a0 nan", reconstruct("--a0", "nan")),
        ("--lower above --upper", reconstruct("--lower", "3", "--upper",
                                              "1")),
        ("--a0 above --upper", reconstruct("--a0", "5")),
    ]
    return [
        ("config not an object",
         ["phantom", "gen", "--config", d / "config_list.json",
          "--out", d / "bad_phantom.json"]),
        *((f"{key} not an object or string",
           ["phantom", "gen", "--config", d / f"config_{key}.json",
            "--out", d / "bad_phantom.json"]) for key in not_objects),
        ("--out under a file",
         ["phantom", "gen", "--config", cfg,
          "--out", d / "log_empty.csv" / "phantom.json"]),
        *((f"non-numeric reconstruction.{key}",
           ["phantom", "gen", "--config", d / f"recon_{key}.json",
            "--out", d / "bad_phantom.json"]) for key in bad_recon),
        *((f"{sec}.{key} = {value!r}",
           ["phantom", "gen", "--config", d / f"range_{k}.json",
            "--out", d / "bad_phantom.json"])
          for k, (sec, key, value) in enumerate(out_of_range)),
        ("missing log", evaluate("none.csv")),
        ("log without residual_Hstar", evaluate("log_no_residual.csv")),
        ("log without dist_to_truth_H", evaluate("log_no_dist.csv")),
        ("log without rows", evaluate("log_no_rows.csv")),
        ("empty log", evaluate("log_empty.csv")),
        ("ragged log", evaluate("log_ragged.csv")),
        ("log with a non-finite residual", evaluate("log_nan.csv")),
        ("missing psi", segment + [d / "none.aorf"]),
        ("missing flux", reconstruct(flux="none.aorf")),
        ("missing recon", ["evaluate", "--config", cfg, "--phantom",
                           d / "truth_ok.json", "--recon", d / "none.aorf",
                           "--out", d / "bad_metrics.json"]),
        ("recon too large to compare",
         ["evaluate", "--config", cfg, "--phantom", d / "truth_ok.json",
          "--recon", d / "recon_huge.aorf", "--out", d / "bad_metrics.json"]),
        ("recon not a scalar field",
         ["evaluate", "--config", cfg, "--phantom", d / "truth_ok.json",
          "--recon", d / "flux_ok.aorf", "--out", d / "bad_metrics.json"]),
        ("missing export field", ["export", d / "none.aorf", d / "bad.pgm"]),
        ("export with the dropped --pgm flag",
         ["export", "--pgm", d / "psi_ok.aorf", d / "bad.pgm"]),
        ("missing truth", reconstruct("--truth", d / "none.json")),
        ("malformed truth", reconstruct("--truth", d / "truth_bad.json")),
        ("missing manifest", reconstruct(masks="none.json")),
        ("manifest without masks", reconstruct(masks="masks_nokey.json")),
        ("manifest with no entries",
         reconstruct(masks="masks_no_entries.json")),
        ("evaluate on a manifest with no entries",
         ["evaluate", "--config", cfg, "--phantom", d / "truth_ok.json",
          "--recon", d / "psi_ok.aorf", "--masks",
          d / "masks_no_entries.json", "--out", d / "bad_metrics.json"]),
        ("missing PGM", reconstruct(masks="masks_none_pgm.json")),
        ("bad PGM dimensions", reconstruct(masks="masks_dims.json")),
        ("truncated PGM header", reconstruct(masks="masks_cut.json")),
        ("PGM maxval not 255", reconstruct(masks="masks_maxval.json")),
        ("mask on another grid", reconstruct(masks="masks_grid33.json")),
        ("empty mask", reconstruct(masks="masks_empty.json")),
        ("evaluate on an empty mask",
         ["evaluate", "--config", cfg, "--phantom", d / "truth_ok.json",
          "--recon", d / "psi_ok.aorf", "--masks", d / "masks_empty.json",
          "--out", d / "bad_metrics.json"]),
        ("one mask listed twice", reconstruct(masks="masks_twice.json")),
        ("l = 0", ["reconstruct", "--config", d / "dirichlet.json",
                   "--psi", d / "none.aorf", "--masks", d / "none.json",
                   "--flux", d / "none.aorf", "--outdir", d / "bad_rec"]),
        ("bad magic", segment + [d / "magic.aorf"]),
        ("truncated header", segment + [d / "header.aorf"]),
        ("truncated payload", segment + [d / "short.aorf"]),
        ("psi on another grid", segment + [d / "grid33.aorf"]),
        ("threshold not a number",
         segment + [d / "psi_ok.aorf", "--threshold", "abc"]),
        *bad_flags,
        ("edited r column", ["recover-psi", "--config", cfg, "--sinogram",
                             d / "sino_r.csv", "--out", d / "bad_psi.aorf"]),
        ("sinogram without its geometry line",
         ["recover-psi", "--config", cfg, "--sinogram",
          d / "sino_no_geometry.csv", "--out", d / "bad_psi.aorf"]),
        ("sinogram of another eta",
         ["recover-psi", "--config", d / "eta_0.1.json", "--sinogram",
          d / "sino_ok.csv", "--out", d / "bad_psi.aorf"]),
        *((f"non-UTF-8 byte in {where}",
           ["recover-psi", "--config", cfg, "--sinogram", d / name,
            "--out", d / "bad_psi.aorf"])
          for where, name in (("a sinogram row", "sino_byte.csv"),
                              ("the sinogram header", "sino_head.csv"))),
    ]


def test_bad_inputs_are_exit_code_2(workdir, capsys):
    for name, argv in _bad_inputs(workdir):
        code = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2, name
        assert len(err) == 1 and err[0].startswith("error: "), (name, err)


def test_overlapping_masks_are_named(workdir, capsys):
    bad = dict(_bad_inputs(workdir))
    code = cli.main([str(a) for a in bad["one mask listed twice"]])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        "error: reconstruct: masks 0 and 1 overlap")


def test_empty_mask_names_its_file(workdir, capsys):
    bad = dict(_bad_inputs(workdir))
    for name in ("empty mask", "evaluate on an empty mask"):
        assert cli.main([str(a) for a in bad[name]]) == 2, name
        assert capsys.readouterr().err.strip() == (
            f"error: {workdir / 'pgm_empty.pgm'}: the mask marks no node")


def test_sinogram_of_another_geometry_is_named(workdir, capsys):
    bad = dict(_bad_inputs(workdir))
    code = cli.main([str(a) for a in bad["sinogram of another eta"]])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        f"error: {workdir / 'sino_ok.csv'}: sampled at eta = 0.12, but the "
        "config has eta = 0.1")


def test_non_utf8_sinogram_names_its_line(workdir, capsys):
    bad = dict(_bad_inputs(workdir))
    code = cli.main([str(a) for a in bad["non-UTF-8 byte in a sinogram row"]])
    assert code == 2
    err = capsys.readouterr().err.strip()
    raw = (workdir / "sino_byte.csv").read_bytes()
    line = raw[:raw.index(b"\xff")].count(b"\n") + 1
    assert err == (f"error: {workdir / 'sino_byte.csv'}:{line}: "
                   "byte 0xff is not UTF-8 text")


def test_out_makes_missing_parent_dirs(workdir, capsys):
    cfg = workdir / "config.json"
    d = workdir / "made" / "by" / "out"
    acoustic = cli.load_config(cfg).acoustic
    acousto.Sinogram(acoustic, 8, 16, np.zeros((8, 16))).save_csv(
        workdir / "zero_sino.csv")
    steps = [
        ["phantom", "gen", "--config", cfg, "--out", d / "ph" / "p.json"],
        ["recover-psi", "--config", cfg, "--sinogram",
         workdir / "zero_sino.csv", "--out", d / "psi" / "psi.aorf"],
        ["evaluate", "--config", cfg, "--phantom", d / "ph" / "p.json",
         "--recon", d / "psi" / "psi.aorf", "--out", d / "ev" / "m.json"],
        ["export", d / "psi" / "psi.aorf", d / "pgm" / "psi.pgm"],
    ]
    for argv in steps:
        code, _ = run(argv, capsys)
        assert code == 0, argv[:2]
        assert os.path.getsize(argv[-1]) > 0, argv[:2]


def test_version_is_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert f"aotomo {aotomo.__version__} " in capsys.readouterr().out


def scipy_loaded(code, argv=()):
    """Exit code and sorted SciPy modules of a fresh interpreter that has run
    ``code`` with ``argv`` as ``sys.argv[1:]``."""
    src = os.path.dirname(os.path.dirname(aotomo.__file__))
    script = ("import json, sys\n"
              "try:\n"
              f"    {code}\n"
              "finally:\n"
              "    print(json.dumps(sorted(m for m in sys.modules\n"
              "                            if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_loaded("import aotomo.cli") == (0, [])


def test_no_command_loads_scipy(tmp_path):
    """Each command of the chain, run as its own process, loads NumPy only:
    SciPy is for the tests and the benchmark."""
    write_config(tmp_path)
    runs = [["--version"]] + [argv for argv, _ in pipeline_steps(tmp_path)]
    assert {argv[0] for argv in runs} == {
        "--version", "phantom", "forward", "sinogram", "recover-psi",
        "segment", "reconstruct", "evaluate", "export"}
    for argv in runs:
        code, loaded = scipy_loaded("from aotomo import cli; "
                                    "sys.exit(cli.main(sys.argv[1:]))", argv)
        assert (code, loaded) == (0, []), argv[0]


# Every def under src/aotomo that the profiled chain below does not call,
# and why: "bench" if bench/ calls it, or traces it (bench/layers.py patches
# the traced names by name, so they must exist); "error" for an error path;
# "branch" for a branch the chain does not take.
UNCALLED = {
    "acousto.AcousticConfig.monotone_radius":
        "branch: the radius below which kernels.radial_invert bisects",
    "acousto.Sinogram.sources": "bench: radon.radon_adjoint calls it",
    "acousto._displaced_shell": "bench: perturbed_solution calls it",
    "acousto._shell_displacement": "bench: displacement_u calls it",
    "acousto._with_shell": "bench: perturbed_solution calls it",
    "acousto.displacement_u": "bench: traced",
    "acousto.measure_M_eta": "bench: traced",
    "acousto.measure_Mtilde": "bench: traced, and sweep-fine's quality",
    "acousto.perturbed_solution": "bench: traced",
    "cli._Parser.error": "error: a bad command line",
    "cli._one_line": "error: the message of a failed command",
    "diffusion.RobinOperator.source_rhs": "branch: solve_adjoint calls it",
    "diffusion.RobinOperator.sparse_matrix": "bench: traced",
    "diffusion.solve_DT":
        "branch: DF at a nonzero correction, which Landweber never asks for",
    "diffusion.solve_adjoint": "bench: traced",
    "fields.SolverError.__init__": "error: a solve that misses its tolerance",
    "fields.edge_form_matrix": "bench: RobinOperator.sparse_matrix calls it",
    "fields.neumann_edge_coefficients": "bench: helmholtz.decompose calls it",
    "fields.neumann_solve_weighted": "bench: helmholtz.decompose calls it",
    "fields.norm_l2": "bench: the workloads' output digests",
    "helmholtz.WeakVectorFunctional.contrast": "bench: decompose calls it",
    "helmholtz.WeakVectorFunctional.edge_data": "bench: decompose calls it",
    "helmholtz.WeakVectorFunctional.gradient_rhs":
        "bench: decompose calls it",
    "helmholtz.WeakVectorFunctional.grid": "bench: decompose calls it",
    "helmholtz.decompose": "bench: traced",
    "helmholtz.ground_truth_psi": "bench: traced, reconstruct-exhaustive",
    "inversion.initial_guess_exhaustion.<locals>.memo_misfits":
        "branch: coordinate mode, for more than three masks",
    "kernels.bilinear_gather": "bench: traced; tests/reference.py oracles",
    "kernels.bilinear_scatter": "bench: traced",
    "kernels.edge_form_apply": "bench: traced",
    "phantom.Inclusion.contains": "bench: Phantom.interior_mask calls it",
    "phantom.Phantom.interior_mask": "bench: masks_from_phantom calls it",
    "phantom.Phantom.sample_displaced": "bench: traced",
    "radon.radon_adjoint": "bench: traced",
    "radon.radon_forward": "bench: traced",
    "segmentation.masks_from_phantom":
        "bench: traced, reconstruct-exhaustive",
}


def package_defs():
    """``module.qualname`` of every def in the package, keyed by its file
    and the line its code object starts on (its first decorator's)."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[(path, first)] = f"{os.path.basename(path)[:-3]}.{name}"
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    pkg = os.path.dirname(aotomo.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            path = os.path.join(pkg, name)
            with open(path) as fh:
                walk(ast.parse(fh.read()), path, "")
    return out


PROFILED = """\
import json, sys
pkg, steps = sys.argv[1], json.loads(sys.argv[2])
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(pkg):
        called.add((code.co_filename, code.co_firstlineno))

sys.setprofile(profile)
from aotomo import cli
codes = [cli.main(argv) for argv in steps]
sys.setprofile(None)
print(json.dumps([codes, sorted(called)]))
"""


def test_the_chain_calls_every_def_but_the_listed_ones(tmp_path):
    # the chain of test_every_command_in_sequence with reconstruct --truth,
    # sinogram --kind Mtilde and every numeric flag given its default, and
    # forward and sinogram at l = 0 and l = 1, in one fresh interpreter
    d = tmp_path
    write_config(d)
    steps = [argv for argv, _ in pipeline_steps(d)]
    flags = {"recover-psi": ["--tikhonov", "1e-6", "--max-iter", "200"],
             "segment": ["--smooth", "2"],
             "reconstruct": ["--a0", "1", "--lower", "0.5", "--upper", "2",
                             "--truth", d / "phantom.json"]}
    steps = [argv + flags.get(argv[0], []) for argv in steps]
    steps.insert(3, ["sinogram", "--config", d / "config.json", "--kind",
                     "Mtilde", "--outdir", d / "sino_lin"])
    for l, preset in ((0.0, "two-disks"), (1.0, "disk")):
        doc = json.loads((d / "config.json").read_text())
        doc["optics"]["l"] = l
        doc["phantom_file"] = str(d / f"phantom_{l}.json")
        cfg = d / f"config_{l}.json"
        cfg.write_text(json.dumps(doc))
        steps += [["phantom", "gen", "--config", cfg, "--preset", preset,
                   "--out", d / f"phantom_{l}.json"],
                  ["forward", "--config", cfg, "--outdir", d / f"fwd_{l}"],
                  ["sinogram", "--config", cfg, "--outdir", d / f"sino_{l}"]]
    defs = package_defs()
    pkg = os.path.dirname(aotomo.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(pkg))
    proc = subprocess.run(
        [sys.executable, "-c", PROFILED, pkg,
         json.dumps([[str(a) for a in argv] for argv in steps])],
        cwd=d, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, called = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(steps)
    called = {tuple(key) for key in called}
    uncalled = {name for key, name in defs.items() if key not in called}
    listed = set(UNCALLED)
    assert uncalled == listed, ("not listed", sorted(uncalled - listed),
                                "called", sorted(listed - uncalled))
