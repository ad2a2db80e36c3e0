"""The command-line pipeline, driven through ``cli.main`` in a temp dir."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import aotomo
from aotomo import acousto, cli, fields, phantom, segmentation


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small config (n=35, eta=0.12, 8 x 16 sweep, 2 Landweber steps)
    and the preset disk phantom it points to."""
    d = tmp_path_factory.mktemp("cli")
    config = {
        "grid": {"n": 35},
        "acoustic": {"eta": 0.12, "ny": 8, "nr": 16},
        "optics": {"l": 0.1, "g": 1.0},
        "phantom_file": str(d / "phantom.json"),
        "reconstruction": {"max_iter": 2},
    }
    (d / "config.json").write_text(json.dumps(config))
    return d


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_every_command_in_sequence(workdir, capsys):
    d = workdir
    cfg = d / "config.json"
    steps = [
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
        (["export", "--pgm", d / "rec" / "recon.aorf", d / "recon.pgm"],
         ["recon.pgm"]),
    ]
    outputs = {}
    for argv, written in steps:
        code, out = run(argv, capsys)
        assert code == 0, (argv[0], out)
        for name in written:
            assert os.path.getsize(d / name) > 0, name
        outputs[argv[0]] = out

    # the initial guess prints as plain floats, not NumPy scalar reprs
    assert "initial guess [" in outputs["reconstruct"]
    assert "np.float64" not in outputs["reconstruct"]
    metrics = json.loads((d / "metrics.json").read_text())
    assert np.isfinite(metrics["l2_rel_error"])
    assert (d / "recon.pgm").read_bytes().startswith(b"P5")
    assert isinstance(fields.load_field(d / "psi.aorf"), fields.ScalarField)


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
    (d / "config_list.json").write_text("[1]")
    not_objects = {"grid": 5, "acoustic": [1], "reconstruction": 5,
                   "phantom_file": 5}
    for key, value in not_objects.items():
        doc = json.loads(cfg.read_text())
        doc[key] = value
        (d / f"config_{key}.json").write_text(json.dumps(doc))

    (d / "magic.aorf").write_bytes(b"NOPE" + bytes(16))
    (d / "header.aorf").write_bytes(b"AORF" + bytes(3))
    fields.save_field(d / "short.aorf", fields.ScalarField.constant(
        fields.Grid(35), 1.0))
    (d / "short.aorf").write_bytes((d / "short.aorf").read_bytes()[:-8])
    fields.save_field(d / "grid33.aorf", fields.ScalarField.constant(
        fields.Grid(33), 1.0))

    acoustic = cli.load_config(cfg).acoustic
    sino = acousto.Sinogram(acoustic, 8, 16, np.zeros((8, 16)))
    sino.save_csv(d / "sino_ok.csv")
    rows = (d / "sino_ok.csv").read_text().splitlines()
    m, r, v = rows[5].split(",")
    rows[5] = f"{m},{float(r) + 1e-6!r},{v}"
    (d / "sino_r.csv").write_text("\n".join(rows) + "\n")

    # well-formed reconstruct inputs on the config's n=35 grid
    grid = fields.Grid(35)
    fields.save_field(d / "psi_ok.aorf",
                      fields.ScalarField.constant(grid, 0.0))
    fields.save_field(d / "flux_ok.aorf",
                      fields.BoundaryTrace.constant(grid, 1.0))
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
    phantom.save_phantom(d / "truth_ok.json", phantom.from_dict(
        dict(cli.PRESETS["disk"], D_margin=0.1)))
    (d / "truth_bad.json").write_text(json.dumps({"a0": 1.0}))
    (d / "log_no_residual.csv").write_text("iter,foo\n0,1.0\n")
    (d / "log_no_dist.csv").write_text("iter,residual_Hstar\n0,1.0\n")
    (d / "log_no_rows.csv").write_text(
        "iter,residual_Hstar,dist_to_truth_H,tau\n")
    (d / "log_empty.csv").write_text("")
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

    segment = ["segment", "--config", cfg, "--outdir", d / "bad_seg",
               "--psi"]
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
        ("missing log", evaluate("none.csv")),
        ("log without residual_Hstar", evaluate("log_no_residual.csv")),
        ("log without dist_to_truth_H", evaluate("log_no_dist.csv")),
        ("log without rows", evaluate("log_no_rows.csv")),
        ("empty log", evaluate("log_empty.csv")),
        ("ragged log", evaluate("log_ragged.csv")),
        ("missing psi", segment + [d / "none.aorf"]),
        ("missing flux", reconstruct(flux="none.aorf")),
        ("missing recon", ["evaluate", "--config", cfg, "--phantom",
                           d / "truth_ok.json", "--recon", d / "none.aorf",
                           "--out", d / "bad_metrics.json"]),
        ("recon not a scalar field",
         ["evaluate", "--config", cfg, "--phantom", d / "truth_ok.json",
          "--recon", d / "flux_ok.aorf", "--out", d / "bad_metrics.json"]),
        ("missing export field", ["export", "--pgm", d / "none.aorf",
                                  d / "bad.pgm"]),
        ("missing truth", reconstruct("--truth", d / "none.json")),
        ("malformed truth", reconstruct("--truth", d / "truth_bad.json")),
        ("missing manifest", reconstruct(masks="none.json")),
        ("manifest without masks", reconstruct(masks="masks_nokey.json")),
        ("missing PGM", reconstruct(masks="masks_none_pgm.json")),
        ("bad PGM dimensions", reconstruct(masks="masks_dims.json")),
        ("truncated PGM header", reconstruct(masks="masks_cut.json")),
        ("PGM maxval not 255", reconstruct(masks="masks_maxval.json")),
        ("mask on another grid", reconstruct(masks="masks_grid33.json")),
        ("empty mask", reconstruct(masks="masks_empty.json")),
        ("l = 0", ["reconstruct", "--config", d / "dirichlet.json",
                   "--psi", d / "none.aorf", "--masks", d / "none.json",
                   "--flux", d / "none.aorf", "--outdir", d / "bad_rec"]),
        ("bad magic", segment + [d / "magic.aorf"]),
        ("truncated header", segment + [d / "header.aorf"]),
        ("truncated payload", segment + [d / "short.aorf"]),
        ("psi on another grid", segment + [d / "grid33.aorf"]),
        ("threshold not a number",
         segment + [d / "psi_ok.aorf", "--threshold", "abc"]),
        ("edited r column", ["recover-psi", "--config", cfg, "--sinogram",
                             d / "sino_r.csv", "--out", d / "bad_psi.aorf"]),
    ]


def test_bad_inputs_are_exit_code_2(workdir, capsys):
    for name, argv in _bad_inputs(workdir):
        code = cli.main([str(a) for a in argv])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2, name
        assert len(err) == 1 and err[0].startswith("error: "), (name, err)


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
        ["export", "--pgm", d / "psi" / "psi.aorf", d / "pgm" / "psi.pgm"],
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


def test_import_leaves_out_scipy_integrate_optimize_and_fft():
    src = os.path.dirname(os.path.dirname(aotomo.__file__))
    code = ("import sys, aotomo.cli; "
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.integrate', 'scipy.optimize', 'scipy.fft'))))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert proc.stdout.strip() == "[]"
