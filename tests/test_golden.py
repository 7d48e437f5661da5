"""Golden outputs: `robustnn run` must write byte-identical results.csv and
summary.csv at any parallelism, `robustnn report` byte-identical charts
and report_data.csv from the desk summary, and `robustnn probe` a
byte-identical trajectory for the breakdown probe. Changes to the trainer,
the preparation of runs, the sweep scheduler or the writers that are meant
to keep every number must keep these digests.

The digests were taken with numpy 2.4.6 and scipy-openblas 0.3.31.188.0 on
an AVX-512 x86-64 machine. Another numpy or BLAS build may round a matrix
product differently, and so may the same builds on another CPU: numpy picks
its SIMD loops (exp and log1p among them) and OpenBLAS its kernels by the
CPU they run on. Either moves the trajectories of sign-based training; the
failure message then names both builds and what each dispatched to.

The pinned digests are those of the same runs in a subprocess whose
dispatch any x86-64 CPU with AVX2 and FMA3 can give: numpy's AVX-512 loops
disabled and OpenBLAS's Haswell kernels, so that they hold on other such
machines with the same builds. Both sets were taken from the same tree.
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robustnn
from robustnn import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TAKEN_WITH = ("numpy 2.4.6 (SIMD X86_V2 + X86_V3 X86_V4 AVX512_ICL AVX512_SPR), "
              "scipy-openblas 0.3.31.188.0 (core SkylakeX)")

# y-iterative attacker, unstandardized responses, shallow and deep networks
Y_ITERATIVE_DOC = {
    "data": {"p": 3, "n_train": 40, "n_test": 16}, "structure": "lin",
    "contamination": {"kind": "y-iterative", "r": 0.5, "mu_out": 1},
    "activation": "logistic", "depth": ["shallow", "deep"], "standardize": False,
    "losses": ["squared", "huber", "trim25"], "replications": 4, "base_seed": 7,
    "optimizer": {"stepmax": 400},
}

# softplus hidden layers, which have kernels of their own (log-add-exp
# forward, the logistic as derivative), under x-casewise contamination;
# some runs reach the epoch cap
SOFTPLUS_DOC = {
    "data": {"p": 3, "n_train": 40, "n_test": 16}, "structure": "trig",
    "contamination": {"kind": "x-casewise", "r": 0.25, "mu_out": 10},
    "activation": "softplus", "depth": ["shallow", "deep"], "standardize": True,
    "losses": ["squared", "huber", "tukey", "trim25"], "replications": 3, "base_seed": 11,
    "optimizer": {"stepmax": 300},
}

DOCS = {"y_iterative": Y_ITERATIVE_DOC, "softplus": SOFTPLUS_DOC}

GOLDEN = {
    "desk_demo": ("6a8f40cc2e68f559df4090bde66460304c62b2f8bbfeea1ee0b102866d7fccc5",
                  "d66f562c685102bab9712ee7b6bfb2eec7b85861eb56cc6b85bed632c66ba781"),
    "y_iterative": ("07fbe6cb1b543f8cf01edef1e03dfdc889715c60a8bc9abfc84f4f6a6d7f2e1c",
                    "587a91ba30cf799e7fa4df4c97dab5559a87f5a1dece2b3ad90493e559937b15"),
    "softplus": ("0abb11afcbba01d28bfbc74108003b715824d8f3bca3c9dbe5f99ab819b5b6d9",
                 "49d91dae7dea73a7d124265e1119fc676380a5755e023dd6e15d37140a42b6ba"),
}

PINNED_ENV = {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4",
              "OPENBLAS_CORETYPE": "Haswell"}

GOLDEN_PINNED = {
    "desk_demo": ("69e7b1309145e8d91f3543240eef2d31176e5bd9c92a988563ac38690e8381cd",
                  "6f8d27a8366e43b6260649087c975c670b8ac3e4e4c1083f6bc86758e37c1fe3"),
    "y_iterative": ("7b80777830e5b342534f6e75c2e0899ca6afe0049451b32274764b93c0105272",
                    "587a91ba30cf799e7fa4df4c97dab5559a87f5a1dece2b3ad90493e559937b15"),
    "softplus": ("c20d458dfbf5d6cd91bf9590b121e8bed7986c131e33f4a0dc0416eecd186ee7",
                 "49d91dae7dea73a7d124265e1119fc676380a5755e023dd6e15d37140a42b6ba"),
}

# what `robustnn probe --config configs/breakdown_probe.json` prints, natively
# and under PINNED_ENV
GOLDEN_PROBE = "2b675e436aff5fc3565ad85f912ebe933f07db7318c04f8aa14c0dd4961b93a5"
GOLDEN_PROBE_PINNED = "2b675e436aff5fc3565ad85f912ebe933f07db7318c04f8aa14c0dd4961b93a5"

# what `robustnn report` writes from the desk_demo summary.csv
GOLDEN_REPORT = {
    "chart_lin_n150_p5_none_r0.25_m100_logistic_shallow_std.svg":
        "4cfacdb60de90ed9a3017b39f8ea1e478d9817d76cef3d51514e0a63e9e463b8",
    "chart_lin_n150_p5_x-casewise_r0.25_m100_logistic_shallow_std.svg":
        "b55e06df7e19bed8b95de8fe205589ae5d44c271441be941f6cd7620e2bad5ab",
    "chart_lin_n150_p5_xy-cellwise_r0.25_m100_logistic_shallow_std.svg":
        "ae49508f0da79fe633ec6556e2a2b364f5231672e4462ddec8081933f4c9d1f8",
    "chart_lin_n150_p5_y-convex_r0.25_m100_logistic_shallow_std.svg":
        "3059dfd81e9a3951ca398fe7508e3d29b3564f23cd461661dfac68da6b289e22",
    "report_data.csv": "7cb6ee5d1b00b06268bb6bda53804f0972efc8ea0c82cba61678a33d5b40ea71",
}


def openblas_core() -> str:
    """The CPU core the loaded OpenBLAS chose its kernels for, or 'unknown'."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return "unknown"
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def builds() -> str:
    """numpy and BLAS builds, with numpy's SIMD baseline + dispatched
    extensions and the OpenBLAS core."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config.get("SIMD Extensions", {})
    return (f"numpy {np.__version__} (SIMD {' '.join(simd.get('baseline', []))} + "
            f"{' '.join(simd.get('found', []))}), "
            f"{blas.get('name')} {blas.get('version')} (core {openblas_core()})")


def has_avx2_and_fma3() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX2") and __cpu_features__.get("FMA3"))


def config_of(name: str, tmp_path: Path) -> Path:
    if name == "desk_demo":
        return CONFIGS / "desk_demo.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(DOCS[name]))
    return config


def run_pinned(*args: str) -> subprocess.CompletedProcess:
    """The CLI with args in a subprocess under PINNED_ENV, from this tree."""
    if not has_avx2_and_fma3():
        pytest.skip("the pinned dispatch needs an x86-64 CPU with AVX2 and FMA3")
    src = str(Path(robustnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "robustnn.cli", *args],
                          env={**os.environ, **PINNED_ENV, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    return proc


def digests(out: Path) -> tuple:
    return tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("results.csv", "summary.csv"))


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_writes_the_golden_outputs(tmp_path, capsys, name, parallel):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config_of(name, tmp_path)), "--out", str(out),
                     "--parallel", str(parallel)]) == cli.EXIT_OK
    capsys.readouterr()
    assert digests(out) == GOLDEN[name], (
        f"{name} at --parallel {parallel}: sha256 of results.csv/summary.csv "
        f"changed; the golden digests were taken with {TAKEN_WITH}, this run "
        f"uses {builds()}")


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_PINNED))
def test_pinned_run_writes_the_pinned_golden_outputs(tmp_path, name, parallel):
    out = tmp_path / "out"
    run_pinned("run", "--config", str(config_of(name, tmp_path)), "--out", str(out),
               "--parallel", str(parallel))
    assert digests(out) == GOLDEN_PINNED[name], (
        f"{name} at --parallel {parallel} under {PINNED_ENV}: sha256 of "
        f"results.csv/summary.csv changed; the pinned digests were taken with "
        f"numpy 2.4.6 and scipy-openblas 0.3.31.188.0, this process uses {builds()}")


def test_report_writes_the_golden_charts(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(CONFIGS / "desk_demo.json"),
                     "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["report", "--summary", str(out / "summary.csv"),
                     "--out", str(out / "report")]) == cli.EXIT_OK
    capsys.readouterr()
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted((out / "report").iterdir())}
    assert got == GOLDEN_REPORT, (
        f"sha256 of the desk report changed; the golden digests were taken "
        f"with {TAKEN_WITH}, this run uses {builds()}")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_probe_prints_the_golden_trajectory(capsys):
    assert cli.main(["probe", "--config", str(CONFIGS / "breakdown_probe.json")]) == cli.EXIT_OK
    assert sha256_text(capsys.readouterr().out) == GOLDEN_PROBE, (
        f"sha256 of the breakdown probe's output changed; the golden digest was "
        f"taken with {TAKEN_WITH}, this run uses {builds()}")


def test_pinned_probe_prints_the_pinned_golden_trajectory():
    proc = run_pinned("probe", "--config", str(CONFIGS / "breakdown_probe.json"))
    assert sha256_text(proc.stdout) == GOLDEN_PROBE_PINNED, (
        f"sha256 of the breakdown probe's output under {PINNED_ENV} changed; the "
        f"pinned digest was taken with numpy 2.4.6 and scipy-openblas 0.3.31.188.0, "
        f"this process uses {builds()}")
