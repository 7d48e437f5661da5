"""Golden outputs: `robustnn run` must write byte-identical results.csv and
summary.csv at any parallelism. Changes to the trainer, the preparation of
runs or the sweep scheduler that are meant to keep every number must keep
these digests.

The digests were taken with numpy 2.4.6 and scipy-openblas 0.3.31.188.0 on
an AVX-512 x86-64 machine. Another numpy or BLAS build may round a matrix
product differently, and so may the same builds on another CPU: numpy picks
its SIMD loops (exp and log1p among them) and OpenBLAS its kernels by the
CPU they run on. Either moves the trajectories of sign-based training; the
failure message then names both builds and what each dispatched to.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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

GOLDEN = {
    "desk_demo": ("6a8f40cc2e68f559df4090bde66460304c62b2f8bbfeea1ee0b102866d7fccc5",
                  "d66f562c685102bab9712ee7b6bfb2eec7b85861eb56cc6b85bed632c66ba781"),
    "y_iterative": ("07fbe6cb1b543f8cf01edef1e03dfdc889715c60a8bc9abfc84f4f6a6d7f2e1c",
                    "587a91ba30cf799e7fa4df4c97dab5559a87f5a1dece2b3ad90493e559937b15"),
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


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_writes_the_golden_outputs(tmp_path, capsys, name, parallel):
    if name == "desk_demo":
        config = CONFIGS / "desk_demo.json"
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(Y_ITERATIVE_DOC))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out", str(out),
                     "--parallel", str(parallel)]) == cli.EXIT_OK
    capsys.readouterr()
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("results.csv", "summary.csv"))
    assert got == GOLDEN[name], (
        f"{name} at --parallel {parallel}: sha256 of results.csv/summary.csv "
        f"changed; the golden digests were taken with {TAKEN_WITH}, this run "
        f"uses {builds()}")
