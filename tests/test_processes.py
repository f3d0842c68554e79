"""The package as a separate process sees it.

Each test starts fresh interpreters: the exit status of
``python -m noiseamp.cli`` as a shell gets it, a stdout that its reader
closes, the peak memory of the largest torus reports, and the noise
stream's bits under a restricted set of numpy's SIMD kernels.

Peak memory is the process's own ``VmHWM`` (Linux): a child's
``ru_maxrss`` starts from the peak of the process that spawned it, here
the test runner, and would hide the child's own peak.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from noiseamp.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def _python(*args, env=ENV):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv, code", [
    (("bounds", "--algo", "gd", "--kappa", "4", "--n", "2"), 0),
    (("bounds", "--algo", "gd", "--kappa", "inf", "--n", "3"), 2),
    (("consensus", "--algo", "gd", "--torus", "2,8", "--params", "explicit",
      "--alpha", "1.5"), 3),
])
def test_exit_status_reaches_the_shell(capsys, argv, code):
    # The module's entry point exits with run()'s code and prints what
    # run() prints in this process.
    done = _python("-m", "noiseamp.cli", *argv)
    assert run(list(argv)) == code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (
        code, captured.out, captured.err)


def test_closed_stdout_exits_141_without_a_traceback():
    # `noiseamp analyze ... | head -c 5`: the 12 MB report outgrows the
    # pipe, whose reader leaves after 5 bytes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "noiseamp.cli", "analyze", "--algo", "gd",
         "--torus", "2,1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    try:
        head = proc.stdout.read(5)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    assert head == b'{\n  "'
    assert (proc.returncode, err) == (141, b"")


_PEAK = """
import sys

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))
"""

_RUN = _PEAK + """
from noiseamp.cli import run
code = run(sys.argv[1:])
print(code, peak_kb())
"""

# The J report of a torus: its spectrum and per-mode variances, no writer.
_J_REPORT = _PEAK + """
from noiseamp import (Algo, AlgoConfig, TorusSpec, optimal_quadratic_params,
                      torus_spectrum, variance_amplification)
s = torus_spectrum(TorusSpec(2, 3161))
p = optimal_quadratic_params(Algo.GD, s.m, s.L)
variance_amplification(AlgoConfig(Algo.GD, p.alpha, p.beta), s)
print(peak_kb())
"""

_IMPORT = _PEAK + """
import noiseamp
print(peak_kb())
"""


def _peak_kb(script, *argv):
    """The integers a fresh process running ``script`` prints."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("peak memory is read from /proc/self/status (Linux)")
    done = _python("-c", script, *argv)
    assert done.returncode == 0, done.stderr
    return [int(v) for v in done.stdout.split()]


def test_largest_torus_report_peaks_near_its_j_report(tmp_path):
    # analyze --torus 2,3162 (1,252,152 modes) writes its report to --out a
    # chunk of records at a time: its peak stays within 1.5x that of a
    # process holding the J report of a torus of the same size.
    code, big = _peak_kb(_RUN, "analyze", "--algo", "gd", "--torus",
                         "2,3162", "--out", str(tmp_path / "big.json"))
    [small] = _peak_kb(_J_REPORT)
    assert code == 0
    assert 2 * big <= 3 * small, (big, small)


@pytest.mark.parametrize("torus", ["2,3161", "1,9999999"])
def test_consensus_streams_within_16_mb_of_an_import(tmp_path, torus):
    # consensus sums J-bar over chunks of modes: on the largest torus and
    # on the largest ring (5e6 distinct axis values) it peaks within
    # 16,384 kB of a process that only imports noiseamp.
    code, streamed = _peak_kb(_RUN, "consensus", "--algo", "gd", "--torus",
                              torus, "--out", str(tmp_path / "small.json"))
    [base] = _peak_kb(_IMPORT)
    assert code == 0
    assert streamed <= base + 16384, (streamed, base)


_DIGEST = """
import hashlib
from noiseamp import standard_normals
z = standard_normals(7, 0, 2 ** 20)
print(hashlib.sha256(z.tobytes()).hexdigest())
"""

AVX2_ONLY = "SSE,SSE2,SSE3,SSSE3,SSE41,POPCNT,SSE42,AVX,F16C,FMA3,AVX2"


def test_noise_stream_is_the_same_under_avx2_only_kernels():
    # The normal stream is the same bits whatever SIMD kernels numpy
    # dispatches to.
    restricted = _python("-c", _DIGEST,
                         env={**ENV, "NPY_ENABLE_CPU_FEATURES": AVX2_ONLY})
    if (restricted.returncode
            and "NPY_ENABLE_CPU_FEATURES" in restricted.stderr):
        pytest.skip("numpy refuses the AVX2-only kernel set on this CPU: "
                    + restricted.stderr.strip().splitlines()[-1])
    default = _python("-c", _DIGEST)
    assert default.returncode == restricted.returncode == 0, (
        default.stderr, restricted.stderr)
    assert len(default.stdout) == 65
    assert default.stdout == restricted.stdout
