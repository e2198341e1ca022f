"""Memory budget of network construction and the certificate path.

The O(n^3) phases hold a few (n+1) x (n+1) float64 arrays at their peak, and
at n_env 4096 those arrays are most of the process.  Each phase is allowed
at most 6 of them; the counted arrays are listed next to the check.  The
numpy arrays alone, as tracemalloc sees them, are counted by
test_certify.py's test_certificate_builds_no_dense_matrix.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbmsim

#: one BLAS thread, so that the reading does not depend on the core count
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}

PEAK_PROBE = """
import json, sys
import numpy as np
from qbmsim import (SpectralFamily, build_certificate, critical_beta,
                    make_spectral_model, verify_all_times_separable)

def peak():
    # VmHWM, this process's peak resident set: ru_maxrss would start at the
    # parent's, which Linux carries over into it across fork and exec
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

family = SpectralFamily(exponent=1.0, omega_max=2.0, coupling_norm=0.1, n_env=64)
# BLAS and LAPACK load, start their threads and touch their buffers here
build_certificate(make_spectral_model(family))
n = int(sys.argv[1])
base, unit = peak(), (n + 1) ** 2 * 8
net = make_spectral_model(SpectralFamily(1.0, 2.0, 0.1, n))
phases = [peak()]
critical_beta(net)
phases.append(peak())
cert = build_certificate(net)
verify_all_times_separable(cert, net, np.linspace(0.0, 100.0, 100))
phases.append(peak())
print(json.dumps([(p - base) / unit for p in phases]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM")
def test_certificate_path_peak_rss_stays_within_six_arrays():
    # growth of the process peak over a warmed-up start, in (n+1)^2 doubles.
    # Network: 2V, eigh's copy of it, its 2n^2 workspace and the eigenvectors,
    # 5 arrays.  critical_beta and build_certificate: the mode matrix, the two
    # reference blocks, in which the bisection and the domination test work,
    # and Cholesky's copy and factor, 5 arrays.  The rest is heap slack; a
    # second copy of V or of the bath blocks would take a whole array more.
    n_env = 1024
    src = str(Path(qbmsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, str(n_env)],
                          capture_output=True, text=True, timeout=300, check=True,
                          env={**os.environ, **SINGLE_THREAD, "PYTHONPATH": src})
    network, bisection, certificate = json.loads(proc.stdout)
    assert network <= 6.0, network
    assert bisection <= 6.0, bisection
    assert certificate <= 6.0, certificate
