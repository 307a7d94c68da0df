"""``reconstruct``'s A(u), R(u), D(u) and residuals, pinned byte for byte.

Each digest is the sha256 of the raw float64 bytes of A(u), R(u) and D(u)
followed by the affine, orthogonality and two integrability residuals, at
the default step count.  A change that moves any bit of them moves a
digest; re-recording one needs the changed entries and the largest absolute
difference written down with the change.  A failure names the run and
prints the digest it now gives next to the one its ``RUNS`` entry pins.
The two seeded inputs scramble a plane wave by a u-dependent rotation of
the first two leaf slots and a c*u^2 translation of the first, with
(omega, c) drawn from a fixed seed.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from brinkmann import expr, metricfile, spaces
from brinkmann.canonical import reconstruct

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"

CW4_P = (np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
CW6_P = (np.array([[0.5, 0.1, 0.0, 0.0], [0.1, -0.3, 0.0, 0.0],
                   [0.0, 0.0, 0.2, 0.0], [0.0, 0.0, 0.0, 0.0]]),
         np.array([[1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.2, 0.0],
                   [0.0, 0.2, 0.5, 0.0], [0.0, 0.0, 0.0, 0.25]]))


def _scrambled(params, seed: int):
    rng = np.random.default_rng(seed)
    base = spaces.make_cw(spaces.CwParams(2 + len(params[0]), params))
    omega = float(rng.uniform(0.1, 0.5))
    c = float(rng.uniform(-1.5, 1.5))
    change = spaces.rotation_chart_change(
        base, (0, 1), omega, translation={0: expr.parse(f"{c!r} * u^2", base.n)})
    return spaces.apply_chart_change(base, change,
                                     box=((-0.5, 0.5),) + ((-0.8, 0.8),) * (base.n - 2))


def _bundled(name: str):
    return metricfile.load_metric_file(str(METRICS / f"{name}.metric"))


RUNS = [
    ("scrambled_cw4", lambda: _bundled("scrambled_cw4"), None,
     "2637aaf3a7ae0bac93e143a0e9c2f597f9cd81d9343bb596653aa92f968f29c3"),
    ("cw6_order2", lambda: _bundled("cw6_order2"), None,
     "8cc2abd204bb3c0613e85e68abaa4ceeb467d7b297ea5f0269e7872c4acea68d"),
    ("cw4_order2_sphere", lambda: _bundled("cw4_order2_sphere"), (0, 1),
     "beadfb128f2510f7d81f7d13ebdc6c754058c2bc1113f3799b3e6908a23bd10d"),
    ("seed3_scramble_cw4", lambda: _scrambled(CW4_P, 3), None,
     "1540c51fa62f580790f22021529221fbf5a6b71eb4a9608d903257a142828843"),
    ("seed7_scramble_cw6", lambda: _scrambled(CW6_P, 7), None,
     "3ccf3f951c46510ffd3100466456169d85118db5993cfdf95e54fb4e77a2f59c"),
]


def reconstruct_bytes(spec, block) -> bytes:
    cf = reconstruct(spec, block=block)
    residuals = np.array([cf.affine_residual, cf.orthogonality_error,
                          cf.eqq1_residual, cf.eqq3_residual])
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes()
                    for a in (cf.A_of_u, cf.R_of_u, cf.D_of_u, residuals))


@pytest.mark.parametrize("name, make, block, digest", RUNS, ids=[r[0] for r in RUNS])
def test_reconstruct_digest(name, make, block, digest):
    got = hashlib.sha256(reconstruct_bytes(make(), block)).hexdigest()
    assert got == digest, (f"reconstruct on {name} (block {block}) gives digest {got!r}, "
                           f"not the {digest!r} its RUNS entry pins")
