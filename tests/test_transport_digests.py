"""The transport CLI's CSV output, pinned byte for byte.

Each digest is the sha256 of the stdout of one ``transport`` run from a fixed
start point with ``--span 0.5``.  A change that moves any printed digit moves
a digest; re-recording one needs the changed rows and the largest absolute
difference written down with the change.  The 150-step runs span several
blocks of ``transport.NODE_BLOCK`` nodes.
"""

import hashlib
import pathlib

import pytest

from brinkmann.cli import main
from brinkmann.transport import NODE_BLOCK

METRICS = pathlib.Path(__file__).resolve().parents[1] / "metrics"

RUNS = [
    ("cw4_order2", "nullsec", ("0.1", "0.2", "-0.1"), 60,
     "3b83c6b6a37fc63f04401c05de44d1beb5a1381b90b0621e64484681509500cf"),
    ("scrambled_cw4", "d0", ("-0.3", "0.1", "-0.2"), 60,
     "d02ddaa6ffd8543a9b12bd82a8e108cd4443557f3e30280f51cb3c67063622e7"),
    ("poly_seed2", "geodesic", ("-0.2", "0.1", "-0.1", "0.05"), 60,
     "be9adb8afb854e3975fa8e0a5133a6ec23214c8dc5b22314a904d132ec6754a4"),
    ("cw4_order2_sphere", "geodesic", ("0.1", "0.2", "-0.1", "1.5", "0.1"), 60,
     "de4b9fe0957f09de6bf4cfc118d73ddd80b5eff2cc525570aa6a28efc6a936ac"),
    ("poly_seed2", "nullsec", ("-0.2", "0.1", "-0.1", "0.05"), 150,
     "50a66fa381ced469dc31ca0fdb9f27c04ac10ca6a43fe43cf48e13d74314562e"),
    ("scrambled_cw4", "d0", ("-0.3", "0.1", "-0.2"), 150,
     "51201dfb913d326ca598b940bff02e8af029c329a86312953ce9bf37cab87520"),
]


@pytest.mark.parametrize("name, experiment, point, steps, digest", RUNS,
                         ids=[f"{r[1]}-{r[0]}-{r[3]}" for r in RUNS])
def test_transport_csv_digest(name, experiment, point, steps, digest, capsys):
    code = main(["transport", str(METRICS / f"{name}.metric"), "--experiment", experiment,
                 "--span", "0.5", "--steps", str(steps), "--point", *point])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.splitlines()) == steps + 2 + (experiment == "nullsec")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_the_long_runs_span_several_node_blocks():
    assert max(steps for _, _, _, steps, _ in RUNS) + 1 > 2 * NODE_BLOCK
