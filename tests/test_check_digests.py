"""The ``check`` reports of the bundled metrics, pinned byte for byte.

Each digest is the sha256 of the stdout of ``check FILE --samples 4 --depth 2``
(``RUNS``) or ``--depth 1`` (``RUNS_DEPTH1``) run from the repository root, so
the report's ``file`` field is the relative path ``metrics/<name>.metric``.  A
change that moves any printed digit moves a digest; re-recording one needs the
changed numbers, before and after, written down with the change.  A failure
names the run and prints the entry that pins what it now gives.
"""

import hashlib
import pathlib

import pytest

from brinkmann.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

RUNS = [
    ("cw4_order1", 0, "db6d14749e8cf5f897f7c5211307004de9761cb3370ea0d710150e8d08536e37"),
    ("cw4_order1_hyperbolic", 0,
     "17215a4021eb6dcee8675b59dab846beef514b2670e737dcbf04b6f7b0d9d22e"),
    ("cw4_order2", 0, "3f1bf5a154e12aa1b4fbade24cf8e2bf9cf6f3f0dc508f749c717573e5038d53"),
    ("cw4_order2_sphere", 0, "a3a6faa26fae86b94733075e35402671adf8afae2c8b280ca98a96f1a47f75ce"),
    ("cw4_order3", 2, "539fb21baea0c055873345029fd33c5e9d42ee3cd467681ec4e76c5b0dcee505"),
    ("cw6_order2", 0, "eff62829b1ea22c6864e2584c6cd59dfa6a297e9571e4eaab079f51b7aa4a0ba"),
    ("flat", 0, "816144225b1a1ef16f60e2ca702a710cd56fc11c628d9543b713eff39090c5aa"),
    ("poly_seed1", 2, "add262208aa8bc9b557f5ad7941033758f75f3a5b298560ac00b48fc70cebb58"),
    ("poly_seed2", 2, "3f52a4441eee8f4bb4f69dbe58fe788b5d5ed795824abf6b9ad40ac3d0142f65"),
    ("rotation_w", 0, "0c925aba96497e62058301a0f83d4a3836a23d3f77421c984c42a06b5101bdf2"),
    ("scrambled_cw4", 0, "e87588eb7c5f75c4020613ed7cd475bbbcfc5200f1a881f2ad77f79baa0075bc"),
]


def _assert_pinned(name, depth, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["check", f"metrics/{name}.metric", "--samples", "4", "--depth", str(depth)]
    got_code = main(argv)
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (got_code, got) == (code, digest), (
        f"{' '.join(argv)} exits {got_code} (pinned {code}) with digest {got} (pinned "
        f"{digest}); its entry would read ({name!r}, {got_code}, {got!r})")


@pytest.mark.parametrize("name, code, digest", RUNS, ids=[r[0] for r in RUNS])
def test_check_report_digest(name, code, digest, capsys, monkeypatch):
    _assert_pinned(name, 2, code, digest, capsys, monkeypatch)


RUNS_DEPTH1 = [
    ("cw4_order1", 0, "4aace5311632e6c8023962bae99539648b000f366924c1fba0247ac390fffacc"),
    ("cw4_order1_hyperbolic", 0,
     "8252703215d89cf1d6c54fef93966b5f2df79e21b13e9a85d343c48086ef2056"),
    ("cw4_order2", 2, "10d54616a7109cfa0ec71a8e7a8b0f2b9571a2c33a1ad791a74f8bb987ff9d75"),
    ("cw4_order2_sphere", 2, "ee94387c9b449a127346741b76b49767f4f5b81729cfce2bc94a7028b23713e2"),
    ("cw4_order3", 2, "47ad7e9135c48f1699e2ac3c4d0106a9d6e22e4bb836b6882f85b909f06661db"),
    ("cw6_order2", 2, "c4a3944e274457eaeb78c17b1c9e5092b61e6bd20e752621ef37d5a6bf3708fc"),
    ("flat", 0, "3c681ad7e3df8d33e1e720b9bb913e3e54efb9c4e6814f8dda7f6711fe0282da"),
    ("poly_seed1", 2, "13b78d68757b76d2b088458105f5ca506e91ae57432db2050ce0ff55a0d49711"),
    ("poly_seed2", 2, "0c0e8c07a2701b227b14c435c9e97659f661413610009a390f89f603e8768eae"),
    ("rotation_w", 0, "e7ef1a8d424418dc3d8eeb2fc08f97d5554a5f5c2d9600a973de1b8eca14b950"),
    ("scrambled_cw4", 2, "33caf31f9999974e4ee877e0b64a9197b0d1c234e87be84322ec163b360ba92b"),
]


@pytest.mark.parametrize("name, code, digest", RUNS_DEPTH1, ids=[r[0] for r in RUNS_DEPTH1])
def test_check_report_digest_depth1(name, code, digest, capsys, monkeypatch):
    _assert_pinned(name, 1, code, digest, capsys, monkeypatch)


def test_every_bundled_metric_is_pinned():
    names = sorted(p.stem for p in (ROOT / "metrics").glob("*.metric"))
    assert names == [r[0] for r in RUNS] == [r[0] for r in RUNS_DEPTH1]
