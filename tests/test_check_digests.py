"""The ``check`` reports of the bundled metrics, pinned byte for byte.

Each digest is the sha256 of the stdout of ``check FILE --samples 4 --depth 2``
(``RUNS``) or ``--depth 1`` (``RUNS_DEPTH1``) run from the repository root, so
the report's ``file`` field is the relative path ``metrics/<name>.metric``.  A
change that moves any printed digit moves a digest; re-recording one needs the
changed numbers, before and after, written down with the change.
"""

import hashlib
import pathlib

import pytest

from brinkmann.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]

RUNS = [
    ("cw4_order1", 0, "3d23b47dbf13043bf457db0dd903f6a9f0114d34fa6d145a94fa3daaced0c324"),
    ("cw4_order1_hyperbolic", 0,
     "3f85f7edffbf00af763616f24d40c90c1c97b99857c7c8751a1e0a6c70f273f3"),
    ("cw4_order2", 0, "ef27520d17b471f0ed9077eb4d5e3a779643dc60c70504f3184763aeb9354cbd"),
    ("cw4_order2_sphere", 0, "876a1850271e716ce79dc546fcf0219595e65565c9d5d90e4dc14b7a1b4aca18"),
    ("cw4_order3", 2, "217a2cf067d27704effaed4a4689e605cad082df7f85a26b6c089de45aa5157c"),
    ("cw6_order2", 0, "4089201895a2d64ccf41c024005055d1867c052bded14afddbb012b0e97fc8c7"),
    ("flat", 0, "b01d1e4886ec0c39b40db0f7f87e555f48d8b5022066e716e62863a6e5fb1036"),
    ("poly_seed1", 2, "ea86cb0c652757df4eaefbd3a95e988cdcb8720664587bf897410c479f2d8b9d"),
    ("poly_seed2", 2, "e3cfc87a00883b164942c70c7a24e61fdc7e47a77409108907d1bc1b93939611"),
    ("rotation_w", 0, "d383794e0eeacc6f3d62d63be6ad9507b11074c19988cb2d0c32812155a87204"),
    ("scrambled_cw4", 0, "16c4d33e000182c0b11b4246e6df5f61fd06d505e7fd8167d6fcac189c86cc65"),
]


@pytest.mark.parametrize("name, code, digest", RUNS, ids=[r[0] for r in RUNS])
def test_check_report_digest(name, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["check", f"metrics/{name}.metric", "--samples", "4", "--depth", "2"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


RUNS_DEPTH1 = [
    ("cw4_order1", 0, "aa92e37ce46b0f4337ef7c7b5c1acc64b38520eb7acf1e23cab5a08f0284822e"),
    ("cw4_order1_hyperbolic", 0,
     "432263f3bc9bcc11c95c36249daf980719614855484d272cfb020aa1dcb59866"),
    ("cw4_order2", 2, "7133c9f4e492c402f6d5c307862036bf5c238066d94ef4ef75c7a730a136305e"),
    ("cw4_order2_sphere", 2, "2df174baaf285406737e3bca195861511ebdafc0c32ba1011a0c1e0a7402ecfe"),
    ("cw4_order3", 2, "bb3aa6fa822852997bbc43ea52e20d16b02765319fbf31e7a35a75df61fba793"),
    ("cw6_order2", 2, "1af68ae6e3077b4fb1c3a40ca9ff8a146880967bd5a68967d417cc2aa236ecfb"),
    ("flat", 0, "9f7c6ffcad7db9988d675eca4a5d280bd04e2d6043123b0afc85ae5e36bbb4ec"),
    ("poly_seed1", 2, "cb6d4e4049e9043b7b91f19ae153acce4da37c77c3d2f07edd61b360fe9cd51f"),
    ("poly_seed2", 2, "5f48034ec9ea14e5c822a25db8d33d7542f9f1bd5389d14958e43137faeba1f0"),
    ("rotation_w", 0, "1e0000dd812659207d90607346e3adfeb0cad971f7a3bd381f7093467db68c37"),
    ("scrambled_cw4", 2, "83e63d0fa63bb97d5a80f2f160b043e6c1c99b96d569ed2aa590950aa356af33"),
]


@pytest.mark.parametrize("name, code, digest", RUNS_DEPTH1, ids=[r[0] for r in RUNS_DEPTH1])
def test_check_report_digest_depth1(name, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["check", f"metrics/{name}.metric", "--samples", "4", "--depth", "1"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_bundled_metric_is_pinned():
    names = sorted(p.stem for p in (ROOT / "metrics").glob("*.metric"))
    assert names == [r[0] for r in RUNS] == [r[0] for r in RUNS_DEPTH1]
