import pytest

from csg_ldpc.alist import export_alist
from csg_ldpc.codes import build_code
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import parse_lcf

from oracles import extend_parity_check, parse_alist

K33_ALIST = (
    "3 3\n"
    "3 3\n"
    "3 3 3\n"
    "3 3 3\n"
    "1 2 3\n"
    "1 2 3\n"
    "1 2 3\n"
    "1 2 3\n"
    "1 2 3\n"
    "1 2 3\n"
)


def test_k33_export_is_frozen():
    code = build_code(parse_lcf("[3,-3]^3"))
    assert export_alist(code.H) == K33_ALIST


def test_heawood_header(heawood_code):
    text = export_alist(heawood_code.H)
    assert text.startswith("7 7\n3 3\n3 3 3 3 3 3 3\n3 3 3 3 3 3 3\n")
    assert text.endswith("\n") and not text.endswith("\n\n")


def test_round_trip_identity(heawood_code):
    text = export_alist(heawood_code.H)
    again = parse_alist(text)
    assert again == heawood_code.H
    assert export_alist(again) == text


def test_irregular_matrix_pads_with_zeros(heawood_code):
    ext = extend_parity_check(heawood_code, 3)
    text = export_alist(ext.H)
    lines = text.splitlines()
    assert lines[0] == "10 7"
    assert lines[1] == "3 4"  # leaf columns have weight 1, boosted rows 4
    assert lines[2] == "3 3 3 3 3 3 3 1 1 1"
    assert lines[3] == "4 4 4 3 3 3 3"
    # a weight-1 column is padded out to the maximum weight
    assert lines[4 + 7].split()[1:] == ["0", "0"]
    assert parse_alist(text) == ext.H


@pytest.mark.parametrize("h", [
    BitMatrix.from_rows([0, 0], 3),
    BitMatrix(0, 3, ()),
    BitMatrix.from_rows([0, 0], 0),
    BitMatrix(0, 0, ()),
], ids=["2x3-zero", "0x3", "2x0", "0x0"])
def test_round_trip_with_zero_maximum_weight(h):
    # every index line is empty, and so is a weight line with no entries
    text = export_alist(h)
    assert parse_alist(text) == h
    assert parse_alist(text + "\n\n") == h


def test_catalog_round_trips(catalog):
    for gid, (g, _) in catalog.items():
        h = build_code(g).H
        text = export_alist(h)
        assert parse_alist(text) == h, gid



def test_reader_checks_the_column_section():
    # the reader builds H from the row section alone, so the round trips
    # above hold export_alist's column section to it only through this check
    lines = K33_ALIST.splitlines()
    lines[4] = "1 2 0"
    with pytest.raises(AssertionError):
        parse_alist("\n".join(lines) + "\n")
