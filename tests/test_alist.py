import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csg_ldpc.alist import AlistFormatError, export_alist, parse_alist
from csg_ldpc.codes import build_code, extend_parity_check
from csg_ldpc.gf2 import BitMatrix
from csg_ldpc.graphs import parse_lcf

from strategies import parity_checks

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


def test_parse_rejects_corruption():
    with pytest.raises(AlistFormatError, match="truncated"):
        parse_alist("3 3\n3 3\n")
    with pytest.raises(AlistFormatError, match="n m"):
        parse_alist("3\n3 3\n3 3 3\n3 3 3\n")
    with pytest.raises(AlistFormatError, match="non-integer"):
        parse_alist(K33_ALIST.replace("1 2 3", "1 x 3", 1))
    with pytest.raises(AlistFormatError, match="weights"):
        parse_alist("3 3\n3 3\n3 3\n3 3 3\n" + "1 2 3\n" * 6)
    with pytest.raises(AlistFormatError, match="index lines"):
        parse_alist("3 3\n3 3\n3 3 3\n3 3 3\n" + "1 2 3\n" * 5)
    with pytest.raises(AlistFormatError, match="out of range"):
        parse_alist(K33_ALIST.replace("1 2 3", "1 2 4", 1))


def test_parse_detects_section_disagreement():
    # flip one entry in the row section only
    lines = K33_ALIST.splitlines()
    lines[7] = "1 2 2"
    with pytest.raises(AlistFormatError):
        parse_alist("\n".join(lines) + "\n")


def test_weight_header_mismatch():
    lines = K33_ALIST.splitlines()
    lines[4] = "1 2 0"  # column 0 now weight 2, header still says 3
    with pytest.raises(AlistFormatError, match="weight"):
        parse_alist("\n".join(lines) + "\n")


def test_catalog_round_trips(catalog):
    for gid, (g, _) in catalog.items():
        h = build_code(g).H
        text = export_alist(h)
        assert parse_alist(text) == h, gid


@st.composite
def corrupted_alists(draw):
    """The alist of any small 0/1 matrix with one line edited: a token
    replaced, dropped or added, or the line removed."""
    lines = [ln.split() for ln in export_alist(draw(parity_checks())).splitlines()]
    i = draw(st.integers(0, len(lines) - 1))
    token = draw(st.one_of(st.integers(-2, 16).map(str), st.sampled_from(["9" * 5000, "x", "1.5"])))
    edit = draw(st.sampled_from(["replace", "drop", "add", "remove"]))
    if edit == "remove":
        del lines[i]
    elif edit == "add":
        lines[i].append(token)
    elif lines[i]:
        j = draw(st.integers(0, len(lines[i]) - 1))
        if edit == "replace":
            lines[i][j] = token
        else:
            del lines[i][j]
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


TOKEN_GRIDS = st.lists(st.lists(st.integers(-2, 9).map(str), max_size=5).map(" ".join), max_size=12).map("\n".join)


@given(st.one_of(st.text(max_size=60), TOKEN_GRIDS, corrupted_alists()))
@settings(max_examples=200, deadline=None)
def test_parse_alist_raises_only_alist_format_error(text):
    try:
        parse_alist(text)
    except AlistFormatError:
        pass
