import pytest

from conftest import ambient_pencil_lines
from spinegeo import build_spine, standard_params


@pytest.mark.parametrize("params", [(2, 5, 2, 1, 3), (2, 4, 2, 2, 4)])
def test_spine_lines_are_the_ambient_pencils_with_two_proper_points(params):
    # the ambient space as oracle for the spine's own line enumeration;
    # (2,4,2,2,4) is the w = n case, where every pencil is a line
    space = build_spine(standard_params(*params))
    want = ambient_pencil_lines(space)
    assert {(ln.h.rows, ln.b.rows) for ln in space.lines} == want
    assert want == set(space.line_id_by_hb)
    assert len(space.lines) == len(want)
