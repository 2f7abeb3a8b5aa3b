"""The README's library tour runs as written and gives the values its comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    tour = {}
    exec(compile(block, str(README), "exec"), tour)
    z, t, A, B, w = (tour[name] for name in ("z", "t", "A", "B", "w"))
    assert z.rank == 3
    assert z.volume() == 10.0
    assert z.center().tolist() == [0.5, 1.5, 1.0]
    assert len(z.generating_faces(2)) == 8
    assert len(z.bounding_facets()) == len(z.geometric_facets()) == 16
    assert len(z.vertices()) == len(z.vertex_sign_vectors()) == 20
    assert len(t.tiles) == 9
    assert tour["validate_tiling"](z, t).ok
    assert w is not None and w.residual(A, B) <= 1e-12
    assert not np.array_equal(A, B)
