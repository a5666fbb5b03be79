import numpy as np
import pytest

from hullmaps import build_configuration, build_hull, hull_oracle


@pytest.fixture
def lattice_builds(monkeypatch):
    """The hulls whose face lattice was built, one entry per build, while
    the test runs (``hull_oracle._build_lattice`` wrapped to record them)."""
    built = []
    build = hull_oracle._build_lattice

    def counted(hull):
        built.append(hull)
        return build(hull)

    monkeypatch.setattr(hull_oracle, "_build_lattice", counted)
    return built


@pytest.fixture
def triangle():
    return build_configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def triangle_hull(triangle):
    return build_hull(triangle)


@pytest.fixture
def unit_square():
    return build_configuration([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def square_hull(unit_square):
    return build_hull(unit_square)


@pytest.fixture
def square_with_center():
    return build_configuration(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )


@pytest.fixture
def tetrahedron():
    return build_configuration(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )


@pytest.fixture
def tetrahedron_hull(tetrahedron):
    return build_hull(tetrahedron)


@pytest.fixture
def cube():
    return build_configuration([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


@pytest.fixture
def cube_hull(cube):
    return build_hull(cube)


def truncated_tetrahedron_points():
    """Regular tetrahedron truncated one third of the way along each edge."""
    base = np.array(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
    )
    pts = []
    for i in range(4):
        for j in range(4):
            if i != j:
                pts.append(base[i] + (base[j] - base[i]) / 3.0)
    return np.asarray(pts)


@pytest.fixture
def truncated_tetrahedron_hull():
    return build_hull(build_configuration(truncated_tetrahedron_points()))


def random_configuration(rng, n, d):
    """Gaussian configuration, retried until nondegenerate."""
    from hullmaps import is_nondegenerate

    while True:
        cfg = build_configuration(rng.standard_normal((n, d)))
        if is_nondegenerate(cfg):
            return cfg
