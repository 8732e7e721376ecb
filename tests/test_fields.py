"""One evaluation path per map.

Every ``AmbientMap`` holds a single evaluation function, ``vector``:
``batch`` is its row form, and ``__call__``, ``jacobian`` and ``flat``
are a batch of one.  So a point's value and Jacobian must equal its
``batch`` row bit for bit, whatever backs the map, and a point outside
the domain must raise ``DomainEvalError`` instead of returning NaN.
The zero records of ``find_zeros`` come from the same batched code.
"""

import numpy as np
import pytest

from manideg import (
    AmbientMap, DomainBox, DomainEvalError, FieldHandle, ImplicitConstraint, find_zeros,
)
from manideg.dae import _averaged_map
from manideg.manifold import reduced_map
from manideg.problems import REGISTRY

TWO_PI = 6.283185307179586
SOURCES = ("log(x) + y^3", "sqrt(x) * exp(y) - x*y^2")


def _values(p):
    return np.array([np.log(p[0]) + p[1] ** 3, np.sqrt(p[0]) * np.exp(p[1]) - p[0] * p[1] ** 2])


def _jacobian(p):
    return np.array([[1.0 / p[0], 3.0 * p[1] ** 2],
                     [0.5 / np.sqrt(p[0]) * np.exp(p[1]) - p[1] ** 2,
                      np.sqrt(p[0]) * np.exp(p[1]) - 2.0 * p[0] * p[1]]])


def _reduced():
    box = DomainBox.from_bounds([(0.1, 3.0), (-2.0, 2.0)])
    constraint = ImplicitConstraint.from_expressions(1, 1, ("y^3 + y - x",), ("x", "y"), box)
    return reduced_map(AmbientMap.from_expressions(("log(x) - y",), ("x", "y")), constraint)


def _averaged():
    sigma = AmbientMap.from_expressions(("sqrt(x) + y*cos(t)", "x*y + sin(t)^2"), ("x", "y"))
    return _averaged_map(sigma, TWO_PI, 16)


# each map is defined for x > 0 only
MAPS = {
    "expression": lambda: AmbientMap.from_expressions(SOURCES, ("x", "y")),
    "callable-with-jac": lambda: AmbientMap.from_callable(2, 2, _values, _jacobian),
    "callable-finite-difference": lambda: AmbientMap.from_callable(2, 2, _values),
    "reduced-map": _reduced,
    "averaged-map": _averaged,
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_a_single_point_is_a_batch_of_one(name):
    m = MAPS[name]()
    rng = np.random.default_rng(11)
    points = np.column_stack([rng.uniform(0.2, 2.5, 200), rng.uniform(-1.5, 1.5, 200)])
    values, valid = m.batch(points)
    jac, jac_valid = m.batch(points, jacobian=True)
    assert valid.all() and jac_valid.all()
    for p, want, want_jac in zip(points, values, jac):
        assert np.array_equal(m(p), want)
        assert np.array_equal(m.jacobian(p), want_jac)
        assert m.flat(p.tolist()) == want.tolist()
        jet = np.array(m.flat(p.tolist(), jacobian=True)).reshape(m.n_out, m.n_in + 1)
        assert np.array_equal(jet[:, 0], want) and np.array_equal(jet[:, 1:], want_jac)
    outside = np.array([-1.0, 0.5])
    assert not m.batch(outside[None])[1][0]
    for call in (lambda: m(outside), lambda: m.jacobian(outside),
                 lambda: m.flat(outside.tolist(), jacobian=True)):
        with pytest.raises(DomainEvalError):
            call()


def _zero_search_cases():
    for name in sorted(REGISTRY):
        problem = REGISTRY[name]
        yield (reduced_map(problem.build_phi1(), problem.build_constraint()),
               problem.domain())
    yield (FieldHandle.from_expressions(("sin(9*x)", "sin(9*y)"), ("x", "y")),
           DomainBox.cube(-2.0, 2.0, 2))
    # a generated sine/cubic problem on which scalar and vector code round differently
    box = DomainBox.cube(-2.0, 2.0, 2)
    constraint = ImplicitConstraint.from_expressions(
        1, 1, ("y^3 + y - 0.8325374994095526*x + 0.43788759365057206*x^2",), ("x", "y"), box)
    phi1 = AmbientMap.from_expressions(("sin(11.780972450961723*x - 0.09123432489966687)",),
                                       ("x", "y"))
    yield reduced_map(phi1, constraint), box
    yield (FieldHandle.from_callable(
        2, lambda p: np.array([np.sin(3 * p[0]) - p[1], p[0] ** 2 + p[1] ** 2 - 1])),
        DomainBox.cube(-1.5, 1.5, 2))


def test_zero_records_come_from_the_batch():
    for field, box in _zero_search_cases():
        zeros = find_zeros(field, box)
        assert zeros
        for z in zeros:
            values, _ = field.batch(z.location[None])
            jac, _ = field.batch(z.location[None], jacobian=True)
            assert z.residual == float(np.linalg.norm(values[0]))
            assert z.jacobian_det == float(np.linalg.det(jac[0]))
