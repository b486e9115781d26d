import json

import pytest

from expanderlab import extend
from expanderlab.errors import (BadParameter, ConnectFailed,
                                PreconditionViolated, ReserveTooSmall,
                                UnbalancedSides)


def test_path_system_json_and_interiors():
    ps = extend.PathSystem(paths=((0, 5, 6, 1), (2, 7, 3)))
    assert ps.interior_vertices() == {5, 6, 7}
    assert json.loads(ps.to_json()) == [[0, 5, 6, 1], [2, 7, 3]]


def test_build_connector_validation(paley101):
    with pytest.raises(UnbalancedSides):
        extend.build_connector(paley101, [0, 1], [2], range(50, 80), 8)
    with pytest.raises(PreconditionViolated) as exc:
        extend.build_connector(paley101, [0, 1], [1, 2], range(50, 80), 8)
    assert exc.value.hypothesis == "disjoint_regions"
    with pytest.raises(ReserveTooSmall):
        extend.build_connector(paley101, [0, 1, 2], [3, 4, 5], [50, 51], 8)
    with pytest.raises(BadParameter):
        extend.build_connector(paley101, [0], [3], range(50, 80), 0)


def test_connector_routes_disjoint_paths(paley101):
    x, y = [0, 1, 2], [3, 4, 5]
    reserve = list(range(50, 90))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=8, seed=2)
    pairs = list(zip(x, y))
    system = conn.connect_pairs(pairs)
    assert len(system.paths) == 3
    assert extend.verify_path_system(paley101, system, pairs=pairs,
                                     reserve=reserve, l_max=8)


def test_connector_consume_all_partitions_reserve(paley101):
    x, y = [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
    reserve = list(range(40, 60))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=12,
                                  seed=0, consume_all=True)
    pairs = list(zip(x, y))
    system = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, system, pairs=pairs,
                                     reserve=reserve, l_max=12)
    assert system.interior_vertices() == set(reserve)


def test_connector_rejects_bad_pairing(paley101):
    conn = extend.build_connector(paley101, [0, 1], [2, 3],
                                  range(50, 70), l_max=8)
    with pytest.raises(PreconditionViolated) as exc:
        conn.connect_pairs([(0, 2), (0, 3)])
    assert exc.value.hypothesis == "distinct_endpoints"
    with pytest.raises(PreconditionViolated) as exc:
        conn.connect_pairs([(0, 2), (1, 99)])
    assert exc.value.hypothesis == "ports_only"


def test_connector_consume_all_impossible_budget(paley101):
    # 40 reserve vertices over 1 path cannot fit a length budget of 8
    conn = extend.build_connector(paley101, [0], [1], range(40, 80),
                                  l_max=8, consume_all=True)
    with pytest.raises(ConnectFailed):
        conn.connect_pairs([(0, 1)])


def test_verify_path_system_rejects_tampering(paley101):
    x, y = [0, 1], [2, 3]
    reserve = list(range(50, 70))
    conn = extend.build_connector(paley101, x, y, reserve, l_max=8, seed=1)
    pairs = list(zip(x, y))
    system = conn.connect_pairs(pairs)
    assert extend.verify_path_system(paley101, system, pairs=pairs)
    # swapped pairing no longer matches
    assert not extend.verify_path_system(paley101, system,
                                         pairs=[(0, 3), (1, 2)])
    # a path through a non-edge fails
    broken = extend.PathSystem(paths=((0, 6, 2),)) \
        if not paley101.has_edge(0, 6) else extend.PathSystem(paths=((0, 0, 2),))
    assert not extend.verify_path_system(paley101, broken)
    # interiors escaping the reserve fail
    assert not extend.verify_path_system(paley101, system, reserve=[99])
