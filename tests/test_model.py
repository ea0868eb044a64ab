import random
from fractions import Fraction

import pytest

from mwcp.geometry import point_in_hull, shear_normalize
from mwcp.model import (
    Instance,
    InstanceParseError,
    WeightedPoint,
    best_singleton,
    canonicalize,
    evaluate,
    make_instance,
    parse_instance,
    prune_to_maximal,
    require_canonical,
    solution_from_json,
    solution_to_json,
    solution_to_text,
    write_instance,
)
from support import random_instance


def test_canonicalize_merges_duplicates():
    inst = make_instance(2, [((0, 0), 1), ((0, 0), 2)])
    out = canonicalize(inst)
    assert len(out.points) == 1
    assert out.points[0].weight == 3
    assert out.meta["canonical_index_map"] == [0, 0]


def test_canonicalize_cancels_to_zero():
    inst = make_instance(2, [((0, 0), 1), ((0, 0), -1)])
    out = canonicalize(inst)
    assert out.points == ()
    assert out.meta["canonical_index_map"] == [None, None]


def test_canonicalize_drops_zero_weight():
    inst = make_instance(2, [((1, 2), 0), ((3, 4), 5)])
    out = canonicalize(inst)
    assert len(out.points) == 1
    assert out.points[0].point == (3, 4)
    assert out.points[0].weight == 5
    assert out.meta["canonical_index_map"] == [None, 0]


def test_canonicalize_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        rows = []
        for _ in range(rng.randint(0, 8)):
            rows.append(
                (
                    (rng.randint(0, 2), rng.randint(0, 2)),
                    rng.randint(-2, 2),
                )
            )
        inst = make_instance(2, rows)
        once = canonicalize(inst)
        twice = canonicalize(once)
        assert twice is once
        require_canonical(once)


def test_require_canonical_rejects():
    with pytest.raises(ValueError):
        require_canonical(make_instance(2, [((0, 0), 1), ((0, 0), 1)]))
    with pytest.raises(ValueError):
        require_canonical(make_instance(2, [((0, 0), 0)]))


def test_evaluate_empty():
    inst = make_instance(2, [((0, 0), 1)])
    sol = evaluate(inst, [])
    assert sol.weight == 0
    assert sol.chosen == () and sol.contained == ()


def test_evaluate_triangle_with_inner_negative():
    inst = make_instance(2, [((0, 0), 1), ((4, 0), 1), ((2, 3), 1), ((2, 1), -1)])
    sol = evaluate(inst, [0, 1, 2])
    assert sol.weight == 2
    assert sol.contained == (0, 1, 2, 3)
    assert sol.hull == (0, 1, 2)


def test_evaluate_singleton():
    inst = make_instance(2, [((1, 1), Fraction(5, 2))])
    sol = evaluate(inst, [0])
    assert sol.weight == Fraction(5, 2)


def test_evaluate_contract_errors():
    inst = make_instance(2, [((0, 0), 1), ((1, 0), -1)])
    with pytest.raises(ValueError):
        evaluate(inst, [5])
    with pytest.raises(ValueError):
        evaluate(inst, [1])
    assert evaluate(inst, [1], allow_nonpositive=True).weight == -1


def test_evaluate_shear_invariance():
    rng = random.Random(17)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 8), 2)
        sheared_pts, _ = shear_normalize([wp.point for wp in inst.points])
        inst2 = Instance(
            2,
            tuple(
                WeightedPoint(p, wp.weight)
                for p, wp in zip(sheared_pts, inst.points)
            ),
        )
        chosen = [i for i in inst.positive_indices() if rng.random() < 0.6]
        a = evaluate(inst, chosen)
        b = evaluate(inst2, chosen)
        assert a.weight == b.weight
        assert a.contained == b.contained


def huge_denominator_instance(rng, n):
    """2D points with independent denominators near 2**60, as gen_ngon_family
    produces, plus midpoints (on hull edges) and midpoints nudged by 2**-60."""
    def coord():
        den = rng.randint(2**59, 2**60)
        return Fraction(rng.randint(0, 8 * den), den)

    pts = [(coord(), coord()) for _ in range(n)]
    for _ in range(n):
        (ax, ay), (bx, by) = rng.sample(pts, 2)
        mid = ((ax + bx) / 2, (ay + by) / 2)
        nudge = Fraction(rng.choice([-1, 1]), 2**60)
        pts += [mid, (mid[0], mid[1] + nudge)]
    rows = {p: rng.choice([-2, -1, 1, 2]) for p in pts}
    return make_instance(2, list(rows.items()))


def test_evaluate_matches_point_in_hull_per_point():
    rng = random.Random(29)
    for t in range(45):
        d = rng.choice([1, 2, 3])
        if t < 30:
            inst = random_instance(rng, rng.randint(1, 7), d)
        else:
            inst = huge_denominator_instance(rng, rng.randint(2, 5))
        pos = inst.positive_indices()
        if not pos:
            continue
        chosen = pos[: rng.randint(1, len(pos))]
        sol = evaluate(inst, chosen)
        verts = [inst.points[i].point for i in chosen]
        expect = [
            i
            for i, wp in enumerate(inst.points)
            if point_in_hull(wp.point, verts)
        ]
        assert list(sol.contained) == expect
        assert set(chosen) <= set(sol.contained)


def test_full_positive_set_weight_decomposition():
    rng = random.Random(41)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(2, 9), 2)
        pos = inst.positive_indices()
        if not pos:
            continue
        sol = evaluate(inst, pos)
        verts = [inst.points[i].point for i in pos]
        inside_neg = sum(
            (
                wp.weight
                for i, wp in enumerate(inst.points)
                if wp.weight < 0 and point_in_hull(wp.point, verts)
            ),
            Fraction(0),
        )
        pos_total = sum((inst.points[i].weight for i in pos), Fraction(0))
        assert sol.weight == pos_total + inside_neg


def test_prune_to_maximal_drops_interior():
    inst = make_instance(1, [((0,), 1), ((1,), 1), ((2,), 1)])
    assert prune_to_maximal(inst, [0, 1, 2]) == (0, 2)


def test_best_singleton_all_negative():
    inst = make_instance(2, [((0, 0), -3), ((1, 1), -1)])
    sol = best_singleton(inst)
    assert sol.weight == -1
    assert sol.chosen == (1,)


def test_parse_minimal_files():
    inst = parse_instance("2 3\n0 0 1\n1 0 1\n0 1 -1\n")
    assert inst.dimension == 2 and len(inst.points) == 3
    inst1 = parse_instance("1 2\n0 7\n1 -3\n")
    assert inst1.dimension == 1 and len(inst1.points) == 2
    assert inst1.points[1].weight == -3


def test_parse_rationals_and_comments():
    text = "# a comment\n# meta: {\"family\": \"x\"}\n2 1\n1/2 -3/4 5/2\n"
    inst = parse_instance(text)
    assert inst.meta == {"family": "x"}
    assert inst.points[0].point == (Fraction(1, 2), Fraction(-3, 4))
    assert inst.points[0].weight == Fraction(5, 2)


def test_roundtrip_write_parse():
    rng = random.Random(13)
    for _ in range(25):
        inst = canonicalize(random_instance(rng, rng.randint(1, 6), rng.choice([1, 2, 4])))
        text = write_instance(inst)
        back = parse_instance(text)
        assert back.dimension == inst.dimension
        assert back.points == inst.points
        assert write_instance(back) == text


def test_parse_errors_name_lines():
    with pytest.raises(InstanceParseError, match="line 1"):
        parse_instance("bogus header\n")
    with pytest.raises(InstanceParseError, match="line 2"):
        parse_instance("2 1\n1 2\n")  # missing weight field
    with pytest.raises(InstanceParseError, match="line 2"):
        parse_instance("2 1\n1 x 2\n")  # non-rational token
    with pytest.raises(InstanceParseError, match="line 2"):
        parse_instance("2 1\n1 1/0 2\n")  # zero denominator
    with pytest.raises(InstanceParseError, match="expected 2"):
        parse_instance("2 2\n1 2 3\n")  # wrong point count
    with pytest.raises(InstanceParseError, match="line 3"):
        parse_instance("2 1\n1 2 3\n4 5 6\n")  # extra point line
    with pytest.raises(InstanceParseError):
        parse_instance("")


def test_solution_json_roundtrip():
    inst = make_instance(2, [((0, 0), 1), ((4, 0), 1), ((2, 3), 1), ((2, 1), -1)])
    sol = evaluate(inst, [0, 1, 2])
    back = solution_from_json(solution_to_json(sol))
    assert back == sol
    text = solution_to_text(sol)
    assert "weight = 2" in text
    assert "chosen = [0, 1, 2]" in text


def test_solution_json_for_1d_has_null_hull():
    inst = make_instance(1, [((0,), 1)])
    sol = evaluate(inst, [0])
    assert sol.hull is None
    assert '"hull": null' in solution_to_json(sol)
    assert solution_from_json(solution_to_json(sol)) == sol
