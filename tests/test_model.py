import json
import random
import re
from fractions import Fraction

import pytest

from mwcp.generators import gen_ngon_family, gen_uniform
from mwcp.geometry import point_in_hull, scale_to_integers, shear_normalize
from mwcp.model import (
    Instance,
    InstanceParseError,
    WeightedPoint,
    _parse_rational,
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


def merge_reference(instance):
    """canonicalize's merge, written out: (points, weights, index map)."""
    weights = {}
    for wp in instance.points:
        weights[wp.point] = weights.get(wp.point, 0) + wp.weight
    kept = [p for p, w in weights.items() if w != 0]
    new_index = {p: i for i, p in enumerate(kept)}
    return kept, [weights[p] for p in kept], [new_index.get(wp.point) for wp in instance.points]


def test_canonicalize_returns_canonical_input_itself():
    rng = random.Random(17)
    for _ in range(40):
        inst = canonicalize(random_instance(rng, rng.randint(0, 10), rng.choice([1, 2, 4])))
        require_canonical(inst)
        assert canonicalize(inst) is inst
    for inst in (make_instance(2, []), gen_ngon_family(24), gen_uniform(60, 2, 3)):
        assert canonicalize(inst) is inst


def test_canonicalize_merge_matches_reference():
    rng = random.Random(18)
    for t in range(120):
        d = rng.choice([1, 2, 3])
        rows = []
        for _ in range(rng.randint(1, 12)):
            coords = tuple(Fraction(rng.randint(0, 2), rng.choice([1, 1, 2])) for _ in range(d))
            rows.append((coords, rng.choice([-2, -1, 0, 0, 1, Fraction(1, 2), 2])))
        if t % 2:
            rows.append((rows[0][0], -rows[0][1]))  # cancel the first point
        inst = make_instance(d, rows, {"family": "x"})
        points, weights, mapping = merge_reference(inst)
        if len(points) == len(inst.points):
            assert canonicalize(inst) is inst
            continue
        with pytest.raises(ValueError):
            require_canonical(inst)
        out = canonicalize(inst)
        assert [wp.point for wp in out.points] == points
        assert [wp.weight for wp in out.points] == weights
        assert out.meta == {"family": "x", "canonical_index_map": mapping}
        require_canonical(out)


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
        scaled = scale_to_integers([wp.point for wp in inst.points])
        sheared_pts, _ = shear_normalize(scaled)
        inst2 = Instance(
            2,
            tuple(
                WeightedPoint(tuple(map(Fraction, p)), wp.weight)
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
        if inst.dimension == 1:
            # A plain interval, apart from the hull_members path.
            lo, hi = min(verts), max(verts)
            expect = [i for i, wp in enumerate(inst.points) if lo <= wp.point <= hi]
        else:
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


def test_parse_rational_matches_fraction():
    rng = random.Random(19)
    tokens = ["0/7", "-0", "+0", "0", "-0/5", "007", "-007/0021", "+3/6"]
    for _ in range(300):
        sign = rng.choice(["", "+", "-"])
        num = str(rng.choice([rng.randint(0, 99), rng.randint(2**300, 2**310)]))
        num = "0" * rng.randint(0, 2) + num
        den = rng.choice([None, rng.randint(1, 99), rng.randint(2**300, 2**310)])
        tokens.append(sign + num if den is None else f"{sign}{num}/{'0' * rng.randint(0, 2)}{den}")
    for tok in tokens:
        assert _parse_rational(tok, 1) == Fraction(tok), tok


def test_parse_rational_errors_unchanged():
    for tok in ("x", "1.5", "1/", "/2", "1/-2", "--1", "1 /2", ""):
        with pytest.raises(InstanceParseError, match=re.escape(f"line 4: {tok!r} is not a rational token")):
            _parse_rational(tok, 4)
    for tok in ("1/0", "-3/000", "0/0"):
        with pytest.raises(InstanceParseError, match=re.escape(f"line 4: zero denominator in {tok!r}")):
            _parse_rational(tok, 4)


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


def test_parse_refuses_non_ascii_digits():
    # Arabic-Indic three, a fullwidth seven over an Arabic-Indic two.
    with pytest.raises(InstanceParseError, match="line 2"):
        parse_instance("1 2\n\u0663 1\n\uff17/\u0662 -1\n")
    with pytest.raises(InstanceParseError, match="line 3"):
        parse_instance("1 2\n3 1\n\uff17/\u0662 -1\n")
    for tok in ("\u0663", "\uff17/2", "7/\u0662", "-\u0661", "\u00b2"):
        with pytest.raises(InstanceParseError, match=re.escape(f"line 4: {tok!r} is not a rational token")):
            _parse_rational(tok, 4)
    # A superscript two passes str.isdigit but not int().
    for text in ("2\u00b2 1\n", "# c\n\n1 \u00b2\n"):
        line = text.count("\n", 0, text.index("\u00b2")) + 1
        with pytest.raises(InstanceParseError, match=f"line {line}: expected header"):
            parse_instance(text)


def test_solution_json_roundtrip():
    inst = make_instance(2, [((0, 0), 1), ((4, 0), 1), ((2, 3), 1), ((2, 1), -1)])
    sol = evaluate(inst, [0, 1, 2])
    back = solution_from_json(solution_to_json(sol))
    assert back == sol
    text = solution_to_text(sol)
    assert "weight = 2" in text
    assert "chosen = [0, 1, 2]" in text


@pytest.mark.parametrize("key", ["chosen", "hull", "contained"])
@pytest.mark.parametrize("bad", ["02", [0.7, 2.2], [0, True], 3, {"0": 1}, [[0]]])
def test_solution_json_rejects_non_integer_indices(key, bad):
    obj = {"weight": "2", "chosen": [0, 1, 2], "hull": [0, 1, 2], "contained": [0, 1, 2, 3]}
    obj[key] = bad
    with pytest.raises(ValueError, match=f"'{key}' must be a list of integers"):
        solution_from_json(json.dumps(obj))


def test_solution_json_for_1d_has_null_hull():
    inst = make_instance(1, [((0,), 1)])
    sol = evaluate(inst, [0])
    assert sol.hull is None
    assert '"hull": null' in solution_to_json(sol)
    assert solution_from_json(solution_to_json(sol)) == sol
