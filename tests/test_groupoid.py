import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qswindows import catalog, groupoid, linalg, verify, windows
from qswindows.arrangement import Arrangement
from qswindows.errors import InputError, InternalInconsistencyError, UnsupportedDimensionError
from qswindows.groupoid import Cross, Translate
from qswindows.rep import QSRep
from qswindows.root_data import RootDatum
from qswindows.windows import Context
from test_arrangement import OVERLAP_WEIGHTS, frac_family
from test_windows import _criterion6_hops

F = Fraction


@pytest.fixture(scope="module")
def arr22(ctx22):
    return ctx22.arrangement


def up(a, b):
    return Cross((F(a),), (F(b),), (F(1),))


def down(a, b):
    return Cross((F(a),), (F(b),), (F(-1),))


def test_positivity_examples(arr22):
    def positive(a):
        return groupoid.arrow_is_positive(arr22, a, arr22.separating_walls(a.src, a.dst))

    assert positive(up(F(1, 2), F(3, 2)))
    assert not positive(Cross((F(1, 2),), (F(3, 2),), (F(-1),)))
    assert not positive(up(F(1, 2), F(1, 4)))


def test_minimality_examples(arr22, ctx22):
    p = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), up(F(3, 2), F(5, 2))])
    assert groupoid.is_minimal(arr22, p)
    q = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), down(F(3, 2), F(1, 2))])
    assert not groupoid.is_minimal(arr22, q)
    single = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2))])
    assert groupoid.is_minimal(arr22, single)
    for arrows in ([Cross((F(1, 2),), (F(3, 2),), (F(-1),))],
                   [up(F(1, 2), F(3, 2)), Translate((1,))]):
        with pytest.raises(InputError, match="positive paths only"):
            groupoid.is_minimal(arr22, groupoid.make_path(arr22, arrows))


def test_disagreeing_minimality_criteria_are_an_internal_fault(arr22, monkeypatch):
    """For a positive path the four criteria are equivalent, so when they
    disagree the program is at fault, not the path: here the endpoints'
    separating set is emptied after the path is made, so distance
    additivity and the disjoint union fail while the other two hold."""
    p = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), up(F(3, 2), F(5, 2))])
    monkeypatch.setattr(Arrangement, "separating_walls", lambda self, a, b: ())
    with pytest.raises(InternalInconsistencyError,
                       match=r"^minimality criteria disagree: False, False, True, True$"):
        groupoid.is_minimal(arr22, p)


def test_transcripts_refuse_a_crossing_that_is_not_positive(torus22, ctx22, arr22):
    p = groupoid.make_path(arr22, [down(F(1, 2), F(3, 2))])
    with pytest.raises(InputError, match="^transcripts are defined for positive crossings$"):
        groupoid.mutation_transcript(torus22, p, ctx22)


def test_minimality_criteria_agree_on_random_paths(torus22, ctx22):
    results = verify.check_groupoid("torus22", torus22, ctx22, seed=3, n_paths=200)
    assert all(r.passed for r in results)


# -- the rewriting relations ---------------------------------------------------
# Each relation rewrites a path into another path of the same groupoid
# morphism; the tests below check that the rank-one word, the end chamber
# and the chambers a path carries survive every rewrite.


def apply_relation(arr, path, rule, position, label=None, via=None):
    """Rewrite the path at the given position per one of the five relations.

    R1 drops a same-chamber arrow; R2 merges two consecutive arrows with a
    common label (or splits one at a ``via`` point); R3 relabels an arrow
    with an orientation-equivalent ``label``; R4 commutes a crossing with a
    translation (self-inverse); R5 merges two consecutive translations.
    """
    arrows = list(path.arrows)
    if rule == "R1":
        a = arrows[position]
        if arr.chamber_of(a.src) != arr.chamber_of(a.dst):
            raise InputError("R1 applies to same-chamber arrows only")
        del arrows[position]
    elif rule == "R2":
        a = arrows[position]
        if via is not None:
            via = linalg.vec(via)
            arrows[position:position + 1] = [Cross(a.src, via, a.label), Cross(via, a.dst, a.label)]
        else:
            b = arrows[position + 1]
            if a.label != b.label:
                raise InputError("R2 needs a common label")
            arrows[position:position + 2] = [Cross(a.src, b.dst, a.label)]
    elif rule == "R3":
        a, new = arrows[position], linalg.vec(label)
        walls = arr.separating_walls(a.src, a.dst)
        if arr.orientations(a.label, walls) != arr.orientations(new, walls):
            raise InputError("R3 labels must agree on every separating wall")
        arrows[position] = Cross(a.src, a.dst, new)
    elif rule == "R4":
        first, second = arrows[position:position + 2]
        if isinstance(first, Cross) and isinstance(second, Translate):
            shift = linalg.vec(second.m)
            arrows[position:position + 2] = [
                second, Cross(linalg.add(first.src, shift), linalg.add(first.dst, shift), first.label)]
        elif isinstance(first, Translate) and isinstance(second, Cross):
            shift = linalg.vec(first.m)
            arrows[position:position + 2] = [
                Cross(linalg.sub(second.src, shift), linalg.sub(second.dst, shift), second.label), first]
        else:
            raise InputError("R4 needs a crossing next to a translation")
    elif rule == "R5":
        t1, t2 = arrows[position:position + 2]
        merged = Translate(tuple(a + b for a, b in zip(t1.m, t2.m)))
        arrows[position:position + 2] = [merged] if any(merged.m) else []
    return groupoid.make_path(arr, arrows, start=path.start)


def test_relations(arr22):
    p = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), Translate((2,))])
    swapped = apply_relation(arr22, p, "R4", 0)
    assert isinstance(swapped.arrows[0], Translate)
    assert apply_relation(arr22, swapped, "R4", 0).arrows == p.arrows

    two = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), up(F(3, 2), F(5, 2))])
    merged = apply_relation(arr22, two, "R2", 0)
    assert len(merged.arrows) == 1 and merged.arrows[0].dst == (F(5, 2),)
    split = apply_relation(arr22, merged, "R2", 0, via=(F(3, 2),))
    assert groupoid.normal_form_word(arr22, split) == groupoid.normal_form_word(arr22, two)

    loop = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), Cross((F(3, 2),), (F(7, 4),), (F(1),))])
    dropped = apply_relation(arr22, loop, "R1", 1)
    assert len(dropped.arrows) == 1

    t2 = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), Translate((1,)), Translate((2,))])
    merged_t = apply_relation(arr22, t2, "R5", 1)
    assert merged_t.arrows[1] == Translate((3,))

    relabeled = apply_relation(arr22, two, "R3", 0, label=(F(7),))
    assert relabeled.arrows[0].label == (F(7),)
    with pytest.raises(InputError):
        apply_relation(arr22, two, "R3", 0, label=(F(-1),))


def test_relation_preserves_endpoints_and_word(arr22):
    p = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), Translate((2,)), up(F(7, 2), F(9, 2))])
    word = groupoid.normal_form_word(arr22, p)
    end = arr22.chamber_of(p.chambers[-1].sample)
    for pos in (0, 1):
        q = apply_relation(arr22, p, "R4", pos)
        assert arr22.chamber_of(q.chambers[-1].sample) == end
        assert groupoid.normal_form_word(arr22, q) == word


def test_reduce_rank1_examples(arr22):
    loop = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), down(F(3, 2), F(1, 2))])
    assert groupoid.reduce_rank1(arr22, loop).arrows == ()

    with_translates = groupoid.make_path(
        arr22, [up(F(1, 2), F(3, 2)), Translate((1,)), Translate((-1,))])
    reduced = groupoid.reduce_rank1(arr22, with_translates)
    assert [type(a) for a in reduced.arrows] == [Cross]
    again = groupoid.reduce_rank1(arr22, reduced)
    assert again.arrows == reduced.arrows


def test_reduce_rank1_equal_endpoints_equal_words(arr22):
    p = groupoid.make_path(arr22, [up(F(1, 4), F(5, 4)), up(F(5, 4), F(9, 4))])
    q = groupoid.make_path(arr22, [Cross((F(1, 2),), (F(11, 5),), (F(1),))])
    assert p.chambers[0] == q.chambers[0]
    assert groupoid.normal_form_word(arr22, p) == groupoid.normal_form_word(arr22, q)


# -- rank-one reduction --------------------------------------------------------
# ``_oracle_word`` reads the letters off Fraction wall offsets less the
# translation so far.  Reduced arrows are checked by what they must do, not
# by where they land: they keep the word, the start and end chambers, and
# cross one wall each, and reduction is idempotent.

# GL(2) weights whose two wall families, steps 1/3 and 1/2, interleave
INTERLEAVED_WEIGHTS = [(2, -1), (-2, 1), (1, -2), (-1, 2), (2, -2), (-2, 2), (2, -2), (-2, 2)]
RANK1_NAMES = ("t22", "t33", "gl2", "overlap", "hand-made", "shifted", "interleaved")


def _oracle_word(arr, path):
    letters, shift = [], F(0)
    for a, step in zip(path.arrows, path.steps):
        if isinstance(a, Translate):
            shift += F(a.m[0])
            continue
        direction = 1 if a.dst[0] > a.src[0] else -1
        offsets = sorted((w.offset for w in arr.separating_walls(step.here, step.there)),
                         reverse=direction < 0)
        letters += [(off - shift, direction) for off in offsets]
    return tuple(groupoid._freely_reduce(letters)), shift


@pytest.fixture(scope="module")
def rank1_arrangements(ctx22, ctx33, ctxgl2):
    """The bundled reps, the GL(2) reps with two families on one normal,
    overlapping and interleaved, hand-made families with scales 2, 3, 4 and
    6, and hand-made families Z/2 and 1/5 + Z/3, whose closest walls, 1/2
    and 8/15, belong to cosets with distinct residues, by the names in
    ``RANK1_NAMES``."""
    overlap, interleaved = (Context(QSRep.build(RootDatum.gl(2), w)).arrangement
                            for w in (OVERLAP_WEIGHTS, INTERLEAVED_WEIGHTS))
    hand_made = dataclasses.replace(ctx22.arrangement, families=(
        frac_family((1,), F(0), F(1, 2), 0), frac_family((1,), F(1, 3), F(1, 3), 1),
        frac_family((1,), F(1, 4), F(1, 4), 2), frac_family((1,), F(1, 6), F(5, 6), 3)))
    shifted = dataclasses.replace(ctx22.arrangement, families=(
        frac_family((1,), F(0), F(1, 2), 0), frac_family((1,), F(1, 5), F(1, 3), 1)))
    return dict(zip(RANK1_NAMES, (ctx22.arrangement, ctx33.arrangement, ctxgl2.arrangement,
                                  overlap, hand_made, shifted, interleaved)))


def test_half_gap_is_the_least_wall_distance(rank1_arrangements):
    """Twice the cached half gap is the least difference of consecutive wall
    offsets over two joint periods of the families' steps."""
    for name, arr in rank1_arrangements.items():
        den = math.lcm(*(f.offset_step.denominator for f in arr.families))
        period = F(math.lcm(*(int(f.offset_step * den) for f in arr.families)), den)
        offsets = sorted({w.offset for w in arr.walls_in_box(math.ceil(2 * period))})
        assert 2 * F(*arr._half_gap) == min(b - a for a, b in zip(offsets, offsets[1:])), name
    for name, half_gap in (("hand-made", F(1, 24)), ("shifted", F(1, 60)),
                           ("interleaved", F(1, 12))):
        assert F(*rank1_arrangements[name]._half_gap) == half_gap


@settings(deadline=None, max_examples=150)
@given(name=st.sampled_from(RANK1_NAMES), start=st.fractions(-4, 4, max_denominator=8),
       moves=st.lists(st.one_of(st.integers(-3, 3).map(lambda m: Translate((m,))),
                                st.fractions(-6, 6, max_denominator=8)), min_size=1, max_size=6))
# half the first family's step past the wall at 1/3 is past the wall at 1/2 too
@example(name="hand-made", start=F(7, 24), moves=[F(3, 8)])
def test_rank1_reduction_keeps_the_morphism(rank1_arrangements, name, start, moves):
    """A move is a translation, or a crossing to the point it names."""
    arr = rank1_arrangements[name]
    assume(not arr.on_wall((start,)))
    point, arrows = start, []
    for move in moves:
        if isinstance(move, Translate):
            arrows.append(move)
            point += move.m[0]
        else:
            assume(move != point)
            arrows.append(Cross((point,), (move,), (F(1 if move > point else -1),)))
            point = move
        # the hand-made family with step 5/6 is not periodic under
        # integer translations, so a translate can land on one of its walls
        assume(not arr.on_wall((point,)))
    path = groupoid.make_path(arr, arrows, start=(start,))
    word = groupoid.normal_form_word(arr, path)
    assert word == _oracle_word(arr, path)
    if name == "hand-made" and not all(isinstance(a, Cross) for a in arrows):
        # nor does a translation commute with crossings there: the letter of
        # a wall crossed after t(m) sits at its offset less m, which need not
        # be a wall, so the reduced path keeps the morphism on paths without
        # translations only
        return
    reduced = groupoid.reduce_rank1(arr, path)
    assert groupoid.normal_form_word(arr, reduced) == word
    assert [len(arr.separating_walls(a.src, a.dst)) for a in reduced.arrows
            if isinstance(a, Cross)] == [1] * len(word[0])
    assert reduced.chambers[0] == path.chambers[0]
    assert reduced.chambers[-1] == path.chambers[-1]
    assert groupoid.reduce_rank1(arr, reduced).arrows == reduced.arrows


def test_reduce_rank1_rejects_higher_rank():
    from qswindows.catalog import torus_rep
    from qswindows.windows import Context
    r = torus_rep((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
    ctx = Context(r)
    arr = ctx.arrangement
    p = groupoid.make_path(arr, [Cross((F(1, 4), F(1, 8)), (F(5, 4), F(1, 8)), (F(3), F(1)))])
    with pytest.raises(UnsupportedDimensionError):
        groupoid.reduce_rank1(arr, p)


def test_non_generic_labels_rejected(arr22):
    with pytest.raises(InputError):
        groupoid.make_path(arr22, [Cross((F(1, 2),), (F(3, 2),), (F(0),))])


def test_transcript_round_trip(torus22, ctx22):
    arr = ctx22.arrangement
    loop = groupoid.make_path(arr, [up(F(1, 2), F(3, 2)), down(F(3, 2), F(1, 2))])
    entries = groupoid.mutation_transcript(torus22, loop, ctx22)
    assert [e.step_count for e in entries] == [1, 1]
    mapping = groupoid.transcript_window_map(torus22, loop, ctx22)
    assert all(src == dst for src, dst in mapping.items())


def test_transcript_translate_only(torus22, ctx22):
    arr = ctx22.arrangement
    p = groupoid.make_path(arr, [Translate((2,))], start=(F(1, 2),))
    entries = groupoid.mutation_transcript(torus22, p, ctx22)
    assert [e.kind for e in entries] == ["shift"]
    mapping = groupoid.transcript_window_map(torus22, p, ctx22)
    assert mapping == {(0,): (2,), (1,): (3,)}


def test_transcript_endpoint_coherence(torus33, ctx33):
    arr = ctx33.arrangement
    p = groupoid.make_path(
        arr, [Cross((F(0),), (F(2),), (F(1),)), Translate((-1,))])
    mapping = groupoid.transcript_window_map(torus33, p, ctx33)
    target = set(ctx33.window(arr.to_ambient(p.chambers[-1].sample)).chars)
    assert set(mapping.values()) == target
    assert len(set(mapping.values())) == len(mapping)


def test_located_reads_each_crossing_from_its_own_start(arr22):
    """A crossing may start anywhere in the current chamber; the path keeps
    the chamber of the point before it, and the arrow's step its own."""
    p = groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), up(F(7, 4), F(5, 2))])
    assert [c.sample for c in p.chambers] == [(F(1, 2),), (F(3, 2),), (F(5, 2),)]
    (a, b), (c, d) = ((s.here, s.there) for s in p.steps)
    assert [x.sample for x in (a, b, c, d)] == [(F(1, 2),), (F(3, 2),), (F(7, 4),), (F(5, 2),)]
    assert b == c
    assert groupoid.is_minimal(arr22, p)


# the transcript of the path below, worked out by locating every arrow end
# afresh; reading the recorded steps must give it unchanged
AWAY_TRANSCRIPT = [
    {"kind": "cross", "src": ["1/4"], "dst": ["3/4"], "pivot_size": 2, "step_count": 2,
     "per_face_counts": {"[1]": 2}},
    {"kind": "cross", "src": ["7/8"], "dst": ["13/8"], "pivot_size": 2, "step_count": 2,
     "per_face_counts": {"[1]": 2}},
]


def test_recorded_steps_are_not_located_again(torus33, monkeypatch):
    """A crossing that starts away from the previous arrow's end is located
    by ``make_path`` alone: minimality and the transcript read its step."""
    ctx = Context(torus33)
    arr = ctx.arrangement
    p = groupoid.make_path(arr, [Cross((F(1, 4),), (F(3, 4),), (F(1),)),
                                 Cross((F(7, 8),), (F(13, 8),), (F(1),))])
    real, located = Arrangement.chamber_of, []
    monkeypatch.setattr(Arrangement, "chamber_of",
                        lambda self, coords: located.append(coords) or real(self, coords))
    assert groupoid.is_minimal(arr, p)
    entries = groupoid.mutation_transcript(torus33, p, ctx)
    assert located == []
    assert [e.to_json() for e in entries] == AWAY_TRANSCRIPT


@pytest.fixture(scope="module")
def path_arrangements(small_corpus):
    """The three bundled reps and one rank-2 and one rank-3 corpus torus."""
    corpus = [next(r for r in small_corpus if r.rank == k) for k in (2, 3)]
    return [Context(r).arrangement for r in (*catalog.bundled_reps().values(), *corpus)]


def _assert_chambers_are_fresh(arr, path):
    """The path's chambers are those of its start and of the point after
    each arrow, walked here from the arrows, sign vector, sample and
    numerators alike."""
    points = [path.start]
    for a in path.arrows:
        points.append(a.dst if isinstance(a, Cross) else linalg.add(points[-1], a.m))
    assert path.chambers[-1].sample == points[-1]
    for point, stored in zip(points, path.chambers, strict=True):
        fresh = arr.chamber_of(point)
        assert ((stored.sign_vector, stored.sample, stored.nums, stored.den)
                == (fresh.sign_vector, fresh.sample, fresh.nums, fresh.den))
    for a, step in zip(path.arrows, path.steps, strict=True):
        here, there = step.here, step.there
        if isinstance(a, Cross):
            assert (here.sample, there.sample) == (a.src, a.dst)
            assert list(step.walls) == arr.separating_walls(a.src, a.dst)
            hops = groupoid._hop_chambers(arr, here, there, step.walls)
            assert (groupoid.split_into_hops(arr, a)
                    == [Cross(h.sample, t.sample, a.label) for h, t in zip(hops, hops[1:])])
        else:
            assert step.walls == ()


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_paths_carry_the_chambers_of_their_points(path_arrangements, data):
    arr = data.draw(st.sampled_from(path_arrangements))
    path = verify._random_positive_path(arr, random.Random(data.draw(st.integers(0, 2 ** 32))))
    assume(path is not None)
    _assert_chambers_are_fresh(arr, path)
    # a translation, commuted to the front by R4, shifts every chamber
    m = data.draw(st.tuples(*[st.integers(-2, 2)] * arr.dim))
    moved = groupoid.make_path(arr, [*path.arrows, Translate(m)], start=path.start)
    _assert_chambers_are_fresh(arr, moved)
    _assert_chambers_are_fresh(arr, apply_relation(arr, moved, "R4", len(path.arrows) - 1))


def test_path_composability_enforced(arr22):
    with pytest.raises(InputError):
        groupoid.make_path(arr22, [up(F(1, 2), F(3, 2)), up(F(7, 2), F(9, 2))])
    with pytest.raises(InputError):
        groupoid.make_path(arr22, [Translate((1,))])


def test_make_path_errors_name_points_in_p_q_form(arr22):
    """Both input errors of make_path name their witnesses as p/q."""
    cases = [([up(F(1, 2), F(3, 2)), up(F(7, 2), F(9, 2))],
              "arrow (7/2)->(9/2) does not start in the current chamber"),
             ([Cross((F(1, 2),), (F(3, 2),), (F(0),))], "arrow label (0) is not generic")]
    for arrows, message in cases:
        with pytest.raises(InputError) as err:
            groupoid.make_path(arr22, arrows)
        assert str(err.value) == message
        assert "Fraction(" not in str(err.value)


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
def test_recorded_hops_match_a_fresh_cut(name):
    """Each step of criterion 6's paths records the hops that cutting its
    arrow with freshly located ends gives: the same samples, neighbours
    adjacent, and every inner chamber the one chamber_of gives its sample."""
    arr = Context(catalog.bundled_reps()[name]).arrangement
    inner = 0
    for a, step, split in _criterion6_hops(arr):
        assert step.hops[0] is step.here and step.hops[-1] is step.there
        assert [h.sample for h in step.hops] == [split[0].src, *(h.dst for h in split)]
        for here, there in zip(step.hops, step.hops[1:]):
            arr.require_adjacent(here, there)
        for hop in step.hops[1:-1]:
            fresh = arr.chamber_of(hop.sample)
            assert ((hop.sign_vector, hop.nums, hop.den)
                    == (fresh.sign_vector, fresh.nums, fresh.den))
            inner += 1
    assert inner > 0


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
def test_transcripts_solve_only_for_their_end_windows(name, monkeypatch):
    """Hops cross in invariant coordinates between the chambers the path
    records, and the start and end windows of the map read the chambers the
    path carries: one transcript_window_map and one mutation_transcript on
    a multi-hop path never run to_coords and never locate a point.  Walls
    are separated only by wall_crossing's adjacency check, once per new
    chamber pair."""
    rep = catalog.bundled_reps()[name]
    ctx = Context(rep)
    arr = ctx.arrangement
    rng = random.Random(11)
    while True:
        path = verify._random_positive_path(arr, rng)
        if path is not None and sum(len(s.hops) - 1 for s in path.steps) > 2:
            break
    calls = Counter()
    for method in ("to_coords", "separating_walls", "chamber_of"):
        real = getattr(Arrangement, method)
        monkeypatch.setattr(Arrangement, method, lambda self, *args, real=real, method=method: (
            calls.update([method]) or real(self, *args)))
    groupoid.transcript_window_map(rep, path, ctx)
    groupoid.mutation_transcript(rep, path, ctx)
    assert calls == Counter(separating_walls=len(ctx._crossings))


def _seeded_paths(arr, seed, count):
    rng, paths = random.Random(seed), []
    while len(paths) < count:
        path = verify._random_positive_path(arr, rng)
        if path is not None:
            paths.append(path)
    return paths


def _spy_on_crossings(monkeypatch):
    """The ordered chamber pairs ``windows.wall_crossing`` is called on."""
    crossed, real = [], windows.wall_crossing
    monkeypatch.setattr(windows, "wall_crossing", lambda rep, a, b, ctx: (
        crossed.append((a.sign_vector, b.sign_vector)), real(rep, a, b, ctx))[1])
    return crossed


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
def test_transcripts_cross_each_chamber_pair_once(name, monkeypatch):
    """A crossing's data depend only on its ordered pair of chambers, so one
    pass of both transcripts over seeded paths calls wall_crossing once per
    distinct ordered pair of hop chambers; every other hop reads its pair
    from ``Context.pair``."""
    rep = catalog.bundled_reps()[name]
    ctx = Context(rep)
    paths = _seeded_paths(ctx.arrangement, 3, 40)
    crossed = _spy_on_crossings(monkeypatch)
    for path in paths:
        groupoid.transcript_window_map(rep, path, ctx)
        groupoid.mutation_transcript(rep, path, ctx)
    hops = [(here.sign_vector, there.sign_vector) for path in paths for step in path.steps
            for here, there in zip(step.hops, step.hops[1:])]
    assert sorted(crossed) == sorted(set(hops)) == sorted(ctx._crossings)
    assert 2 * len(crossed) < len(hops)


def _normals_flipped(monkeypatch, ctx):
    """Every stored wall face has its inward normals negated."""
    for pair in ctx._crossings.values():
        pair.faces = {key: dataclasses.replace(fd, inward_normals=tuple(
            map(linalg.neg, fd.inward_normals))) for key, fd in pair.faces.items()}


def _wall_point_off_the_wall(monkeypatch, ctx):
    """Every segment point is the segment's first end, which is off every wall."""
    monkeypatch.setattr(Arrangement, "_on_segment", lambda self, a, b, p, q: self._scaled(a))


@pytest.mark.parametrize("name", sorted(catalog.bundled_reps()))
@pytest.mark.parametrize("fault, message", [
    (_normals_flipped, "crossing direction must pair positively with inward normals"),
    (_wall_point_off_the_wall, "computed wall point is not on the wall")])
def test_hop_checks_run_on_a_pair_hit(name, fault, message, monkeypatch):
    """Both per-hop checks run on every lookup, not only when a pair is
    first crossed: with every pair stored, a fault in a hop's direction or
    wall point makes each transcript raise, and no crossing is made."""
    rep = catalog.bundled_reps()[name]
    ctx = Context(rep)
    (path,) = _seeded_paths(ctx.arrangement, 3, 1)
    groupoid.transcript_window_map(rep, path, ctx)
    crossed = _spy_on_crossings(monkeypatch)
    fault(monkeypatch, ctx)
    for transcript in (groupoid.transcript_window_map, groupoid.mutation_transcript):
        with pytest.raises(InternalInconsistencyError, match=message):
            transcript(rep, path, ctx)
    assert crossed == []


def _closed_form_window(P, delta):
    """The integers in (delta - P/2, delta + P/2), delta off the walls Z + P/2."""
    return range(math.floor(delta - F(P, 2)) + 1, math.floor(delta + F(P, 2)) + 1)


def _closed_form_map(P, start, arrows):
    """The transcript map of a rank-one torus path, composed from closed forms."""
    mapping = {chi: chi for chi in _closed_form_window(P, start)}
    for a in arrows:
        if isinstance(a, Translate):
            mapping = {src: dst + a.m[0] for src, dst in mapping.items()}
            continue
        lo, hi = sorted((a.src[0], a.dst[0]))
        # the walls w = k + P/2 with lo < w < hi, and a point between each two
        walls = [k + F(P, 2) for k in range(math.floor(lo - F(P, 2)) + 1,
                                            math.ceil(hi - F(P, 2)))]
        inner = [w + F(1, 2) for w in walls[:-1]]
        points = [a.src[0], *(inner if a.dst[0] > a.src[0] else inner[::-1]), a.dst[0]]
        sign = 1 if a.dst[0] > a.src[0] else -1
        for s, t in zip(points, points[1:]):
            near, far = _closed_form_window(P, s), _closed_form_window(P, t)
            assert set(mapping.values()) == set(near)
            mapping = {src: dst if dst in far else dst + sign * P
                       for src, dst in mapping.items()}
    return mapping


def test_rank1_transcripts_match_closed_forms(small_corpus):
    """On a rank-one torus rho = 0, every character is dominant and (1/2)Sigma
    = [-P/2, P/2], P the sum of the positive weights (quasi-symmetry makes
    the negative ones sum to -P).  So the window at an off-wall delta is
    Z cap (delta - P/2, delta + P/2), the walls are Z + P/2, and crossing one
    wall upwards moves the character w - P/2 leaving the window to
    w + P/2 = (w - P/2) + P: the wall face is the end -P/2 of (1/2)Sigma,
    whose positive weights sum to P (and to -P downwards).  A translation by
    m moves delta and the window by m.  transcript_window_map of seeded
    positive paths with translations must equal the map composed from these
    closed forms, with no window or crossing code."""
    reps = [*(catalog.bundled_reps()[n] for n in ("torus-1x2pairs", "torus-1x3pairs")),
            *(r for r in small_corpus if r.rank == 1)]
    rng = random.Random(5)
    checked = 0
    for rep in reps:
        ctx = Context(rep)
        arr = ctx.arrangement
        assert arr.invariant_basis == ((1,),)
        P = sum(w[0] for w in rep.weights if w[0] > 0)
        for _ in range(12):
            point = F(rng.randrange(-48, 48), 8)
            if arr.on_wall((point,)):
                continue
            start, arrows = point, []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.3:
                    m = rng.choice((-2, -1, 1, 2))
                    arrows.append(Translate((m,)))
                    point += m
                    continue
                target = point + F(rng.choice((-1, 1)) * rng.randrange(1, 40), 8)
                if arr.on_wall((target,)) or not arr.separating_walls((point,), (target,)):
                    continue
                arrows.append(Cross((point,), (target,), (F(1 if target > point else -1),)))
                point = target
            if not arrows:
                continue
            path = groupoid.make_path(arr, arrows, start=(start,))
            got = groupoid.transcript_window_map(rep, path, ctx)
            assert {src[0]: dst[0] for src, dst in got.items()} == _closed_form_map(
                P, start, arrows)
            checked += 1
    assert checked > 5 * len(reps)
