import io
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from noisysft import robinson as rb
from noisysft.core import Grid, NoiseMask, thicken
from noisysft.noise import derive_seed, parse_model, sample_mask
from noisysft.percolation import open_components


class TestTileset:
    def test_counts(self):
        assert len(rb.TILES) == rb.NTILES == 56
        assert np.count_nonzero(rb.PARITY == rb.BUMPY) == 4
        classic = rb.classic_projection()
        assert len(classic) == 32
        assert sum(1 for t in classic if t[0] == rb.BUMPY) == 4

    def test_ids_are_sorted_positions(self):
        assert list(rb.TILES) == sorted(set(rb.TILES))
        for i, t in enumerate(rb.TILES):
            assert rb.TILE_INDEX[t] == i
            assert rb.PARITY[i] == t[0]

    def test_bumpy_tiles_are_crosses(self):
        crosses = {rb.make_cross(o, rb.BUMPY) for o in range(4)}
        assert set(np.flatnonzero(rb.PARITY == rb.BUMPY).tolist()) == crosses

    def test_realized_in_macros(self):
        seen = set()
        for n in range(1, 7):
            for o in range(4):
                seen |= set(int(v) for v in rb.build_macro(n, o).ravel())
        assert len(seen) == 48

    @given(st.integers(0, 55))
    def test_rotation_period_four(self, t):
        assert int(rb.ROT[rb.ROT[rb.ROT[rb.ROT[t]]]]) == t

    @given(st.integers(0, 55))
    def test_colour_swap_involution(self, t):
        tile = rb.TILES[t]
        assert rb.colour_swap(rb.colour_swap(tile)) == tile

    def test_make_cross_accepts_names(self):
        assert rb.make_cross("se") == rb.make_cross(0)
        assert rb.make_cross("NW", rb.DENTED) == rb.make_cross(2, rb.DENTED)

    def test_adjacent_tiles_of_a_macro_match(self):
        g = rb.build_macro(2, 0)
        # g[1, 1] sits east of g[1, 0]; g[0, 0] sits north of it
        assert rb.H_OK[g[1, 0], g[1, 1]]
        assert rb.V_OK[g[0, 0], g[1, 0]]

    def test_square_rule(self):
        # exactly one bumpy tile in a 2x2 block; the corners hold four
        g = rb.build_macro(2, 0)
        assert rb.PARITY[g[:2, :2]].sum() == 1
        assert rb.PARITY[g[::2, ::2]].sum() == 4


class TestMacros:
    def test_shapes_and_cache(self):
        for n in range(1, 6):
            g = rb.build_macro(n, 0)
            assert g.shape == (2 ** n - 1, 2 ** n - 1)
            assert g is rb.build_macro(n, 0)
            assert not g.flags.writeable

    def test_scale_one_is_a_bumpy_cross(self):
        for o in range(4):
            g = rb.build_macro(1, o)
            assert g.shape == (1, 1)
            assert int(g[0, 0]) == rb.make_cross(o, rb.BUMPY)

    def test_centre_is_requested_dented_cross(self):
        for n in (2, 3, 4):
            mid = 2 ** (n - 1) - 1
            for o in range(4):
                assert rb.build_macro(n, o)[mid, mid] == \
                    rb.make_cross(o, rb.DENTED)

    def test_corners_hold_previous_scale(self):
        for n in (2, 3, 4, 5):
            g = rb.build_macro(n, 0)
            q = 2 ** (n - 1) - 1
            for (qr, qc), o in (((0, 0), 0), ((0, 1), 3),
                                ((1, 0), 1), ((1, 1), 2)):
                sub = g[qr * (q + 1):qr * (q + 1) + q,
                        qc * (q + 1):qc * (q + 1) + q]
                assert np.array_equal(sub, rb.build_macro(n - 1, o))

    def test_all_orientations_admissible(self):
        for n in range(1, 7):
            for o in range(4):
                assert rb.is_admissible(rb.build_macro(n, o))

    def test_rotation_equivariance(self):
        for n in range(1, 6):
            for o in range(4):
                assert np.array_equal(rb.rotate_grid(rb.build_macro(n, o)),
                                      rb.build_macro(n, (o + 1) % 4))

    def test_budget_and_range_errors(self):
        with pytest.raises(ValueError):
            rb.build_macro(0)
        with pytest.raises(ValueError):
            rb.build_macro(13)

    def test_orient_by_name(self):
        assert np.array_equal(rb.build_macro(3, "ne"), rb.build_macro(3, 1))


class TestEdgeWords:
    def test_small_literals(self):
        assert rb.edge_words(1) == rb.EdgeWords(1, "0", "1")
        assert rb.edge_words(2) == rb.EdgeWords(2, "100", "110")
        assert rb.edge_words(3).l == "1100100"
        assert rb.edge_words(3).t == "1101100"

    def test_algebra_to_twenty(self):
        for n in range(1, 21):
            ew = rb.edge_words(n)
            assert len(ew.l) == len(ew.t) == 2 ** n - 1
            mirror_comp_l = "".join("1" if ch == "0" else "0"
                                    for ch in ew.l[::-1])
            assert ew.t == mirror_comp_l
            mirror_comp_t = "".join("1" if ch == "0" else "0"
                                    for ch in ew.t[::-1])
            assert ew.t != mirror_comp_t
            diff = [i for i, (a, b) in enumerate(zip(ew.l, ew.t)) if a != b]
            assert diff == [2 ** (n - 1) - 1]

    def test_recurrence_matches_concatenation(self):
        for n in range(1, 12):
            a, b = rb.edge_words(n), rb.edge_words(n + 1)
            assert b.l == a.t + "0" + a.l
            assert b.t == a.t + "1" + a.l

    def test_read_off_matches(self):
        for n in range(1, 7):
            assert rb.read_edge_words(rb.build_macro(n, 0)) == \
                rb.edge_words(n)


def _reference_violations(grid, clear, limit):
    """violations cell by cell from the rule definitions: the side labels,
    PARITY, the cross classes mod 4 and _INWARD."""
    g = np.asarray(grid.data).tolist()
    (r0, c0), (h, w) = grid.origin, grid.shape
    black_ok = {(rb.NONE, rb.NONE), (rb.OUT, rb.IN), (rb.IN, rb.OUT)}

    def edge(a, b, side, facing):
        return (rb.SIDE_COLOUR[a, side] == rb.SIDE_COLOUR[b, facing]
                and (int(rb.SIDE_BLACK[a, side]),
                     int(rb.SIDE_BLACK[b, facing])) in black_ok)

    def lattice(a, b, dr, dc):
        if rb.CLASS_R[a] < 0 or rb.CLASS_R[b] < 0:
            return True
        return ((int(rb.CLASS_R[a]) + dr - int(rb.CLASS_R[b])) % 4 == 0
                and (int(rb.CLASS_C[a]) + dc - int(rb.CLASS_C[b])) % 4 == 0)

    cells = [(r, c) for r in range(h) for c in range(w)]
    found = []

    def check(rule, offsets, ok):
        for r, c in cells:
            at = [(r + dr, c + dc) for dr, dc in offsets]
            if all(0 <= y < h and 0 <= x < w and clear[y, x] for y, x in at) \
                    and not ok(*[g[y][x] for y, x in at]):
                found.append((rule, tuple((r0 + y, c0 + x) for y, x in at)))

    check("edge-h", [(0, 0), (0, 1)], lambda a, b: edge(a, b, rb.R, rb.L))
    check("edge-v", [(0, 0), (1, 0)], lambda a, b: edge(a, b, rb.D, rb.U))
    check("square", [(0, 0), (0, 1), (1, 0), (1, 1)],
          lambda *t: sum(int(rb.PARITY[x]) for x in t) == 1)
    for dr, dc in rb._LATTICE_STEPS:
        check("lattice", [(0, 0), (dr, dc)],
              lambda a, b: lattice(a, b, dr, dc))
    check("centre", [d for d, _ in rb._INWARD] + [(0, 0)],
          lambda *t: bool(rb.IS_DENTED_CROSS[t[-1]]) or not all(
              rb.BUMPY_ORIENT[x] == o for x, (_, o) in zip(t, rb._INWARD)))
    return found if limit is None else found[:max(limit, 0)]


@st.composite
def _oracle_cases(draw):
    """A window up to 9x9 of random ids or of the 5-macro with a few
    flips, at a random origin, with no mask, an array mask or a NoiseMask,
    and a limit."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        ids = rng.integers(0, rb.NTILES, size=(h, w))
    else:
        r, c = draw(st.integers(0, 31 - h)), draw(st.integers(0, 31 - w))
        ids = np.array(rb.build_macro(5, 0)[r:r + h, c:c + w])
        for _ in range(draw(st.integers(0, 3))):
            ids[rng.integers(h), rng.integers(w)] = rng.integers(rb.NTILES)
    origin = (draw(st.integers(-20, 20)), draw(st.integers(-20, 20)))
    hit = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    mask = draw(st.sampled_from([None, hit, NoiseMask(origin, hit)]))
    return Grid(origin, ids), mask, draw(st.sampled_from([None, 1, 3]))


class TestAdmissibility:
    def test_flip_breaks_and_mask_exempts(self):
        g = np.array(rb.build_macro(3, 0))
        g[0, 0] = rb.make_cross(1, rb.BUMPY)
        found = rb.violations(g)
        assert found
        mask = np.zeros(g.shape, dtype=np.uint8)
        mask[0, 0] = 1
        assert rb.is_admissible(g, mask)

    def test_mask_value_256_is_obscured(self):
        # a NoiseMask once held a uint8 copy, where 256 wrapped to 0
        g = np.array(rb.build_macro(3, 0))
        g[0, 0] = rb.make_cross(1, rb.BUMPY)
        mask = np.zeros(g.shape, dtype=np.int64)
        mask[0, 0] = 256
        assert rb.violations(g, mask) == []
        assert rb.violations(Grid((0, 0), g), NoiseMask((0, 0), mask)) == []

    def test_limit_short_circuits(self):
        g = np.zeros((6, 6), dtype=np.int8)
        assert len(rb.violations(g, limit=3)) == 3

    def test_absolute_coordinates(self):
        base = np.array(rb.build_macro(2, 0))
        base[0, 1] = base[0, 0]
        found = rb.violations(Grid((10, 20), base))
        cells = {c for _, cs in found for c in cs}
        assert all(r >= 10 and c >= 20 for r, c in cells)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            rb.violations(np.array([[99]]))
        with pytest.raises(ValueError):
            rb.violations(np.zeros((2, 2, 2), dtype=np.int8))

    def test_lattice_rule_catches_misplaced_cross(self):
        g = np.array(rb.build_macro(3, 0))
        # overwrite a strip cell with a bumpy cross off the class lattice
        g[3, 1] = rb.make_cross(0, rb.BUMPY)
        kinds = {rule for rule, _ in rb.violations(g)}
        assert "lattice" in kinds or "square" in kinds

    def test_centre_rule_reported(self):
        # four inward crosses around a non-cross centre
        g = np.array(rb.build_macro(2, 0))
        g[1, 1] = int(g[0, 1])  # replace the dented cross by a strip tile
        kinds = {rule for rule, _ in rb.violations(g)}
        assert "centre" in kinds

    def test_single_cell_and_empty(self):
        assert rb.is_admissible(np.array([[0]], dtype=np.int8))
        assert rb.is_admissible(rb._PEEL_WITNESS_9)

    def test_noise_mask_from_another_box_refused(self):
        g = np.array(rb.build_macro(3, 0))
        g[0, 0] = rb.make_cross(1, rb.BUMPY)
        hit = np.zeros(g.shape, dtype=bool)
        hit[0, 0] = True
        assert rb.violations(Grid((0, 0), g), NoiseMask((0, 0), hit)) == []
        with pytest.raises(ValueError, match="mask box does not match"):
            rb.violations(Grid((0, 0), g), NoiseMask((40, 40), hit))
        # a plain array only has to match the box's shape
        assert rb.violations(Grid((40, 40), g), hit) == []
        assert len(rb.violations(Grid((40, 40), g))) == 5

    def test_rejects_non_integer_ids(self):
        g = np.array(rb.build_macro(2, 0), dtype=float)
        g[0, 0] = 2.7
        with pytest.raises(ValueError, match="as integers"):
            rb.violations(g)
        with pytest.raises(ValueError, match="as integers"):
            rb.infer_translate(g, None, 1)

    @pytest.mark.parametrize("limit", [-2, 0, 1, 3, 7])
    def test_limit_caps_the_list(self, limit):
        g = np.zeros((6, 6), dtype=np.int8)
        full = rb.violations(g)
        assert rb.violations(g, limit=limit) == full[:max(limit, 0)]
        assert len(rb.solve_window([(0, 0)], {}, limit=limit)) \
            == min(max(limit, 0), rb.NTILES)

    def test_rule_tables_are_read_only(self):
        tables = [rb.H_OK, rb.V_OK, *rb.LATTICE_OK.values(),
                  *(bad for _, bad in rb._CENTRE)]
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[...] = False

    @settings(max_examples=150, deadline=None)
    @given(_oracle_cases())
    def test_matches_cell_by_cell_reference(self, case):
        grid, mask, limit = case
        clear = ~rb._as_obscured(mask, grid.shape)
        assert rb.violations(grid, mask, limit) == \
            _reference_violations(grid, clear, limit)


class TestAlignment:
    def test_scale_one_pairs(self):
        assert sorted(rb._tileable_pairs(1, "h", 0)) == sorted(
            [("NE", "NW"), ("NW", "NE"), ("SE", "SW"), ("SW", "SE")])
        assert sorted(rb._tileable_pairs(1, "v", 0)) == sorted(
            [("NE", "SE"), ("NW", "SW"), ("SE", "NE"), ("SW", "NW")])

    def test_scale_two_pairs(self):
        assert sorted(rb._tileable_pairs(2, "h", 0)) == sorted(
            [("SE", "SW"), ("NE", "NW"), ("NW", "SE"),
             ("NW", "NE"), ("SW", "SE"), ("SW", "NE")])
        assert sorted(rb._tileable_pairs(2, "v", 0)) == sorted(
            [("SE", "NE"), ("NE", "SE"), ("NE", "SW"),
             ("NW", "SE"), ("NW", "SW"), ("SW", "NW")])
        for axis in ("h", "v"):
            for dy in (1, 2):
                assert rb._tileable_pairs(2, axis, dy) == []


class TestForcing:
    def test_inward_pin_forces_macros(self):
        sols = rb.solve_window(
            [(r, c) for r in range(3) for c in range(3)],
            {(0, 0): rb.make_cross(0, rb.BUMPY)})
        assert len(sols) == 4
        macros = [rb._macro_as_fixed(2, o) for o in range(4)]
        assert all(s in macros for s in sols)

    def test_outward_pin_is_loose(self):
        sols = rb.solve_window(
            [(r, c) for r in range(3) for c in range(3)],
            {(0, 0): rb.make_cross(1, rb.BUMPY)})
        assert len(sols) == 52
        macros = [rb._macro_as_fixed(2, o) for o in range(4)]
        assert not any(s in macros for s in sols)


_G5 = rb.build_macro(5, 0)
_G2 = rb.build_macro(2, 0)
_STRIP = int(_G2[0, 1])  # a strip tile, standing in for the centre cross
_CORNERS = [(0, 0), (0, 2), (2, 0), (2, 2)]


def _pins(cells, repin=None):
    """Pin `cells` to the 2-macro, then apply the `repin` overrides."""
    return {**{p: int(_G2[p]) for p in cells}, **(repin or {})}


def _brute_force(cells, fixed):
    """Assignments of the free cells, in lexicographic order, for which
    `violations` finds nothing with every cell outside the set masked.
    A tile that breaks a rule while the other free cells are masked is in
    no solution, so only the product of those survivors is checked."""
    free = [p for p in cells if p not in fixed]
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    shape = (max(r for r, _ in cells) - r0 + 1,
             max(c for _, c in cells) - c0 + 1)
    grid = np.zeros(shape, dtype=np.int8)
    mask = np.ones(shape, dtype=bool)
    for (r, c) in cells:
        mask[r - r0, c - c0] = False
    for (r, c), t in fixed.items():
        grid[r - r0, c - c0] = t

    def clean(tiles, only=None):
        m = mask.copy()
        for (r, c), t in zip(free, tiles):
            grid[r - r0, c - c0] = t
        for i, (r, c) in enumerate(free):
            m[r - r0, c - c0] = only is not None and i != only
        return not rb.violations(Grid((r0, c0), grid), m, limit=1)

    survivors = [[t for t in range(rb.NTILES)
                  if clean([t] * len(free), only=i)]
                 for i in range(len(free))]
    return [{**fixed, **dict(zip(free, tiles))}
            for tiles in itertools.product(*survivors) if clean(tiles)]


@st.composite
def _windows(draw):
    """Cells of a box up to 5x5, pinned from the 5-macro, at most two left
    free and at most one re-pinned to any tile."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    box = [(r, c) for r in range(h) for c in range(w)]
    cells = draw(st.permutations(box))[:draw(st.integers(1, h * w))]
    r0, c0 = draw(st.integers(0, 26)), draw(st.integers(0, 26))
    free = draw(st.permutations(cells))[:draw(st.integers(0, 2))]
    fixed = {p: int(_G5[r0 + p[0], c0 + p[1]]) for p in cells
             if p not in free}
    if fixed and draw(st.booleans()):
        fixed[draw(st.sampled_from(sorted(fixed)))] = draw(
            st.integers(0, rb.NTILES - 1))
    return cells, fixed


class TestSolveWindow:
    # one example per rule; each fails the test when the solver drops it
    @example(([(0, 0), (0, 1)], _pins([(0, 0)])))  # edge-h
    @example(([(0, 0), (1, 0)], _pins([(0, 0)])))  # edge-v
    @example(([(0, 1), (1, 0), (1, 1), (0, 0)],
              _pins([(0, 1), (1, 0), (1, 1)])))  # square
    @example(([(0, 0), (0, 2)], _pins([(0, 0)])))  # lattice
    @example((_CORNERS + [(1, 1)], _pins(_CORNERS)))  # centre, as centre
    @example(([(1, 1)] + _CORNERS,
              _pins([(1, 1)] + _CORNERS[:3], {(1, 1): _STRIP})))  # last cross
    @example(([(0, 0), (0, 1), (1, 0), (1, 1)],  # pins alone break a rule
              _pins([(0, 0), (0, 1), (1, 0), (1, 1)], {(0, 0): _STRIP})))
    @settings(max_examples=40, deadline=None)
    @given(_windows())
    def test_matches_brute_force(self, window):
        cells, fixed = window
        assert rb.solve_window(cells, fixed) == _brute_force(cells, fixed)

    def test_pin_outside_cells_refused(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            rb.solve_window([(0, 0)], {(0, 1): rb.make_cross(0, rb.BUMPY)})

    @pytest.mark.parametrize("tile", [-1, rb.NTILES, 2.0, "3"])
    def test_pin_not_a_tile_id_refused(self, tile):
        with pytest.raises(ValueError, match=r"\(0, 0\)"):
            rb.solve_window([(0, 0), (0, 1)], {(0, 0): tile})

    def test_tables_are_built_lazily(self):
        src = os.path.dirname(os.path.dirname(rb.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import noisysft.cli, noisysft.robinson as rb; "
             "print(rb._solver_tables.cache_info().currsize)"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "0"


class TestPeel:
    def test_witness_is_certified(self):
        w = rb._PEEL_WITNESS_9
        assert rb.is_admissible(w)
        macros = [rb.build_macro(2, o) for o in range(4)]
        assert any(np.array_equal(w[3:6, 3:6], m) for m in macros)
        defects = rb.cross_lattice_defects(w[2:7, 2:7], (3, 3), (2, 2))
        assert defects == [((2, 4), "dented")]
        assert rb.cross_lattice_defects(w[3:6, 3:6], (3, 3), (3, 3)) == []

    def test_grid_origin_is_used(self):
        core = Grid((2, 2), rb._PEEL_WITNESS_9[2:7, 2:7])
        assert rb.cross_lattice_defects(core, (3, 3)) == [((2, 4), "dented")]
        # coordinates past the int8 range of the class tables
        t = (37, 101)
        far = Grid((600, 700), rb.reference_window((600, 700), (16, 16), t))
        assert rb.cross_lattice_defects(far, (t[0] % 4, t[1] % 4)) == []

    def test_macro_window_has_no_defects(self):
        g = rb.build_macro(4, 0)
        assert rb.cross_lattice_defects(g, (0, 0)) == []

    def test_defect_checker_flags_bad_class(self):
        g = np.array([[rb.make_cross(1, rb.BUMPY)]])
        assert rb.cross_lattice_defects(g, (0, 0), (0, 0)) \
            == [((0, 0), "bumpy")]
        assert rb.cross_lattice_defects(g, (0, 0), (2, 0)) == []

    def test_report_shape(self):
        checks = rb.verify_peel()
        assert all(isinstance(name, str) and flag is True
                   for name, flag, _ in checks)
        inward, others = checks[-2][2], checks[-1][2]
        # 4 inward pins force the macros; the other 12 of the 16 pins
        # all leave the same count
        assert set(inward) == {((0, 0), "SE"), ((0, 2), "SW"),
                               ((2, 0), "NE"), ((2, 2), "NW")}
        assert all(v == (4, 4) for v in inward.values())
        assert others == [(52, 0)]


class TestTextFormat:
    def test_round_trip(self):
        g = rb.build_macro(3, 2)
        text = rb.write_text(g)
        assert text.splitlines()[0] == "robinson-v1 7 7"
        again = np.loadtxt(io.StringIO(text), dtype=np.int8, skiprows=1)
        assert np.array_equal(again, g)

    def test_grid_input(self):
        text = rb.write_text(Grid((5, 5), rb.build_macro(2, 1)))
        assert text.startswith("robinson-v1 3 3\n")

    def test_rejects_ids_outside_tileset(self):
        with pytest.raises(ValueError, match="tile ids must lie"):
            rb.write_text(np.array([[-3, 1.5]]))


class TestSvg:
    def test_smoke(self):
        svg = rb.render_svg(rb.build_macro(3, 0))
        assert svg.startswith("<svg")
        assert svg.count("<rect") >= 49
        assert "</svg>" in svg

    def test_size_guard(self):
        with pytest.raises(ValueError):
            rb.render_svg(np.zeros((300, 300), dtype=np.int8))

    def test_rejects_ids_outside_tileset(self):
        with pytest.raises(ValueError, match="tile ids must lie"):
            rb.render_svg(np.array([[99]]))


class TestReference:
    def test_windows_are_admissible(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            t = tuple(int(v) for v in rng.integers(0, 512, size=2))
            o = tuple(int(v) for v in rng.integers(0, 800, size=2))
            win = rb.reference_window(o, (64, 64), t)
            assert rb.is_admissible(win)

    def test_cross_lattices_respect_translate(self):
        t = (37, 101)
        win = rb.reference_window((0, 0), (128, 128), t)
        assert rb.cross_lattice_defects(win, (t[0] % 4, t[1] % 4)) == []
        orient = rb.BUMPY_ORIENT[win]
        rr, cc = np.nonzero(orient >= 0)
        assert ((rr - t[0]) % 2 == 0).all()
        assert ((cc - t[1]) % 2 == 0).all()

    def test_range_guard(self):
        with pytest.raises(ValueError):
            rb.reference_window((-600, 0), (10, 10), (0, 0))
        with pytest.raises(ValueError):
            rb.reference_window((1200, 0), (400, 400), (0, 0))


class TestInferTranslate:
    def test_exact_windows(self):
        rng = np.random.default_rng(97)
        for n in (1, 2, 3):
            period = 2 ** (n + 1)
            for _ in range(4):
                t = tuple(int(v) for v in rng.integers(0, 512, size=2))
                o = tuple(int(v) for v in rng.integers(0, 500, size=2))
                win = rb.reference_window(o, (96, 96), t)
                got, no_votes = rb.infer_translate(Grid(o, win), None, n)
                assert not no_votes
                assert got == (t[0] % period, t[1] % period)

    def test_all_obscured_flags(self):
        win = rb.reference_window((0, 0), (32, 32), (0, 0))
        mask = np.ones((32, 32), dtype=np.uint8)
        got, no_votes = rb.infer_translate(win, mask, 1)
        assert no_votes
        assert got == (0, 0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_scale_below_one_raises(self, n):
        win = rb.reference_window((0, 0), (32, 32), (0, 0))
        with pytest.raises(ValueError, match="scale must be at least 1"):
            rb.infer_translate(win, None, n)

    def test_noise_mask_from_another_box_refused(self):
        win = rb.reference_window((0, 0), (32, 32), (0, 0))
        hit = np.zeros((32, 32), dtype=bool)
        with pytest.raises(ValueError, match="mask box does not match"):
            rb.infer_translate(Grid((0, 0), win), NoiseMask((40, 40), hit), 1)

    @pytest.mark.parametrize("bad", [-1, rb.NTILES])
    def test_tile_ids_outside_tileset_raise(self, bad):
        win = np.array(rb.reference_window((0, 0), (32, 32), (0, 0)))
        win[5, 7] = bad
        with pytest.raises(ValueError, match="tile ids must lie"):
            rb.infer_translate(win, None, 2)

    @pytest.mark.parametrize("shape", [(0, 9), (9, 0), (0, 0)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_box_has_no_votes(self, shape, n):
        grid = Grid((-5, 3), np.zeros(shape, dtype=np.int8))
        assert rb.infer_translate(grid, None, n) == ((0, 0), True)

    def test_tie_goes_to_first_class(self):
        # one vote each for classes (2, 2) and (1, 1); the later cell
        # votes for the class that comes first in row-major order
        win = np.zeros((8, 8), dtype=np.int8)
        win[0, 0] = rb.make_cross("nw")  # class (2, 2) votes (2, 2)
        win[5, 1] = rb.make_cross("se")  # class (0, 0) votes (1, 1)
        assert rb.infer_translate(win, None, 1) == ((1, 1), False)
        assert _infer_translate_full_box(win, None, 1) == ((1, 1), False)


class TestRepair:
    def _noisy_instance(self, n, eps, shape, seed):
        rng = np.random.default_rng(seed)
        t_in = tuple(int(v) for v in rng.integers(0, 512, size=2))
        clean = rb.reference_window((0, 0), shape, t_in)
        mask = sample_mask(parse_model(f"bernoulli:{eps}"), shape,
                           seed=seed)
        noisy = np.array(clean)
        hit = mask.data.astype(bool)
        noisy[hit] = rng.integers(0, rb.NTILES, size=int(hit.sum()))
        return t_in, Grid((0, 0), noisy), mask

    def test_zero_noise_changes_only_grout(self):
        for n in (2, 3):
            t_in = (389, 77)
            shape = (160, 160)
            g = Grid((0, 0), rb.reference_window((0, 0), shape, t_in))
            m = NoiseMask((0, 0), np.zeros(shape, dtype=np.uint8))
            rep = rb.robinson_repair(g, m, n, seed=1)
            period = 2 ** (n + 1)
            assert rep.translate == (t_in[0] % period, t_in[1] % period)
            assert not rep.no_votes
            assert rb.is_admissible(rep.grid.data)
            size = 2 ** n
            inner = tuple(slice(rep.c, s - rep.c) for s in shape)
            diff = g.data[inner] != rep.grid.data
            rows = np.arange(rep.grid.origin[0],
                             rep.grid.origin[0] + diff.shape[0])
            cols = np.arange(rep.grid.origin[1],
                             rep.grid.origin[1] + diff.shape[1])
            grout = ((rows[:, None] - t_in[0]) % size == size - 1) | \
                    ((cols[None, :] - t_in[1]) % size == size - 1)
            assert not (diff & ~grout).any()
            assert rep.changed_fraction <= 2.0 ** (1 - n) + rep.slack + 1e-12

    def test_noisy_recovery(self):
        t_in, g, m = self._noisy_instance(2, 1e-3, (256, 256), seed=8)
        rep = rb.robinson_repair(g, m, 2, seed=8)
        assert rep.translate == (t_in[0] % 8, t_in[1] % 8)
        assert rb.is_admissible(rep.grid.data)
        assert rep.changed_fraction <= 0.5 + rep.slack
        assert type(rep.changed_fraction) is float

    def test_determinism(self):
        _, g, m = self._noisy_instance(2, 1e-3, (200, 200), seed=3)
        a = rb.robinson_repair(g, m, 2, seed=9)
        b = rb.robinson_repair(g, m, 2, seed=9)
        assert a.translate == b.translate
        assert np.array_equal(a.grid.data, b.grid.data)

    def test_box_errors(self):
        g = Grid((0, 0), np.zeros((20, 20), dtype=np.int8))
        m = NoiseMask((0, 0), np.zeros((20, 20), dtype=np.uint8))
        with pytest.raises(ValueError):
            rb.robinson_repair(g, m, 3)  # c=16 needs a box of 33+
        m2 = NoiseMask((0, 0), np.zeros((24, 20), dtype=np.uint8))
        g2 = Grid((0, 0), np.zeros((24, 24), dtype=np.int8))
        with pytest.raises(ValueError):
            rb.robinson_repair(g2, m2, 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_scale_below_one_raises(self, n):
        g = Grid((0, 0), rb.reference_window((0, 0), (64, 64), (0, 0)))
        m = NoiseMask((0, 0), np.zeros((64, 64), dtype=np.uint8))
        with pytest.raises(ValueError, match="scale must be at least 1"):
            rb.robinson_repair(g, m, n)

    def test_slack_shrinks_with_box(self):
        assert rb.robinson_slack(3, 20) > 0.0
        assert rb.robinson_slack(3, 992) == 0.0
        assert rb.robinson_slack(2, 40) >= rb.robinson_slack(2, 2000) >= 0.0
        assert rb.robinson_bound(0.0, 2) == pytest.approx(0.5)
        assert rb.robinson_bound(1e-3, 2) == pytest.approx(
            96 * 17 ** 2 * 1e-3 + 0.5)


class TestVerifySuite:
    def test_groups_run_clean(self):
        checks = rb.verify_suite(groups=("tileset", "align"))
        assert checks and all(ok for _, ok, _ in checks)


def _infer_translate_full_box(grid, mask, N, votes_ok=None):
    """infer_translate as it was, with full-box residue masks per level."""
    g, origin = rb._as_ids(grid)
    clear = ~rb._as_obscured(mask, g.shape)
    votes_ok = clear if votes_ok is None else votes_ok & clear
    h, w = g.shape
    pr = np.arange(h).reshape(-1, 1) + origin[0]
    pc = np.arange(w).reshape(1, -1) + origin[1]
    sel = votes_ok & (rb.BUMPY_ORIENT[g] >= 0)
    no_votes = not sel.any()
    if no_votes:
        tr = tc = 0
    else:
        vr = (np.broadcast_to(pr, g.shape)[sel] - rb.CLASS_R[g[sel]]) % 4
        vc = (np.broadcast_to(pc, g.shape)[sel] - rb.CLASS_C[g[sel]]) % 4
        best = int(np.argmax(np.bincount(vr * 4 + vc, minlength=16)))
        tr, tc = best // 4, best % 4
    dented = rb.IS_DENTED_CROSS[g]
    for m in range(3, N + 2):
        period = 2 ** m
        half = period // 2
        best_score, best_ext = -1.0, (0, 0)
        for ar in (0, 1):
            for ac in (0, 1):
                cr = (tr + ar * half + half - 1) % period
                cc = (tc + ac * half + half - 1) % period
                on = votes_ok & (pr % period == cr) & (pc % period == cc)
                total = int(on.sum())
                score = float((on & dented).sum()) / total if total else 0.0
                if score > best_score:
                    best_score, best_ext = score, (ar, ac)
        tr += best_ext[0] * half
        tc += best_ext[1] * half
    return (tr, tc), no_votes


class TestInferTranslateStrided:
    # scales above the drawn range
    @example(6, 6, 300, 200, 300, 280, 0.05, False, True)
    @example(7, 7, 300, 200, 300, 280, 0.05, False, True)
    # sides that are not multiples of 4, and sides 1-3
    @example(11, 3, 5, -7, 37, 22, 0.05, False, True)
    @example(12, 4, 2, 1, 61, 43, 0.0, False, False)
    @example(13, 2, -3, 4, 1, 3, 0.0, False, False)
    @example(14, 3, 9, 2, 3, 2, 0.05, True, True)
    @example(15, 1, 6, -6, 2, 1, 0.0, False, False)
    # P = 2^{N+1} larger than both sides
    @example(16, 5, 17, -29, 39, 33, 0.05, False, True)
    @example(17, 6, -41, 3, 30, 38, 0.0, False, False)
    # a fully obscured box
    @example(18, 3, 10, 10, 24, 20, 1.0, False, False)
    # negative origins
    @example(19, 3, -123, -250, 45, 61, 0.05, False, True)
    @example(20, 4, -1, -298, 70, 70, 0.0, False, False)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.integers(-300, 300), st.integers(-300, 300),
           st.integers(1, 70), st.integers(1, 70),
           st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.booleans(),
           st.booleans())
    def test_matches_full_box_levels(self, seed, n, o0, o1, h, w, eps,
                                     random_ids, with_votes):
        rng = np.random.default_rng(seed)
        if random_ids:
            ids = rng.integers(0, rb.NTILES, size=(h, w)).astype(np.int8)
        else:
            t = tuple(int(v) for v in rng.integers(0, 512, size=2))
            ids = rb.reference_window((abs(o0), abs(o1)), (h, w), t)
        grid = Grid((o0, o1), ids)
        mask = NoiseMask((o0, o1), (rng.random((h, w)) < eps).astype(np.uint8))
        votes_ok = rng.random((h, w)) < 0.8 if with_votes else None
        # infer_translate reads its voters off the mask alone
        folded = mask if votes_ok is None else \
            NoiseMask((o0, o1), mask.data | ~votes_ok)
        assert rb.infer_translate(grid, folded, n) == \
            _infer_translate_full_box(grid, mask, n, votes_ok)


def _robinson_repair_full_box(grid, mask, N, seed):
    """robinson_repair as it was: the whole thickened box labelled here,
    and its largest clear component passed to the inference as the
    cells allowed to vote."""
    c = 2 ** (N + 1)
    tm = thicken(mask, c)
    labels, count = ndimage.label(tm.data == 0)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    votes_ok = np.zeros(labels.shape, dtype=bool)
    if count:
        votes_ok = labels == int(np.argmax(sizes[1:])) + 1
    inner = tuple(slice(c, s - c) for s in grid.shape)
    translate, no_votes = _infer_translate_full_box(
        Grid(tm.origin, grid.data[inner]), mask.data[inner], N, votes_ok)
    period = 2 ** (N + 1)
    rng = np.random.default_rng(derive_seed(seed, "robinson-high-bits", N))
    high = rng.integers(0, rb.TRANSLATES // period, size=2)
    t_full = (translate[0] + int(high[0]) * period,
              translate[1] + int(high[1]) * period)
    ref = rb.reference_window(tm.origin, tm.shape, t_full)
    return rb.RobinsonRepairReport(
        grid=Grid(tm.origin, ref), scale=N, c=c, translate=translate,
        changed_fraction=float(np.mean(grid.data[inner] != ref)),
        no_votes=no_votes, slack=rb.robinson_slack(N, min(tm.shape)))


def _assert_same_report(got, want):
    assert got.grid.origin == want.grid.origin
    assert np.array_equal(got.grid.data, want.grid.data)
    assert (got.scale, got.c, got.translate, got.changed_fraction,
            got.no_votes, got.slack) == (want.scale, want.c, want.translate,
                                         want.changed_fraction, want.no_votes,
                                         want.slack)


@st.composite
def _robinson_cases(draw):
    """N, a box from the smallest side the repair accepts to about three
    times it, an origin and a translate whose windows, and the repair's
    window at every high-bit draw, lie inside the reference
    configuration, and a seed for the noise."""
    n = draw(st.integers(1, 3))
    c, lo = 2 ** (n + 1), 2 ** (n + 2) + 1
    shape = (draw(st.integers(lo, 3 * lo)), draw(st.integers(lo, 3 * lo)))
    origin = (draw(st.integers(-c, 600)), draw(st.integers(-c, 600)))
    t_in = tuple(draw(st.integers(0, min(rb.TRANSLATES - 1, o + 512)))
                 for o in origin)
    return n, shape, origin, t_in, draw(st.integers(0, 2 ** 32 - 1))


def _noisy_window(shape, origin, t_in, eps, seed):
    rng = np.random.default_rng(seed)
    hit = rng.random(shape) < eps
    noisy = np.where(hit, rng.integers(0, rb.NTILES, size=shape),
                     rb.reference_window(origin, shape, t_in)).astype(np.int8)
    return Grid(origin, noisy), NoiseMask(origin, hit)


class TestRepairEquivalence:
    """robinson_repair against the body that labelled the full box and
    passed the giant component as a separate vote mask."""

    @settings(max_examples=200, deadline=None)
    @given(_robinson_cases(), st.sampled_from([0.0, 1e-3, 0.05, 1.0]))
    def test_matches_full_box_labelling(self, case, eps):
        n, shape, origin, t_in, seed = case
        grid, mask = _noisy_window(shape, origin, t_in, eps, seed)
        rep = rb.robinson_repair(grid, mask, n, seed=seed)
        _assert_same_report(rep, _robinson_repair_full_box(grid, mask, n,
                                                           seed))
        assert rb.violations(rep.grid) == []

    def test_tie_goes_to_first_component(self):
        # an obscured middle column splits the box into two clear halves
        # of equal size holding different translates; the left one comes
        # first in row-major order and decides
        n, shape, origin = 2, (40, 81), (5, -3)
        left, right = (3, 5), (6, 1)
        data = np.array(rb.reference_window(origin, shape, left))
        data[:, 41:] = rb.reference_window(origin, shape, right)[:, 41:]
        hit = np.zeros(shape, dtype=bool)
        hit[:, 40] = True
        grid, mask = Grid(origin, data), NoiseMask(origin, hit)
        rep = rb.robinson_repair(grid, mask, n, seed=4)
        _assert_same_report(rep, _robinson_repair_full_box(grid, mask, n, 4))
        assert rep.translate == left
        giant = ~open_components(mask, rep.c).data
        assert giant[:, :24].all() and not giant[:, 24:].any()


def _infer_translate_three_pass(grid, mask, N):
    """infer_translate as it was before the one coding pass: the clear
    cells made as ~mask, coded as -NTILES clear + id + NTILES."""
    g, origin = rb._as_ids(grid)
    clear = np.ones(g.shape, dtype=bool) if mask is None else \
        ~rb._as_obscured(mask, g.shape)
    h, w = g.shape
    hb, wb = -(-h // 4), -(-w // 4)
    padded = np.full((4 * hb, 4 * wb), rb._PAD, dtype=np.int8)
    code = padded[:h, :w]
    np.multiply(clear.view(np.int8), np.int8(-rb.NTILES), out=code)
    code += g.astype(np.int8, copy=False)
    code += np.int8(rb.NTILES)
    votes = np.zeros((4, 4), dtype=np.int64)
    for o, (cr, cc) in rb.CROSS_CLASS.items():
        hits = padded.reshape(hb, 16 * wb) == rb._CROSS_ID[(rb.BUMPY, o)]
        counts = hits.sum(axis=0).reshape(4, wb, 4).sum(axis=1)
        votes += np.roll(counts, ((origin[0] - cr) % 4, (origin[1] - cc) % 4),
                         axis=(0, 1))
    no_votes = not votes.any()
    tr, tc = divmod(int(np.argmax(votes)), 4)
    for m in range(3, N + 2):
        period, half = 2 ** m, 2 ** (m - 1)
        best_score, best_ext = -1.0, (0, 0)
        for ar in (0, 1):
            for ac in (0, 1):
                cr = (tr + ar * half + half - 1) % period
                cc = (tc + ac * half + half - 1) % period
                cells = code[(cr - origin[0]) % period::period,
                             (cc - origin[1]) % period::period]
                total = int(np.count_nonzero(cells < rb.NTILES))
                dented = int(np.count_nonzero(rb._DENTED_CODE[cells]))
                score = dented / total if total else 0.0
                if score > best_score:
                    best_score, best_ext = score, (ar, ac)
        tr += best_ext[0] * half
        tc += best_ext[1] * half
    return (tr, tc), no_votes


class TestInferTranslateCoding:
    """The cells coded in place as NTILES obscured + id against the
    three-pass coding, for no mask, a NoiseMask and a plain bool array,
    each mask a strided view like the giant `open_components` returns."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.integers(-300, 300), st.integers(-300, 300),
           st.integers(0, 40), st.integers(0, 40),
           st.sampled_from([0.0, 0.05, 0.4, 1.0]), st.booleans(),
           st.sampled_from(["none", "noise_mask", "bool_array"]))
    def test_matches_three_pass_coding(self, seed, n, o0, o1, hh, hw, eps,
                                       random_ids, kind):
        rng = np.random.default_rng(seed)
        shape = (2 * hh + 1, 2 * hw + 1)  # odd sides: the _PAD margin shows
        if random_ids:
            ids = rng.integers(0, rb.NTILES, size=shape).astype(np.int8)
        else:
            t = tuple(int(v) for v in rng.integers(0, 512, size=2))
            ids = rb.reference_window((abs(o0), abs(o1)), shape, t)
        padded = rng.random((shape[0] + 1, shape[1] + 1)) < eps
        hit = padded[:shape[0], :shape[1]]  # a view, as open_components paints
        mask = {"none": None, "noise_mask": NoiseMask((o0, o1), hit),
                "bool_array": hit}[kind]
        grid = Grid((o0, o1), ids)
        assert rb.infer_translate(grid, mask, n) == \
            _infer_translate_three_pass(grid, mask, n)

    @pytest.mark.parametrize("mask", [np.zeros((9, 10), dtype=bool),
                                      NoiseMask((0, 0), np.zeros((9, 10)))])
    def test_mask_of_another_shape_refused(self, mask):
        win = rb.reference_window((0, 0), (9, 9), (0, 0))
        with pytest.raises(ValueError, match="mask box does not match"):
            rb.infer_translate(Grid((0, 0), win), mask, 1)
