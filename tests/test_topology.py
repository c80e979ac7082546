import json

import numpy as np
import pytest

import phaselab as pl
from phaselab.topology import Relation, Turn, compose, find_op, inverse

from conftest import random_state
from oracles import compatible_oracle, enumerate_phases_oracle


class TestBuildPhaseTable:
    def test_four_approach_counts(self, table4):
        assert table4.n_movements == 8
        assert table4.n_phases == 8
        assert [m.name for m in table4.movements] == [
            "N-T", "N-L", "E-T", "E-L", "S-T", "S-L", "W-T", "W-L",
        ]

    def test_rejects_bad_approach_count(self):
        for bad in (2, 6, 0, -1):
            with pytest.raises(ValueError):
                pl.build_phase_table(bad)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_conflict_matrix_matches_exhaustive_oracle(self, n):
        table = pl.build_phase_table(n)
        for a in table.movements:
            for b in table.movements:
                if a.id == b.id:
                    assert not table.conflict[a.id, b.id]
                    continue
                expected = not compatible_oracle(a.approach, a.turn, b.approach, b.turn, n)
                assert table.conflict[a.id, b.id] == expected

    @pytest.mark.parametrize("n,expected_phases", [(3, 3), (4, 8), (5, 5)])
    def test_phase_enumeration_matches_oracle(self, n, expected_phases):
        table = pl.build_phase_table(n)
        oracle_pairs = enumerate_phases_oracle(n)
        assert len(oracle_pairs) == expected_phases
        assert [p.members for p in table.phases] == oracle_pairs

    def test_conflict_symmetric_no_self_conflict(self, table4):
        assert np.array_equal(table4.conflict, table4.conflict.T)
        assert not table4.conflict.diagonal().any()

    def test_phase_members_mutually_compatible(self, table4):
        for phase in table4.phases:
            i, j = phase.members
            assert not table4.conflict[i, j]
            assert sum(phase.bits) == 2
            assert tuple(k for k, b in enumerate(phase.bits) if b) == phase.members

    def test_relation_examples_from_pairings(self, table4):
        nt_st = table4.phase_with_members([0, 4])  # N-T + S-T
        nt_nl = table4.phase_with_members([0, 1])  # N-T + N-L, shares N-T
        el_wl = table4.phase_with_members([3, 7])  # E-L + W-L, disjoint
        assert table4.relation[nt_st, nt_nl] == Relation.PARTIAL_COMPETING
        assert table4.relation[nt_st, el_wl] == Relation.FULLY_COMPETING

    def test_relation_vs_shared_member_count(self, table4):
        for p in table4.phases:
            for q in table4.phases:
                if p.index == q.index:
                    assert table4.relation[p.index, q.index] == -1
                    continue
                shared = len(set(p.members) & set(q.members))
                expected = Relation.PARTIAL_COMPETING if shared == 1 else Relation.FULLY_COMPETING
                assert table4.relation[p.index, q.index] == expected

    def test_opposite_pair_subset(self, table4):
        subset = table4.opposite_pair_phases()
        members = {table4.phases[p].members for p in subset}
        assert members == {(0, 4), (1, 5), (2, 6), (3, 7)}

    def test_restrict_reindexes(self, table4):
        four = table4.restrict(table4.opposite_pair_phases())
        assert four.n_phases == 4
        assert [p.index for p in four.phases] == [0, 1, 2, 3]
        # disjoint opposite pairs: every distinct relation is fully competing
        off_diag = four.relation[~np.eye(4, dtype=bool)]
        assert (off_diag == Relation.FULLY_COMPETING).all()

    def test_json_roundtrip(self, table4):
        doc = json.loads(table4.to_json())
        assert doc["n_approaches"] == 4
        assert len(doc["movements"]) == 8
        assert len(doc["phases"]) == 8
        assert doc["conflict"][0][2] == 1  # N-T conflicts with E-T


class TestSymmetryGroup:
    def test_group_size_and_names(self, table4, group4):
        assert len(group4) == 8
        names = {op.name for op in group4}
        assert {"identity", "rot90", "rot180", "rot270", "flip"} <= names

    def test_identity_perms(self, group4):
        ident = group4[0]
        assert ident.is_identity()
        assert np.array_equal(ident.movement_perm, np.arange(8))
        assert np.array_equal(ident.phase_perm, np.arange(8))

    def test_quarter_rotation_order_four(self, table4):
        rot = find_op(table4, "rot90")
        perm = np.arange(8)
        for _ in range(4):
            perm = rot.movement_perm[perm]
        assert np.array_equal(perm, np.arange(8))

    def test_phase_perm_matches_member_image_oracle(self, table4, group4):
        # Recompute each phase image from member sets, independently.
        member_sets = {p.index: set(p.members) for p in table4.phases}
        for op in group4:
            for p in table4.phases:
                image = {int(op.movement_perm[m]) for m in p.members}
                matches = [q for q, s in member_sets.items() if s == image]
                assert len(matches) == 1
                assert op.phase_perm[p.index] == matches[0]
            assert sorted(op.phase_perm) == list(range(8))
            assert sorted(op.movement_perm) == list(range(8))

    def test_turn_type_preserved(self, table4, group4):
        for op in group4:
            for m in table4.movements:
                assert table4.movements[int(op.movement_perm[m.id])].turn == m.turn

    def test_group_closure_composition(self, table4, group4):
        perms = {tuple(op.approach_perm) for op in group4}
        for g in group4:
            for h in group4:
                gh = compose(g, h, table4)
                assert tuple(gh.approach_perm) in perms
                expected = g.movement_perm[h.movement_perm]
                assert np.array_equal(gh.movement_perm, expected)

    def test_inverse(self, table4, group4):
        for g in group4:
            gi = inverse(g, table4)
            assert compose(g, gi, table4).is_identity()

    def test_relation_invariant_under_ops(self, table4, group4):
        rel = table4.relation
        for op in group4:
            mapped = rel[np.ix_(op.phase_perm, op.phase_perm)]
            # relation(perm(p), perm(q)) == relation(p, q)
            assert np.array_equal(rel, mapped)

    @pytest.mark.parametrize("n", [3, 5])
    def test_smaller_rings_have_dihedral_groups(self, n):
        table = pl.build_phase_table(n)
        ops = pl.symmetry_group(table)
        assert len(ops) == 2 * n
        for op in ops:
            assert sorted(op.phase_perm) == list(range(table.n_phases))


class TestApplySymmetry:
    def test_identity_fixes_state(self, table4, group4):
        rng = np.random.default_rng(0)
        s = random_state(table4, rng)
        out = pl.apply_symmetry(group4[0], s)
        assert np.array_equal(out.counts, s.counts)
        assert np.array_equal(out.signal_bits, s.signal_bits)
        assert out.phase_index == s.phase_index

    def test_uniform_state_fixed_by_every_op(self, table4, group4):
        s = pl.TrafficState(np.full(8, 7), np.zeros(8, dtype=int), 0)
        for op in group4:
            out = pl.apply_symmetry(op, s)
            assert np.array_equal(out.counts, s.counts)
            assert np.array_equal(out.signal_bits, s.signal_bits)
            assert out.phase_index == op.phase_perm[0]

    @pytest.mark.parametrize("phase_index", [-1, -2])
    def test_negative_phase_index_rejected(self, group4, phase_index):
        # No negative index names a phase; -2 indexed phase_perm from the end
        # and came out of apply_symmetry as a real phase.
        with pytest.raises(ValueError, match="phase_index must be non-negative"):
            pl.apply_symmetry(
                group4[1], pl.TrafficState(np.zeros(8), np.zeros(8), phase_index)
            )

    def test_flip_moves_w_heavy_to_e_heavy(self, table4):
        flip = find_op(table4, "flip")
        counts = np.zeros(8, dtype=int)
        counts[6] = 30  # W-T heavy
        s = pl.TrafficState(counts, np.array(table4.phases[1].bits), 1)
        out = pl.apply_symmetry(flip, s)
        assert out.counts[2] == 30  # now E-T heavy
        assert out.counts[6] == 0
        # element-wise index check against the permutation

        for i in range(8):
            assert out.counts[int(flip.movement_perm[i])] == counts[i]

    def test_composition_action(self, table4, group4):
        rng = np.random.default_rng(3)
        s = random_state(table4, rng)
        for g in group4:
            for h in group4:
                lhs = pl.apply_symmetry(g, pl.apply_symmetry(h, s))
                rhs = pl.apply_symmetry(compose(g, h, table4), s)
                assert np.array_equal(lhs.counts, rhs.counts)
                assert np.array_equal(lhs.signal_bits, rhs.signal_bits)
                assert lhs.phase_index == rhs.phase_index

    def test_dimension_mismatch_rejected(self, group4):
        table3 = pl.build_phase_table(3)
        rng = np.random.default_rng(1)
        s = random_state(table3, rng)
        with pytest.raises(ValueError):
            pl.apply_symmetry(group4[1], s)
