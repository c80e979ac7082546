"""Intersection geometry: movements, paired-signal phases, conflicts, symmetries.

Approaches sit on a ring in clockwise order (N, E, S, W for the standard
four-approach intersection). Each approach contributes a through and a left
movement; right turns are not signalised and are not modelled. Two distinct
movements may share green iff they enter from the same approach, or from
exactly opposite approaches with the same turn type. A phase is a pair of
mutually compatible movements; single-movement phases are excluded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .state import TrafficState

VALID_APPROACH_COUNTS = (3, 4, 5)


class Turn(IntEnum):
    THROUGH = 0
    LEFT = 1


class Relation(IntEnum):
    """Phase-pair relation: sharing exactly one movement vs sharing none."""

    PARTIAL_COMPETING = 0
    FULLY_COMPETING = 1


@dataclass(frozen=True)
class Movement:
    id: int
    approach: int  # ring position
    turn: Turn
    name: str


@dataclass(frozen=True)
class Phase:
    index: int
    bits: tuple[int, ...]  # one bit per movement, 1 = green
    members: tuple[int, int]  # the two movement ids, ascending


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Movements, valid phases, and the conflict/relation matrices.

    Immutable after construction; safe to share between threads.
    """

    n_approaches: int
    approach_names: tuple[str, ...]
    movements: tuple[Movement, ...]
    phases: tuple[Phase, ...]
    conflict: np.ndarray  # bool [M, M], symmetric, False diagonal
    relation: np.ndarray  # int [P, P], Relation values; -1 on the diagonal

    @property
    def n_movements(self) -> int:
        return len(self.movements)

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def movement_id(self, approach: int, turn: Turn) -> int:
        return approach * 2 + int(turn)

    def phase_with_members(self, members: Iterable[int]) -> int:
        """Index of the phase with exactly this member set; KeyError if absent."""
        key = tuple(sorted(members))
        for phase in self.phases:
            if phase.members == key:
                return phase.index
        raise KeyError(f"no phase with members {key}")

    def opposite_pair_phases(self) -> tuple[int, ...]:
        """Phases pairing two different approaches (the classic 4-phase set)."""
        out = []
        for phase in self.phases:
            i, j = phase.members
            if self.movements[i].approach != self.movements[j].approach:
                out.append(phase.index)
        return tuple(out)

    def restrict(self, keep: Sequence[int]) -> "PhaseTable":
        """Table with the phase list restricted to ``keep`` (re-indexed)."""
        keep = list(keep)
        if len(set(keep)) != len(keep) or not all(0 <= k < self.n_phases for k in keep):
            raise ValueError(f"invalid phase subset {keep}")
        phases = tuple(
            Phase(index=new, bits=self.phases[old].bits, members=self.phases[old].members)
            for new, old in enumerate(keep)
        )
        relation = self.relation[np.ix_(keep, keep)].copy()
        return PhaseTable(
            n_approaches=self.n_approaches,
            approach_names=self.approach_names,
            movements=self.movements,
            phases=phases,
            conflict=self.conflict,
            relation=relation,
        )

    def to_json(self, indent: int = 2) -> str:
        doc = {
            "n_approaches": self.n_approaches,
            "approaches": list(self.approach_names),
            "movements": [
                {"id": m.id, "approach": self.approach_names[m.approach], "turn": m.turn.name}
                for m in self.movements
            ],
            "phases": [
                {"index": p.index, "members": list(p.members), "bits": list(p.bits)}
                for p in self.phases
            ],
            "conflict": self.conflict.astype(int).tolist(),
            "relation": self.relation.tolist(),
        }
        return json.dumps(doc, indent=indent)


def _compatible(a1: int, t1: Turn, a2: int, t2: Turn, n_approaches: int) -> bool:
    """May two distinct movements be green together?"""
    if a1 == a2:
        return True
    # True opposites exist only on even rings.
    if n_approaches % 2 == 0 and (a1 - a2) % n_approaches == n_approaches // 2:
        return t1 == t2
    return False


def build_phase_table(n_approaches: int) -> PhaseTable:
    """Enumerate movements, conflicts, and paired-signal phases for a ring.

    Movements are ordered by approach ring position with through before left;
    phases are all compatible movement pairs in lexicographic member order.
    """
    if n_approaches not in VALID_APPROACH_COUNTS:
        raise ValueError(f"n_approaches must be one of {VALID_APPROACH_COUNTS}, got {n_approaches}")
    if n_approaches == 4:
        names = ("N", "E", "S", "W")
    else:
        names = tuple(f"R{i}" for i in range(n_approaches))

    movements = []
    for approach in range(n_approaches):
        for turn in (Turn.THROUGH, Turn.LEFT):
            mid = approach * 2 + int(turn)
            label = f"{names[approach]}-{'T' if turn == Turn.THROUGH else 'L'}"
            movements.append(Movement(id=mid, approach=approach, turn=turn, name=label))
    n_mov = len(movements)

    conflict = np.zeros((n_mov, n_mov), dtype=bool)
    for a, b in combinations(movements, 2):
        bad = not _compatible(a.approach, a.turn, b.approach, b.turn, n_approaches)
        conflict[a.id, b.id] = conflict[b.id, a.id] = bad

    phases = []
    for i, j in combinations(range(n_mov), 2):
        if not conflict[i, j]:
            bits = tuple(1 if k in (i, j) else 0 for k in range(n_mov))
            phases.append(Phase(index=len(phases), bits=bits, members=(i, j)))

    n_ph = len(phases)
    relation = np.full((n_ph, n_ph), -1, dtype=np.int64)
    for p in range(n_ph):
        for q in range(n_ph):
            if p == q:
                continue
            shared = len(set(phases[p].members) & set(phases[q].members))
            relation[p, q] = Relation.PARTIAL_COMPETING if shared == 1 else Relation.FULLY_COMPETING

    return PhaseTable(
        n_approaches=n_approaches,
        approach_names=names,
        movements=tuple(movements),
        phases=tuple(phases),
        conflict=conflict,
        relation=relation,
    )


@dataclass(frozen=True, eq=False)
class SymmetryOp:
    """One element of the dihedral group acting on an intersection.

    ``approach_perm[a]`` is the image ring position of approach ``a``;
    ``movement_perm`` and ``phase_perm`` are the induced index permutations.
    """

    name: str
    approach_perm: tuple[int, ...]
    movement_perm: np.ndarray
    phase_perm: np.ndarray

    def is_identity(self) -> bool:
        return all(i == a for a, i in enumerate(self.approach_perm))


def _op_from_approach_perm(table: PhaseTable, name: str, perm: tuple[int, ...]) -> SymmetryOp:
    movement_perm = np.empty(table.n_movements, dtype=np.int64)
    for m in table.movements:
        movement_perm[m.id] = table.movement_id(perm[m.approach], m.turn)
    phase_perm = np.empty(table.n_phases, dtype=np.int64)
    for phase in table.phases:
        image = tuple(int(movement_perm[m]) for m in phase.members)
        phase_perm[phase.index] = table.phase_with_members(image)
    return SymmetryOp(name=name, approach_perm=perm, movement_perm=movement_perm, phase_perm=phase_perm)


def symmetry_group(table: PhaseTable) -> list[SymmetryOp]:
    """All ring rotations and reflections that permute the phase set.

    For the 4-approach intersection this is the 8-element group generated by
    the quarter rotation and the E/W mirror flip; rings of size n give 2n ops.
    """
    n = table.n_approaches
    deg = 360 // n
    ops = []
    for k in range(n):
        perm = tuple((a + k) % n for a in range(n))
        name = "identity" if k == 0 else f"rot{k * deg}"
        ops.append(_op_from_approach_perm(table, name, perm))
    for k in range(n):
        perm = tuple((k - a) % n for a in range(n))
        name = "flip" if k == 0 else f"flip_rot{k * deg}"
        ops.append(_op_from_approach_perm(table, name, perm))
    return ops


def compose(g: SymmetryOp, h: SymmetryOp, table: PhaseTable) -> SymmetryOp:
    """The group element acting as g after h."""
    perm = tuple(g.approach_perm[h.approach_perm[a]] for a in range(table.n_approaches))
    for op in symmetry_group(table):
        if op.approach_perm == perm:
            return op
    raise ValueError("composition left the group; table and ops disagree")


def inverse(g: SymmetryOp, table: PhaseTable) -> SymmetryOp:
    inv = tuple(int(np.argwhere(np.array(g.approach_perm) == a)[0, 0]) for a in range(table.n_approaches))
    for op in symmetry_group(table):
        if op.approach_perm == inv:
            return op
    raise ValueError("inverse left the group; table and ops disagree")


def find_op(table: PhaseTable, name: str) -> SymmetryOp:
    for op in symmetry_group(table):
        if op.name == name:
            return op
    names = [op.name for op in symmetry_group(table)]
    raise KeyError(f"unknown symmetry op {name!r}; valid: {names}")


def apply_symmetry(op: SymmetryOp, state: TrafficState) -> TrafficState:
    """Relabel a state through a symmetry op.

    Output counts/bits at movement ``movement_perm[i]`` equal the inputs at
    ``i``; the active phase index is mapped through ``phase_perm``.
    """
    if state.n_movements != op.movement_perm.shape[0]:
        raise ValueError(
            f"state has {state.n_movements} movements, op expects {op.movement_perm.shape[0]}"
        )
    counts = np.empty_like(state.counts)
    bits = np.empty_like(state.signal_bits)
    counts[op.movement_perm] = state.counts
    bits[op.movement_perm] = state.signal_bits
    phase = int(op.phase_perm[state.phase_index])
    return TrafficState(counts=counts, signal_bits=bits, phase_index=phase)
