"""The seven functionality-preserving optimization passes.

Passes never mutate their input. Each structural pass (rewrite, refactor,
resub) runs on a mutable working copy with fanout reference counts; a
replacement is committed only when the exact live-node delta meets the gain
rule, so node count never increases. Balance rebuilds maximal AND trees and
never increases depth. Every pass falls back to returning its input
unchanged if the objective guard would be violated.
"""

from __future__ import annotations

import enum
import heapq
import random
from dataclasses import dataclass
from functools import lru_cache

from .aig import (
    KIND_AND,
    KIND_CONST,
    KIND_PI,
    Aig,
    AigBuilder,
    AigStats,
    stats,
)
from .isop import Expr, factor, isop, tt_ones, var_mask

N_ACTIONS = 7
DEFAULT_RECIPE_LEN = 10

_SIM_SEED = 0x51AB17  # fixed seed: resub signatures are bit-reproducible
_SIG_BITS = 64
_SIG_MASK = (1 << _SIG_BITS) - 1

_CUT_SIZE = 4
_CUTS_PER_NODE = 8
_REFACTOR_MAX_LEAVES = 10
_RESUB_WINDOW_DEPTH = 8
_RESUB_LEAF_CAP = 12
_RESUB_DIVISOR_CAP = 24


class Action(enum.IntEnum):
    """The action space: stable 0..6 encoding for policy-head indexing."""

    BALANCE = 0
    REWRITE = 1
    REWRITE_Z = 2
    REFACTOR = 3
    REFACTOR_Z = 4
    RESUB = 5
    RESUB_Z = 6

    @property
    def code(self) -> str:
        return _ACTION_CODES[self]

    @classmethod
    def from_code(cls, code: str) -> "Action":
        try:
            return _CODE_ACTIONS[code.strip()]
        except KeyError:
            raise ValueError(f"unknown action code {code!r}") from None


_ACTION_CODES = {
    Action.BALANCE: "b",
    Action.REWRITE: "rw",
    Action.REWRITE_Z: "rwz",
    Action.REFACTOR: "rf",
    Action.REFACTOR_Z: "rfz",
    Action.RESUB: "rs",
    Action.RESUB_Z: "rsz",
}
_CODE_ACTIONS = {code: action for action, code in _ACTION_CODES.items()}


@dataclass(frozen=True)
class Recipe:
    """An ordered sequence of passes; never longer than the configured cap."""

    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(Action(a) for a in self.actions))

    @classmethod
    def parse(cls, text: str) -> "Recipe":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(Action.from_code(tok) for tok in text.replace(";", ",").split(",")))

    def __str__(self) -> str:
        return ",".join(a.code for a in self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)


RESYN2 = Recipe.parse("b,rw,rf,b,rw,rwz,b,rfz,rwz,b")


# ---------------------------------------------------------------------------
# Mutable working network with exact live-node accounting
# ---------------------------------------------------------------------------

class _Net:
    """Reference-counted AND graph used inside a structural pass.

    A node is live iff its reference count is positive; a dead node holds no
    references to its fanins. ``n_live`` therefore tracks exactly how many
    AND nodes the final rebuilt graph can contain (stale hash entries may
    overcount, never undercount, so gain tests stay conservative).
    """

    def __init__(self, aig: Aig):
        n = aig.n_nodes
        self.n_inputs = aig.n_inputs
        self.kind = [KIND_CONST] + [KIND_PI] * aig.n_inputs + [KIND_AND] * len(aig.ands)
        self.f0 = [0] * n
        self.f1 = [0] * n
        self.ref = [0] * n
        self.level = list(aig.levels)
        self.sig: list[int] | None = None
        self.repl: dict[int, int] = {}
        self.strash: dict[tuple[int, int], int] = {}
        self.outputs = list(aig.outputs)
        base = aig.first_and()
        for k, (a, b) in enumerate(aig.ands):
            v = base + k
            self.f0[v] = a
            self.f1[v] = b
            self.strash[(a, b)] = 2 * v
            self.ref[a >> 1] += 1
            self.ref[b >> 1] += 1
        for o in self.outputs:
            self.ref[o >> 1] += 1
        self.n_live = sum(1 for v in range(base, n) if self.ref[v] > 0)
        self.first_and = base
        self.orig_nodes = n

    # -- resolution ---------------------------------------------------------

    def resolve(self, lit: int) -> int:
        v = lit >> 1
        r = self.repl.get(v)
        if r is None:
            return lit
        while True:
            nxt = self.repl.get(r >> 1)
            if nxt is None:
                break
            r = nxt ^ (r & 1)
        self.repl[v] = r
        return r ^ (lit & 1)

    # -- journaled reference counting ----------------------------------------

    def _inc(self, v: int, journal: list) -> None:
        stack = [v]
        while stack:
            u = stack.pop()
            r = self.ref[u]
            self.ref[u] = r + 1
            journal.append(("i", u))
            if r == 0 and self.kind[u] == KIND_AND:
                self.n_live += 1
                stack.append(self.f0[u] >> 1)
                stack.append(self.f1[u] >> 1)

    def _dec(self, v: int, journal: list, freed: list | None = None) -> None:
        stack = [v]
        while stack:
            u = stack.pop()
            r = self.ref[u] - 1
            self.ref[u] = r
            journal.append(("d", u))
            if r == 0 and self.kind[u] == KIND_AND:
                self.n_live -= 1
                if freed is not None:
                    freed.append(u)
                stack.append(self.f0[u] >> 1)
                stack.append(self.f1[u] >> 1)

    def _undo(self, journal: list) -> None:
        for entry in reversed(journal):
            tag, payload = entry
            if tag == "i":
                r = self.ref[payload] - 1
                self.ref[payload] = r
                if r == 0 and self.kind[payload] == KIND_AND:
                    self.n_live -= 1
            elif tag == "d":
                r = self.ref[payload]
                self.ref[payload] = r + 1
                if r == 0 and self.kind[payload] == KIND_AND:
                    self.n_live += 1
            elif tag == "n":
                del self.strash[payload]
                self.kind.pop()
                self.f0.pop()
                self.f1.pop()
                self.ref.pop()
                self.level.pop()
                if self.sig is not None:
                    self.sig.pop()
            else:  # "s": restore a deleted strash entry
                key, lit = payload
                self.strash[key] = lit

    # -- candidate construction ----------------------------------------------

    def _and(self, a: int, b: int, journal: list) -> int:
        if a > b:
            a, b = b, a
        if a == 0:
            return 0
        if a == 1:
            return b
        if a == b:
            return a
        if a == (b ^ 1):
            return 0
        key = (a, b)
        hit = self.strash.get(key)
        if hit is not None:
            return hit
        v = len(self.kind)
        self.kind.append(KIND_AND)
        self.f0.append(a)
        self.f1.append(b)
        self.ref.append(0)
        self.level.append(1 + max(self.level[a >> 1], self.level[b >> 1]))
        if self.sig is not None:
            sa = self.sig[a >> 1] ^ (_SIG_MASK if a & 1 else 0)
            sb = self.sig[b >> 1] ^ (_SIG_MASK if b & 1 else 0)
            self.sig.append(sa & sb)
        self.strash[key] = 2 * v
        journal.append(("n", key))
        return 2 * v

    def _build(self, expr: Expr, leaves: list[int], journal: list) -> int:
        tag = expr[0]
        if tag == "const":
            return 1 if expr[1] else 0
        if tag == "var":
            return leaves[expr[1]] ^ (1 if expr[2] else 0)
        left = self._build(expr[1], leaves, journal)
        right = self._build(expr[2], leaves, journal)
        if tag == "and":
            return self._and(left, right, journal)
        return self._and(left ^ 1, right ^ 1, journal) ^ 1

    def try_replace(self, v: int, expr: Expr, leaves: list[int], min_gain: int,
                    root_compl: bool = False, commit: bool = True) -> int | None:
        """Attempts to replace node ``v`` by ``expr`` over ``leaves``.

        Returns the exact live-node gain when it is at least ``min_gain``
        (committing unless ``commit`` is false); otherwise rolls back every
        side effect and returns None.
        """
        journal: list = []
        live_before = self.n_live
        key = (self.f0[v], self.f1[v])
        if self.strash.get(key) == 2 * v:
            del self.strash[key]
            journal.append(("s", (key, 2 * v)))
        ext = self.ref[v]
        for _ in range(ext):
            self._dec(v, journal)
        root = self._build(expr, leaves, journal)
        if root_compl:
            root ^= 1
        if root >> 1 == v:
            self._undo(journal)
            return None
        for _ in range(ext):
            self._inc(root >> 1, journal)
        gain = live_before - self.n_live
        if gain >= min_gain and commit:
            self.repl[v] = root
            return gain
        self._undo(journal)
        return gain if gain >= min_gain else None

    def mffc(self, v: int) -> set[int]:
        """AND nodes freed if ``v`` were deleted (including ``v``)."""
        journal: list = []
        freed: list[int] = []
        for _ in range(self.ref[v]):
            self._dec(v, journal, freed)
        self._undo(journal)
        return set(freed)

    def init_sigs(self, seed: int = _SIM_SEED) -> None:
        rng = random.Random(seed)
        sig = [0] * len(self.kind)
        for i in range(self.n_inputs):
            sig[1 + i] = rng.getrandbits(_SIG_BITS)
        for v in range(self.first_and, len(self.kind)):
            a, b = self.f0[v], self.f1[v]
            sa = sig[a >> 1] ^ (_SIG_MASK if a & 1 else 0)
            sb = sig[b >> 1] ^ (_SIG_MASK if b & 1 else 0)
            sig[v] = sa & sb
        self.sig = sig

    # -- final rebuild --------------------------------------------------------

    def to_aig(self, name: str) -> Aig:
        builder = AigBuilder(self.n_inputs, name)
        memo: dict[int, int] = {0: 0}
        for i in range(self.n_inputs):
            memo[1 + i] = builder.pi(i)

        expanding: dict[int, bool] = {}

        def emit(target: int) -> None:
            stack = [target]
            while stack:
                u = stack[-1]
                if u in memo:
                    stack.pop()
                    continue
                a = self.resolve(self.f0[u])
                b = self.resolve(self.f1[u])
                need = [w >> 1 for w in (a, b) if (w >> 1) not in memo]
                if not need:
                    memo[u] = builder.and_(memo[a >> 1] ^ (a & 1),
                                           memo[b >> 1] ^ (b & 1))
                    expanding.pop(u, None)
                    stack.pop()
                    continue
                if expanding.get(u):  # children still unresolved on revisit
                    raise RuntimeError("cyclic replacement detected")
                expanding[u] = True
                stack.extend(need)

        out_lits = []
        for o in self.outputs:
            r = self.resolve(o)
            emit(r >> 1)
            out_lits.append(memo[r >> 1] ^ (r & 1))
        return builder.finish(out_lits)


# ---------------------------------------------------------------------------
# Balance
# ---------------------------------------------------------------------------

def balance(aig: Aig) -> Aig:
    """Rebuilds maximal AND trees as depth-balanced trees.

    Tree collection stops at complemented edges and multi-fanout nodes;
    operands are combined cheapest-level-first, so the depth of each rebuilt
    root never exceeds its original level.
    """
    if not aig.ands:
        return aig
    builder = AigBuilder(aig.n_inputs, aig.name)
    fanouts = aig.fanout_counts
    memo: dict[int, int] = {0: 0}
    for i in range(aig.n_inputs):
        memo[1 + i] = builder.pi(i)
    new_level: dict[int, int] = {}

    def level_of(lit: int) -> int:
        return new_level.get(lit >> 1, 0)

    def build_and(a: int, b: int) -> int:
        out = builder.and_(a, b)
        v = out >> 1
        if v not in new_level and v > aig.n_inputs:
            new_level[v] = 1 + max(level_of(a), level_of(b))
        return out

    first_and = aig.first_and()
    # Tree roots: referenced by an output, through a complemented edge, or
    # by more than one fanout. Everything else is interior to some tree.
    is_root = [False] * aig.n_nodes
    for f0, f1 in aig.ands:
        for f in (f0, f1):
            w = f >> 1
            if w >= first_and and ((f & 1) or fanouts[w] > 1):
                is_root[w] = True
    for o in aig.outputs:
        if (o >> 1) >= first_and:
            is_root[o >> 1] = True
    for v in range(first_and, aig.n_nodes):
        if not is_root[v]:
            continue
        # Collect the maximal single-fanout, non-complemented AND tree.
        leaves: list[int] = []
        stack = [2 * v]
        interior: set[int] = set()
        while stack:
            lit = stack.pop()
            w = lit >> 1
            if (lit & 1) == 0 and w >= first_and and (w == v or fanouts[w] == 1):
                interior.add(w)
                a, b = aig.fanins(w)
                stack.append(b)
                stack.append(a)
            else:
                leaves.append(lit)
        seen: set[int] = set()
        uniq: list[int] = []
        const0 = False
        for lit in leaves:
            if lit in seen:
                continue  # x & x = x
            if (lit ^ 1) in seen:
                const0 = True  # x & !x = 0
                break
            seen.add(lit)
            uniq.append(lit)
        if const0:
            memo[v] = 0
            continue
        mapped = [memo[l >> 1] ^ (l & 1) for l in uniq]
        heap = [(level_of(m), i, m) for i, m in enumerate(mapped)]
        heapq.heapify(heap)
        seq = len(heap)
        while len(heap) > 1:
            _, _, x = heapq.heappop(heap)
            _, _, y = heapq.heappop(heap)
            z = build_and(x, y)
            heapq.heappush(heap, (level_of(z), seq, z))
            seq += 1
        memo[v] = heap[0][2]

    out_lits = [memo[o >> 1] ^ (o & 1) for o in aig.outputs]
    result = builder.finish(out_lits)
    return result if result.depth <= aig.depth else aig


# ---------------------------------------------------------------------------
# Cut enumeration with truth tables (priority cuts, 4 leaves, 8 per node)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 17)
def _tt_expand(tt: int, frm: tuple[int, ...], to: tuple[int, ...]) -> int:
    if frm == to:
        return tt
    pos = [to.index(v) for v in frm]
    out = 0
    for m in range(1 << len(to)):
        idx = 0
        for j, p in enumerate(pos):
            if m >> p & 1:
                idx |= 1 << j
        if tt >> idx & 1:
            out |= 1 << m
    return out


@lru_cache(maxsize=1 << 16)
def _resynth(tt: int, n_vars: int) -> Expr:
    """Factored irredundant cover of a cut/cone function (memoized: cut
    functions repeat heavily across nodes and circuits)."""
    return factor(isop(tt, 0, n_vars))


def _enumerate_cuts(aig: Aig, cut_size: int = _CUT_SIZE,
                    per_node: int = _CUTS_PER_NODE):
    """Returns, per node, a list of (leaf-var tuple, truth table) cuts.

    The unit cut comes first; the remaining slots hold the smallest merged
    cuts in deterministic order.
    """
    cuts: list[list[tuple[tuple[int, ...], int]]] = [[((), 0)]]
    for v in range(1, 1 + aig.n_inputs):
        cuts.append([((v,), 0b10)])
    first_and = aig.first_and()
    for k, (l0, l1) in enumerate(aig.ands):
        v = first_and + k
        cand: dict[tuple[int, ...], int] = {}
        for lv0, t0 in cuts[l0 >> 1]:
            if l0 & 1:
                t0 ^= (1 << (1 << len(lv0))) - 1
            for lv1, t1 in cuts[l1 >> 1]:
                if l1 & 1:
                    t1 ^= (1 << (1 << len(lv1))) - 1
                merged = tuple(sorted(set(lv0) | set(lv1)))
                if len(merged) > cut_size or merged in cand:
                    continue
                cand[merged] = (_tt_expand(t0, lv0, merged)
                                & _tt_expand(t1, lv1, merged))
        ordered = sorted(cand.items(), key=lambda item: (len(item[0]), item[0]))
        cuts.append([((v,), 0b10)] + ordered[:per_node - 1])
    return cuts


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------

def rewrite(aig: Aig, zero_cost: bool = False) -> Aig:
    """Cut-based resynthesis: replaces 4-feasible cut functions by their
    factored irredundant covers when that frees at least one node (at least
    zero with ``zero_cost``)."""
    if not aig.ands:
        return aig
    net = _Net(aig)
    cuts = _enumerate_cuts(aig)
    min_gain = 0 if zero_cost else 1
    for v in range(aig.first_and(), aig.n_nodes):
        if net.ref[v] == 0 or v in net.repl:
            continue
        best_gain = None
        best_cut = None
        for leaves, tt in cuts[v][1:]:
            expr = _resynth(tt, len(leaves))
            lits = [net.resolve(2 * w) for w in leaves]
            gain = net.try_replace(v, expr, lits, min_gain, commit=False)
            if gain is not None and (best_gain is None or gain > best_gain):
                best_gain = gain
                best_cut = (expr, lits)
        if best_cut is not None:
            net.try_replace(v, best_cut[0], best_cut[1], min_gain)
    result = net.to_aig(aig.name)
    return result if len(result.ands) <= len(aig.ands) else aig


# ---------------------------------------------------------------------------
# Refactor
# ---------------------------------------------------------------------------

def _cone_tt(net: _Net, root: int, leaf_index: dict[int, int], n_vars: int,
             budget: int = 256, forbidden: int = -1) -> int | None:
    """Truth table of node ``root`` over the leaf variables, computed on the
    resolved current structure. Returns None if the cone escapes the leaf
    boundary, exceeds the node budget, or touches ``forbidden`` (used to
    reject divisors whose cone contains the node being replaced, which would
    create a cycle)."""
    ones = tt_ones(n_vars)
    memo: dict[int, int] = {0: 0}
    for w, j in leaf_index.items():
        memo[w] = var_mask(j, n_vars)
    stack = [root]
    expanded = 0
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        if u == forbidden:
            return None
        if net.kind[u] != KIND_AND:
            return None  # reached a primary input outside the leaf set
        a = net.resolve(net.f0[u])
        b = net.resolve(net.f1[u])
        need = [w >> 1 for w in (a, b) if (w >> 1) not in memo]
        if need:
            expanded += 1
            if expanded > budget:
                return None
            stack.extend(need)
            continue
        ta = memo[a >> 1] ^ (ones if a & 1 else 0)
        tb = memo[b >> 1] ^ (ones if b & 1 else 0)
        memo[u] = ta & tb & ones
        stack.pop()
    return memo[root]


def refactor(aig: Aig, zero_cost: bool = False) -> Aig:
    """Collapses each maximum fanout-free cone (up to 10 leaves) to a truth
    table and resynthesizes it through ISOP factoring under the usual gain
    rule."""
    if not aig.ands:
        return aig
    net = _Net(aig)
    min_gain = 0 if zero_cost else 1
    for v in range(aig.first_and(), aig.n_nodes):
        if net.ref[v] == 0 or v in net.repl:
            continue
        mffc = net.mffc(v)
        cone = set()
        leaves: list[int] = []
        queue = [v]
        while queue:
            u = queue.pop()
            if u in cone:
                continue
            cone.add(u)
            for f in (net.f0[u], net.f1[u]):
                w = net.resolve(f) >> 1
                if w in cone:
                    continue
                if w in mffc and net.kind[w] == KIND_AND:
                    queue.append(w)
                elif w not in leaves:
                    leaves.append(w)
        leaves = sorted(set(leaves) - {0})
        if not 2 <= len(leaves) <= _REFACTOR_MAX_LEAVES:
            continue
        if len(cone) < 2 and not zero_cost:
            continue  # single-node cone cannot shrink
        leaf_index = {w: j for j, w in enumerate(leaves)}
        tt = _cone_tt(net, v, leaf_index, len(leaves))
        if tt is None:
            continue
        expr = _resynth(tt, len(leaves))
        net.try_replace(v, expr, [2 * w for w in leaves], min_gain)
    result = net.to_aig(aig.name)
    return result if len(result.ands) <= len(aig.ands) else aig


# ---------------------------------------------------------------------------
# Resubstitution
# ---------------------------------------------------------------------------

def _resub_window(net: _Net, v: int):
    """Level-bounded fanin window of ``v``: (interior vars, leaf vars).

    Shrinks the depth bound until the leaf count fits the truth-table cap.
    """
    for depth in range(_RESUB_WINDOW_DEPTH, 0, -1):
        cutoff = net.level[v] - depth
        interior: list[int] = []
        leaves: list[int] = []
        seen = {v}
        stack = [v]
        ok = True
        while stack:
            u = stack.pop()
            for f in (net.f0[u], net.f1[u]):
                w = net.resolve(f) >> 1
                if w in seen:
                    continue
                seen.add(w)
                if net.kind[w] == KIND_AND and net.level[w] > cutoff:
                    interior.append(w)
                    stack.append(w)
                elif w != 0:
                    leaves.append(w)
                    if len(leaves) > _RESUB_LEAF_CAP:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            return sorted(interior), sorted(leaves)
    return [], []


_RESUB_SIDE_CAP = 32


def _side_divisors(net: _Net, v: int, interior: list[int], leaves: list[int],
                   mffc: set[int], fanout_lists: list[list[int]]) -> list[int]:
    """Original-graph nodes outside the fanin window whose support lies
    within the window leaves (bottom-up closure over snapshot fanouts)."""
    n0 = net.orig_nodes
    in_window = set(leaves) | set(interior) | {0}
    admitted: list[int] = []
    frontier = list(leaves) + list(interior)
    fi = 0
    while fi < len(frontier) and len(admitted) < _RESUB_SIDE_CAP:
        s = frontier[fi]
        fi += 1
        if s >= n0:
            continue
        for u in fanout_lists[s]:
            if u == v or u in in_window or u in mffc:
                continue
            if net.level[u] > net.level[v]:
                continue
            if (net.f0[u] >> 1) in in_window and (net.f1[u] >> 1) in in_window:
                in_window.add(u)
                admitted.append(u)
                frontier.append(u)
    return admitted


def resub(aig: Aig, zero_cost: bool = False) -> Aig:
    """Windowed resubstitution: re-expresses a node as a (possibly
    complemented) single divisor or AND/OR of two divisors from its window,
    filtered by simulation signatures and confirmed on window truth tables."""
    if not aig.ands:
        return aig
    net = _Net(aig)
    net.init_sigs()
    min_gain = 0 if zero_cost else 1
    first_and = aig.first_and()
    fanout_lists: list[list[int]] = [[] for _ in range(aig.n_nodes)]
    for k, (f0, f1) in enumerate(aig.ands):
        fanout_lists[f0 >> 1].append(first_and + k)
        fanout_lists[f1 >> 1].append(first_and + k)
    for v in range(first_and, aig.n_nodes):
        if net.ref[v] == 0 or v in net.repl:
            continue
        interior, leaves = _resub_window(net, v)
        if not leaves:
            continue
        mffc = net.mffc(v)
        side = _side_divisors(net, v, interior, leaves, mffc, fanout_lists)
        seen_lits: set[int] = set()
        divisor_lits: list[int] = []
        for d in interior + leaves + side:
            if d == v or d in mffc:
                continue
            r = net.resolve(2 * d)
            if (r >> 1) in (0, v) or r in seen_lits or (r ^ 1) in seen_lits:
                continue
            seen_lits.add(r)
            divisor_lits.append(r)
        divisor_lits.sort(key=lambda lit: (-net.level[lit >> 1], lit))
        divisor_lits = divisor_lits[:_RESUB_DIVISOR_CAP]
        if not divisor_lits:
            continue
        n_vars = len(leaves)
        leaf_index = {w: j for j, w in enumerate(leaves)}
        ones = tt_ones(n_vars)
        tt_cache: dict[int, int | None] = {}
        tt_v: int | None = None
        tt_v_failed = False

        def target_tt() -> int | None:
            # computed lazily: most nodes never see a signature hit
            nonlocal tt_v, tt_v_failed
            if tt_v is None and not tt_v_failed:
                tt_v = _cone_tt(net, v, leaf_index, n_vars)
                tt_v_failed = tt_v is None
            return tt_v

        def tt_of(lit: int) -> int | None:
            # forbidden=v rejects divisors whose resolved cone contains v
            var = lit >> 1
            if var not in tt_cache:
                tt_cache[var] = _cone_tt(net, var, leaf_index, n_vars,
                                         forbidden=v)
            tt = tt_cache[var]
            if tt is None:
                return None
            return (tt ^ ones) if lit & 1 else tt

        target = net.sig[v]
        target_n = target ^ _SIG_MASK
        sigs = [net.sig[r >> 1] ^ (_SIG_MASK if r & 1 else 0)
                for r in divisor_lits]
        done = False
        for r, sig_r in zip(divisor_lits, sigs):
            cand = r if sig_r == target else (r ^ 1) if sig_r == target_n else None
            if cand is None:
                continue
            tt_t = target_tt()
            tt_c = tt_of(cand)
            if tt_t is None or tt_c is None or tt_c != tt_t:
                continue
            if net.try_replace(v, ("var", 0, bool(cand & 1)),
                               [cand & ~1], min_gain) is not None:
                done = True
                break
        if done:
            continue
        n_div = len(divisor_lits)
        for i1 in range(n_div):
            if done:
                break
            s1 = sigs[i1]
            s1n = s1 ^ _SIG_MASK
            for i2 in range(i1 + 1, n_div):
                if done:
                    break
                s2 = sigs[i2]
                s2n = s2 ^ _SIG_MASK
                for conj, c1, c2 in ((s1 & s2, 0, 0), (s1 & s2n, 0, 1),
                                     (s1n & s2, 1, 0), (s1n & s2n, 1, 1)):
                    if conj == target:
                        out = 0
                    elif conj == target_n:
                        out = 1
                    else:
                        continue
                    r1, r2 = divisor_lits[i1], divisor_lits[i2]
                    tt_t = target_tt()
                    t1, t2 = tt_of(r1 ^ c1), tt_of(r2 ^ c2)
                    if tt_t is None or t1 is None or t2 is None:
                        continue
                    if ((t1 & t2) ^ (ones if out else 0)) & ones != tt_t:
                        continue
                    expr = ("and", ("var", 0, False), ("var", 1, False))
                    if net.try_replace(v, expr, [r1 ^ c1, r2 ^ c2],
                                       min_gain, root_compl=bool(out)) is not None:
                        done = True
                        break
    result = net.to_aig(aig.name)
    return result if len(result.ands) <= len(aig.ands) else aig


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

def apply(aig: Aig, action: Action) -> Aig:
    """Applies one pass; the result is functionally equivalent to the input
    and the input is never mutated."""
    action = Action(action)
    if action == Action.BALANCE:
        return balance(aig)
    if action == Action.REWRITE:
        return rewrite(aig, zero_cost=False)
    if action == Action.REWRITE_Z:
        return rewrite(aig, zero_cost=True)
    if action == Action.REFACTOR:
        return refactor(aig, zero_cost=False)
    if action == Action.REFACTOR_Z:
        return refactor(aig, zero_cost=True)
    if action == Action.RESUB:
        return resub(aig, zero_cost=False)
    return resub(aig, zero_cost=True)


def apply_recipe(aig: Aig, recipe: Recipe,
                 max_len: int = DEFAULT_RECIPE_LEN) -> tuple[Aig, list[AigStats]]:
    """Applies a recipe sequentially, returning the final graph and the
    per-step statistics trace."""
    if len(recipe) > max_len:
        raise ValueError(f"recipe length {len(recipe)} exceeds cap {max_len}")
    current = aig
    trace: list[AigStats] = []
    for action in recipe:
        current = apply(current, action)
        trace.append(stats(current))
    return current, trace
