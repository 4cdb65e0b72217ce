"""The seven functionality-preserving optimization passes.

Passes never mutate their input. Each structural pass (rewrite, refactor,
resub) runs on a mutable working copy with fanout reference counts. A trial
replacement counts its gain, the ANDs it frees less the ANDs its candidate
revives or adds, in an overlay of counts and ANDs; only a commit, made when the
gain meets the gain rule, writes them. Balance rebuilds maximal AND trees and
never increases depth. Every pass falls back to returning its input
unchanged if the objective guard would be violated. ``apply`` is the one
place that reuses pass results: it memoizes them by circuit structure in a
least-recently-used memo bounded by the ANDs it holds, which always keeps
its hundred newest entries.

``_sweep`` owns the working net: for each AND ``v`` it walks the deletion
once (``_Net._deref``), may skip the visit, asks the pass's visit for a trial
and commits it; a visit only scores. A trial that gains every AND the
deletion frees adds and revives none, so its root is an existing live node,
an input or the constant that computes ``v``'s function up to complement,
and has ``v``'s 64-bit simulation signature up to complement. So no trial
gains more than the visit's *ceiling*: the freed count when another node has
that signature (``_Net.twinned``), else one less. The sweep skips a visit
whose ceiling is below the minimum gain, and rewrite stops trying cuts once
the gain it needs is above the ceiling; neither changes an output byte.

``rfz`` is ``_rebuild``, the working copy rebuilt with no visit, which is
what the zero-cost refactor sweep writes: by induction over the sweep's
order, every AND below ``v`` has been replaced by an identity copy when the
sweep reaches ``v``, so the visit frees only ``v``, whose two-leaf cone
resynthesizes to an identity copy again. The rebuild
(``AigBuilder.add_cones``) mirrors node order, so ``rfz`` changes the bytes
but not the logic.

``apply`` runs each pass with the cyclic garbage collector paused. A pass
allocates millions of short-lived objects that all die by reference count,
since no pass code makes a reference cycle, and their allocations would
otherwise start collections that find nothing to free.
"""

from __future__ import annotations

import enum
import gc
import heapq
import random
from collections import Counter, OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain

from .aig import Aig, AigBuilder, _node_words
from .isop import Expr, factor, isop, tt_ones, var_mask

N_ACTIONS = 7
DEFAULT_RECIPE_LEN = 10

_CUT_SIZE = 4
_CUTS_PER_NODE = 8
_REFACTOR_MAX_LEAVES = 10
_CONE_BUDGET = 256  # most nodes one cone truth-table walk may expand
_RESUB_WINDOW_DEPTH = 8
_RESUB_LEAF_CAP = 12
_RESUB_DIVISOR_CAP = 24
_SIG_ONES = (1 << 64) - 1  # the all-ones 64-bit simulation signature


_CODES = ("b", "rw", "rwz", "rf", "rfz", "rs", "rsz")  # indexed by Action


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
        return _CODES[self]

    @classmethod
    def from_code(cls, code: str) -> "Action":
        try:
            return cls(_CODES.index(code.strip()))
        except ValueError:
            raise ValueError(f"unknown action code {code!r}") from None


@dataclass(frozen=True)
class Recipe:
    """An ordered sequence of passes, of any length; ``apply_recipe``
    rejects one longer than its cap."""

    actions: tuple[Action, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(Action(a) for a in self.actions))

    @classmethod
    def parse(cls, text: str) -> "Recipe":
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(Action.from_code(tok) for tok in text.split(",")))

    def __str__(self) -> str:
        return ",".join(a.code for a in self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)


RESYN2 = Recipe.parse("b,rw,rf,b,rw,rwz,b,rfz,rwz,b")


# ---------------------------------------------------------------------------
# Mutable working network with reference-counted gains
# ---------------------------------------------------------------------------

class _Net:
    """Reference-counted AND graph used inside a structural pass. A trial
    runs a candidate's compiled program (``_compile``) and only counts: its
    nodes live in a dict and the counts it raises in an overlay over the
    visit's ``_deref`` counts, merged into one dict only for a trial it
    returns. Only ``commit(v, ...)``, which ``_sweep`` makes after ``v``'s
    visit, writes the net: it appends the trial's ANDs, writes its counts
    into ``ref`` and sets ``repl[v]``.

    ``sig`` holds each node's 64-bit simulation signature and ``twins`` the
    number of nodes per signature up to complement, for the ceiling of the
    module docstring.

    ``ref`` counts the references from the outputs and from the unresolved
    fanins of nodes with a positive count. A replaced node keeps its old
    fanouts' references, so its count goes negative as they die and a dead
    fanout revived through it makes it live again: the ANDs with a positive
    count bound the rebuilt graph from above, they do not equal it.
    """

    def __init__(self, aig: Aig):
        pad = [0] * aig.first_and()
        self.n_inputs = aig.n_inputs
        self.f0 = pad + [a for a, _ in aig.ands]
        self.f1 = pad + [b for _, b in aig.ands]
        self.ref = list(aig.fanout_counts)
        self.level = list(aig.levels)
        self.repl: dict[int, int] = {}
        self.strash: dict[tuple[int, int], int] = {
            ab: 2 * v for v, ab in enumerate(aig.ands, aig.first_and())}
        self.outputs = list(aig.outputs)
        self.aig = aig
        # Built by the first ``twinned`` call: sig[u] is node u's word under
        # 64 seeded random input vectors.
        self.sig: list[int] | None = None
        self.twins: Counter[int] | None = None

    # -- resolution ---------------------------------------------------------

    def resolve(self, lit: int) -> int:
        """``lit`` through the replacements, which it only reads."""
        r = self.repl.get(lit >> 1)
        while r is not None:
            lit = r ^ (lit & 1)
            r = self.repl.get(lit >> 1)
        return lit

    # -- simulation signatures ------------------------------------------------

    def twinned(self, v: int) -> bool:
        """Whether another node has ``v``'s signature up to complement, as
        every node computing ``v``'s function or its complement does. The
        first call simulates the input graph, and from then on ``commit``
        signs each node it appends."""
        if self.sig is None:
            rng = random.Random(0)
            self.sig = _node_words(self.aig, [
                rng.getrandbits(64) for _ in range(self.n_inputs)], 64)
            self.twins = Counter(s ^ _SIG_ONES if s & 1 else s
                                 for s in self.sig)
        s = self.sig[v]
        return self.twins[s ^ _SIG_ONES if s & 1 else s] > 1

    # -- trial replacement ----------------------------------------------------

    def _deref(self, v: int) -> tuple[dict[int, int], list[int]]:
        """Counts of deleting ``v``, without changing ``ref``: ``counts``
        maps each node whose count would change to its new count, and
        ``freed`` lists the ANDs that would drop to zero (``v``'s MFFC).
        ``_sweep`` walks this once per node, and the node's visit passes it
        to each of its trials."""
        ref, f0, f1 = self.ref, self.f0, self.f1
        counts: dict[int, int] = {}
        freed: list[int] = []
        stack = [v] * ref[v]
        while stack:
            u = stack.pop()
            r = counts.get(u, ref[u]) - 1
            counts[u] = r
            if r == 0 and u > self.n_inputs:
                freed.append(u)
                stack.append(f0[u] >> 1)
                stack.append(f1[u] >> 1)
        return counts, freed

    def trial(self, v: int, deref: tuple[dict[int, int], list[int]],
              prog: tuple, leaves: list[int], min_gain: int):
        """Scores replacing node ``v`` by the ``_compile``d program ``prog``
        over ``leaves``, changing neither the net nor ``deref`` (``_deref(v)``
        under the current counts).

        Each step ANDs two operands after folding the trivial cases: a
        constant, equal or complementary literals. It reuses an AND the
        candidate added or the net holds, except ``v`` itself, which counts
        as absent. The gain is the ANDs freed by deleting ``v`` less the ANDs
        that the new root's references bring to a positive count; the counts
        it raises sit in an overlay over ``deref``'s. Returns None when the
        root is ``v`` or the gain is below ``min_gain``, else ``(gain, root,
        new, counts)``: ``new`` maps the fanin pair of each node the
        candidate adds to its literal, numbered on from ``len(f0)`` in
        creation order, and ``counts`` gives each changed count."""
        counts, freed = deref
        gain = len(freed)
        if gain < min_gain:
            return None
        steps, root_at, root_neg = prog
        strash, f0, f1 = self.strash, self.f0, self.f1
        n = len(f0)
        own = 2 * v
        new: dict[tuple[int, int], int] = {}
        vals = [0, *leaves]
        zeroed = False  # whether a fold to 0 may have cut off an added node
        for i, neg_i, j, neg_j, neg_out in steps:
            a = vals[i] ^ neg_i
            b = vals[j] ^ neg_j
            if a > b:
                a, b = b, a
            if a == 1:
                lit = b
            elif a == 0 or a ^ b == 1:  # 0 & b, x & !x
                lit = 0
                zeroed = True
            elif a == b:
                lit = a
            else:
                key = (a, b)
                lit = strash.get(key)
                if lit is None or lit == own:
                    lit = new.get(key)
                    if lit is None:
                        lit = new[key] = 2 * (n + len(new))
            vals.append(lit ^ neg_out)
        root = vals[root_at] ^ root_neg
        if root >> 1 == v:
            return None
        if gain - len(new) < min_gain and not zeroed:
            return None  # every added node lies under the root and costs one
        if len(new) == 1 and root >> 1 == n and (f0[v], f1[v]) in new \
                and min_gain > 0:
            return None  # a copy of v: its walk undoes _deref's, a gain of 0
        ref = self.ref
        n_inputs = self.n_inputs
        added = list(new)
        raised: dict[int, int] = {}
        stack = [root >> 1] * ref[v]
        while stack:
            u = stack.pop()
            r = raised.get(u)
            if r is None:
                r = counts.get(u, ref[u] if u < n else 0)
            raised[u] = r + 1
            if r == 0 and u > n_inputs:
                gain -= 1
                if gain < min_gain:
                    return None
                a, b = (f0[u], f1[u]) if u < n else added[u - n]
                stack.append(a >> 1)
                stack.append(b >> 1)
        return gain, root, new, {**counts, **raised}

    def commit(self, v: int, trial) -> None:
        """Applies ``trial``, scored for ``v`` on the net as it is now."""
        _, root, new, counts = trial
        f0, f1, ref, level = self.f0, self.f1, self.ref, self.level
        key = (f0[v], f1[v])
        if self.strash.get(key) == 2 * v:
            del self.strash[key]
        self.strash.update(new)
        sig = self.sig
        for a, b in new:
            f0.append(a)
            f1.append(b)
            ref.append(0)
            level.append(1 + max(level[a >> 1], level[b >> 1]))
            if sig is not None:
                s = ((sig[a >> 1] ^ (_SIG_ONES if a & 1 else 0))
                     & (sig[b >> 1] ^ (_SIG_ONES if b & 1 else 0)))
                sig.append(s)
                self.twins[s ^ _SIG_ONES if s & 1 else s] += 1
        for u, r in counts.items():
            ref[u] = r
        self.repl[v] = root

    # -- final rebuild --------------------------------------------------------

    def to_aig(self, name: str) -> Aig:
        """Rebuilds the live graph through the replacements: the cones of
        the resolved outputs, added by ``AigBuilder.add_cones``."""
        builder = AigBuilder(self.n_inputs, name)
        # the constant and the inputs keep their literals
        lits = {v: 2 * v for v in range(1 + self.n_inputs)}
        outs = [self.resolve(o) for o in self.outputs]
        f0, f1, resolve = self.f0, self.f1, self.resolve
        builder.add_cones([r >> 1 for r in outs],
                          lambda u: (resolve(f0[u]), resolve(f1[u])), lits)
        return builder.finish([lits[r >> 1] ^ (r & 1) for r in outs])


def _sweep(aig: Aig, zero_cost: bool, visit) -> Aig:
    """Sweeps every AND ``v`` of a working copy of ``aig`` in index order,
    then rebuilds it; returns ``aig`` itself when the rebuild holds more
    ANDs. For each ``v`` it walks ``deref = net._deref(v)`` and computes the
    module docstring's ceiling; it skips ``v`` when that is below
    ``min_gain``, else calls ``visit(net, v, deref, min_gain, ceiling)``,
    which only reads the net and returns a trial or None, and commits that
    trial. This is the only code that dereferences, checks twins or
    commits, and it checks twins before every visit, so the first check,
    which builds the signature table, comes before any commit.

    Each AND is live and unreplaced when the sweep reaches it: an ``Aig``
    keeps only reachable ANDs, a commit lowers only counts at or below its
    own node, and only ``v``'s commit sets ``repl[v]``."""
    if not aig.ands:
        return aig
    net = _Net(aig)
    min_gain = 0 if zero_cost else 1
    for v in range(aig.first_and(), aig.n_nodes):
        deref = net._deref(v)
        freed = len(deref[1])
        ceiling = freed if net.twinned(v) else freed - 1
        if ceiling < min_gain:
            continue
        trial = visit(net, v, deref, min_gain, ceiling)
        if trial is not None:
            net.commit(v, trial)
    result = net.to_aig(aig.name)
    return result if len(result.ands) <= len(aig.ands) else aig


def _rebuild(aig: Aig) -> Aig:
    """``rfz``: ``_sweep`` with no visit, which the zero-cost refactor sweep
    equals (see the module docstring)."""
    if not aig.ands:
        return aig
    result = _Net(aig).to_aig(aig.name)
    return result if len(result.ands) <= len(aig.ands) else aig


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
    first_and = aig.first_and()
    # new_lit[v]: old node v's literal in the rebuilt graph; level[u]: the
    # level of rebuilt node u. The constant and the inputs keep their nodes.
    new_lit = [2 * v for v in range(first_and)] + [0] * len(aig.ands)
    level = [0] * first_and
    # Interior nodes: ANDs whose one fanout is an AND that takes them
    # uncomplemented. Every other AND roots a tree.
    interior = [False] * aig.n_nodes
    for f0, f1 in aig.ands:
        for f in (f0, f1):
            if not f & 1 and f >> 1 >= first_and and fanouts[f >> 1] == 1:
                interior[f >> 1] = True
    for v in range(first_and, aig.n_nodes):
        if interior[v]:
            continue
        # Collect the maximal tree of interior nodes under v.
        leaves: list[int] = []
        stack = [2 * v]
        while stack:
            lit = stack.pop()
            w = lit >> 1
            if w == v or interior[w]:
                a, b = aig.ands[w - first_and]
                stack.append(b)
                stack.append(a)
            else:
                leaves.append(lit)
        uniq = dict.fromkeys(leaves)  # x & x = x, in first-seen order
        if any(lit ^ 1 in uniq for lit in uniq):
            continue  # x & !x = 0: new_lit[v] stays 0
        mapped = [new_lit[l >> 1] ^ (l & 1) for l in uniq]
        heap = [(level[m >> 1], i, m) for i, m in enumerate(mapped)]
        heapq.heapify(heap)
        seq = len(heap)
        while len(heap) > 1:
            _, _, x = heapq.heappop(heap)
            _, _, y = heapq.heappop(heap)
            z = builder.and_(x, y)
            if z >> 1 == len(level):  # a node the builder just added
                level.append(1 + max(level[x >> 1], level[y >> 1]))
            heapq.heappush(heap, (level[z >> 1], seq, z))
            seq += 1
        new_lit[v] = heap[0][2]

    out_lits = [new_lit[o >> 1] ^ (o & 1) for o in aig.outputs]
    result = builder.finish(out_lits)
    return result if result.depth <= aig.depth else aig


# ---------------------------------------------------------------------------
# Cut enumeration with truth tables (priority cuts, 4 leaves, 8 per node)
# ---------------------------------------------------------------------------

class _ExpandTables(dict):
    """Byte lookup tables that re-express a cut's truth table over a larger
    sorted leaf tuple that holds all of the cut's leaves.

    The key has one flag per leaf of the larger tuple, true where the cut has
    that leaf too: ``(True, False, True)`` moves a 2-leaf table onto
    positions 0 and 2 of a 3-leaf one. Cuts have at most ``_CUT_SIZE`` leaves,
    so there are 31 keys. Each key's pair of tables is built on first use.
    """

    def __missing__(self, flags: tuple[bool, ...]) -> tuple[list[int], list[int]]:
        n = len(flags)
        pos = [i for i, flag in enumerate(flags) if flag]
        # images[idx]: the minterms of the larger table that agree with
        # minterm ``idx`` of the cut's table on the cut's leaves.
        images = []
        for idx in range(1 << len(pos)):
            image = tt_ones(n)
            for j, p in enumerate(pos):
                image &= var_mask(p, n) if idx >> j & 1 else ~var_mask(p, n)
            images.append(image)
        tables = []
        for byte_images in (images[:8], images[8:]):
            table = [0]
            for image in byte_images:  # entries with this bit set: OR in its image
                table += [entry | image for entry in table]
            tables.append(table)
        self[flags] = lo_hi = tuple(tables)
        return lo_hi


_EXPAND = _ExpandTables()


def _tt_expand(tt: int, frm: tuple[int, ...] | frozenset[int],
               to: tuple[int, ...]) -> int:
    """Truth table ``tt`` over the sorted leaves ``frm`` (a tuple or a set),
    re-expressed over the sorted leaves ``to``, which hold all of ``frm``:
    two lookups in the byte tables of ``_EXPAND``."""
    if len(to) == 4:  # the common sizes spelled out: no iterator to build
        a, b, c, d = to
        lo, hi = _EXPAND[a in frm, b in frm, c in frm, d in frm]
    elif len(to) == 3:
        a, b, c = to
        lo, hi = _EXPAND[a in frm, b in frm, c in frm]
    else:
        lo, hi = _EXPAND[tuple(map(frm.__contains__, to))]
    return lo[tt & 0xFF] | hi[tt >> 8]


def _compile(expr: Expr, n_vars: int) -> tuple:
    """Flattens ``expr`` over ``n_vars`` leaves into the program that
    ``_Net.trial`` runs, ``(steps, root_at, root_neg)``. Operand slot 0
    holds the constant 0 and slots 1 to ``n_vars`` the leaves; each step
    ``(i, neg_i, j, neg_j, neg_out)`` ANDs slots ``i`` and ``j``, each
    complemented by its flag, and appends the result complemented by
    ``neg_out``. An "or" is the complement of the AND of its operands'
    complements. Steps come in post-order, left subtree first, which is the
    order in which a candidate creates its nodes; the root is slot
    ``root_at`` complemented by ``root_neg``."""
    steps: list[tuple[int, int, int, int, int]] = []
    root_at, root_neg = _compile_slot(expr, n_vars, steps)
    return tuple(steps), root_at, root_neg


def _compile_slot(e: Expr, n_vars: int, steps: list) -> tuple[int, int]:
    """The slot and complement flag of ``e``'s value, appending to ``steps``
    the steps that compute it. A module-level function, not a closure in
    ``_compile``: a recursive closure refers to itself through its cell, a
    reference cycle that only the cyclic collector frees."""
    if e[0] == "const":
        return 0, 1 if e[1] else 0
    if e[0] == "var":
        return 1 + e[1], 1 if e[2] else 0
    i, neg_i = _compile_slot(e[1], n_vars, steps)
    j, neg_j = _compile_slot(e[2], n_vars, steps)
    neg = 1 if e[0] == "or" else 0
    steps.append((i, neg_i ^ neg, j, neg_j ^ neg, neg))
    return n_vars + len(steps), 0


@lru_cache(maxsize=1 << 16)
def _resynth(tt: int, n_vars: int) -> tuple:
    """The ``_compile``d factored irredundant cover of a cut/cone function
    (memoized: cut functions repeat heavily across nodes and circuits)."""
    return _compile(factor(isop(tt, 0, n_vars)), n_vars)


def _select_cuts(keys0: list, keys1: list) -> list[tuple]:
    """The merged cuts kept for an AND whose fanin nodes have the cut keys
    ``keys0`` and ``keys1``, as ``(leaves, leaf set, signature, all-ones
    table, fanin table 0, fanin table 1)``, the fanin tables expanded over
    the leaves and not complemented."""
    cand = {}
    for sig0, s0, t0 in keys0:
        for sig1, s1, t1 in keys1:
            sig = sig0 | sig1
            if sig.bit_count() > _CUT_SIZE:
                continue
            leaf_set = s0 | s1
            if len(leaf_set) > _CUT_SIZE or leaf_set in cand:
                continue
            merged = tuple(sorted(leaf_set))
            cand[leaf_set] = (len(merged), merged, leaf_set, sig,
                              s0, t0, s1, t1)
    # (size, leaves) is unique per cut, so the sort never compares further.
    kept = []
    for n, merged, leaf_set, sig, s0, t0, s1, t1 in \
            sorted(cand.values())[:_CUTS_PER_NODE - 1]:
        if len(s0) < n:  # a fanin cut over all n leaves is already expanded
            t0 = _tt_expand(t0, s0, merged)
        if len(s1) < n:
            t1 = _tt_expand(t1, s1, merged)
        kept.append((merged, leaf_set, sig, (1 << (1 << n)) - 1, t0, t1))
    return kept


def _enumerate_cuts(aig: Aig):
    """Returns, per node, a list of (leaf-var tuple, truth table) cuts.

    The unit cut comes first; the remaining slots hold the smallest merged
    cuts by (leaf count, leaf tuple): at most ``_CUTS_PER_NODE`` cuts of at
    most ``_CUT_SIZE`` leaves each. When two pairs of fanin cuts give the same
    leaves, the first pair's truth table is kept.

    Each cut carries a signature, the OR of ``1 << (leaf & 63)`` over its
    leaves. A pair whose signatures' OR has more than ``_CUT_SIZE`` bits has
    more leaves than that, and is rejected before its leaf sets are merged;
    leaves that share a bit only lower the count, so no fitting pair is lost.

    Only the kept cuts are expanded. Expansion commutes with complement, so
    a complemented fanin's table is complemented after it, and the cuts are
    selected once per fanin node pair: an AND over the same two nodes as an
    earlier AND, as the halves of an XOR or a MUX are, keeps the same leaves
    and applies only its own complements.
    """
    cuts: list[list[tuple[tuple[int, ...], int]]] = [[((), 0)]]
    cuts += [[((v,), 0b10)] for v in range(1, 1 + aig.n_inputs)]
    # keys[v][k]: the signature, leaf set and truth table of cuts[v][k]
    keys = [[(0, frozenset(), 0)]]
    keys += [[(1 << (v & 63), frozenset((v,)), 0b10)]
             for v in range(1, 1 + aig.n_inputs)]
    # selected[(u0, u1)]: the kept cuts of an AND over nodes u0 and u1, each
    # with both fanin tables expanded and not yet complemented
    selected: dict[tuple[int, int], list[tuple]] = {}
    for v, (l0, l1) in enumerate(aig.ands, aig.first_and()):
        pair = (l0 >> 1, l1 >> 1)
        kept = selected.get(pair)
        if kept is None:
            kept = selected[pair] = _select_cuts(keys[l0 >> 1], keys[l1 >> 1])
        row = [((v,), 0b10)]
        key_row = [(1 << (v & 63), frozenset((v,)), 0b10)]
        for merged, leaf_set, sig, ones, t0, t1 in kept:
            tt = (t0 ^ ones if l0 & 1 else t0) & (t1 ^ ones if l1 & 1 else t1)
            row.append((merged, tt))
            key_row.append((sig, leaf_set, tt))
        cuts.append(row)
        keys.append(key_row)
    return cuts


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------

def rewrite(aig: Aig, zero_cost: bool = False) -> Aig:
    """Cut-based resynthesis: replaces 4-feasible cut functions by their
    factored irredundant covers when that frees at least one node (at least
    zero with ``zero_cost``).

    Each visit scores every cut of the node with a count-only trial of its
    compiled cover and returns the best, ties going to the earlier cut. A
    trial must beat the best gain so far, so the visit stops once that
    reaches the visit's ceiling."""
    cuts = _enumerate_cuts(aig)

    def visit(net: _Net, v: int, deref, min_gain: int, ceiling: int):
        resolve = net.resolve
        best = None
        limit = min_gain  # ties go to the earlier cut
        for leaves, tt in cuts[v][1:]:
            if ceiling < limit:
                break  # no trial can reach the limit
            lits = [resolve(2 * w) for w in leaves]
            trial = net.trial(v, deref, _resynth(tt, len(leaves)), lits, limit)
            if trial is not None:
                best, limit = trial, trial[0] + 1
        return best

    return _sweep(aig, zero_cost, visit)


# ---------------------------------------------------------------------------
# Refactor
# ---------------------------------------------------------------------------

def _leaf_tts(leaves: list[int]) -> dict[int, int | None]:
    """Seed of a ``_cone_tt`` memo: the constant node and each leaf's
    projection over the sorted ``leaves``."""
    memo: dict[int, int | None] = {0: 0}
    for j, w in enumerate(leaves):
        memo[w] = var_mask(j, len(leaves))
    return memo


_ABSENT = object()  # memo.get's default, told apart from a stored None


def _cone_tt(net: _Net, roots: list[int], memo: dict[int, int | None],
             ones: int, fanins: dict[int, tuple[int, int]]) -> int:
    """Stores in ``memo`` the truth table of each node in ``roots``, and of
    every node of their resolved cones that ``memo`` lacks, over the leaf
    variables that ``memo`` was seeded with (``ones`` is the all-ones table).
    A node whose cone reaches a None entry, or a primary input not in
    ``memo``, gets None. The walk reads each node's resolved fanin pair
    from the visit's record ``fanins`` and records each pair it resolves:
    the replacements stay fixed during a visit. Returns how many nodes the
    walk expanded; callers reject a root when its own walk from the bare
    seed expands more than ``_CONE_BUDGET``."""
    f0, f1, resolve = net.f0, net.f1, net.resolve
    stack = list(roots)
    expanded = 0
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        pair = fanins.get(u)
        if pair is None:
            if u <= net.n_inputs:
                memo[u] = None  # a primary input outside the leaf set
                stack.pop()
                continue
            pair = fanins[u] = (resolve(f0[u]), resolve(f1[u]))
        a, b = pair
        ta = memo.get(a >> 1, _ABSENT)
        tb = memo.get(b >> 1, _ABSENT)
        if ta is _ABSENT or tb is _ABSENT:
            expanded += 1  # b goes on top: the count depends on the order
            if ta is _ABSENT:
                stack.append(a >> 1)
            if tb is _ABSENT:
                stack.append(b >> 1)
            continue
        if ta is None or tb is None:
            memo[u] = None
        else:
            memo[u] = (ta ^ ones if a & 1 else ta) & (tb ^ ones if b & 1 else tb)
        stack.pop()
    return expanded


def _refactor_visit(net: _Net, v: int, deref, min_gain: int, ceiling: int):
    """``refactor``'s visit: a trial of the resynthesized MFFC of ``v``."""
    mffc = set(deref[1])
    # fanins[u]: the resolved fanins of each cone node, for _cone_tt
    fanins: dict[int, tuple[int, int]] = {}
    leaf_set = set()
    queue = [v]
    while queue:
        u = queue.pop()
        if u in fanins:
            continue
        pair = fanins[u] = (net.resolve(net.f0[u]), net.resolve(net.f1[u]))
        for f in pair:
            w = f >> 1
            if w in mffc and w > net.n_inputs:
                queue.append(w)
            else:
                leaf_set.add(w)
    leaves = sorted(leaf_set - {0})
    if not 2 <= len(leaves) <= _REFACTOR_MAX_LEAVES:
        return None
    if len(fanins) < 2 and min_gain > 0:
        return None  # single-node cone cannot shrink
    memo = _leaf_tts(leaves)
    if _cone_tt(net, [v], memo, tt_ones(len(leaves)), fanins) > _CONE_BUDGET:
        return None
    prog = _resynth(memo[v], len(leaves))
    return net.trial(v, deref, prog, [2 * w for w in leaves], min_gain)


def refactor(aig: Aig, zero_cost: bool = False) -> Aig:
    """Collapses each maximum fanout-free cone (up to 10 leaves) to a truth
    table and resynthesizes it through ISOP factoring under the usual gain
    rule. The cone's walk records each node's resolved fanins, from which
    ``_cone_tt`` fills the table; a cone whose fill expands more than
    ``_CONE_BUDGET`` nodes is left as it is. ``rfz`` runs ``_rebuild``,
    which the sweep with ``zero_cost`` equals."""
    return _sweep(aig, zero_cost, _refactor_visit)


# ---------------------------------------------------------------------------
# Resubstitution
# ---------------------------------------------------------------------------

_RESUB_SIDE_CAP = 32


def _side_divisors(net: _Net, v: int, interior: list[int], leaves: list[int],
                   mffc: set[int], fanout_lists: list[list[int]]) -> list[int]:
    """Original-graph nodes outside the fanin window whose support lies
    within the window leaves (bottom-up closure over snapshot fanouts)."""
    n0 = len(fanout_lists)
    f0, f1, level = net.f0, net.f1, net.level
    top = level[v]
    in_window = {0, *leaves, *interior}
    admitted: list[int] = []
    frontier = leaves + interior
    fi = 0
    while fi < len(frontier) and len(admitted) < _RESUB_SIDE_CAP:
        s = frontier[fi]
        fi += 1
        if s >= n0:
            continue
        for u in fanout_lists[s]:
            if u == v or u in in_window or u in mffc or level[u] > top:
                continue
            if f0[u] >> 1 in in_window and f1[u] >> 1 in in_window:
                in_window.add(u)
                admitted.append(u)
                frontier.append(u)
    return admitted


# By (divisor count, complemented): the candidate over the divisor literals
# as a ``_compile``d program, for d0, !d0, d0 & d1 and !d0 | !d1.
_RESUB_PROGS = {(1, False): ((), 1, 0),
                (1, True): ((), 1, 1),
                (2, False): (((1, 0, 2, 0, 0),), 3, 0),
                (2, True): (((1, 0, 2, 0, 1),), 3, 0)}


def _resub_pairs(divisors: list[tuple[int, int]], tt_v: int, ones: int):
    """Yields ``(lits, compl)`` for each pair of polarized literals of
    ``divisors`` (literal, table) whose AND is ``tt_v`` (``compl`` false) or
    its complement, by (first divisor, second divisor, polarities 00, 01, 10,
    11). Only literals holding every minterm of the wanted table can pair:
    ``to_v`` and ``to_comp`` list them as (divisor, polarity, literal, table)."""
    comp_v = tt_v ^ ones
    to_v, to_comp = [], []
    for i, (r, t) in enumerate(divisors):
        x = tt_v & t
        if x == tt_v:
            to_v.append((i, 0, r, t))
        if x == 0:
            to_v.append((i, 1, r ^ 1, t ^ ones))
        if t | tt_v == ones:
            to_comp.append((i, 0, r, t))
        if x == t:
            to_comp.append((i, 1, r ^ 1, t ^ ones))
    hits = []
    for compl, target, lits in ((False, tt_v, to_v), (True, comp_v, to_comp)):
        for k, (i1, c1, l1, t1) in enumerate(lits):
            for i2, c2, l2, t2 in lits[k + 1:]:
                if i2 != i1 and t1 & t2 == target:
                    hits.append((i1, i2, 2 * c1 + c2, [l1, l2], compl))
    hits.sort()  # (i1, i2, polarity) is unique per hit
    for *_, pair, compl in hits:
        yield pair, compl


def resub(aig: Aig, zero_cost: bool = False) -> Aig:
    """Windowed resubstitution: re-expresses a node as a (possibly
    complemented) single divisor or AND/OR of two divisors from its window.

    A node's window is its resolved fanin cone down to a level cutoff, the
    lowest of the ``_RESUB_WINDOW_DEPTH`` levels under the node that leaves
    at most ``_RESUB_LEAF_CAP`` leaves. The walk records each window node's
    resolved fanins, and ``_cone_tt`` fills the node's truth table over the
    leaves from that record; the node is skipped when that walk expands
    more than ``_CONE_BUDGET`` nodes. The divisors' tables come from the
    same memo and record with the node poisoned, so that a divisor whose
    cone holds the node (a cycle) or leaves the window drops out, as does
    one whose own walk from the leaves exceeds the budget. Candidates are
    screened on these exact tables: single divisors first, then pairs; the
    first that passes is kept.
    """
    first_and = aig.first_and()
    fanout_lists: list[list[int]] = [[] for _ in range(aig.n_nodes)]
    for k, (f0, f1) in enumerate(aig.ands):
        fanout_lists[f0 >> 1].append(first_and + k)
        fanout_lists[f1 >> 1].append(first_and + k)

    def visit(net: _Net, v: int, deref, min_gain: int, ceiling: int):
        f0, f1, level = net.f0, net.f1, net.level
        resolve, n_inputs = net.resolve, net.n_inputs
        # fanins[u]: u's resolved fanins; the replacements stay fixed
        # during a visit, so every walk of the visit reads them from here.
        fanins: dict[int, tuple[int, int]] = {}
        for cutoff in range(level[v] - _RESUB_WINDOW_DEPTH, level[v]):
            interior: list[int] = []
            leaves: list[int] = []
            seen, stack = {v}, [v]
            while stack and len(leaves) <= _RESUB_LEAF_CAP:
                u = stack.pop()
                pair = fanins.get(u)
                if pair is None:
                    pair = fanins[u] = (resolve(f0[u]), resolve(f1[u]))
                for f in pair:
                    w = f >> 1
                    if w in seen:
                        continue
                    seen.add(w)
                    if w > n_inputs and level[w] > cutoff:
                        interior.append(w)
                        stack.append(w)
                    elif w != 0:
                        leaves.append(w)
            if len(leaves) <= _RESUB_LEAF_CAP:
                break
        else:
            return None
        if not leaves:
            return None
        interior.sort()
        leaves.sort()
        memo = _leaf_tts(leaves)
        ones = tt_ones(len(leaves))
        if _cone_tt(net, [v], memo, ones, fanins) > _CONE_BUDGET:
            return None
        tt_v = memo[v]
        mffc = set(deref[1])
        side = _side_divisors(net, v, interior, leaves, mffc, fanout_lists)
        # Window nodes are resolved already; side nodes may be replaced.
        window = [d for d in interior + leaves if d not in mffc]
        seen = {0, v, *window}  # nodes that give no divisor, or have given one
        divisor_lits = [2 * d for d in window]
        for d in side:
            if d not in mffc:
                r = resolve(2 * d)
                if r >> 1 not in seen:
                    seen.add(r >> 1)
                    divisor_lits.append(r)
        # By descending level, then literal: ``big`` exceeds every literal,
        # so each key is the literal less ``big`` times its level.
        big = 2 * len(f0)
        keys = sorted(r - big * level[r >> 1] for r in divisor_lits)
        divisor_lits = [key % big for key in keys[:_RESUB_DIVISOR_CAP]]
        memo[v] = None  # a divisor whose cone holds v would close a cycle
        _cone_tt(net, [r >> 1 for r in divisor_lits if r >> 1 not in memo],
                 memo, ones, fanins)
        # A root's own walk from the seed (0, the leaves, v) expands only
        # nodes the shared memo holds beyond it: recount only above that.
        if len(memo) - len(leaves) - 2 > _CONE_BUDGET:
            for r in divisor_lits:
                if memo[r >> 1] is not None:
                    seed = {**_leaf_tts(leaves), v: None}
                    if _cone_tt(net, [r >> 1], seed, ones, fanins) \
                            > _CONE_BUDGET:
                        memo[r >> 1] = None
        divisors = []
        for r in divisor_lits:
            t = memo[r >> 1]
            if t is not None:
                divisors.append((r, t ^ ones if r & 1 else t))
        comp_v = tt_v ^ ones
        singles = [([r], t == comp_v)
                   for r, t in divisors if t == tt_v or t == comp_v]
        for lits, compl in chain(singles, _resub_pairs(divisors, tt_v, ones)):
            trial = net.trial(v, deref, _RESUB_PROGS[len(lits), compl], lits,
                              min_gain)
            if trial is not None:
                return trial
        return None

    return _sweep(aig, zero_cost, visit)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_PASSES = {
    Action.BALANCE: balance,
    Action.REWRITE: partial(rewrite, zero_cost=False),
    Action.REWRITE_Z: partial(rewrite, zero_cost=True),
    Action.REFACTOR: partial(refactor, zero_cost=False),
    Action.REFACTOR_Z: _rebuild,
    Action.RESUB: partial(resub, zero_cost=False),
    Action.RESUB_Z: partial(resub, zero_cost=True),
}


# The memo evicts its oldest entries while it holds more than
# _MEMO_MAX_ANDS ANDs in keys plus values (one more per entry, so that
# empty graphs count too; about 117 bytes per AND, so about 11 MB), but
# never below its _MEMO_MIN_ENTRIES newest entries, whatever their size.
# The floor keeps ten recipes' worth of passes on circuits of thousands of
# ANDs, where the AND bound alone holds less than one recipe. A search
# walks each recipe from the root, and a tree prefix recurs only after the
# walks through its siblings; with fewer entries it was evicted by then.
_MEMO_MAX_ANDS = 100_000
_MEMO_MIN_ENTRIES = 10 * DEFAULT_RECIPE_LEN


def _memo_key(aig: Aig, action: Action) -> tuple:
    """The memo key of one pass application: passes are pure functions of
    the structure; the name is in the key because the result carries it."""
    return (aig.name, aig.n_inputs, tuple(aig.ands), tuple(aig.outputs),
            action)


class _PassMemo:
    """Least-recently-used map from ``_memo_key`` to the pass result and
    its size, bounded as described above."""

    def __init__(self, max_ands: int, min_entries: int):
        self.max_ands = max_ands
        self.min_entries = min_entries
        self.ands = 0
        self._entries: OrderedDict[tuple, tuple[Aig, int]] = OrderedDict()

    def clear(self) -> None:
        self._entries.clear()
        self.ands = 0

    def apply(self, aig: Aig, action: Action) -> Aig:
        key = _memo_key(aig, action)
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            return hit[0]
        was_enabled = gc.isenabled()
        gc.disable()  # a pass's garbage all dies by reference count
        try:
            result = _PASSES[action](aig)
        finally:
            if was_enabled:
                gc.enable()
        size = 1 + len(aig.ands) + len(result.ands)
        self._entries[key] = (result, size)
        self.ands += size
        while self.ands > self.max_ands \
                and len(self._entries) > self.min_entries:
            _, (_, old_size) = self._entries.popitem(last=False)
            self.ands -= old_size
        return result


_MEMO = _PassMemo(_MEMO_MAX_ANDS, _MEMO_MIN_ENTRIES)


def apply(aig: Aig, action: Action) -> Aig:
    """Applies one pass; the result is functionally equivalent to the input
    and the input is never mutated. Results are memoized by structure, so a
    repeated (circuit, action) pair returns the stored graph."""
    return _MEMO.apply(aig, Action(action))


def apply_recipe(aig: Aig, recipe: Recipe,
                 max_len: int = DEFAULT_RECIPE_LEN) -> tuple[Aig, list[Aig]]:
    """Applies a recipe sequentially, returning the final graph and the
    graph after each step."""
    if len(recipe) > max_len:
        raise ValueError(f"recipe length {len(recipe)} exceeds cap {max_len}")
    graphs = list(accumulate(recipe, apply, initial=aig))
    return graphs[-1], graphs[1:]
