"""The initial distributed bi-tree construction ``Init`` (Section 6).

Every node starts *active*.  Time is organized into rounds ``r = 1, 2, ...``;
round ``r`` handles candidate links with length in ``[2**(r-1), 2**r)`` and
consists of ``lambda_1 * log n`` slot-pairs.  In every slot-pair each active
node independently elects to be a *broadcaster* (with probability ``p``) or a
*listener*:

* first slot: broadcasters transmit a hello carrying their id and location;
* second slot: a listener that decoded a hello from a node in the current
  length class acknowledges it (with probability ``p``); a broadcaster that
  decodes an acknowledgment addressed to it records the link pair, adopts the
  acknowledger as its parent, and becomes inactive.

All transmissions in round ``r`` use the fixed power ``~ 2 * beta * N *
2**(r*alpha)``, which keeps the link cost ``c(u, v)`` at most ``2 * beta`` for
every link the round may form.  After ``ceil(log2 Delta)`` rounds exactly one
node remains active w.h.p.; it is the root of both the aggregation and the
dissemination tree (Theorem 2).

Practical constants (see ``repro.constants``) do not guarantee the w.h.p.
single-sweep termination, so the builder optionally repeats the whole round
sweep until a single active node remains; the extra slots are included in the
reported cost.

The protocol is synchronous: in every slot each node's step is a pure
function of its own coin and of what it decoded in the previous slot.
:class:`InitialTreeBuilder` therefore runs it as one struct-of-arrays
population, :class:`InitPopulation`: a :class:`~repro.runtime.Simulator`
subclass that keeps the per-node state in arrays and overrides the engine's
poll / decode / deliver seams with whole-population array operations.  Every
slot still goes through :meth:`Simulator.step` (counters, trace) and the
shared decode; each node still draws from its own child generator, so the
run is bit-identical to n :class:`InitAgent` objects on a plain
:class:`~repro.runtime.Simulator` - the test oracle.  :class:`InitAgent`
stays in the library because the fault-injected runtime
(:class:`~repro.netsim.NetInitBuilder`) drives per-node agents, which can
crash, recover and receive delayed messages individually.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..constants import DEFAULT_CONSTANTS, AlgorithmConstants
from ..exceptions import ProtocolError
from ..geometry import Node
from ..links import Link
from ..obs.runtime import OBS
from ..obs.spans import span
from ..runtime import AckMessage, BroadcastMessage, ExecutionTrace, NodeAgent, Simulator, spawn_agent_rngs
from ..sinr import ExplicitPower, Reception, SINRParameters, UniformPower
from ..sinr.channel import ensure_positive_powers
from ..state import NetworkState, build_store
from .bitree import BiTree
from .quantities import num_rounds_for_delta

__all__ = [
    "InitAgent",
    "InitPopulation",
    "InitState",
    "InitialTreeBuilder",
    "InitialTreeResult",
    "round_power",
]


def round_power(round_index: int, params: SINRParameters, slack: float = 2.0) -> float:
    """Fixed transmission power used throughout round ``round_index``.

    The paper sets it to ``2 * beta * N * 2**(r * alpha)``, the smallest power
    keeping ``c(u, v) <= 2 * beta`` for every link of length below ``2**r``.
    With zero ambient noise any positive power works; we keep the same
    length-scaling so behaviour is continuous in ``N``.
    """
    if round_index < 1:
        raise ValueError("round_index is 1-based and must be positive")
    reach = 2.0**round_index
    if params.noise > 0:
        return params.min_power_for(reach, slack)
    return params.beta * reach**params.alpha


@dataclass(frozen=True)
class _LinkRecord:
    """A link stored by a node, with its schedule time stamp (slot-pair index)."""

    peer_id: int
    outgoing: bool
    slot_pair: int
    round_index: int


class InitAgent(NodeAgent):
    """Per-node state machine of the ``Init`` protocol.

    The agent derives the current round and slot-pair phase from the global
    slot index using only globally known quantities (``n``, ``Delta``, the
    protocol constants), as permitted by the paper's model (Section 5).
    """

    def __init__(
        self,
        node: Node,
        rng: np.random.Generator,
        params: SINRParameters,
        constants: AlgorithmConstants,
        rounds_per_sweep: int,
        slot_pairs_per_round: int,
    ):
        super().__init__(node, rng)
        self.params = params
        self.constants = constants
        self.rounds_per_sweep = rounds_per_sweep
        self.slot_pairs_per_round = slot_pairs_per_round

        self.active = True
        self.parent_id: int | None = None
        self.parent_slot_pair: int | None = None
        self.parent_round: int | None = None
        self.records: list[_LinkRecord] = []

        self._is_broadcaster = False
        self._pending_broadcast: BroadcastMessage | None = None
        self._round_powers: dict[int, float] = {}

    # -- time bookkeeping ---------------------------------------------------

    def _slot_pair(self, slot: int) -> int:
        return slot // 2

    def _phase(self, slot: int) -> int:
        return slot % 2

    def _round(self, slot: int) -> int:
        pair = self._slot_pair(slot)
        return (pair // self.slot_pairs_per_round) % self.rounds_per_sweep + 1

    def _round_power(self, round_index: int) -> float:
        """Round power, memoized (it is evaluated once per agent per slot)."""
        power = self._round_powers.get(round_index)
        if power is None:
            power = round_power(round_index, self.params)
            self._round_powers[round_index] = power
        return power

    # -- protocol -----------------------------------------------------------

    def act(self, slot: int) -> tuple[float, Any] | None:
        phase = self._phase(slot)
        round_index = self._round(slot)

        if phase == 0:
            self._pending_broadcast = None
            self._is_broadcaster = False
            if not self.active:
                return None
            if self.rng.random() < self.constants.broadcast_probability:
                self._is_broadcaster = True
                return (
                    self._round_power(round_index),
                    BroadcastMessage(sender=self.node, round_index=round_index),
                )
            return None

        # phase == 1: acknowledgment slot.
        if not self.active:
            return None
        if self._is_broadcaster:
            return None  # listen for acknowledgments
        broadcast = self._pending_broadcast
        if broadcast is None:
            return None
        distance = self.node.distance_to(broadcast.sender)
        lower, upper = 2.0 ** (round_index - 1), 2.0**round_index
        if not (lower <= distance < upper):
            return None
        if self.rng.random() >= self.constants.ack_probability:
            return None
        pair = self._slot_pair(slot)
        # Store both directions now (the paper notes this may create stray
        # links if the acknowledgment is lost; they are cleaned up later).
        self.records.append(
            _LinkRecord(peer_id=broadcast.sender_id, outgoing=False, slot_pair=pair, round_index=round_index)
        )
        self.records.append(
            _LinkRecord(peer_id=broadcast.sender_id, outgoing=True, slot_pair=pair, round_index=round_index)
        )
        return (
            self._round_power(round_index),
            AckMessage(
                sender=self.node, target_id=broadcast.sender_id, round_index=round_index, slot_pair=pair
            ),
        )

    def observe(self, slot: int, reception: Reception | None) -> None:
        if reception is None:
            return
        phase = self._phase(slot)
        round_index = self._round(slot)
        if phase == 0:
            if self.active and not self._is_broadcaster and isinstance(reception.message, BroadcastMessage):
                self._pending_broadcast = reception.message
            return
        # phase == 1
        if (
            self.active
            and self._is_broadcaster
            and isinstance(reception.message, AckMessage)
            and reception.message.target_id == self.node_id
        ):
            ack = reception.message
            pair = self._slot_pair(slot)
            self.parent_id = ack.sender_id
            self.parent_slot_pair = pair
            self.parent_round = round_index
            self.records.append(
                _LinkRecord(peer_id=ack.sender_id, outgoing=True, slot_pair=pair, round_index=round_index)
            )
            self.records.append(
                _LinkRecord(peer_id=ack.sender_id, outgoing=False, slot_pair=pair, round_index=round_index)
            )
            self.active = False

    def is_done(self) -> bool:
        return not self.active

    def on_crash(self, slot: int) -> None:
        # Links and parent adoption survive a crash (they are committed
        # state); only the intra-slot-pair context is volatile.
        self._pending_broadcast = None
        self._is_broadcaster = False

    def on_recover(self, slot: int) -> None:
        # The slot pair the pending broadcast belonged to has passed while
        # the node was down, so the ack it would trigger must not be sent.
        self._pending_broadcast = None
        self._is_broadcaster = False

    def stored_degree(self) -> int:
        """Number of distinct peers this node stored links with (Theorem 7's |Lu|)."""
        return len({record.peer_id for record in self.records})


@dataclass(frozen=True)
class InitState:
    """Final per-node ``Init`` state, in node-list order.

    This is everything :meth:`InitialTreeBuilder._extract_result` reads, so
    the population and the agent-driven runtimes share one extractor.

    Attributes:
        active: the nodes still active when the run stopped (the root mask).
        parent: list position of each node's parent, ``-1`` if it has none.
        parent_pair: slot-pair in which the parent link formed (the link's
            schedule time stamp), ``-1`` if none.
        parent_round: round in which the parent link formed, ``0`` if none.
        stored_degree: number of distinct peers each node stored links with
            (Theorem 7's ``|L_u|``, stray links included).
    """

    active: np.ndarray
    parent: np.ndarray
    parent_pair: np.ndarray
    parent_round: np.ndarray
    stored_degree: np.ndarray

    @classmethod
    def from_agents(cls, agents: Sequence[InitAgent]) -> "InitState":
        """Gather the state of per-node :class:`InitAgent` objects."""
        position = {agent.node_id: i for i, agent in enumerate(agents)}
        return cls(
            active=np.array([agent.active for agent in agents], dtype=bool),
            parent=np.array(
                [-1 if agent.parent_id is None else position[agent.parent_id] for agent in agents],
                dtype=np.intp,
            ),
            parent_pair=np.array(
                [-1 if agent.parent_slot_pair is None else agent.parent_slot_pair for agent in agents],
                dtype=np.int64,
            ),
            parent_round=np.array([agent.parent_round or 0 for agent in agents], dtype=np.int64),
            stored_degree=np.array([agent.stored_degree() for agent in agents], dtype=np.int64),
        )


class InitPopulation(Simulator):
    """The lockstep ``Init`` protocol run as one struct-of-arrays population.

    Replaces n :class:`InitAgent` objects on a :class:`Simulator` with per-node
    state arrays and overrides only the engine seams: :meth:`_poll` computes
    the slot's transmit set as an index array, :meth:`_decode` resolves it
    through the shared channel decode and returns ``(listener, sender)``
    index arrays, and :meth:`_deliver` applies them to the arrays.  No
    message, reception or link-record object is built per slot.  The
    randomness is the agents' own: node ``i`` draws from ``rngs[i]`` in the
    same order an :class:`InitAgent` would, prefetched :attr:`PREFETCH`
    draws at a time (``g.random(B)`` yields exactly the stream of ``B``
    scalar ``g.random()`` calls).

    Args:
        nodes: the participating nodes; positions index every array.
        rngs: one child generator per node (:func:`~repro.runtime
            .spawn_agent_rngs`).
        params: SINR model parameters.
        constants: protocol constants.
        rounds_per_sweep: rounds in one full sweep.
        slot_pairs_per_round: slot-pairs in one round.
        store: the geometry store over ``nodes``, when already built.
    """

    #: Uniform draws prefetched per node; small, so the ``n x PREFETCH``
    #: buffer stays negligible next to the geometry store.
    PREFETCH = 64

    def __init__(
        self,
        nodes: Sequence[Node],
        rngs: Sequence[np.random.Generator],
        params: SINRParameters,
        constants: AlgorithmConstants,
        rounds_per_sweep: int,
        slot_pairs_per_round: int,
        *,
        store: NetworkState | None = None,
    ):
        self._bind_nodes(nodes, params, None, store)
        n = len(self._nodes)
        if len(rngs) != n:
            raise ValueError(f"need one generator per node: {len(rngs)} for {n} nodes")
        self.params = params
        self.constants = constants
        self.rounds_per_sweep = rounds_per_sweep
        self.slot_pairs_per_round = slot_pairs_per_round
        # The population has no agent objects; its state is the arrays below.
        self.agents = []

        self.active = np.ones(n, dtype=bool)
        self.is_broadcaster = np.zeros(n, dtype=bool)
        #: position of the hello decoded in this slot-pair's broadcast slot.
        self.pending_sender = np.full(n, -1, dtype=np.intp)
        self.parent = np.full(n, -1, dtype=np.intp)
        self.parent_pair = np.full(n, -1, dtype=np.int64)
        self.parent_round = np.zeros(n, dtype=np.int64)
        #: target of each acknowledger's ack in the current ack slot.
        self._ack_target = np.full(n, -1, dtype=np.intp)
        #: stored links as (node, peer) position pairs, one array per slot.
        self._link_nodes: list[np.ndarray] = []
        self._link_peers: list[np.ndarray] = []

        self._ids = np.array(self._node_ids, dtype=np.int64)
        self._xs = [node.x for node in self._nodes]
        self._ys = [node.y for node in self._nodes]
        self._rngs = list(rngs)
        self._draws = np.empty((n, self.PREFETCH))
        self._cursor = np.full(n, self.PREFETCH, dtype=np.intp)
        self._no_decodes = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))

    # -- bookkeeping ---------------------------------------------------------

    def _round(self, slot: int) -> int:
        return (slot // 2 // self.slot_pairs_per_round) % self.rounds_per_sweep + 1

    def _draw(self, idx: np.ndarray) -> np.ndarray:
        """The next uniform draw of each node in ``idx`` (distinct positions)."""
        cursor, draws = self._cursor, self._draws
        at = cursor[idx]
        spent = at == self.PREFETCH
        if spent.any():
            for i in idx[spent].tolist():
                self._rngs[i].random(out=draws[i])
            at[spent] = 0
        cursor[idx] = at + 1
        return draws[idx, at]

    def _store_links(self, nodes: np.ndarray, peers: np.ndarray) -> None:
        if nodes.size:
            self._link_nodes.append(nodes)
            self._link_peers.append(peers)

    def active_count(self) -> int:
        """Number of nodes still active."""
        return int(np.count_nonzero(self.active))

    def all_done(self) -> bool:
        """Whether every node has become inactive (an agent's ``is_done``)."""
        return not self.active.any()

    def state(self) -> InitState:
        """The population's final state, for the result extractor."""
        n = len(self._nodes)
        degree = np.zeros(n, dtype=np.int64)
        if self._link_nodes:
            nodes = np.concatenate(self._link_nodes).astype(np.int64)
            peers = np.concatenate(self._link_peers).astype(np.int64)
            distinct = np.unique(nodes * n + peers)
            degree = np.bincount(distinct // n, minlength=n).astype(np.int64)
        return InitState(
            active=self.active,
            parent=self.parent,
            parent_pair=self.parent_pair,
            parent_round=self.parent_round,
            stored_degree=degree,
        )

    # -- engine seams --------------------------------------------------------

    def _poll(self, slot: int) -> tuple[list[int], np.ndarray, None]:
        round_index = self._round(slot)
        if slot % 2 == 0:
            # Broadcast slot: the slot-pair context resets, and every active
            # node flips its broadcaster coin.
            self.pending_sender.fill(-1)
            self.is_broadcaster.fill(False)
            candidates = np.flatnonzero(self.active)
            tx = candidates[self._draw(candidates) < self.constants.broadcast_probability]
            self.is_broadcaster[tx] = True
        else:
            tx = self._acknowledgers(round_index)
        listening = self._listening
        listening.fill(True)
        listening[tx] = False
        return tx.tolist(), np.full(tx.size, round_power(round_index, self.params)), None

    def _acknowledgers(self, round_index: int) -> np.ndarray:
        """Listeners that acknowledge the hello they decoded, storing the link.

        Only active non-broadcasters record a pending hello, and nothing
        changes between the broadcast slot's delivery and this poll.
        """
        listeners = np.flatnonzero(self.pending_sender >= 0)
        senders = self.pending_sender[listeners]
        lower, upper = 2.0 ** (round_index - 1), 2.0**round_index
        xs, ys = self._xs, self._ys
        # Node.distance_to's arithmetic, so the length-class test is exact.
        in_class = np.array(
            [
                lower <= math.hypot(xs[a] - xs[b], ys[a] - ys[b]) < upper
                for a, b in zip(listeners.tolist(), senders.tolist())
            ],
            dtype=bool,
        )
        listeners, senders = listeners[in_class], senders[in_class]
        acks = self._draw(listeners) < self.constants.ack_probability
        tx, targets = listeners[acks], senders[acks]
        self._ack_target[tx] = targets
        self._store_links(tx, targets)
        return tx

    def _decode(
        self,
        slot: int,
        tx_pos: list[int],
        powers: np.ndarray,
        messages: None,
    ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[list[int], list[int]]]:
        """The slot's decodes as ``(listener, sender)`` position arrays, plus
        the trace's listener-id and sender-id columns."""
        if not tx_pos:
            return self._no_decodes, ([], [])
        # Validate before the listener check so a non-positive power raises
        # even in a slot where every node transmits.
        ensure_positive_powers(powers)
        if len(tx_pos) == len(self._nodes):
            return self._no_decodes, ([], [])
        tx = np.array(tx_pos, dtype=np.intp)
        best, _, ok = self.channel.resolve_indices_full(
            tx, powers, slot=slot, workspace=self._workspace
        )
        # Half-duplex: transmitter columns never decode.
        listeners = np.flatnonzero(ok & self._listening)
        senders = tx[best[listeners]]
        ids = self._ids
        return (listeners, senders), (ids[listeners].tolist(), ids[senders].tolist())

    def _deliver(self, slot: int, decoded: tuple[np.ndarray, np.ndarray]) -> None:
        listeners, senders = decoded
        if slot % 2 == 0:
            heard = self.active[listeners]
            self.pending_sender[listeners[heard]] = senders[heard]
            return
        # Ack slot: a broadcaster that decodes an ack addressed to it adopts
        # the acknowledger as its parent and becomes inactive.
        adopted = (
            self.active[listeners]
            & self.is_broadcaster[listeners]
            & (self._ack_target[senders] == listeners)
        )
        children, parents = listeners[adopted], senders[adopted]
        pair = slot // 2
        self.parent[children] = parents
        self.parent_pair[children] = pair
        self.parent_round[children] = self._round(slot)
        self.active[children] = False
        self._store_links(children, parents)
        if OBS.enabled and (pair + 1) % self.slot_pairs_per_round == 0:
            self._record_round(pair)

    def _record_round(self, pair: int) -> None:
        """Protocol progress of the round ending with slot-pair ``pair``:
        nodes active at its start and nodes that adopted a parent in it."""
        first_pair = pair + 1 - self.slot_pairs_per_round
        parented = int(np.count_nonzero(self.parent_pair >= first_pair))
        round_index = self._round(2 * pair)
        registry = OBS.registry
        registry.inc("init.active", self.active_count() + parented, round=round_index)
        registry.inc("init.parented", parented, round=round_index)


@dataclass
class InitialTreeResult:
    """Outcome of running ``Init`` on a set of nodes.

    Attributes:
        tree: the constructed bi-tree.
        slots_used: total channel slots consumed (Theorem 2's cost measure).
        rounds_used: number of protocol rounds executed (across all sweeps).
        sweeps_used: number of full round sweeps needed (1 matches the paper's
            single-pass guarantee; more indicate the practical constants
            needed extra passes).
        delta: the distance ratio of the instance.
        power: the per-link powers actually used, for schedule verification.
        link_rounds: round in which each aggregation link was formed (used by
            ``Distr-Cap`` to phase links by length class).
        trace: the slot-by-slot execution trace.
        stored_degrees: per node, the number of links it stored (including
            stray links), the quantity bounded by Theorem 7.
    """

    tree: BiTree
    slots_used: int
    rounds_used: int
    sweeps_used: int
    delta: float
    power: ExplicitPower
    link_rounds: dict[tuple[int, int], int]
    trace: ExecutionTrace
    stored_degrees: dict[int, int]


class InitialTreeBuilder:
    """Runs the distributed ``Init`` protocol (Theorem 2).

    The instance must satisfy the paper's min-separation 1: round ``r``
    only forms links of length in ``[2**(r-1), 2**r)``, so two nodes closer
    than 1 (colocated ones included) can never link to each other.  Such a
    pair still converges when a third node gives both a parent, but a
    sub-unit pair on its own never does: :meth:`build` raises
    :class:`~repro.exceptions.ProtocolError` after ``max_sweeps`` sweeps.

    Args:
        params: SINR model parameters.
        constants: protocol constants (probabilities, slot-pairs per round).
        max_sweeps: how many times the full round sweep may be repeated before
            giving up.  The paper's constants need one sweep w.h.p.; the
            practical defaults occasionally need a second one.
    """

    def __init__(
        self,
        params: SINRParameters,
        constants: AlgorithmConstants = DEFAULT_CONSTANTS,
        max_sweeps: int = 20,
    ):
        if max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        self.params = params
        self.constants = constants
        self.max_sweeps = max_sweeps

    def build(self, nodes: Sequence[Node], rng: np.random.Generator) -> InitialTreeResult:
        """Run ``Init`` on ``nodes`` and return the resulting bi-tree.

        Raises:
            ProtocolError: if more than one active node remains after
                ``max_sweeps`` sweeps (practically unreachable with defaults
                on instances with min-separation 1).
        """
        node_list = list(nodes)
        if not node_list:
            raise ProtocolError("cannot build a tree on zero nodes")
        if len(node_list) == 1:
            only = node_list[0]
            tree = BiTree.from_parent_map([only], only.id, {})
            return InitialTreeResult(
                tree=tree,
                slots_used=0,
                rounds_used=0,
                sweeps_used=0,
                delta=1.0,
                power=ExplicitPower({}),
                link_rounds={},
                trace=ExecutionTrace(),
                stored_degrees={only.id: 0},
            )

        store = build_store(node_list, self.params.store)
        delta, rounds_per_sweep, pairs_per_round = self._sweep_plan(store)
        population = InitPopulation(
            node_list,
            spawn_agent_rngs(rng, len(node_list)),
            self.params,
            self.constants,
            rounds_per_sweep,
            pairs_per_round,
            store=store,
        )
        rounds_used, sweeps_used = self._run_sweeps(
            population, population.active_count, rounds_per_sweep, pairs_per_round
        )
        if population.active_count() > 1:
            raise ProtocolError(
                f"Init did not converge to a single active node within {self.max_sweeps} sweeps"
            )
        return self._extract_result(
            node_list,
            population.state(),
            population.trace,
            population.current_slot,
            delta,
            rounds_used,
            sweeps_used,
        )

    def _sweep_plan(self, store: NetworkState) -> tuple[float, int, int]:
        """``(delta, rounds per sweep, slot-pairs per round)`` of the instance
        held by ``store`` - the geometry store the run's channel decodes on,
        so delta costs no distance matrix of its own."""
        delta = store.max_distance()
        rounds_per_sweep = num_rounds_for_delta(max(delta, 1.0))
        return delta, rounds_per_sweep, self.constants.slot_pairs_per_round(len(store))

    def _run_sweeps(
        self,
        sim: Simulator,
        remaining_active: Callable[[], int],
        rounds_per_sweep: int,
        pairs_per_round: int,
    ) -> tuple[int, int]:
        """Step ``sim`` through up to ``max_sweeps`` round sweeps.

        The first sweep always runs in full (the paper's algorithm has no
        early termination); later sweeps stop as soon as
        ``remaining_active()`` reports at most one active node.

        Returns:
            ``(rounds_used, sweeps_used)``.
        """
        rounds_used = 0
        sweeps_used = 0
        for sweep in range(self.max_sweeps):
            sweeps_used = sweep + 1
            with span("init.sweep", sweep=sweep):
                for round_index in range(1, rounds_per_sweep + 1):
                    if sweep > 0 and remaining_active() <= 1:
                        break
                    rounds_used += 1
                    with span("init.round", sweep=sweep, round=round_index):
                        for _ in range(pairs_per_round):
                            sim.step(label=f"init:sweep{sweep}:round{round_index}:broadcast")
                            sim.step(label=f"init:sweep{sweep}:round{round_index}:ack")
            if remaining_active() <= 1:
                break
        return rounds_used, sweeps_used

    def _extract_result(
        self,
        node_list: Sequence[Node],
        state: InitState,
        trace: ExecutionTrace,
        slots_used: int,
        delta: float,
        rounds_used: int,
        sweeps_used: int,
    ) -> InitialTreeResult:
        roots = np.flatnonzero(state.active)
        if roots.size != 1:
            raise ProtocolError(f"expected exactly one root, found {roots.size}")
        root = int(roots[0])
        ids = [node.id for node in node_list]

        parent: dict[int, int] = {}
        slots: dict[int, int] = {}
        link_rounds: dict[tuple[int, int], int] = {}
        power_map: dict[tuple[int, int], float] = {}
        for i, (parent_pos, pair, round_index) in enumerate(
            zip(state.parent.tolist(), state.parent_pair.tolist(), state.parent_round.tolist())
        ):
            if i == root:
                continue
            node_id = ids[i]
            if parent_pos < 0:
                raise ProtocolError(f"inactive node {node_id} has no recorded parent")
            parent_id = ids[parent_pos]
            parent[node_id] = parent_id
            slots[node_id] = pair
            power = round_power(round_index, self.params)
            link_rounds[(node_id, parent_id)] = round_index
            power_map[(node_id, parent_id)] = power
            power_map[(parent_id, node_id)] = power

        tree = BiTree.from_parent_map(node_list, ids[root], parent, slots)
        fallback = UniformPower.for_max_length(self.params, max(delta, 1.0))
        return InitialTreeResult(
            tree=tree,
            slots_used=slots_used,
            rounds_used=rounds_used,
            sweeps_used=sweeps_used,
            delta=delta,
            power=ExplicitPower(power_map, fallback=fallback),
            link_rounds=link_rounds,
            trace=trace,
            stored_degrees=dict(zip(ids, state.stored_degree.tolist())),
        )
