"""Long-lived simulation sessions: open → mutate → rerun → close (D18).

The engines below this module are batch-shaped: every ``run()`` accepts
a complete static graph and rebuilds whatever it needs.  A
:class:`SimulationSession` turns them into a service a traffic-serving
system can sit on: it keeps a live :class:`~repro.local.engine.
CompiledGraph`, applies :class:`~repro.local.graph.GraphDelta` edits
incrementally, and keeps one execution record across requests.  A
mutate splices only the touched CSR rows (DESIGN.md D27): its
Python-level work is O(churn · log Δ) for an edge-only delta, beside
C-level copies of the untouched slab, and the numpy mirror and the
cached identity mix are carried into the new graph rather than rebuilt
— so a rerun after a small delta skips the networkx round-trip, the
identity sort, the re-porting and the mirror conversion that a cold
rebuild pays.

Correctness contract (enforced by ``tests/test_service.py``): for every
delta sequence, ``.rerun()`` is bit-identical to a cold ``run()`` on a
graph rebuilt from scratch — outputs, rounds, message counts and
backend attribution — on every stack (reference / compiled / fused
``rerun_many``).  The contract holds by construction, not by luck:

* Mutation is *functional*: :meth:`SimulationSession.mutate` swaps in a
  brand-new graph object rather than patching the old one in place, so
  every cache keyed by object identity (the ``batch_graph_of`` mirror,
  the fused draw-slab cache) is coherent by
  definition — a new topology arrives with fresh caches (the mirror
  spliced into new arrays) instead of stale ones.  What the new graph
  shares with the old — labels, identities, the label index and the
  identity mix when the node set is unchanged — is immutable.  The only
  cross-object cache, the fused slab registry, is evicted explicitly on
  every mutate/close (:func:`~repro.local.fused.release_slabs_of`).
* The incremental CSR patch produces the *canonical* layout — node
  order = identity order, rows sorted by neighbour identity, ports =
  ranks — which is exactly what a from-scratch build produces, so equal
  topology means equal bits (D9 purity: draws depend only on
  ``(run_key, identity)``, never on how the graph object was made).
"""

from __future__ import annotations

from ..errors import ParameterError
from .execution import installed, resolve
from .fused import release_slabs_of, run_many
from .graph import GraphDelta, SimGraph
from .runner import run


class SimulationSession:
    """A live graph plus warm execution state, mutated and rerun in place.

    Use as a context manager, or pair :func:`open_session` with
    :meth:`close`::

        with open_session(graph, backend="compiled") as session:
            session.rerun(algo, seed=1)
            session.mutate(GraphDelta(add_edges=[(3, 9)]))
            session.rerun(algo, seed=1)   # ≡ cold run on the new graph

    The ``backend`` pin is resolved once, at open, into the session's
    :class:`~repro.local.execution.Execution` record — the ambient
    record for every :meth:`rerun`, :meth:`rerun_many` and
    :meth:`scope`.  Any rerun may override it per call, which is how
    the differential harness flips backends mid-script.
    """

    __slots__ = ("_graph", "_execution", "_epoch", "_reruns", "_closed")

    def __init__(self, graph, *, backend=None):
        if not isinstance(graph, SimGraph):
            raise ParameterError(
                f"sessions wrap a SimGraph, got {type(graph).__name__}"
            )
        self._graph = graph
        self._execution = resolve(backend)
        self._epoch = 0
        self._reruns = 0
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The session's live graph (a new object after every mutate)."""
        return self._graph

    @property
    def epoch(self):
        """Number of effective (non-empty) mutations applied so far."""
        return self._epoch

    @property
    def closed(self):
        return self._closed

    def stats(self):
        """Diagnostic counters: epoch and rerun count."""
        return {"epoch": self._epoch, "reruns": self._reruns}

    def _check_open(self):
        if self._closed:
            raise ParameterError("session is closed")

    def close(self):
        """Release the session's slab-cache entries.

        Idempotent.  The graph itself stays valid — it is an ordinary
        immutable :class:`SimGraph` the caller may keep using.
        """
        if self._closed:
            return
        self._closed = True
        cg = self._graph._compiled
        if cg is not None:
            release_slabs_of(cg)

    def __enter__(self):
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # mutate / rerun
    # ------------------------------------------------------------------
    def mutate(self, delta):
        """Apply a :class:`GraphDelta` incrementally; returns ``self``.

        Validation is eager and total — on any
        :class:`~repro.errors.ParameterError` the session state is
        untouched.  An empty delta is the no-op identity: same graph
        object, same caches, epoch unchanged.

        Unlike :meth:`SimGraph.apply_delta` this always takes the
        incremental CSR patch (that is the service's point); the
        rebuild path is the oracle the harness diffs against.
        """
        self._check_open()
        if not isinstance(delta, GraphDelta):
            raise ParameterError(
                f"mutate expects a GraphDelta, got {type(delta).__name__}"
            )
        old = self._graph
        delta.validate(old)
        if delta.is_empty():
            return self
        new = old.compiled().apply_delta(delta)
        self._graph = new
        self._epoch += 1
        # The one cross-object cache: fused slabs keyed by member-graph
        # identity.  Evict deterministically — user code may still hold
        # the retired graph, so the weakref finalizer may never fire.
        release_slabs_of(old._compiled)
        return self

    def rerun(self, algorithm, **kwargs):
        """Run ``algorithm`` on the live graph under the session record.

        Accepts every keyword of :func:`~repro.local.runner.run`
        (``seed``, ``guesses``, ``inputs``, ``backend``, ...); explicit
        keywords override the session record per call.
        """
        with self.scope():
            result = run(self._graph, algorithm, **kwargs)
        self._reruns += 1
        return result

    def rerun_many(self, algorithms, **kwargs):
        """Fused sweep over the live graph: one lane per algorithm.

        ``algorithms`` is an iterable of node algorithms (or
        ``(algorithm, opts)`` pairs); every lane shares the session
        graph, so the whole sweep packs into one block-diagonal slab
        (D16).  Per-lane ``seed``, ``salt``, ``guesses`` and ``inputs``
        go in each pair's ``opts``.  Accepts the keywords of
        :func:`~repro.local.fused.run_many` (``max_rounds``,
        ``default_output``, ``truncate``, ``backend``); ``backend``
        overrides the session record per call.
        """
        jobs = []
        for entry in algorithms:
            if isinstance(entry, (tuple, list)):
                if len(entry) != 2:
                    raise ParameterError(
                        "each rerun_many entry must be an algorithm or "
                        f"(algorithm, opts), got {len(entry)} items"
                    )
                jobs.append((self._graph, *entry))
            else:
                jobs.append((self._graph, entry))
        with self.scope():
            result = run_many(jobs, **kwargs)
        self._reruns += len(jobs)
        return result

    def scope(self):
        """A scope that installs this session's execution record.

        Lets session-unaware helpers (alternation drivers, estimator
        pipelines) run exactly as the session's reruns do, without
        threading keywords through every call::

            with session.scope():
                uniform.run(session.graph, seed=3)
        """
        self._check_open()
        return installed(self._execution)

    def __repr__(self):
        state = "closed" if self._closed else "open"
        return (
            f"SimulationSession({self._graph!r}, epoch={self._epoch}, "
            f"reruns={self._reruns}, {state})"
        )


def open_session(graph, *, backend=None):
    """Open a :class:`SimulationSession` on ``graph``.

    The ``backend`` pin becomes the default for every ``rerun`` of the
    session; see :class:`SimulationSession`.
    """
    return SimulationSession(graph, backend=backend)
