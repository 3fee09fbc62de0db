"""Round-fused execution drivers (DESIGN.md, D17).

Every backend so far returns to the interpreter once per simulated
round, so round-dominated workloads — the paper's pruning protocols and
Theorem-2 alternations, where each ``B_i = (A_i ; P)`` step is many
cheap fixed-schedule rounds — pay a per-round Python floor that
vectorization cannot amortize.  This module removes that floor for
certified kernels by executing the *whole* round schedule inside one
driver call:

* **Phase-fused** (:func:`run_phase_fused`) — ``LockstepKernel``
  subclasses declare their schedule at construction, every node stays
  active until the final round, and each non-final round broadcasts one
  payload per edge slot.  The message total therefore settles
  arithmetically (``schedule × degrees.sum()``), termination times are
  all ``schedule``, and the kernel's :meth:`run_phases` runs the state
  recurrence without any per-round ledger bookkeeping (and may
  early-exit once the recurrence provably reaches a fixed point).
* **Fixed-point** (:func:`run_fixed_point`) — self-terminating frontier
  kernels (the Luby family) expose :meth:`run_fixedpoint`, which steps
  frontier-to-fixed-point inside one call with the per-round list
  building, trace sampling and termination checks hoisted out of the
  hot loop, and returns the per-round finish events for the driver to
  settle into the ledger afterwards.  The divergence cap is enforced
  inside the driver, identical to :func:`repro.local.engine.run_batch`.

Eligibility is capability-gated (``supports_roundfuse``) with the exact
fallback discipline of D10–D16: ``track_bits``, fused execution, an
uncertified algorithm, or the ``REPRO_ROUNDFUSE=0`` kill-switch
(``Execution.roundfuse``) each degrade to the per-round batch path,
bit-identical.  Fused drives are tagged ``"rf"`` in step records.
"""

from __future__ import annotations

from ..errors import NonTerminationError


def try_drive(
    kernel, cg, algorithm, *, cap, truncating, default_output, result_cls
):
    """Round-fuse one engine run, or return ``None`` to decline.

    The caller (:func:`repro.local.engine.run_compiled`) has already
    built the batch kernel and gated ``track_bits`` and the execution's
    ``roundfuse`` switch; this helper adds the remaining D17 gates —
    capability record and a driver that actually fits the
    configuration.  Declining is always safe: the per-round
    :func:`~repro.local.engine.run_batch` loop is the exact same state
    machine, one round at a time.
    """
    from .algorithm import capabilities_of
    from .runner import note_stepping

    if not capabilities_of(algorithm).get("supports_roundfuse"):
        return None
    driven = drive_kernel(kernel, cap)
    if driven is None:
        return None
    note_stepping("rf")
    return settle(
        driven,
        kernel,
        cg.labels,
        algorithm,
        cap=cap,
        truncating=truncating,
        default_output=default_output,
        result_cls=result_cls,
    )


def drive_kernel(kernel, cap):
    """Run a fresh kernel's whole schedule fused; ``None`` to decline.

    Returns ``(events, rounds, messages)``: ``events`` is the list of
    ``(round, finished_indices, results)`` commits the per-round loop
    would have produced, ``rounds`` how many ``step()`` rounds executed
    (``rounds == cap`` with ``kernel.done`` false means the cap bit —
    truncation or :class:`NonTerminationError` — is the caller's to
    settle, exactly as in ``run_batch``).  Shared by the engine driver
    and the virtual-domain batch loops.
    """
    if kernel.done or getattr(kernel, "round", 0):
        return None  # only fresh kernels: the fused drivers replay round 0
    schedule = getattr(kernel, "schedule", None)
    if schedule is not None and hasattr(kernel, "run_phases"):
        if cap < schedule:
            # The schedule cannot complete under this cap; the generic
            # loop's round-by-round truncation semantics must apply.
            return None
        charge = kernel.bg.charge()
        kernel.start()
        results = kernel.run_phases()
        events = [(schedule, list(range(kernel.bg.n)), results)]
        return events, schedule, schedule * charge
    run_fixedpoint = getattr(kernel, "run_fixedpoint", None)
    if run_fixedpoint is not None:
        return run_fixedpoint(cap)
    return None


def settle(
    driven, kernel, labels, algorithm, *, cap, truncating, default_output,
    result_cls,
):
    """Fold a fused drive's events into the LOCAL-model ledger.

    Field-for-field identical to what the per-round ``run_batch`` loop
    commits: outputs and termination times from the finish events,
    truncation forcing the default output at the cap, non-termination
    raising with the undone labels.
    """
    events, rounds, messages = driven
    outputs = {}
    finish_round = {}
    for rnd, finished, results in events:
        for i, value in zip(finished, results):
            label = labels[i]
            outputs[label] = value
            finish_round[label] = rnd
    if not kernel.done:
        undone = kernel.undone_indices()
        if truncating:
            for i in undone:
                label = labels[i]
                outputs[label] = default_output
                finish_round[label] = cap
            return result_cls(
                outputs,
                finish_round,
                cap,
                messages,
                frozenset(labels[i] for i in undone),
                None,
            )
        raise NonTerminationError(
            algorithm.name, cap, [labels[i] for i in undone]
        )
    total = max(finish_round.values()) if finish_round else 0
    return result_cls(
        outputs, finish_round, total, messages, frozenset(), None
    )
