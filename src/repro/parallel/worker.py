"""Worker-process side of the matching fleet.

A worker is a long-lived child process holding two pieces of state:

* a **matcher replica**, rebuilt once from the template the pool ships at
  startup (class + ``__dict__`` minus the metrics binding and derived
  caches), and
* a **profile cache** keyed by profile id, so the hot path ships 16-byte
  pid pairs instead of pickled profile payloads — each profile crosses the
  process boundary at most once per run.  Profiles arrive either inline
  (``scores``) or through read-only shared-memory segments the master
  publishes once for the whole fleet (``shm_scores``); the worker handles
  both unconditionally, the master picks the transport.

Workers are *pure compute*: they evaluate the matcher's vectorized
:meth:`~repro.matching.matcher.Matcher._batch_scores` kernel over cached
profiles and return ``(similarities, costs)`` lists.  All accounting — the
virtual clock, matcher statistics, metrics, the
:class:`~repro.execution.store.ComparisonStore` — stays with the master,
which is what keeps a sharded run bit-identical to the serial path.

For chaos testing, a worker can carry a
:class:`~repro.resilience.faults.WorkerFaultSpec`: a seeded schedule under
which scoring requests SIGKILL the process mid-round, stall past the
master's reply deadline, or return truncated payloads.  The master's
supervision layer (:mod:`repro.parallel.pool`) must absorb all three
without changing results.

The module is deliberately import-light and free of module-level state so
it is safe under the ``spawn`` start method (each worker re-imports it in a
fresh interpreter).
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from repro.matching.matcher import Matcher

__all__ = ["worker_main", "rebuild_matcher"]


def rebuild_matcher(matcher_cls: type, state: dict) -> "Matcher":
    """Reconstruct a matcher replica from a pool template.

    Bypasses ``__init__`` (the template already carries validated state) and
    leaves the replica unbound from any metrics registry: workers never
    account, they only score.  Derived caches are not shipped; they are
    rebuilt empty here and refill deterministically during scoring.
    """
    matcher = matcher_cls.__new__(matcher_cls)
    matcher.__dict__.update(state)
    matcher._metrics = None
    matcher._init_derived_state()
    return matcher


def _read_segment(name: str, size: int) -> bytes:
    """Attach a read-only shm segment, copy out ``size`` payload bytes.

    On Python < 3.13 merely *attaching* registers the segment with the
    resource tracker — which the master also did on create, so the
    worker-side registration would cause spurious double-unregister noise
    and unlink races (the master owns the unlink).  ``track=False``
    (3.13+) skips the registration; on older versions the register call is
    suppressed for the duration of the attach.
    """
    from multiprocessing import shared_memory

    try:
        segment = shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track flag
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _skip_shm(resource_name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - not hit here
                original_register(resource_name, rtype)

        resource_tracker.register = _skip_shm
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    try:
        return bytes(segment.buf[:size])
    finally:
        segment.close()


def worker_main(connection: "Connection") -> None:
    """The worker loop: receive tasks over ``connection`` until stopped.

    Message protocol (tuples; first element is the kind):

    ``("matcher", cls, state)``
        Install the matcher replica.  Also clears the profile cache — a new
        template implies a new session.
    ``("faults", spec, slot, incarnation)``
        Install a :class:`~repro.resilience.faults.WorkerFaultSpec`: every
        subsequent scoring request first consults the seeded fault schedule
        and may SIGKILL the process, stall ``spec.hang_s`` wall seconds, or
        truncate the reply payload.
    ``("reset",)``
        Clear the profile cache and the matcher's pid-keyed derived state
        (sent at the start of every run, so stale pid-to-profile bindings
        can never leak across datasets).
    ``("ping",)``
        Reply ``("ok", "pong")`` — the pool's startup handshake proving the
        worker survived spawn and can round-trip messages.
    ``("scores", profiles, pid_pairs)``
        Cache the (previously unseen) ``profiles``, score ``pid_pairs``
        through the matcher's ``_batch_scores`` kernel, and reply with
        ``("ok", (similarities, costs, kernel_counts))`` or
        ``("error", repr)``.  The kernel counts are this chunk's staged
        scoring outcomes; the master merges them so sharded rounds report
        the same ``matcher.kernel.*`` telemetry as serial ones.
    ``("shm_scores", segments, pid_pairs)``
        Like ``scores``, but the fresh profiles arrive as ``(name, size)``
        shared-memory segments (each holding a pickled profile list) to
        attach, read and cache.  Reply format is identical.
    ``("shm_probe", name, size)``
        Attach the probe segment and verify its payload; reply
        ``("ok", "shm")`` or ``("error", repr)`` — the startup test that
        decides whether the master may use the shm transport at all.
    ``("stop",)``
        Exit the loop.
    """
    matcher: "Matcher | None" = None
    profiles: dict = {}
    fault_spec = None
    fault_rng = None
    fault_slot = 0
    fault_incarnation = 0
    request_ordinal = 0

    def score(pid_pairs) -> tuple:
        pairs = [(profiles[pid_x], profiles[pid_y]) for pid_x, pid_y in pid_pairs]
        counts = matcher.kernel_counts
        for key in counts:
            counts[key] = 0
        similarities, costs = matcher._batch_scores(pairs)
        return similarities, costs, dict(counts)

    def fault_action() -> str | None:
        """One seeded draw per scoring request (see WorkerFaultSpec)."""
        nonlocal request_ordinal
        request_ordinal += 1
        if fault_spec is None:
            return None
        return fault_spec.action(
            fault_slot, fault_incarnation, request_ordinal, fault_rng
        )

    def perturbed(reply: tuple, action: str | None) -> tuple:
        """Apply a non-lethal fault to an outgoing scoring reply."""
        if action == "hang":
            # Stall past the master's reply deadline; the (healthy) reply
            # below then lands on a pipe the master has already closed.
            time.sleep(fault_spec.hang_s)
            return reply
        if action == "corrupt" and reply[0] == "ok":
            similarities, costs, counts = reply[1]
            return ("ok", (similarities[: len(similarities) // 2], costs, counts))
        return reply

    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "scores":
            action = fault_action()
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            for profile in message[1]:
                profiles[profile.pid] = profile
            try:
                reply = ("ok", score(message[2]))
            except Exception as error:  # propagate, let the master degrade
                reply = ("error", repr(error))
            try:
                connection.send(perturbed(reply, action))
            except (BrokenPipeError, OSError):
                break
        elif kind == "shm_scores":
            action = fault_action()
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                for name, size in message[1]:
                    for profile in pickle.loads(_read_segment(name, size)):
                        profiles[profile.pid] = profile
                reply = ("ok", score(message[2]))
            except Exception as error:  # propagate, let the master degrade
                reply = ("error", repr(error))
            try:
                connection.send(perturbed(reply, action))
            except (BrokenPipeError, OSError):
                break
        elif kind == "shm_probe":
            try:
                payload = _read_segment(message[1], message[2])
                if payload == b"repro-shm-probe":
                    reply = ("ok", "shm")
                else:  # pragma: no cover - torn write
                    reply = ("error", "shm probe payload mismatch")
            except Exception as error:
                reply = ("error", repr(error))
            try:
                connection.send(reply)
            except (BrokenPipeError, OSError):
                break
        elif kind == "matcher":
            matcher = rebuild_matcher(message[1], message[2])
            profiles.clear()
        elif kind == "faults":
            fault_spec, fault_slot, fault_incarnation = message[1], message[2], message[3]
            fault_rng = fault_spec.rng_for(fault_slot, fault_incarnation)
            request_ordinal = 0
        elif kind == "reset":
            # Profile ids repeat across datasets: pid-keyed matcher caches
            # (the ED text cache) must go with the profiles.
            profiles.clear()
            if matcher is not None:
                matcher._init_derived_state()
        elif kind == "ping":
            try:
                connection.send(("ok", "pong"))
            except (BrokenPipeError, OSError):
                break
        elif kind == "stop":
            break
    connection.close()
