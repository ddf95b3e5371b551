"""The per-workstation local scheduler daemon.

Each workstation runs one of these (§2.1).  It plays two roles at once:

* **submit side** — owns the station's background job queue, answers the
  coordinator's polls, reacts to capacity grants by placing its own jobs
  at granted machines, and receives checkpoints/completions back;
* **host side** — supervises the one foreign job executing locally and
  carries out :mod:`repro.core.owner_reaction`'s rule: stop it the
  instant the owner returns, wait the 5-minute grace period, and
  checkpoint it away if the owner stays (§4), or vacate it immediately
  when the coordinator orders a priority preemption.

The submit side has one path for each home-side move: :meth:`_spool`
stores a submitted job's executable (for a gang, every member's, all or
none — a refusal leaves no image behind); :meth:`_requeue` is the only
way a job returns to PENDING (placement failed, vacated, killed, host
lost, home rebooted); :meth:`_bank_image` is the only way a returned
vacate or periodic image enters the checkpoint store.

All costs the paper measures are charged here: placement and checkpoint
CPU at 5 s/MB on the *home* station, remote-syscall shadow load on the
home station while the job runs, and the daemon's own <1 % background
load.
"""

from functools import partial

from repro.core import job as jobstate
from repro.core.errors import SchedulingError, SubmissionRefused
from repro.core.owner_reaction import REASON_PRIORITY, OwnerReaction
from repro.core.queue import BackgroundJobQueue
from repro.machine.accounting import CHECKPOINT, PLACEMENT, REMOTE_JOB, SCHEDULER
from repro.machine.disk import DiskFullError
from repro.net import Node, ReliableSender
from repro.remote_unix import (
    CheckpointImage,
    CheckpointStore,
    CheckpointTornWrite,
    ShadowProcess,
    checkpoint_cpu_cost,
)
from repro.sim import HOUR
from repro.telemetry import kinds as ev

#: Attempts for a pushed ``state_update`` before giving up (a newer push
#: or the anti-entropy poll supersedes it; giving up merely forces the
#: next flush to resend full state).
PUSH_ATTEMPTS = 4
#: Attempts for the ``start_job`` placement RPC before the home station
#: abandons the placement and requeues the job.
PLACEMENT_ATTEMPTS = 6


class HostedExecution:
    """Host-side record of the one foreign job executing here."""

    __slots__ = ("job", "home_name", "allocation", "incarnation",
                 "run_started_at", "completion_handle", "grace_handle",
                 "periodic_handle", "slices")

    def __init__(self, job, home_name, allocation, incarnation):
        self.job = job
        self.home_name = home_name
        self.allocation = allocation
        #: The placement lease this execution runs under.  The home bumps
        #: ``job.incarnation`` on every (re)placement and revocation; a
        #: mismatch means the home gave up on us (host declared lost
        #: during a partition) and this execution must be reaped, never
        #: reported.
        self.incarnation = incarnation
        self.run_started_at = None
        self.completion_handle = None
        self.grace_handle = None
        self.periodic_handle = None
        #: Wall-clock (start, end) execution slices since placement,
        #: reported home for shadow/syscall accounting.
        self.slices = []

    def cancel_timers(self):
        for handle in (self.completion_handle, self.grace_handle,
                       self.periodic_handle):
            if handle is not None:
                handle.cancel()
        self.completion_handle = None
        self.grace_handle = None
        self.periodic_handle = None


class LocalScheduler(Node):
    """One station's Condor daemon (submit side + host side)."""

    def __init__(self, sim, net, station, hub, config):
        super().__init__(station.name)
        self.sim = sim
        self.net = net
        self.station = station
        self.hub = hub
        self.config = config
        self.reaction = OwnerReaction(config.grace_period,
                                      config.kill_on_owner_return)
        self.queue = BackgroundJobQueue(station.name, config.queue_discipline)
        self.store = CheckpointStore(
            station.disk, generations=config.checkpoint_generations
        )
        #: Home-side shadows for this station's remotely running jobs.
        self.shadows = {}
        #: Home-side map host-station-name -> our job placed there.
        self.active_by_host = {}
        #: Host-side record of the foreign job running here.
        self.hosted = None
        #: Incremented on every recovery; lets the coordinator detect a
        #: crash-and-reboot that fell between two polls.
        self.boot_epoch = 0
        #: Gangs waiting for a coordinated ``width``-machine launch.
        self.pending_gangs = []
        #: Placement start times by job id (placement-latency metric).
        self._placement_started = {}
        self._started = False
        #: Delta protocol: push ``state_update`` messages instead of
        #: waiting to be polled.  One coalesced push per simulation
        #: timestamp with an observable change, tagged with a monotonic
        #: per-sender sequence number so the coordinator can discard
        #: stale reordered updates.  Where pushes go: fixed with one
        #: pool; under federation a ``rehome`` message re-points it when
        #: this station is lent to (or returned from) another pool's
        #: coordinator.
        self.coordinator_name = "coordinator"
        #: Timestamp of the last accepted rehome — a monotonic guard so a
        #: delayed, re-delivered rehome cannot roll the pointer back.
        self._rehome_at = -1.0
        self._push_seq = 0
        self._last_pushed = None
        self._flush_handle = None
        #: Memoized observable-state dict, dropped by ``_mark_dirty``.
        #: Every observable mutation site marks dirty (that is what
        #: drives the push protocol), so between marks the probe/poll
        #: reply is a constant — and at 50k stations the anti-entropy
        #: sweep asks for it hundreds of thousands of times a day.
        self._state_cache = None
        #: Memoized probe-reply envelope ({"state": ..., "seq": ...}),
        #: likewise dropped by ``_mark_dirty``; never mutated after
        #: construction, so consecutive probes can share one object.
        self._reply_cache = None
        #: At-least-once delivery for pushes, placements and host→home
        #: job notices.  The jitter stream is seeded independently of the
        #: workload streams so retry timing cannot perturb them (and no
        #: draw happens unless a retry actually fires).
        self._retry = ReliableSender(net, self.name, hub=hub)

        net.attach(self)
        self.register_handler("poll", self._handle_poll)
        self.register_handler("grant", self._handle_grant)
        self.register_handler("gang_grant", self._handle_gang_grant)
        self.register_handler("start_job", self._handle_start_job)
        self.register_handler("preempt", self._handle_preempt)
        self.register_handler("host_lost", self._handle_host_lost)
        self.register_handler("job_vacated", self._handle_job_vacated)
        self.register_handler("job_completed", self._handle_job_completed)
        self.register_handler("job_killed", self._handle_job_killed)
        self.register_handler("periodic_checkpoint",
                              self._handle_periodic_checkpoint)
        self.register_handler("rehome", self._handle_rehome)
        station.on_owner_change(self._owner_changed)

    def start(self):
        """Start the station and announce it to the coordinator."""
        if self._started:
            return
        self._started = True
        self.station.start()
        # Announce the initial state so the coordinator's view covers us
        # without waiting for its first full probe.
        self._mark_dirty()

    # ------------------------------------------------------------------
    # delta protocol (push side)

    def _observable_state(self):
        """The fields the coordinator allocates from (poll or push).

        Memoized until the next ``_mark_dirty``; callers treat the
        returned dict as read-only (pushes and poll replies copy it
        before adding per-message fields).
        """
        state = self._state_cache
        if state is None:
            state = self._state_cache = {
                "idle": self.station.idle,
                "hosting_home": (self.hosted.home_name
                                 if self.hosted else None),
                "pending": self.queue.pending_count,
                "free_mb": self.station.disk.free_mb,
                "mean_idle": self.station.mean_idle_interval(),
                "idle_since": self.station.idle_since,
                "boot_epoch": self.boot_epoch,
                "arch": self.station.arch,
                "pending_gangs": [gang.width for gang in self.pending_gangs],
            }
        return state

    def _mark_dirty(self):
        """Observable state may have changed: schedule one coalesced push.

        Zero-delay, so every same-timestamp mutation lands in a single
        ``state_update`` carrying the settled state — N queue operations
        in one event cost one message, not N.
        """
        self._state_cache = None
        self._reply_cache = None
        if self.crashed:
            return
        if self._flush_handle is None:
            self._flush_handle = self.sim.schedule(0.0, self._flush_state)

    def _flush_state(self):
        self._flush_handle = None
        if self.crashed:
            return
        state = self._observable_state()
        if state == self._last_pushed:
            return
        self._last_pushed = state
        self._push_seq += 1
        if self.net.knows(self.coordinator_name):
            seq = self._push_seq
            # Acknowledged with a capped retry: a push lost to a loss
            # burst or a briefly-down coordinator is re-sent instead of
            # waiting for anti-entropy.  Superseded (newer seq) or
            # post-crash retries abort; the coordinator's seq gate makes
            # duplicate deliveries harmless.
            # The state dict itself is the memoized snapshot — shared,
            # never mutated in place — so the envelope carries it by
            # reference with the seq alongside instead of copying it.
            self._retry.send(
                self.coordinator_name, "state_update",
                {"station": self.name, "state": state, "seq": seq},
                max_attempts=PUSH_ATTEMPTS,
                abort=lambda: self.crashed or self._push_seq != seq,
                on_give_up=self._push_gave_up,
            )

    def _handle_rehome(self, payload):
        """Federation moved this station to another pool's coordinator.

        Sent by the side *taking* ownership, after it has admitted the
        station into its view (the borrower on a lease grant; the lender
        on return or reclaim) — so by the time the pointer moves, the
        new coordinator can already absorb our pushes.  Timestamp-gated:
        rehomes are retried at-least-once and may arrive reordered, and
        only the newest assignment may win.
        """
        if self.crashed:
            return False
        at = payload["at"]
        if at < self._rehome_at:
            return False
        self._rehome_at = at
        target = payload["coordinator"]
        if target != self.coordinator_name:
            self.coordinator_name = target
            # The new coordinator has never heard from us (or forgot us
            # on lease return): resend full state unconditionally.
            self._last_pushed = None
            self._mark_dirty()
        return True

    def _push_gave_up(self):
        # Forget what the coordinator last saw so the next flush resends
        # full state even if it looks unchanged; until then the
        # anti-entropy poll covers the gap.
        self._last_pushed = None

    def charge_daemon_overhead(self):
        """Book one hour of daemon background load ending now."""
        if not self.crashed:
            self.station.ledger.add_load(
                SCHEDULER, self.sim.now - HOUR, self.sim.now,
                self.config.scheduler_daemon_load,
            )

    # ==================================================================
    # submit side
    # ==================================================================

    def submit(self, job):
        """Accept a background job from this station's user.

        Stores the job's initial image (its executable) among the local
        checkpoint files; raises :class:`SubmissionRefused` when the disk
        cannot hold it (§4's disk-pressure failure mode).
        """
        self._check_home(job)
        job.submitted_at = self.sim.now
        self._spool(job, (job,))
        self.queue.enqueue(job)
        self.hub.emit(ev.JOB_SUBMITTED, job=job, station=self.name)
        self._mark_dirty()

    def remove(self, job):
        """Withdraw a *pending* job (completed/placed jobs cannot be)."""
        if job.state != jobstate.PENDING:
            raise SchedulingError(
                f"can only remove pending jobs, {job.name} is {job.state}"
            )
        self.queue.retire(job)
        self.store.discard(job.id)
        job.transition(jobstate.REMOVED)
        self.hub.emit(ev.JOB_REMOVED, job=job, station=self.name)
        self._mark_dirty()

    def _handle_poll(self, payload):
        """Answer the coordinator: am I idle, what do I want, whom do I host.

        The reply is an envelope around the (shared) observable-state
        snapshot plus the seq of the last push, so a reply absorbed into
        the view can never be overridden by an older in-flight push —
        and the anti-entropy sweep's hundreds of thousands of probe
        replies per simulated day never copy the snapshot.
        """
        reply = self._reply_cache
        if reply is None:
            reply = self._reply_cache = {
                "state": self._observable_state(),
                "seq": self._push_seq,
            }
        return reply

    def submit_gang(self, gang):
        """Accept a parallel program for a coordinated launch (§5(2)).

        All member images must be spooled together, or the whole gang is
        refused exactly as :meth:`submit` refuses one job — half a
        parallel program is useless.
        """
        self._check_home(gang)
        self._spool(gang, gang.members)
        gang.submitted_at = self.sim.now
        for member in gang.members:
            member.submitted_at = self.sim.now
            self.hub.emit(ev.JOB_SUBMITTED, job=member,
                          station=self.name)
        self.pending_gangs.append(gang)
        self._mark_dirty()

    def _check_home(self, unit):
        if unit.home != self.station.name:
            raise SchedulingError(
                f"{unit.name} submitted at {self.station.name} but its "
                f"home is {unit.home}"
            )

    def _spool(self, unit, jobs):
        """Store each of ``jobs``' executable as its first image — all or
        none: a disk that cannot hold them together, a failed disk or a
        torn write leaves no image behind, refuses ``unit`` (a job or a
        gang) with ``job_refused`` and raises :class:`SubmissionRefused`.
        """
        total_mb = sum(job.image_mb() for job in jobs)
        if not self.store.can_store(unit.id, total_mb):
            problem = f"no disk for {total_mb:.2f} MB of images"
        else:
            try:
                for job in jobs:
                    self.store.store(CheckpointImage(
                        job.id, 0.0, job.image_mb(), self.sim.now,
                        sequence=self.store.images_stored + 1,
                    ))
                return
            except (DiskFullError, CheckpointTornWrite) as exc:
                for job in jobs:
                    self.store.discard(job.id)
                problem = f"could not spool its images ({exc})"
        self.hub.emit(ev.JOB_REFUSED, job=unit, station=self.name)
        raise SubmissionRefused(f"{self.name}: {unit.name}: {problem}")

    def _handle_gang_grant(self, payload):
        """The coordinator co-allocated machines: launch a whole gang."""
        hosts = payload["hosts"]   # [(name, free_mb, arch), ...]
        gang = next((g for g in self.pending_gangs
                     if g.width <= len(hosts)), None)
        if gang is None:
            return
        self.pending_gangs.remove(gang)
        gang.launched_at = self.sim.now
        for member, (host_name, free_mb, arch) in zip(gang.members, hosts):
            self.queue.mark_active(member)
            if member.image_mb() <= free_mb + 1e-9 and member.runs_on(arch):
                self._begin_placement(member, host_name)
            else:
                # This member cannot use its assigned machine; it falls
                # back to the ordinary queue and catches up later.
                self.queue.return_to_pending(member)
        self._mark_dirty()

    def _handle_grant(self, payload):
        """The coordinator granted us a machine — place our next job on it."""
        host_name = payload["host"]
        host_free_mb = payload["free_mb"]
        host_arch = payload["arch"]
        job = self._pick_job_that_fits(host_free_mb, host_arch)
        if job is None:
            return
        self.queue.mark_active(job)
        self._begin_placement(job, host_name)
        self._mark_dirty()

    def _begin_placement(self, job, host_name):
        """Ship the job's image to the host and ask it to start."""
        self._restore_verified(job)
        job.transition(jobstate.PLACING)
        # New placement lease.  The incarnation is the home's revocation
        # token: bumped again if this placement is abandoned or the host
        # declared lost, so a host acting under an old lease self-reaps.
        job.incarnation += 1
        self.active_by_host[host_name] = job
        self._placement_started[job.id] = self.sim.now
        image_mb = job.image_mb()
        cost = checkpoint_cpu_cost(image_mb)
        self.station.ledger.charge(PLACEMENT, cost)
        job.add_support("placement", cost)
        if job.id not in self.shadows:
            self.shadows[job.id] = ShadowProcess(
                job.id, job.syscall_rate, self.station.ledger
            )
        self.net.transfer(self.name, host_name, image_mb, partial(
            self._image_transfer_settled, job, host_name))

    def _restore_verified(self, job):
        """Verify-on-restore: never ship a corrupt or torn image.

        Before a PENDING job is re-placed, its newest stored generation's
        checksum is recomputed.  A failing image is discarded and the job
        falls back to the next older generation — or, when none survives,
        to a zero-progress restart (the executable is re-staged).  The
        re-run work is booked as wasted like any other rollback, and the
        fallback is telemetered so the no-lost-jobs checker can lower the
        job's verified-checkpoint floor accordingly.
        """
        image, discarded = self.store.fetch_verified(job.id)
        if discarded == 0:
            return
        restored = image.cpu_progress if image is not None else 0.0
        job.checkpointed_progress = restored
        lost = job.roll_back_to_checkpoint()
        self.hub.metrics.counter("checkpoint.restore_fallback").inc()
        self.hub.emit(
            ev.CHECKPOINT_RESTORE_FALLBACK, job=job, station=self.name,
            discarded=discarded, restored_progress=restored,
            lost_progress=max(0.0, lost),
            fallback="generation" if image is not None else "restart",
        )

    def _pick_job_that_fits(self, host_free_mb, host_arch):
        """Next pending job (per discipline) that fits the host's disk
        and can execute on its architecture (§5(4))."""
        skipped = []
        chosen = None
        while True:
            job = self.queue.select_next()
            if job is None:
                break
            if (job.image_mb() <= host_free_mb + 1e-9
                    and job.runs_on(host_arch)):
                chosen = job
                break
            skipped.append(job)
        for job in skipped:
            self.queue.enqueue(job)
        return chosen

    def _image_transfer_settled(self, job, host_name, outcome):
        """The placement image transfer completed or failed."""
        status, detail = outcome
        if status == "ok":
            self._image_delivered(job, host_name)
            return
        if self.crashed:
            return  # we died mid-ship; recover() requeues the placement
        self.hub.emit(ev.TRANSFER_FAILED, station=self.name,
                      dst=host_name, job=job, purpose="placement",
                      reason=detail)
        # No blind retry: the image never reached the host, so the
        # cheapest recovery is to requeue and let the coordinator grant a
        # (possibly different) machine next cycle.
        self._placement_settled(job, host_name, ("transfer_failed", detail))

    def _image_delivered(self, job, host_name):
        """The image reached the host; ask its scheduler to start the job.

        The start RPC is retried on ack timeout (the host's handler is
        idempotent under the placement lease), and abandoned once the
        placement is resolved another way — a host-lost notice, a crash
        on our side, or a revoked lease.
        """
        incarnation = job.incarnation
        self._retry.send(
            host_name, "start_job",
            {"job": job, "home": self.name, "incarnation": incarnation},
            max_attempts=PLACEMENT_ATTEMPTS,
            abort=lambda: (self.crashed
                           or self.active_by_host.get(host_name) is not job
                           or job.incarnation != incarnation),
            on_delivered=lambda response: self._placement_settled(
                job, host_name, ("ok", response)),
            on_give_up=lambda: self._placement_settled(
                job, host_name, ("timeout", None)),
        )

    def _placement_settled(self, job, host_name, outcome):
        status, detail = outcome
        accepted = status == "ok" and detail[0] == "started"
        started_at = self._placement_started.pop(job.id, None)
        if accepted and started_at is not None:
            # Simulated latency from shipping the image to execution
            # starting on the host (transfer + start RPC).
            self.hub.metrics.histogram("placement.latency_s").observe(
                self.sim.now - started_at
            )
        if accepted:
            return  # the host published JOB_PLACED and is executing it
        if self.active_by_host.get(host_name) is not job:
            return  # a host-lost notice already resolved this placement
        if job.state != jobstate.PLACING:
            # The host accepted but every ack was lost (partition), and
            # the job runs, is suspended or is vacating there: keep the
            # mapping — the completion/vacate notices or a host_lost
            # from the coordinator will resolve it.
            return
        if status == "ok":
            reason = detail[1]
        elif status == "transfer_failed":
            reason = f"transfer_{detail}"
        else:
            reason = "host_unreachable"
        job.incarnation += 1   # revoke: a late accept must self-reap
        self._requeue(job, host_name, ev.JOB_PLACEMENT_FAILED,
                      reason=reason)

    def _requeue(self, job, host, kind, **fields):
        """The one way a job returns to PENDING on its home: drop its host
        mapping and placement timer, queue it again and emit ``kind``."""
        self.active_by_host.pop(host, None)
        self._placement_started.pop(job.id, None)
        job.transition(jobstate.PENDING)
        self.queue.return_to_pending(job)
        self.hub.emit(kind, job=job, host=host, **fields)
        self._mark_dirty()

    def _record_slices(self, job, slices):
        """Book shadow syscall support for the reported execution slices."""
        shadow = self.shadows.get(job.id)
        if shadow is None or shadow.retired:
            return
        for t0, t1 in slices:
            charged = shadow.record_execution(t0, t1)
            job.add_support("syscall", charged)

    def _handle_job_vacated(self, payload):
        """Our job was checkpointed off its host and the image arrived.

        Delivered at-least-once: a duplicate (ack lost, notice re-sent)
        or a stale notice from a revoked lease is discarded — the job is
        no longer VACATING, or the incarnation moved on.
        """
        job = payload["job"]
        if (job.state != jobstate.VACATING
                or payload["incarnation"] != job.incarnation):
            return
        self._record_slices(job, payload["slices"])
        if self._bank_image(job, job.progress, payload["image_mb"],
                            "vacate"):
            job.checkpoint_count += 1
        else:
            # The job restarts from its previous stored image: the
            # progress this image carried is re-run.
            job.roll_back_to_checkpoint()
        self._requeue(job, payload["host"], ev.JOB_VACATED,
                      reason=payload["reason"])

    def _handle_job_completed(self, payload):
        """The host reports our job's demand is met (at-least-once).

        Exactly-once completion is enforced here: only a RUNNING job
        under the current lease completes; duplicates and notices from
        revoked leases (the host was declared lost mid-partition and the
        job re-placed) are discarded — the re-placed copy completes
        instead.
        """
        job = payload["job"]
        host = payload["host"]
        if (job.state != jobstate.RUNNING
                or payload["incarnation"] != job.incarnation):
            return
        self._record_slices(job, payload["slices"])
        job.transition(jobstate.COMPLETED)
        job.completed_at = self.sim.now
        self.active_by_host.pop(host, None)
        self.queue.retire(job)
        self.store.discard(job.id)
        shadow = self.shadows.pop(job.id, None)
        if shadow is not None:
            shadow.retire()
        self.hub.emit(ev.JOB_COMPLETED, job=job, station=self.name)
        self._mark_dirty()

    def _handle_job_killed(self, payload):
        """Butler-mode: our job was killed without a checkpoint."""
        job = payload["job"]
        if (job.state != jobstate.RUNNING
                or payload["incarnation"] != job.incarnation):
            return  # duplicate or stale-lease notice
        self._record_slices(job, payload["slices"])
        job.roll_back_to_checkpoint()
        job.kill_count += 1
        self._requeue(job, payload["host"], ev.JOB_KILLED)

    def _handle_host_lost(self, payload):
        """Coordinator says a machine hosting our job went down.

        This is the lease revocation: the incarnation bump invalidates
        whatever the declared-lost host is still doing (it may merely be
        partitioned, not dead — a zombie execution there reaps itself on
        the mismatch).  Idempotent: duplicates find the mapping gone.
        """
        host = payload["host"]
        job = self.active_by_host.pop(host, None)
        if job is None or not job.in_system or job.state == jobstate.PENDING:
            return
        job.roll_back_to_checkpoint()
        job.incarnation += 1
        self._requeue(job, host, ev.HOST_LOST)

    def _handle_periodic_checkpoint(self, payload):
        """A periodic (in-place) checkpoint image arrived from the host."""
        job = payload["job"]
        progress = payload["progress"]
        if payload["incarnation"] != job.incarnation:
            return  # stale: the job was killed/moved while this was in flight
        if progress <= job.checkpointed_progress:
            return  # a newer (vacate) checkpoint already superseded this one
        if not self._bank_image(job, progress, payload["image_mb"],
                                "periodic"):
            return  # the older image stands; only this interval is lost
        if job.state == jobstate.PENDING and progress > job.progress:
            # The job was killed after this image was cut: the image
            # recovers work the rollback had written off.
            job.progress = progress
        job.periodic_checkpoint_count += 1
        self.hub.emit(ev.JOB_PERIODIC_CHECKPOINT, job=job,
                      station=self.name)
        self._mark_dirty()

    def _bank_image(self, job, progress, image_mb, purpose):
        """Charge, record and store a returned (``vacate`` or ``periodic``)
        checkpoint image; return whether it landed.

        A torn write or a full (or failed) disk loses the image, loudly:
        the two-phase store keeps every older generation, so only the
        progress this image carried is at risk — the caller decides
        whether that is re-run (vacate) or merely less durable (periodic).
        """
        cost = checkpoint_cpu_cost(image_mb)
        self.station.ledger.charge(CHECKPOINT, cost)
        job.add_support("checkpoint", cost)
        self.hub.metrics.histogram("checkpoint.image_mb").observe(image_mb)
        self.hub.metrics.counter(f"checkpoint.{purpose}").inc()
        try:
            self.store.store(CheckpointImage(
                job.id, progress, image_mb, self.sim.now,
                sequence=self.store.images_stored + 1,
            ))
        except CheckpointTornWrite:
            self.hub.metrics.counter("checkpoint.dropped_torn_write").inc()
            self.hub.emit(ev.CHECKPOINT_WRITE_TORN, job=job,
                          station=self.name, purpose=purpose)
        except DiskFullError:
            self.hub.metrics.counter("checkpoint.dropped_disk_full").inc()
            self.hub.emit(ev.CHECKPOINT_IMAGE_LOST, job=job,
                          station=self.name, purpose=purpose,
                          reason="disk_full")
        else:
            job.checkpointed_progress = progress
            return True
        job.checkpoint_lost_count += 1
        return False

    # ==================================================================
    # host side
    # ==================================================================

    def _handle_start_job(self, payload):
        """RPC from a home station asking us to run its job.

        Idempotent under at-least-once delivery: a duplicate of a
        placement we already accepted is re-acknowledged (the first ack
        was lost), and a request whose lease the home has since revoked
        or reassigned is refused as stale.
        """
        job = payload["job"]
        home = payload["home"]
        incarnation = payload["incarnation"]
        if self.crashed:
            return ("refused", "crashed")
        if (self.hosted is not None and self.hosted.job is job
                and self.hosted.incarnation == incarnation):
            return ("started", None)
        if incarnation != job.incarnation or job.state != jobstate.PLACING:
            return ("refused", "stale_placement")
        if self.station.owner_active:
            return ("refused", "owner_active")
        if self.hosted is not None:
            return ("refused", "occupied")
        if not job.runs_on(self.station.arch):
            return ("refused", "wrong_arch")
        try:
            allocation = self.station.disk.allocate(
                job.image_mb(), purpose="foreign-image"
            )
        except DiskFullError:
            return ("refused", "disk_full")
        job.transition(jobstate.RUNNING)
        job.locked_arch = self.station.arch
        if job.first_placed_at is None:
            job.first_placed_at = self.sim.now
        job.placements.append(self.name)
        self.hosted = HostedExecution(job, home, allocation, incarnation)
        self.station.running_job = job
        self._begin_run_slice()
        self.hub.emit(ev.JOB_PLACED, job=job, host=self.name, home=home)
        self._mark_dirty()
        return ("started", None)

    def _begin_run_slice(self):
        hosted = self.hosted
        hosted.run_started_at = self.sim.now
        self.station.ledger.start(REMOTE_JOB)
        wall_needed = hosted.job.remaining_seconds / self.station.cpu_speed
        hosted.completion_handle = self.sim.schedule(
            wall_needed, self._hosted_job_finished
        )
        interval = self.config.periodic_checkpoint_interval
        if interval is not None:
            hosted.periodic_handle = self.sim.schedule(
                interval, self._take_periodic_checkpoint
            )

    def _close_run_slice(self):
        """Stop execution accrual; credit progress and remote CPU."""
        hosted = self.hosted
        t0 = hosted.run_started_at
        t1 = self.sim.now
        hosted.run_started_at = None
        if hosted.completion_handle is not None:
            hosted.completion_handle.cancel()
            hosted.completion_handle = None
        if hosted.periodic_handle is not None:
            hosted.periodic_handle.cancel()
            hosted.periodic_handle = None
        self.station.ledger.stop(REMOTE_JOB)
        cpu = (t1 - t0) * self.station.cpu_speed
        hosted.job.progress = min(
            hosted.job.demand_seconds, hosted.job.progress + cpu
        )
        hosted.job.remote_cpu_seconds += cpu
        hosted.slices.append((t0, t1))

    def _leased(self, hosted):
        """Whether ``hosted`` is still the execution here, under a lease
        its home honours (see :class:`HostedExecution.incarnation`).

        A revoked lease means we were declared lost (typically behind a
        partition) and the job rolled back and possibly re-placed
        elsewhere: the execution is reaped on the spot.
        """
        if hosted is None or self.crashed or self.hosted is not hosted:
            return False
        if hosted.incarnation != hosted.job.incarnation:
            self._reap_stale_execution()
            return False
        return True

    def _reap_stale_execution(self):
        """Discard a foreign execution whose lease the home revoked.

        The job's progress/state are *never* touched — another host may
        legitimately own them now.
        """
        hosted = self._drop_execution()
        self.hub.emit(ev.STALE_EXECUTION_REAPED, job=hosted.job,
                      host=self.name)
        self._mark_dirty()

    def _drop_execution(self):
        """Abandon the hosted execution without telling its home.

        The partial slice dies with it: the cycles were consumed but
        produce no durable progress, so they are booked as wasted.
        """
        hosted = self.hosted
        hosted.cancel_timers()
        if hosted.run_started_at is not None:
            hosted.job.book_dead_slice(
                (self.sim.now - hosted.run_started_at)
                * self.station.cpu_speed)
            self.station.ledger.stop(REMOTE_JOB)
            hosted.run_started_at = None
        return self._free_slot()

    def _free_slot(self):
        # Disk is held until the job leaves (§4).
        hosted = self.hosted
        hosted.allocation.release()
        self.station.running_job = None
        self.hosted = None
        return hosted

    def _leave(self, op, **fields):
        """The hosted job left (completed/vacated/killed): free the slot
        and send its home the must-deliver notice ``op``.

        Retried without cap: the paper's "guarantee job completion"
        rests on these.  The home-side handlers are idempotent, and a
        notice that went stale (the home revoked the lease meanwhile) is
        discarded there by the incarnation guard, so over-delivery is
        always safe.
        """
        hosted = self._free_slot()
        self._retry.send(hosted.home_name, op, {
            "job": hosted.job, "host": self.name, "slices": hosted.slices,
            **fields, "incarnation": hosted.incarnation,
        }, max_attempts=None)
        self._mark_dirty()

    def _owner_changed(self, station, active):
        # The idle flag flipped whether or not we host anyone — the
        # coordinator's view must hear about it.
        self._mark_dirty()
        hosted = self.hosted
        if self._leased(hosted):
            self._react(hosted, self.reaction.on_owner(
                hosted.job.state, active, self.sim.now))

    def _grace_expired(self, hosted):
        """Owner stayed past the grace period: checkpoint the job away."""
        if self._leased(hosted):
            self._react(hosted, self.reaction.on_timer(hosted.job.state))

    def _handle_preempt(self, payload):
        """Coordinator preemption order: vacate immediately, no grace."""
        hosted = self.hosted
        if self._leased(hosted):
            self._react(hosted, self.reaction.on_preempt(hosted.job.state))

    def _react(self, hosted, actions):
        """Carry out :class:`OwnerReaction`'s actions, in order."""
        job = hosted.job
        for action in actions:
            verb = action[0]
            if verb == "suspend":
                self._close_run_slice()
                job.transition(jobstate.SUSPENDED)
                self.hub.emit(ev.JOB_SUSPENDED, job=job, host=self.name)
            elif verb == "arm":
                hosted.grace_handle = self.sim.schedule_at(
                    action[1], self._grace_expired, hosted)
            elif verb == "cancel":
                hosted.grace_handle.cancel()
                hosted.grace_handle = None
            elif verb == "resume":
                job.transition(jobstate.RUNNING)
                self._begin_run_slice()
                self.hub.emit(ev.JOB_RESUMED, job=job, host=self.name)
            else:
                # "vacate" or "kill": the job leaves this station.
                if hosted.run_started_at is not None:
                    self._close_run_slice()
                if verb == "kill":
                    # Butler mode: terminate without saving state (§1).
                    self._leave("job_killed")
                    return
                reason = action[1]
                if reason == REASON_PRIORITY:
                    job.priority_preemptions += 1
                    self.hub.emit(ev.JOB_PREEMPTED, job=job, host=self.name)
                job.transition(jobstate.VACATING)
                self._send_vacate_image(
                    hosted, job.layout.image_mb(job.progress), reason, 1)

    def _send_vacate_image(self, hosted, image_mb, reason, attempt):
        self.net.transfer(self.name, hosted.home_name, image_mb, partial(
            self._vacate_transfer_settled, hosted, image_mb, reason, attempt))

    def _vacate_transfer_settled(self, hosted, image_mb, reason, attempt,
                                 outcome):
        # A crash mid-transfer leaves the home to learn via host_lost; a
        # lease revoked while we were checkpointing back reaps the job.
        if not self._leased(hosted):
            return
        status, detail = outcome
        if status != "ok":
            # The checkpoint must reach home or the job's progress since
            # its last image is lost: retry with backoff until it lands
            # or the lease dies (home crash heals on recovery; partition
            # heals by schedule).
            self.hub.emit(ev.TRANSFER_FAILED, station=self.name,
                          dst=hosted.home_name, job=hosted.job,
                          purpose="vacate", reason=detail)
            self.sim.schedule(self._retry.backoff(attempt + 1),
                              self._retry_vacate_transfer,
                              hosted, image_mb, reason, attempt + 1)
            return
        self._leave("job_vacated", image_mb=image_mb, reason=reason)

    def _retry_vacate_transfer(self, hosted, image_mb, reason, attempt):
        if not self._leased(hosted):
            return
        self.hub.emit(ev.MESSAGE_RETRY, station=self.name,
                      dst=hosted.home_name, op="vacate_transfer",
                      attempt=attempt)
        self._send_vacate_image(hosted, image_mb, reason, attempt)

    def _hosted_job_finished(self):
        """The hosted job's demand is met."""
        hosted = self.hosted
        if not self._leased(hosted):
            return
        self._close_run_slice()
        hosted.job.progress = hosted.job.demand_seconds  # shed float dust
        self._leave("job_completed")

    def _take_periodic_checkpoint(self):
        """Ship a checkpoint home while the job keeps running (§4 plan)."""
        hosted = self.hosted
        if not self._leased(hosted) or hosted.run_started_at is None:
            return
        job = hosted.job
        progress_now = job.progress + (
            (self.sim.now - hosted.run_started_at) * self.station.cpu_speed
        )
        image_mb = job.layout.image_mb(progress_now)
        self.net.transfer(self.name, hosted.home_name, image_mb, partial(
            self._periodic_transfer_settled, hosted.home_name, job,
            image_mb, progress_now, hosted.incarnation))
        hosted.periodic_handle = self.sim.schedule(
            self.config.periodic_checkpoint_interval,
            self._take_periodic_checkpoint,
        )

    def _periodic_transfer_settled(self, home, job, image_mb, progress,
                                   incarnation, outcome):
        status, detail = outcome
        if status != "ok":
            # Best-effort by design: a lost periodic image costs at most
            # one interval of re-execution; the next one (or the vacate
            # checkpoint) supersedes it.
            if not self.crashed:
                self.hub.emit(ev.TRANSFER_FAILED, station=self.name,
                              dst=home, job=job,
                              purpose="periodic_checkpoint", reason=detail)
            return
        self.net.message(home, "periodic_checkpoint", {
            "job": job, "image_mb": image_mb, "progress": progress,
            "incarnation": incarnation,
        }, src=self.name)

    # ==================================================================
    # failures
    # ==================================================================

    def crash(self):
        """The whole machine goes down.

        A hosted foreign job is stranded (its home learns from the
        coordinator's next failed poll); the local queue freezes until
        :meth:`recover`.
        """
        if self.crashed:
            return
        self.crashed = True
        if self.hosted is not None:
            self._drop_execution()
        # Abort every in-flight bulk transfer we are party to and free
        # the NIC reservations (the other endpoint's waiter sees the
        # failure and recovers; ours are gated on ``self.crashed``).
        self.net.endpoint_crashed(self.name)

    def recover(self):
        """The machine comes back up with an empty foreign-job slot."""
        if not self.crashed:
            return
        self.crashed = False
        self.boot_epoch += 1
        # Placements that were in flight when we went down died with
        # their transfer/RPC retry loops: revoke the leases and requeue.
        for host_name, job in list(self.active_by_host.items()):
            if job.state == jobstate.PLACING:
                job.incarnation += 1
                self._requeue(job, host_name, ev.JOB_PLACEMENT_FAILED,
                              reason="home_rebooted")
        # The bumped epoch is itself the readmission ticket: a push with
        # a newer boot epoch lifts the coordinator's quarantine.
        self._mark_dirty()

    def __repr__(self):
        return (
            f"<LocalScheduler {self.name} queue={self.queue.total_in_system} "
            f"hosting={self.hosted.job.name if self.hosted else None}>"
        )
