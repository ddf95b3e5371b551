"""The canonical telemetry event vocabulary.

One flat namespace of event kinds shared by *every* layer — the
discrete-event simulator, the accounting ledgers, and the live
(threaded) runtime — so a dashboard, trace file, or report built against
these names works identically on simulated and real executions.

The string values are part of the trace format: recorded traces carry
them verbatim, so renaming a constant's value invalidates old traces.
"""

# -- job lifecycle (simulator local schedulers) -------------------------
JOB_SUBMITTED = "job_submitted"
JOB_REFUSED = "job_refused"                  # submit rejected (disk full)
JOB_PLACED = "job_placed"                    # image arrived, execution began
JOB_PLACEMENT_FAILED = "job_placement_failed"
JOB_SUSPENDED = "job_suspended"              # owner returned, grace started
JOB_RESUMED = "job_resumed"                  # owner left within grace
JOB_VACATED = "job_vacated"                  # checkpointed back home
JOB_KILLED = "job_killed"                    # killed without checkpoint
JOB_PREEMPTED = "job_preempted"              # coordinator priority preemption
JOB_PERIODIC_CHECKPOINT = "job_periodic_checkpoint"
JOB_COMPLETED = "job_completed"
JOB_REMOVED = "job_removed"
JOB_FAILED = "job_failed"                    # the job's own code raised
HOST_LOST = "host_lost"                      # hosting station went down

# -- daemons ------------------------------------------------------------
COORDINATOR_CYCLE = "coordinator_cycle"
#: An anti-entropy poll reply advanced a station's state past what its
#: pushed updates delivered — i.e. a ``state_update`` was lost and the
#: delta-protocol view drifted until repaired.  Never emitted on a
#: healthy network, so traces stay byte-identical with polling mode.
COORDINATOR_VIEW_REPAIR = "coordinator_view_repair"

# -- faults and recovery ------------------------------------------------
#: A chaos schedule (or injector) introduced a fault: station crash,
#: coordinator crash, network partition, loss burst, crash-mid-transfer.
FAULT_INJECTED = "fault_injected"
#: The corresponding repair: recovery, failover, heal, burst end.
FAULT_CLEARED = "fault_cleared"
#: A bulk transfer failed (endpoint crashed / partition / loss).
TRANSFER_FAILED = "transfer_failed"
#: A reliable control message (state_update, host_lost, job notices) or
#: an aborted transfer is being re-sent after a jittered backoff.
MESSAGE_RETRY = "message_retry"
#: A capped retry loop exhausted its attempts (anti-entropy repairs it).
MESSAGE_GIVE_UP = "message_give_up"
#: A host discarded a foreign-job execution whose placement the home had
#: already revoked (host_lost during a partition): the lease went stale,
#: the cycles are booked as wasted, the slot is freed.
STALE_EXECUTION_REAPED = "stale_execution_reaped"

# -- checkpoint storage faults ------------------------------------------
#: A checkpoint image that came home could not be stored (disk full or
#: failed): the image is lost and the job restarts from its previous
#: generation.  Previously this loss was silent.
CHECKPOINT_IMAGE_LOST = "checkpoint_image_lost"
#: A checkpoint write tore mid-copy; the two-phase store kept every
#: previous generation, so only the progress in the torn image is lost.
CHECKPOINT_WRITE_TORN = "checkpoint_write_torn"
#: Verify-on-restore rejected the newest stored image (checksum
#: mismatch) and fell back to an older generation — or, with none left,
#: to a zero-progress restart.  A corrupt image is never resumed from.
CHECKPOINT_RESTORE_FALLBACK = "checkpoint_restore_fallback"

#: The fault/recovery vocabulary (chaos traces are built from these).
FAULT_KINDS = (
    FAULT_INJECTED, FAULT_CLEARED, TRANSFER_FAILED, MESSAGE_RETRY,
    MESSAGE_GIVE_UP, STALE_EXECUTION_REAPED,
)

#: Checkpoint-durability vocabulary (storage chaos traces add these).
STORAGE_KINDS = (
    CHECKPOINT_IMAGE_LOST, CHECKPOINT_WRITE_TORN,
    CHECKPOINT_RESTORE_FALLBACK,
)

# -- federation (federation_pools > 1) ----------------------------------
#: A pool coordinator advertised (surplus, need, pressure) to the
#: matchmaker.  Sent only when the advertised tuple changed, so a quiet
#: federation is silent.
POOL_ADVERT = "pool_advert"
#: The matchmaker brokered a lease and the lending pool shipped the
#: stations to the borrower.
CROSS_POOL_LEASE_GRANTED = "cross_pool_lease_granted"
#: The borrower returned a leased station (owner came back, the
#: borrower's own backlog drained, the lease ran out, or the borrowing
#: coordinator recovered from a crash and forgot the loan).
CROSS_POOL_LEASE_RETURNED = "cross_pool_lease_returned"
#: The lender's reclaim timer fired with the loan still outstanding
#: (borrower crashed or its return message is lost): the lender takes
#: the station back unilaterally.
CROSS_POOL_LEASE_EXPIRED = "cross_pool_lease_expired"

#: Federation vocabulary (federated traces add these).
FEDERATION_KINDS = (
    POOL_ADVERT, CROSS_POOL_LEASE_GRANTED, CROSS_POOL_LEASE_RETURNED,
    CROSS_POOL_LEASE_EXPIRED,
)

# -- machine substrate --------------------------------------------------
#: One CPU-attribution ledger entry (category, interval, fraction).
LEDGER_ENTRY = "ledger_entry"
#: Owner presence changes (live workers; the simulator's equivalent is
#: carried by the owner/remote-job ledger intervals).
OWNER_ARRIVED = "owner_arrived"
OWNER_DEPARTED = "owner_departed"

# -- the spine itself ---------------------------------------------------
#: A subscriber callback raised; the exception was isolated and recorded.
TELEMETRY_ERROR = "telemetry_error"

#: The scheduler-facing lifecycle vocabulary (jobs and the daemons).
JOB_LIFECYCLE = (
    JOB_SUBMITTED, JOB_REFUSED, JOB_PLACED, JOB_PLACEMENT_FAILED,
    JOB_SUSPENDED, JOB_RESUMED, JOB_VACATED, JOB_KILLED, JOB_PREEMPTED,
    JOB_PERIODIC_CHECKPOINT, JOB_COMPLETED, JOB_REMOVED, JOB_FAILED,
    HOST_LOST, COORDINATOR_CYCLE, COORDINATOR_VIEW_REPAIR,
)

#: Checkpoint-bearing events (Fig. 8's numerator, trace replay's count).
CHECKPOINT_KINDS = (JOB_VACATED, JOB_PERIODIC_CHECKPOINT)

ALL_KINDS = JOB_LIFECYCLE + FAULT_KINDS + STORAGE_KINDS + FEDERATION_KINDS + (
    LEDGER_ENTRY, OWNER_ARRIVED, OWNER_DEPARTED, TELEMETRY_ERROR,
)
