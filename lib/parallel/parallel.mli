(** Fork-based worker pool with crash and timeout isolation.

    The verification platform fans out independent SAT-backed obligations —
    one property per job, or one engine per job when racing engines —
    across OS processes.  Processes, not domains, are the right isolation
    unit here: every job builds its own mutable CDCL solver instance, a
    worker that runs out of memory or dies on a signal must not take the
    batch down, and a job over budget has to be stopped {e hard}
    ([SIGKILL]), which no in-process mechanism can guarantee.

    The design is fork-per-job: each job is executed by a fresh child
    process created with [Unix.fork], so the job closure and all its
    captured data (netlists, options) are inherited by address-space copy
    and never serialised.  Only the {e result} travels back to the parent,
    marshalled over a pipe.  Consequences:

    - the result type must be marshal-safe (no closures, no custom blocks);
      every verdict/outcome type of this platform qualifies;
    - mutations a job performs are invisible to the parent and to other
      jobs — workers cannot race on shared state by construction;
    - a worker that calls [exit], raises, segfaults, is OOM-killed or
      exceeds its wall-clock deadline yields an {!failure} for {e its} slot
      while every other job runs to completion.

    Results are returned in {b job order}, regardless of completion order:
    [run pool ~f [x0; x1; x2]] always pairs slot [i] with [f xi].  Scheduling
    order is therefore unobservable and [-j N] cannot change verdicts.

    {b Tracing}: when an [Obs] recorder is current in the parent, each job
    runs under [Obs.worker_scope] — the child records its own pid-annotated
    rows, marshals them back alongside the result, and the parent ingests
    them, so a [-j N] run yields one merged trace.  Workers that are
    SIGKILLed (deadline, cancellation) or crash before writing a payload
    contribute no rows: partial span trees are dropped, never merged. *)

type reason =
  | Crashed of string
      (** the worker exited non-zero, died on a signal, or raised an
          exception ([Crashed "uncaught exception: ..."]) *)
  | Timed_out of float  (** the per-job deadline, in seconds, that expired *)
  | Cancelled  (** killed (or never started) because a {!race} concluded *)
  | Protocol of string
      (** the worker exited 0 but its result could not be read back *)

type failure = {
  reason : reason;
  elapsed_s : float;
      (** wall-clock seconds the worker ran before failing — the partial
          telemetry surfaced in [Inconclusive "worker killed: ..."]
          outcomes *)
}

val failure_message : failure -> string
(** One-line rendering, e.g. ["killed by deadline after 2.0s"]. *)

type 'a job_result = ('a, failure) result

(** {2 Pools}

    A pool is a concurrency cap plus cumulative counters; it holds no live
    processes between calls, so one pool can be reused across any number of
    batches (the counters accumulate). *)

type t

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] makes a pool running at most [jobs] workers at once
    (default {!default_jobs}; values [< 1] are clamped to [1]). *)

val jobs : t -> int

val default_jobs : unit -> int
(** The host's available core count ([Domain.recommended_domain_count]). *)

type stats = {
  spawned : int;  (** workers forked over the pool's lifetime *)
  completed : int;  (** workers that returned a result *)
  crashed : int;
  timed_out : int;
  cancelled : int;
}

val stats : t -> stats

(** {2 Running batches} *)

val run :
  ?job_timeout_s:float -> t -> f:('a -> 'b) -> 'a list -> 'b job_result list
(** [run pool ~f xs] executes [f x] for every [x] in a forked worker, at
    most [jobs pool] at a time, and returns the results in job order.
    [job_timeout_s] is a hard per-job wall-clock deadline: a worker still
    alive that long after its own fork is SIGKILLed and its slot reports
    [Timed_out].  The call only raises on pool-level system errors (e.g.
    [fork] itself failing); per-job failures are values.  If such an error
    does escape, every worker still running is SIGKILLed and reaped before
    the exception propagates — an aborted batch never leaks child
    processes, and a pool can be reused for any number of batches without
    accumulating zombies. *)

val map :
  ?jobs:int -> ?job_timeout_s:float -> f:('a -> 'b) -> 'a list -> 'b job_result list
(** One-shot convenience: [map ~jobs ~f xs = run (create ~jobs ()) ~f xs]. *)

(** {2 Incremental jobs}

    The daemon-facing interface: the serve layer multiplexes worker pipes
    with client sockets in one select loop of its own, so it spawns jobs
    one at a time and services each pipe as it becomes readable.  The same
    worker machinery as {!run} backs it — crash containment, SIGKILL
    deadlines and trace-row ingestion behave identically. *)

module Async : sig
  type 'b handle
  (** One live forked job computing a ['b]. *)

  val spawn : t -> ?job_timeout_s:float -> f:('a -> 'b) -> 'a -> 'b handle
  (** Fork one worker computing [f x].  Counts against the pool's
      cumulative {!stats} but {e not} against its concurrency cap — the
      caller schedules admission. *)

  val fd : _ handle -> Unix.file_descr
  (** The parent's read end of the result pipe: select on this. *)

  val pid : _ handle -> int

  val elapsed_s : _ handle -> float
  (** Wall-clock seconds since the fork. *)

  val service : t -> 'b handle -> 'b job_result option
  (** Call when {!fd} is readable: drains available result bytes.  [None]
      while the worker is still producing; [Some result] once the pipe hit
      EOF — the child is then reaped, the fd closed, and the handle must
      not be serviced again ([Invalid_argument] if it is). *)

  val cancel : t -> _ handle -> unit
  (** SIGKILL the worker; its eventual {!service} settles with
      [Cancelled].  Idempotent, and a no-op after a deadline kill. *)

  val check_deadline : t -> _ handle -> unit
  (** SIGKILL the worker if its [job_timeout_s] deadline has passed; the
      eventual {!service} then settles with [Timed_out].  The caller's
      loop invokes this on its own tick. *)
end

(** {2 Orphan reaping}

    A daemon that dies hard (SIGKILL, power loss) abandons its forked
    workers: they reparent to init and keep computing into a closed pipe.
    A restarted daemon knows their pids from its journal, but a pid alone
    is not an identity — the kernel may have recycled it.  The guard is a
    {e process token}: the start time of the process (field 22 of
    [/proc/<pid>/stat], clock ticks since boot), which uniquely names one
    incarnation of a pid on one boot. *)

val process_token : int -> string
(** [process_token pid] is the start-time token of the live process [pid],
    or [""] when it cannot be read (process already gone, or no [/proc]).
    Record it at spawn; feed it back to {!reap_orphan} after a restart. *)

val reap_orphan : pid:int -> token:string -> bool
(** [reap_orphan ~pid ~token] SIGKILLs [pid] {e only} if its current
    process token exactly equals [token], and returns whether it did.
    A [token] of [""] never kills (an unreadable token at spawn must not
    license killing an arbitrary pid later).  The orphan is init's child,
    not ours, so there is nothing to [waitpid] — init reaps it. *)

(** {2 Racing}

    The portfolio combinator: run all candidates concurrently and stop as
    soon as one of them produces a result the caller deems conclusive. *)

val race :
  ?job_timeout_s:float ->
  t ->
  f:('a -> 'b) ->
  conclusive:('b -> bool) ->
  'a list ->
  (int * 'b) option * 'b job_result list
(** [race pool ~f ~conclusive xs] runs every job as {!run} does, but the
    first completed result [v] with [conclusive v = true] wins: all other
    workers are SIGKILLed, unstarted jobs are dropped, and both report
    [Cancelled].  Returns the winner as [(index into xs, value)] — [None]
    if no job produced a conclusive result — together with the full
    job-ordered result list (the winner appears in its slot; losers appear
    as the failures or inconclusive values they produced). *)
