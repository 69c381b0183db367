(** Verification-as-a-service: the [emmver serve] daemon and its client.

    One long-running process amortizes everything the platform built for a
    single CLI invocation across many callers: the content-addressed result
    cache ({!Vcache}) stays warm, the fork worker pool ({!Parallel})
    absorbs crashes and deadline kills, and {!Obs} counters become a live
    metrics endpoint.  The daemon listens on a {e Unix-domain socket} and
    speaks a newline-delimited JSON {e line protocol} — one request or
    reply per line, no framing beyond ['\n'], no dependencies beyond
    [unix].

    Scheduling model:

    - a {b bounded job queue} with explicit backpressure: when the queue is
      full a [submit] gets an immediate [busy] reply — the daemon never
      buffers without bound; a [submit] with more properties than the
      bound gets a non-retryable [error] naming both numbers;
    - {b per-client fairness}: queued jobs are organized per client id and
      dispatched round-robin across clients, so a flooding tenant cannot
      starve the others;
    - {b per-job budgets} from {!Policy.budgets}: the server clamps every
      submission's depth/timeout to its configured ceilings and enforces
      the wall budget with a SIGKILL deadline on the worker;
    - {b crash containment}: each job runs in a forked worker
      ({!Parallel.Async}); a crashing or overrunning job reports an
      [inconclusive] result for itself and nothing else;
    - {b graceful drain}: on SIGTERM/SIGINT (or a [shutdown] request)
      in-flight jobs finish and deliver their results, queued jobs receive
      [shutdown] replies, then the daemon exits cleanly;
    - {b cache maintenance}: the server loop periodically runs
      {!Vcache.maintain} with configurable size/age watermarks, so the
      store is administered without an operator;
    - {b crash safety} (with [config.journal] set): every accepted job and
      every completed result is written to a checksummed write-ahead
      {!Journal} and fsync'd before the corresponding reply leaves the
      daemon.  A restart replays the journal — undelivered results are
      retained for [resume], unfinished jobs re-enqueue, workers orphaned
      by a hard death are reaped ({!Parallel.reap_orphan}) — so a SIGKILL
      at any instant loses no accepted job.  Results are retained until
      the owning tenant [ack]s them: {e at-least-once} delivery.

    The wire protocol is specified in the {{!page-protocol}protocol
    manual}; operating the daemon (including durability and recovery) is
    covered in the {{!page-operations}operations manual}. *)

val protocol_version : int
(** Version tag carried by [hello] replies; bumped on protocol changes.
    Version 2 added [resume]/[ack], retry hints on [busy]/[shutdown]
    replies and the [durability] metrics object — all v1 forms are
    unchanged, and a v2 client parses v1 replies (missing hints read as
    [0] / absent). *)

(** Write-ahead job journal backing the daemon's crash safety; exposed for
    tests and tooling. *)
module Journal = Journal

val default_socket : unit -> string
(** [$EMMVER_SOCKET], else [/tmp/emmver-<uid>.sock] — shared default of
    [emmver serve] and [emmver client]. *)

val load_design : string -> (Netlist.t, string) result
(** Resolve a design reference the way the CLI does — a registry name (see
    [emmver list]), or a path to an [.emn] / [.aag] file — without
    exiting. *)

val select_properties :
  Netlist.t -> design:string -> string option -> (string list, string) result
(** The properties a request names: [Some p] when the design has [p], all
    of the design's properties for [None].  The error names the design's
    properties, or says it has none.  The daemon checks every submission
    with it, and the CLI's [verify] and [portfolio] their [-p]. *)

(** {1 Wire protocol} *)

(** Message types and their canonical JSON codec, shared with the
    journal. *)
module Proto = Proto

(** {1 The daemon} *)

module Server : sig
  type config = {
    socket : string;
    workers : int;  (** concurrent forked jobs *)
    max_queue : int;
        (** queued-job bound; beyond it submissions get [busy], and a
            submission larger than the bound itself gets [error] *)
    cache_dir : string option;  (** [None] disables the result cache *)
    gc_policy : Vcache.gc_policy;
    gc_interval_s : float;  (** seconds between {!Vcache.maintain} runs *)
    budgets : Policy.budgets;
        (** per-job ceilings: submissions are clamped to [max_depth] /
            [wall_s], and [conflicts] / [learnt_mb] are forced onto every
            job's options *)
    kill_grace_s : float;
        (** slack added to a job's wall budget before the SIGKILL deadline
            fires, so the engine's own timeout gets to return a clean
            [Inconclusive] first *)
    quiet : bool;  (** suppress the per-event log lines on stdout *)
    journal : string option;
        (** write-ahead job journal path; [None] (the default) disables
            durability — a restart forgets the queue and disconnects
            cancel, exactly the v1 behavior *)
    runner : (Proto.submit -> property:string -> options:Emmver.options ->
             Emmver.outcome) option;
        (** test seam: replaces [Emmver.verify] as the forked job body;
            [None] (the default) runs the real engine *)
  }

  val config :
    ?workers:int ->
    ?max_queue:int ->
    ?cache_dir:string option ->
    ?gc_policy:Vcache.gc_policy ->
    ?gc_interval_s:float ->
    ?budgets:Policy.budgets ->
    ?kill_grace_s:float ->
    ?quiet:bool ->
    ?journal:string ->
    ?runner:(Proto.submit -> property:string -> options:Emmver.options ->
            Emmver.outcome) ->
    socket:string ->
    unit ->
    config
  (** Defaults: [workers = Parallel.default_jobs ()], [max_queue = 64],
      [cache_dir = Some (Vcache.default_dir ())], no watermarks,
      [gc_interval_s = 60.], unlimited budgets, [kill_grace_s = 10.],
      no journal. *)

  val run : config -> unit
  (** Bind the socket and serve until a graceful drain completes.  Installs
      SIGTERM/SIGINT handlers (drain) and ignores SIGPIPE.  Raises
      [Failure] if the socket path is already served by a live daemon,
      one that is draining or replaying its journal included; a stale
      socket file left by a dead one (the connect is refused, or reset
      before any reply) is replaced.

      With [config.journal] set, [run] first replays the journal: orphaned
      workers of a dead incarnation are token-checked and SIGKILLed,
      undelivered results go back to the retained set, unfinished jobs
      re-enqueue under their original ids, and the journal is compacted.
      On a graceful exit the journal is compacted again — carried-over
      jobs (e.g. queued jobs bounced by a drain) survive for the next
      incarnation. *)
end

(** {1 The client} *)

(** Capped jittered exponential backoff, for retrying [busy]/draining/
    unreachable daemons without stampeding them. *)
module Backoff : sig
  type t

  val create : ?base_s:float -> ?cap_s:float -> ?attempts:int -> unit -> t
  (** Defaults: [base_s = 0.5], [cap_s = 30.], [attempts = 5].
      [attempts = 0] means never retry ({!next} is immediately [None]). *)

  val next : t -> hint_s:float option -> float option
  (** The next delay to sleep, or [None] when the attempts are exhausted.
      The k-th delay (0-based) is [min cap_s (max base_s hint) * 2^k]
      scaled by a uniform jitter factor in [0.5, 1.0) — pass the server's
      [retry_after_s] as [hint_s] so the schedule respects it. *)

  val attempts_used : t -> int
end

module Client : sig
  type t

  val connect : ?client:string -> ?timeout_s:float -> string -> (t, string) result
  (** Connect to a daemon's socket, bounded by [timeout_s] (default 10 s —
      a listening-but-wedged daemon cannot hang the caller); with
      [client], introduce the given tenant id via [hello] (and check the
      reply) before returning. *)

  val close : t -> unit

  val server_version : t -> int option
  (** The daemon's protocol version from the [hello] exchange; [None] when
      {!connect} was called without [?client]. *)

  val send : t -> Proto.request -> (unit, string) result

  val read_reply : ?timeout_s:float -> t -> (Proto.reply, string) result
  (** Next reply line, in arrival order — [submit] acknowledgments and
      streamed [result] lines come through the same channel.  [Error] on
      timeout, EOF or an unparsable line. *)

  val request : ?timeout_s:float -> t -> Proto.request -> (Proto.reply, string) result
  (** [send] then [read_reply]. *)
end
