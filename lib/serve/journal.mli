(** Write-ahead job journal: the daemon's crash-safety spine.

    One append-only file of checksummed records.  Line 1 is the header
    [EMMVER-JOURNAL 1]; every further line is
    [<md5-hex-of-json> <canonical json>], so each record is independently
    verifiable — a torn tail, a flipped bit or a stray partial line is
    skipped at replay without poisoning its neighbours.  The record
    alphabet follows a job's life: [accepted] (the durable promise, fsync'd
    {e before} the wire [accepted] reply), [started] (worker pid + process
    token, for orphan reaping after a hard daemon death), [result] (fsync'd
    {e before} the result is pushed or retained), and [acked]/[cancelled]
    (the job is closed, its lines are garbage).

    Records are the protocol's own values: an [accepted] record holds a
    {!Proto.submit} and a [result] record a {!Proto.result_line}, rendered
    and read by {!Proto}'s codec behind a few header fields ([rec], [job],
    [tenant], [req]).  The byte format is the one the journal has always
    had — header, field names, field order, [%.3f] times and checksums —
    so a daemon replays its predecessor's file.  Compaction rewrites the
    file to just the open jobs with the vcache store discipline: tmp file,
    fsync, atomic [rename], directory fsync.

    Replay is idempotent: duplicated records collapse to the same job
    state, and {!open_} itself compacts, so a journal that crashed during
    compaction or grew a corrupt tail is clean again after one open. *)

type record =
  | Accepted of { job : int; tenant : string; submit : Proto.submit }
      (** everything needed to re-create the job after a restart: the
          daemon-assigned job id (reused verbatim at recovery), the owning
          tenant (the [hello] client name) and the protocol's submit,
          narrowed to the one property this job checks *)
  | Started of { job : int; pid : int; token : string }
      (** [token] is {!Parallel.process_token} of the worker, recorded so
          a restarted daemon can SIGKILL the orphan without trusting a
          possibly-recycled pid *)
  | Finished of { tenant : string; line : Proto.result_line }
      (** the completed result, exactly the wire [result] line, plus the
          owning tenant *)
  | Acked of { job : int }  (** the client confirmed delivery *)
  | Cancelled of { job : int }  (** the job will never run (abandoned) *)

type t
(** An open journal: an append fd plus live per-job state (for recovery
    projection and dead-line accounting). *)

type recovery = {
  pending : (int * string * Proto.submit) list;
      (** [(job, tenant, submit)] accepted, no result yet — re-enqueue
          these *)
  orphans : (int * int * string) list;
      (** [(job, pid, token)] for pending jobs that were mid-run: feed to
          {!Parallel.reap_orphan} before re-running them *)
  undelivered : (string * Proto.result_line) list;
      (** [(tenant, line)] completed but never acked — retain these *)
  next_job : int;  (** 1 + highest job id ever journalled *)
  replayed : int;  (** valid records read back *)
  corrupt : int;  (** lines skipped (bad checksum, torn tail, bad JSON) *)
}
(** What a fresh daemon must do about the previous incarnation. *)

val open_ : string -> t * recovery
(** Open (creating the file and its directory if needed), replay, and
    compact.  The returned journal is clean: corrupt lines and closed jobs
    are gone from disk, [started] records are cleared (their workers belong
    to the dead incarnation — reap via [recovery.orphans], then re-run).
    Raises [Unix.Unix_error] if the path cannot be created or written. *)

val append : ?sync:bool -> t -> record -> unit
(** Append one record ([sync] defaults to [false]: buffered in the OS, not
    yet durable).  Pass [~sync:true] — or call {!sync} after a batch —
    before making the recorded fact externally visible. *)

val sync : t -> unit
(** [fsync] the journal fd: everything appended so far is durable. *)

val maybe_compact : t -> bool
(** Compact when at least half the journal lines (and at least 64) belong
    to closed jobs.  Returns whether it rewrote the file. *)

val compact : t -> unit
(** Unconditionally rewrite the journal to just the open jobs (tmp +
    fsync + atomic rename + directory fsync). *)

val close : t -> unit

val records : t -> int
(** Record lines in the current file (post-compaction count). *)

val bytes : t -> int
(** Size of the current file in bytes. *)

val compactions : t -> int
(** Compactions performed since {!open_} returned. *)

val path : t -> string

(**/**)

(* Exposed for tests: the exact byte form of one journal line, and its
   checksum-verifying parser. *)
val line_of_record : record -> string
val record_to_json : record -> string
val parse_line : string -> (record, string) result
