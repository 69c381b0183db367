(** Structured observability: spans, counters, Chrome traces.

    The verification platform needs to answer "where does the time go?" per
    unroll depth, per phase and per worker — the paper's whole evaluation
    (§5) is a performance decomposition of EMM vs explicit modeling.  This
    library provides the measurement substrate:

    - {b hierarchical timing spans} ({!span}): nested begin/end intervals
      with attributes and per-span GC allocation deltas;
    - {b monotonic counters} ({!counter_add}, {!counter_set}) and
      {b instant annotations} ({!instant});
    - an {b injectable clock} ({!Clock}), so tests can run against a
      deterministic fixed clock ({!now}); deadlines stay on
      [Unix.gettimeofday], the clock the SAT solver enforces them with;
    - two {b exporters}: a JSON-lines event stream and the Chrome
      [trace_event] format loadable in [chrome://tracing] / Perfetto;
    - {b worker merging}: a forked worker records events locally
      ({!worker_scope}), marshals them back with its result, and the parent
      {!ingest}s them into one pid-annotated trace.

    The layer is zero-dependency (only [unix] for the wall clock) and
    designed to vanish when disabled: every emission point is a single
    branch on the current-recorder option ({!enabled}), so a run without
    [EMMVER_TRACE] / [--trace-out] pays only that branch. *)

(** {1 Events} *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type event =
  | Begin of { name : string; ts : float; attrs : attr list }
      (** a span opened *)
  | End of { name : string; ts : float; alloc_words : float }
      (** the matching span closed; [alloc_words] is the GC words allocated
          between begin and end (minor + major - promoted deltas) *)
  | Count of { name : string; ts : float; value : float }
      (** a monotonic counter's new total *)
  | Instant of { name : string; ts : float; attrs : attr list }
      (** a point annotation *)

type row = int * event
(** An event annotated with the pid of the process that recorded it.  Rows
    are marshal-safe (plain constructors over strings, ints and floats), so
    they can travel over the worker-pool result pipe. *)

(** {1 Clocks} *)

module Clock : sig
  type t = unit -> float

  val wall : t
  (** [Unix.gettimeofday]. *)

  val fixed : ?start:float -> ?step:float -> unit -> t
  (** A deterministic clock: the first reading is [start] (default 0.0) and
      every subsequent reading advances by [step] (default 1.0).  Two runs
      of the same workload against two [fixed] clocks with the same
      parameters produce identical timestamps — no wall-clock reads. *)
end

(** {1 Recorders} *)

type t
(** A recorder: an append-only event log plus the span stack and counter
    totals needed to emit well-formed streams. *)

val create : ?clock:Clock.t -> ?pid:int -> ?track_alloc:bool -> unit -> t
(** [create ()] makes an empty recorder on the wall clock for the calling
    process.  [~track_alloc:false] zeroes the per-span GC deltas, which
    makes exporter output byte-reproducible across runs even when the
    runtime allocates differently. *)

val clock : t -> Clock.t
val rows : t -> row list
(** Recorded rows, in emission order. *)

val num_rows : t -> int

val open_spans : t -> string list
(** Names of spans begun but not yet ended, innermost first. *)

val close_open_spans : t -> unit
(** Emit [End] events for every open span (innermost first) — used before
    exporting a trace from a run that was cut short. *)

(** {1 The current recorder}

    Emission goes through an ambient current recorder so instrumentation
    points (solver tick, EMM generator, engine loop) need no plumbing.  With
    no current recorder every emission function is a no-op behind one
    branch. *)

val set_current : t option -> unit
val current : unit -> t option

val enabled : unit -> bool
(** [true] iff a current recorder is installed.  Guard any non-trivial
    attribute computation with this. *)

val now : unit -> float
(** The current recorder's clock, or [Unix.gettimeofday] when disabled.
    The time source of all telemetry (spans, phase timings); not of
    deadlines, which are on [Unix.gettimeofday]. *)

(** {1 Emission} *)

val span : ?attrs:attr list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a [name] span: a [Begin] row before, an
    [End] row after — also when [f] raises, so streams stay balanced.
    Disabled: exactly [f ()]. *)

val instant : ?attrs:attr list -> string -> unit

val counter_add : string -> int -> unit
(** Add a (non-negative; negative deltas are ignored) delta to a named
    monotonic counter and record its new total. *)

val counter_set : string -> float -> unit
(** Raise a named monotonic counter to the given total; values below the
    current total are clamped (the counter never goes backwards). *)

val counter_total : t -> string -> float
(** The recorder's current total for a named counter ([0.0] if it was
    never bumped) — a snapshot accessor for long-running services that
    report metrics without exporting a trace. *)

val counter_totals : t -> (string * float) list
(** Every counter's current total, sorted by name (deterministic for
    golden output). *)

(** {1 Worker support} *)

val worker_scope : (unit -> 'a) -> 'a * row list
(** Run [f] in a fork-side scope: if tracing is enabled the inherited
    recorder (whose rows belong to the parent) is replaced by a fresh one
    for this process, and the rows recorded by [f] are returned for
    marshalling back.  Disabled: [(f (), [])]. *)

val ingest : t -> row list -> unit
(** Append a worker's rows (keeping their pid annotations) to a parent
    recorder. *)

val ingest_current : row list -> unit
(** [ingest] into the current recorder; no-op when disabled. *)

(** {1 Validation and span extraction} *)

type span_info = {
  sp_pid : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_alloc_words : float;
  sp_attrs : attr list;
  sp_level : int;  (** nesting depth, 0 = top-level *)
  sp_parent : int option;  (** index of the enclosing span, if any *)
}

val spans : row list -> (span_info list, string) result
(** Reconstruct the span forest (per pid, via a stack), in begin order.
    [Error] on an orphan [End], a name mismatch, a timestamp running
    backwards within a pid, or a span left open. *)

val validate : row list -> (unit, string) result
(** The well-formedness judgment used by the tests: {!spans} succeeds and
    every counter is monotone per (pid, name). *)

val attr_int : string -> attr list -> int option

val duration : span_info -> float

(** {1 Exporters} *)

type format = Jsonl | Chrome

val format_of_path : string -> format
(** [.jsonl] extension selects {!Jsonl}; anything else {!Chrome}. *)

val export : format -> Buffer.t -> row list -> unit
(** Render rows. {!Jsonl}: one JSON object per line, absolute timestamps in
    seconds at microsecond resolution (integer readings print bare).
    {!Chrome}: a [{"traceEvents": [...]}] document with B/E/C/i phase
    events, the same readings in whole microseconds relative to the earliest
    row (so span durations agree between the two formats), and
    [pid]/[tid] tracks per process — loadable in Perfetto. *)

val write_file : ?format:format -> string -> t -> unit

(** {1 Trace-file plumbing} *)

val ensure_dir : string -> unit
(** [ensure_dir dir] creates [dir] and any missing parents, like
    [mkdir -p]; existing directories are left alone.  Used wherever a
    user-given directory is written to: the result cache, the serve
    journal and DRAT proof dumps. *)

val trace_env_var : string
(** ["EMMVER_TRACE"]: setting it to a path enables tracing in any CLI or
    bench run, as if [--trace-out] had been given. *)

val run_with_trace : ?clock:Clock.t -> ?out:string -> label:string -> (unit -> 'a) -> 'a
(** [run_with_trace ~out ~label f]: when [out] (or, if [out] is [None], the
    {!trace_env_var} environment variable) names a file, install a fresh
    current recorder, run [f] inside a [label] root span, and write the
    trace to that file ({!format_of_path}) — also when [f] raises or calls
    [exit] (an [at_exit] hook covers the latter; open spans are closed
    first).  Otherwise exactly [f ()]. *)

(** {1 A minimal JSON reader and writer}

    Just enough JSON for the formats the platform owns: serve's protocol
    and journal, the cache store's entries, the trace exporters and bench's
    baseline file — not a general-purpose implementation.  This is the one
    JSON codec of the code base: every format renders and reads through
    it. *)

module Json = Json
