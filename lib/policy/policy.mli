(** Resilience policy: resource budgets, a typed failure taxonomy and a
    declarative engine-fallback chain.

    A verification run should degrade, not die: when an engine exhausts its
    budget, its worker process is killed, its encoder raises, or its
    certificate fails to check, the policy layer records a degradation
    {!event} and moves on — to a retry of the same engine (worker death
    only) or to the next engine in the {!t.fallback} chain.  The generic
    executor {!execute} implements exactly this loop; [Emmver] instantiates
    it with real engines. *)

type error =
  | Budget_exhausted of string
      (** wall clock, conflict, memory or depth budget ran out *)
  | Worker_killed of string
      (** the forked worker died: signal, out-of-memory, nonzero exit *)
  | Encode_error of string
      (** the encoder (unroller, EMM layer) raised while building the
          formula *)
  | Cert_failed of string
      (** the verdict's certificate was {e refuted} — the result cannot be
          trusted *)

val error_message : error -> string
val pp_error : Format.formatter -> error -> unit

type budgets = {
  wall_s : float option;  (** wall-clock seconds for the whole attempt *)
  conflicts : int option;  (** solver conflicts per SAT query *)
  learnt_mb : float option;  (** learnt-clause database ceiling, MB *)
  max_depth : int option;  (** BMC unrolling depth cap *)
}

val unlimited : budgets
(** All fields [None]. *)

type event = {
  ev_stage : string;  (** engine (or stage) name that failed *)
  ev_attempt : int;  (** 0-based attempt number within that stage *)
  ev_error : error;
  ev_elapsed_s : float;  (** wall clock spent on the failed attempt *)
}

val pp_event : Format.formatter -> event -> unit

type t = {
  budgets : budgets;
  fallback : string list;
      (** stage names tried in order, e.g. [["emm"; "explicit"; "bdd"]] *)
  worker_retries : int;
      (** extra attempts granted to a stage whose {e worker} died (other
          failures advance to the next stage immediately) *)
}

val default : t
(** [emm -> explicit -> bdd], one retry on worker death, unlimited
    budgets. *)

type 'r attempt_result =
  | Done of 'r  (** conclusive — stop here *)
  | Soft of 'r
      (** inconclusive but honest (e.g. bounded-safe); kept as the answer of
          last resort while later stages are tried *)
  | Failed of error  (** the stage failed; consult the policy *)

val execute :
  t ->
  stages:'s list ->
  stage_name:('s -> string) ->
  run:('s -> attempt:int -> 'r attempt_result) ->
  ('r, error) result * event list
(** Run the stages in order until one returns [Done].  A [Failed] with
    {!Worker_killed} is retried on the same stage up to [worker_retries]
    times; any other failure advances the chain.  When no stage concludes,
    the first [Soft] result (if any) is returned as [Ok]; otherwise the last
    error.  Degradation events are returned in chronological order. *)
