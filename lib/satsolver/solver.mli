(** Incremental CDCL SAT solver with UNSAT-core extraction.

    The solver implements the standard conflict-driven clause-learning loop
    (two-watched-literal propagation with blocking literals and inlined
    binary-clause handling, first-UIP learning with recursive conflict-clause
    minimisation, VSIDS decision ordering with phase saving, Luby restarts,
    LBD-aware learnt-clause deletion with glue-clause protection) together
    with resolution-trace bookkeeping: every learnt clause records the
    clauses it was resolved from, so that after an UNSAT answer the set of
    {e original} clauses participating in the refutation can be
    reconstructed.  This is the [SAT_Get_Refutation] primitive of the paper
    (Fig. 1 line 10), which proof-based abstraction consumes.

    Clauses may carry an integer [tag]; {!unsat_core_tags} reports the
    distinct tags present in the refutation.  The BMC layers tag clauses with
    latch and memory-port identifiers so that cores translate directly into
    latch reasons (Fig. 1 line 11).

    Data layout.  The clause database is unboxed, so propagation touches as
    few words and the GC scans as few pointers as possible:

    - a clause is one [int array], [[|cid; meta; lit0; lit1; ...|]]: its
      dense clause id, then [meta] packing the LBD, the learnt flag and the
      removed flag, then the literals, the two watched ones first.
      Learnt-clause activity lives in a float array indexed by clause id,
      and so does the refutation bookkeeping (tag or premises);
    - each literal's watch list is two parallel arrays, blocker literals
      and clauses, allocated at the list's first push;
    - the reason of each variable is a clause, with one shared empty array
      standing for "no reason", so an assignment allocates nothing.

    A learnt clause dropped by DB reduction is only flagged removed; its
    watches disappear the next time propagation visits them and the GC
    reclaims the array.  There is no arena and no compaction pass. *)

type t

type result = Sat | Unsat

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val ensure_vars : t -> int -> unit
(** [ensure_vars t n] guarantees variables [0 .. n-1] exist. *)

val num_vars : t -> int

val add_clause : ?tag:int -> t -> Lit.t list -> unit
(** Add a clause over existing variables.  Tautologies are silently dropped.
    Adding the empty clause (or a clause falsified at root level) makes the
    solver permanently unsatisfiable.  Must be called at root level, i.e. not
    from within a [solve] callback. *)

exception Timeout
(** Raised by {!solve} when the {!set_deadline} wall-clock deadline passes.
    The solver stays usable: the interrupted query can be retried. *)

exception Budget_exceeded of string
(** Raised by {!solve} when a resource budget ({!set_conflict_budget} or
    {!set_learnt_budget_mb}) runs out; the payload names the exhausted
    resource ("conflicts" or "learnt-db memory").  Like {!Timeout}, the
    solver stays usable afterwards. *)

val set_deadline : t -> float option -> unit
(** Wall-clock deadline (as given by [Unix.gettimeofday]) checked
    periodically during search; [None] disables it. *)

val set_conflict_budget : t -> int option -> unit
(** Maximum conflicts a single {!solve} call may spend before
    {!Budget_exceeded} is raised; [None] (the default) disables it.  The
    budget is per-call: each [solve] starts a fresh count. *)

val set_learnt_budget_mb : t -> float option -> unit
(** Approximate ceiling, in megabytes, on the memory held by live learnt
    clauses; checked periodically during search, raising {!Budget_exceeded}
    when exceeded.  [None] (the default) disables it. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve the current formula under the given assumption literals.  The
    solver remains usable afterwards: more clauses may be added and [solve]
    called again. *)

val okay : t -> bool
(** [false] once the clause set is unsatisfiable independent of
    assumptions. *)

val value : t -> Lit.t -> bool
(** Value of a literal in the model of the last [Sat] answer.  Unassigned
    variables (eliminated from the search) read as [false]. *)

val value_var : t -> int -> bool

val unsat_core : t -> int list
(** After an [Unsat] answer: ids of original clauses sufficient for the
    refutation (together with the assumptions).  Ids are those returned
    implicitly by clause insertion order, starting at 0. *)

val unsat_core_tags : t -> int list
(** Distinct non-negative tags of the original clauses in {!unsat_core}. *)

val failed_assumptions : t -> Lit.t list
(** After an [Unsat] answer under assumptions: a subset of the assumptions
    sufficient for unsatisfiability. *)

(** {2 Proof logging}

    With proof logging enabled the solver records a DRAT-style derivation:
    one {!Padd} step per learnt clause and one {!Pdel} step per clause
    dropped by database reduction, in order.  An UNSAT answer (with or
    without assumptions) can then be validated independently of the solver by
    [Cert.Drat.check], replaying the derivation over the original clauses by
    unit propagation alone.  Logging costs one list cell per learnt clause
    and nothing when disabled. *)

type proof_step =
  | Padd of Lit.t list  (** clause learnt (RUP at its position) *)
  | Pdel of Lit.t list  (** learnt clause dropped by DB reduction *)

val set_proof_logging : t -> bool -> unit
(** Record every learnt clause (and deletion) for later validation.  Enable
    before solving; off by default. *)

val proof : t -> proof_step list
(** The recorded derivation, in order. *)

val proof_log : t -> Lit.t list list
(** Learnt clauses in derivation order (the {!Padd} steps of {!proof}). *)

val export_clauses : t -> Lit.t list list
(** The original (problem) clauses as stored, in insertion order — the
    axioms a proof check starts from.  Tautologies and clauses already
    satisfied at root level were dropped at {!add_clause} time and do not
    appear. *)

(** {2 Statistics} *)

val num_clauses : t -> int
val num_learnts : t -> int
val num_conflicts : t -> int
val num_decisions : t -> int
val num_propagations : t -> int

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (** total clauses ever learnt *)
  deleted_clauses : int;  (** learnt clauses dropped by DB reduction *)
  db_reductions : int;
  minimised_lits : int;
      (** literals removed by recursive conflict-clause minimisation *)
  avg_lbd : float;  (** mean LBD (glue) over all learnt clauses *)
  solve_time_s : float;  (** cumulative wall time spent inside {!solve} *)
}
(** Cumulative search telemetry; all counters are monotone over the
    solver's lifetime. *)

val stats : t -> stats

val empty_stats : stats
(** All-zero record, for call sites that report stats without a solver. *)

val pp_stats : Format.formatter -> t -> unit
