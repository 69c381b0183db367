module Solver = Satsolver.Solver
module Lit = Satsolver.Lit

type proof_kind = Forward_diameter | Backward_induction

type verdict =
  | Proof of { depth : int; kind : proof_kind }
  | Counterexample of Trace.t
  | Bounded_safe of int
  | Reasons_stable of int
  | Timed_out of int
  | Out_of_budget of { depth : int; what : string }

type stats = {
  depths_completed : int;
  solve_time : float;
  encode_time : float;
  cert_time_s : float;
  proof_steps : int;
  num_vars : int;
  num_clauses : int;
  num_conflicts : int;
  vars_saved : int;
  clauses_saved : int;
  peak_memory_mb : float;
  latch_reasons : Netlist.signal list;
  memory_reasons : int list;
  reasons_last_changed : int;
  solver_stats : Solver.stats;
}

type cert_artifact = {
  ca_num_vars : int;
  ca_original : Lit.t list list;
  ca_proof : Cert.Drat.step list;
  ca_obligations : Lit.t list list;
}

type result = {
  verdict : verdict;
  stats : stats;
  certificate : Cert.t;
  artifact : cert_artifact option;
}

type config = {
  max_depth : int;
  deadline : float option;
  proof_checks : bool;
  collect_reasons : bool;
  stop_on_stable : int option;
  free_latches : Netlist.signal -> bool;
  simplify : bool;
  certify : bool;
  conflict_budget : int option;
  learnt_mb_budget : float option;
  proof_file : string option;
}

let default_config =
  {
    max_depth = 100;
    deadline = None;
    proof_checks = true;
    collect_reasons = false;
    stop_on_stable = None;
    free_latches = (fun _ -> false);
    simplify = true;
    certify = false;
    conflict_budget = None;
    learnt_mb_budget = None;
    proof_file = None;
  }

(* The memory-interface bits observed by trace certification: write-port
   address/data/enable and read-port address/enable unconditionally,
   read-port data gated on the enable (EMM leaves disabled read data
   unconstrained while the simulator drives zero). *)
let watch_signals net =
  List.concat_map
    (fun m ->
      let mname = Netlist.memory_name m in
      let bits prefix ?enable arr =
        List.mapi
          (fun i s -> (Printf.sprintf "%s.%s[%d]" mname prefix i, s, enable))
          (Array.to_list arr)
      in
      let wr =
        List.concat
          (List.init (Netlist.num_write_ports m) (fun w ->
               let addr, data, en = Netlist.write_port m w in
               bits (Printf.sprintf "w%d.addr" w) addr
               @ bits (Printf.sprintf "w%d.data" w) data
               @ [ (Printf.sprintf "%s.w%d.en" mname w, en, None) ]))
      in
      let rd =
        List.concat
          (List.init (Netlist.num_read_ports m) (fun r ->
               let addr, en, out = Netlist.read_port m r in
               bits (Printf.sprintf "r%d.addr" r) addr
               @ [ (Printf.sprintf "%s.r%d.en" mname r, en, None) ]
               @ bits ~enable:en (Printf.sprintf "r%d.data" r) out))
      in
      wr @ rd)
    (Netlist.memories net)

(* The unroller configuration implied by an engine configuration.  Latch
   aliasing and frame-0 init folding are both gated on [collect_reasons]:
   reason extraction needs the tagged latch clauses.  Init folding further
   requires pure falsification mode ([proof_checks = false]), where every
   solver query assumes [act_init]. *)
let make_unroller config solver net =
  Cnf.create ~free_latches:config.free_latches ~simplify:config.simplify
    ~track_reasons:config.collect_reasons
    ~fold_init:
      (config.simplify && (not config.proof_checks) && not config.collect_reasons)
    solver net

type hooks = {
  on_unroll : Cnf.t -> int -> unit;
  mem_init_of_model : Cnf.t -> int -> (string * (int * int) list) list;
  mem_distinct : (Cnf.t -> i:int -> j:int -> Lit.t) option;
      (* [Some f]: [f unr ~i ~j] is a literal that may be set true only when
         the modeled memory state at frame [i] can differ from frame [j]
         (some enabled write in [j, i) stores a value the location did not
         already hold).  It is OR'd into the loop-free-path distinctness
         clause of every frame pair, making termination proofs range over
         memory state as well as latches.  [None]: memory contents are
         invisible to the distinctness clauses and the engine falls back to
         the conservative latch-only guard below. *)
}

let no_hooks =
  {
    on_unroll = (fun _ _ -> ());
    mem_init_of_model = (fun _ _ -> []);
    mem_distinct = None;
  }

(* Mutable run state threaded through one depth loop. *)
type run = {
  cfg : config;
  hks : hooks;
  net : Netlist.t;
  solver : Solver.t;
  unr : Cnf.t;
  act_lfp : Lit.t;
  state_latches : Netlist.signal list;
  reasons : (Netlist.signal, unit) Hashtbl.t;
  mem_reasons : (int, unit) Hashtbl.t;
  watches : (string * Netlist.signal * Netlist.signal option) list;
  mutable obligations : Lit.t list list;  (* UNSAT assumption cubes, newest first *)
  mutable reasons_last_changed : int;
  mutable solve_time : float;
  mutable encode_time : float;
}

(* One checked property: its own CP activation literal, retired once it has
   a verdict. *)
type prop_state = {
  ps_name : string;
  ps_signal : Netlist.signal;
  ps_act_cp : Lit.t;
  mutable ps_verdict : verdict option;
}

(* The [solve_time]/[encode_time] accumulators are now derived views over
   the observability spans: both read the same [Obs.now] clock, so [stats]
   stays source-compatible while traces carry the per-phase breakdown. *)
let timed_solve ?(what = "falsify") run assumptions =
  let t0 = Obs.now () in
  let r =
    Fun.protect
      ~finally:(fun () -> run.solve_time <- run.solve_time +. Obs.now () -. t0)
      (fun () ->
        Obs.span "solve" ~attrs:[ ("query", Obs.Str what) ] (fun () ->
            Solver.solve ~assumptions run.solver))
  in
  if r = Solver.Unsat && run.cfg.certify then
    run.obligations <- assumptions :: run.obligations;
  r

let timed_encode run f =
  let t0 = Obs.now () in
  Fun.protect
    ~finally:(fun () -> run.encode_time <- run.encode_time +. Obs.now () -. t0)
    (fun () -> Obs.span "encode" f)

(* Loop-free-path constraints: for the new frame [i], require state [i] to
   differ from every earlier state, guarded by [act_lfp].  State is the latch
   vector plus — when the hooks provide a memory-distinctness predicate — the
   contents of the modeled memories, so a frame pair only counts as a repeat
   when latches AND memory agree. *)
let add_lfp_pairs run i =
  let unr = run.unr in
  List.iter
    (fun j ->
      let diffs =
        List.map
          (fun l ->
            let x = Cnf.lit unr ~frame:j l in
            let y = Cnf.lit unr ~frame:i l in
            let q = Cnf.fresh_lit unr in
            (* q -> (x <> y) *)
            Cnf.add_clause unr [ Lit.negate q; x; y ];
            Cnf.add_clause unr [ Lit.negate q; Lit.negate x; Lit.negate y ];
            q)
          run.state_latches
      in
      let diffs =
        match run.hks.mem_distinct with
        | Some f ->
          let d = f unr ~i ~j in
          if d = Cnf.false_lit unr then diffs else d :: diffs
        | None -> diffs
      in
      Cnf.add_clause unr (Lit.negate run.act_lfp :: diffs))
    (List.init i Fun.id)

let collect_reasons_from_core run =
  List.iter
    (fun tag ->
      match Cnf.meaning_of run.unr tag with
      | Some (Cnf.Tag.Latch l) ->
        if not (Hashtbl.mem run.reasons l) then Hashtbl.replace run.reasons l ()
      | Some (Cnf.Tag.Memory id) ->
        if not (Hashtbl.mem run.mem_reasons id) then Hashtbl.replace run.mem_reasons id ()
      | Some (Cnf.Tag.Misc _) | None -> ())
    (Solver.unsat_core_tags run.solver)

(* Validate every recorded UNSAT answer against the solver's DRAT log with
   the independent checker of [Cert.Drat]. *)
let certify_unsat run =
  if run.obligations = [] then Cert.Unchecked "no unsat obligations recorded"
  else
    match
      Cert.Drat.check
        ~num_vars:(Solver.num_vars run.solver)
        ~original:(Solver.export_clauses run.solver)
        ~proof:(Solver.proof run.solver) ~obligations:(List.rev run.obligations) ()
    with
    | Cert.Drat.Valid _ -> Cert.Certified Cert.Drat_checked
    | Cert.Drat.Invalid why -> Cert.Refuted why

let dump_proof run =
  match run.cfg.proof_file with
  | Some path when run.cfg.certify ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Cert.Drat.output oc (Solver.proof run.solver))
  | Some _ | None -> ()

(* The certificates of a finished run, one per property: UNSAT verdicts
   (proofs, and bounded / stability results whose every depth answered
   UNSAT) share one DRAT check — every obligation was answered by the same
   incremental solver over the shared unrolling — and counterexamples are
   replayed on the concrete design. *)
let certify_verdicts run verdicts =
  if not run.cfg.certify then
    List.map (fun _ -> Cert.Unchecked "certification disabled") verdicts
  else begin
    dump_proof run;
    let unsat = lazy (certify_unsat run) in
    List.map
      (function
        | Proof _ | Bounded_safe _ | Reasons_stable _ -> Lazy.force unsat
        | Counterexample t -> Trace.certify run.net t
        | Timed_out _ -> Cert.Unchecked "timed out"
        | Out_of_budget { what; _ } -> Cert.Unchecked ("out of budget: " ^ what))
      verdicts
  end

(* The self-contained evidence behind a DRAT-checked UNSAT verdict —
   original clauses, derivation and assumption obligations — for layers that
   persist certificates (lib/vcache) and re-check them independently later. *)
let artifact_of run =
  {
    ca_num_vars = Solver.num_vars run.solver;
    ca_original = Solver.export_clauses run.solver;
    ca_proof = Solver.proof run.solver;
    ca_obligations = List.rev run.obligations;
  }

let stats_of run ~completed ~cert_time_s =
  let gc = Gc.quick_stat () in
  let cnf_stats = Cnf.stats run.unr in
  let sstats = Solver.stats run.solver in
  {
    depths_completed = completed + 1;
    solve_time = run.solve_time;
    encode_time = run.encode_time;
    cert_time_s;
    proof_steps = (if run.cfg.certify then List.length (Solver.proof run.solver) else 0);
    num_vars = Solver.num_vars run.solver;
    num_clauses = Solver.num_clauses run.solver;
    num_conflicts = sstats.Solver.conflicts;
    vars_saved = cnf_stats.Cnf.vars_saved;
    clauses_saved = cnf_stats.Cnf.clauses_saved;
    peak_memory_mb = float_of_int (gc.Gc.top_heap_words * 8) /. 1e6;
    latch_reasons = Hashtbl.fold (fun l () acc -> l :: acc) run.reasons [];
    memory_reasons =
      List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) run.mem_reasons []);
    reasons_last_changed = run.reasons_last_changed;
    solver_stats = sstats;
  }

(* The BMC-3 depth loop (Fig. 1).  At each depth: unroll, add the memory
   constraints and every pending property's [p_i], then the loop-free-path
   pairs; query forward termination (settles every pending property at
   once), backward termination per property, and falsification per
   property.  A property is retired once it has a verdict; the loop stops
   when none is pending.  Every exit settles every property.  Returns the
   deepest fully analysed depth. *)
let depth_loop run props =
  let config = run.cfg and unr = run.unr in
  let act_init = Cnf.act_init unr in
  (* When the hooks supply a memory-distinctness predicate, the loop-free-path
     constraints range over the full modeled state (latches plus memory
     contents) and termination checks are sound at every depth — including on
     latch-free write-port designs, whose distinctness clause degenerates to
     exactly the memory predicate.  Without it, latch-only distinctness is
     sound only when latches really are the whole state: a memory's contents
     evolve outside the latch vector, so latch-free memory designs keep only
     the depth-0 checks (which involve no distinctness constraints —
     induction at depth 0 is plain validity of the property) and otherwise
     fall back to falsification. *)
  let lfp_meaningful =
    run.hks.mem_distinct <> None
    || run.state_latches <> []
    || List.for_all (fun m -> Netlist.num_write_ports m = 0) (Netlist.memories run.net)
  in
  let proof_checks_at i = config.proof_checks && (lfp_meaningful || i = 0) in
  (* In pure falsification mode the property literal only ever appears under
     negation (the [~p_i] assumption), so the polarity-aware encoder can
     drop the downward implications of its cone.  The proof checks also use
     it positively (CP clauses). *)
  let prop_pol = if config.proof_checks then Cnf.Both else Cnf.Neg in
  let settle v =
    List.iter (fun p -> if p.ps_verdict = None then p.ps_verdict <- Some v) props
  in
  let completed = ref (-1) in
  let depth i =
    let pending = List.filter (fun p -> p.ps_verdict = None) props in
    let p_is =
      timed_encode run (fun () ->
          run.hks.on_unroll unr i;
          (* Watched memory-interface bits must be encoded with full
             polarity: a polarity-reduced auxiliary variable's model value
             is not faithful to the circuit, which would produce spurious
             replay mismatches. *)
          List.iter (fun (_, s, _) -> ignore (Cnf.lit unr ~frame:i s)) run.watches;
          let p_is =
            List.map
              (fun p -> (p, Cnf.lit ~pol:prop_pol unr ~frame:i p.ps_signal))
              pending
          in
          (* Loop-free-path constraints only serve the termination checks. *)
          if proof_checks_at i then add_lfp_pairs run i;
          p_is)
    in
    if proof_checks_at i then begin
      (* Forward termination: no loop-free path of length i from I. *)
      if timed_solve ~what:"lfp" run [ act_init; run.act_lfp ] = Solver.Unsat then begin
        settle (Proof { depth = i; kind = Forward_diameter });
        raise Exit
      end;
      (* Backward termination: property inductive at depth i. *)
      List.iter
        (fun (p, p_i) ->
          if
            timed_solve ~what:"induction" run [ run.act_lfp; p.ps_act_cp; Lit.negate p_i ]
            = Solver.Unsat
          then p.ps_verdict <- Some (Proof { depth = i; kind = Backward_induction }))
        p_is
    end;
    (* Falsification: counterexample of length exactly i. *)
    List.iter
      (fun (p, p_i) ->
        if p.ps_verdict = None then
          match timed_solve run [ act_init; Lit.negate p_i ] with
          | Solver.Sat ->
            let mem_init = run.hks.mem_init_of_model unr i in
            p.ps_verdict <-
              Some
                (Counterexample
                   (Trace.of_model ~watches:run.watches unr ~property:p.ps_name ~depth:i
                      ~mem_init))
          | Solver.Unsat ->
            if config.collect_reasons then begin
              let before = Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons in
              collect_reasons_from_core run;
              if Hashtbl.length run.reasons + Hashtbl.length run.mem_reasons <> before
              then run.reasons_last_changed <- i
            end)
      p_is;
    let survivors = List.filter (fun (p, _) -> p.ps_verdict = None) p_is in
    if survivors = [] then raise Exit;
    completed := i;
    (* CP_{i+1} = CP_i /\ P_i — only the proof checks assume [act_cp], so in
       pure falsification mode the clause is dead weight. *)
    if config.proof_checks then
      List.iter
        (fun (p, p_i) -> Cnf.add_clause unr [ Lit.negate p.ps_act_cp; p_i ])
        survivors;
    match config.stop_on_stable with
    | Some s when config.collect_reasons && i - run.reasons_last_changed >= s ->
      settle (Reasons_stable i);
      raise Exit
    | Some _ | None -> ()
  in
  (try
     for i = 0 to config.max_depth do
       (* The deadline is on the solver's clock, [Unix.gettimeofday]. *)
       (match config.deadline with
       | Some d when Unix.gettimeofday () > d -> raise Solver.Timeout
       | Some _ | None -> ());
       Obs.span "depth" ~attrs:[ ("k", Obs.Int i) ] (fun () -> depth i)
     done;
     settle (Bounded_safe config.max_depth)
   with
  | Exit -> ()
  | Solver.Timeout -> settle (Timed_out !completed)
  | Solver.Budget_exceeded what -> settle (Out_of_budget { depth = !completed; what }));
  !completed

let check_all ?(config = default_config) ?(hooks = no_hooks) net ~properties =
  let solver = Solver.create () in
  Solver.set_deadline solver config.deadline;
  Solver.set_conflict_budget solver config.conflict_budget;
  Solver.set_learnt_budget_mb solver config.learnt_mb_budget;
  if config.certify then Solver.set_proof_logging solver true;
  let unr = make_unroller config solver net in
  (* Every property's [act_cp], then [act_lfp]: the variable numbering that
     single-property runs have always had. *)
  let props =
    List.map
      (fun name ->
        {
          ps_name = name;
          ps_signal = Netlist.find_property net name;
          ps_act_cp = Cnf.fresh_lit unr;
          ps_verdict = None;
        })
      properties
  in
  let act_lfp = Cnf.fresh_lit unr in
  let run =
    {
      cfg = config;
      hks = hooks;
      net;
      solver;
      unr;
      act_lfp;
      state_latches =
        List.filter (fun l -> not (config.free_latches l)) (Netlist.latches net);
      reasons = Hashtbl.create 64;
      mem_reasons = Hashtbl.create 4;
      watches = (if config.certify then watch_signals net else []);
      obligations = [];
      reasons_last_changed = 0;
      solve_time = 0.0;
      encode_time = 0.0;
    }
  in
  let completed = depth_loop run props in
  let verdicts = List.map (fun p -> Option.get p.ps_verdict) props in
  let cert_t0 = Obs.now () in
  let certificates = Obs.span "certify" (fun () -> certify_verdicts run verdicts) in
  let stats = stats_of run ~completed ~cert_time_s:(Obs.now () -. cert_t0) in
  let artifact = lazy (artifact_of run) in
  let result verdict certificate =
    let artifact =
      match certificate with
      | Cert.Certified Cert.Drat_checked -> Some (Lazy.force artifact)
      | Cert.Certified _ | Cert.Refuted _ | Cert.Unchecked _ -> None
    in
    { verdict; stats; certificate; artifact }
  in
  (List.combine properties (List.map2 result verdicts certificates), stats)

let check ?config ?hooks net ~property =
  snd (List.hd (fst (check_all ?config ?hooks net ~properties:[ property ])))

let pp_verdict ppf = function
  | Proof { depth; kind = Forward_diameter } ->
    Format.fprintf ppf "proof (forward diameter %d)" depth
  | Proof { depth; kind = Backward_induction } ->
    Format.fprintf ppf "proof (induction at depth %d)" depth
  | Counterexample t -> Format.fprintf ppf "counterexample at depth %d" t.Trace.depth
  | Bounded_safe n -> Format.fprintf ppf "no counterexample up to depth %d" n
  | Reasons_stable n -> Format.fprintf ppf "latch reasons stable at depth %d" n
  | Timed_out n -> Format.fprintf ppf "timeout after depth %d" n
  | Out_of_budget { depth; what } ->
    Format.fprintf ppf "out of budget (%s) after depth %d" what depth
