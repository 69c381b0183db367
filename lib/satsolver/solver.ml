type result = Sat | Unsat

(* A clause is one unboxed int array, [|cid; meta; lit0; lit1; ...|]: the
   dense clause id, then [meta] = lbd lsl 2 lor removed lsl 1 lor learnt,
   then the literals, the two watched ones at positions 0 and 1 (array
   slots 2 and 3).  Learnt-clause activity lives in [t.cla_act], indexed by
   cid.  Deleted learnts are only flagged removed; their watches are dropped
   lazily by [propagate] and the array is reclaimed by the GC.  [Cl.none],
   the empty array, is the one shared "no reason" / "no conflict" value. *)
module Cl = struct
  type t = int array

  let none : t = [||]
  let base = 2
  let id (c : t) = Array.unsafe_get c 0
  let learnt (c : t) = Array.unsafe_get c 1 land 1 <> 0
  let removed (c : t) = Array.unsafe_get c 1 land 2 <> 0
  let set_removed (c : t) = c.(1) <- c.(1) lor 2
  let lbd (c : t) = Array.unsafe_get c 1 lsr 2
  let set_lbd (c : t) d = c.(1) <- (d lsl 2) lor (c.(1) land 3)
  let size (c : t) = Array.length c - base
  let lit (c : t) i = Array.unsafe_get c (i + base)
  let set_lit (c : t) i l = Array.unsafe_set c (i + base) l

  let make ~id ~learnt ~lbd lits : t =
    Array.of_list (id :: ((lbd lsl 2) lor Bool.to_int learnt) :: lits)

  let lits (c : t) = Array.to_list (Array.sub c base (size c))

  let iter f (c : t) =
    for i = base to Array.length c - 1 do
      f (Array.unsafe_get c i)
    done

  let fold f acc (c : t) =
    let acc = ref acc in
    iter (fun l -> acc := f !acc l) c;
    !acc
end

type clause = Cl.t

(* Bookkeeping needed to rebuild refutations after clause deletion: original
   clauses keep their tag, learnt clauses keep the premises they were
   resolved from.  Premise entries >= 0 are clause ids; a negative entry
   -(v+1) refers to the root-level derivation of variable [v] (root
   assignments are permanent, so their reason chains can be re-traversed at
   core-extraction time). *)
type cid_info =
  | Original of int
  | Learnt_from of int array

(* One line of a DRAT proof: clause additions (learnt clauses, in derivation
   order) interleaved with the deletions performed by DB reduction. *)
type proof_step = Padd of Lit.t list | Pdel of Lit.t list

(* Cumulative search statistics, cheap enough to keep always-on. *)
type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;  (* total clauses ever learnt *)
  deleted_clauses : int;  (* learnt clauses dropped by DB reduction *)
  db_reductions : int;
  minimised_lits : int;  (* literals removed by conflict-clause minimisation *)
  avg_lbd : float;  (* mean LBD over all learnt clauses *)
  solve_time_s : float;  (* wall time spent inside [solve] *)
}

let empty_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_clauses = 0;
    deleted_clauses = 0;
    db_reductions = 0;
    minimised_lits = 0;
    avg_lbd = 0.0;
    solve_time_s = 0.0;
  }

type t = {
  mutable nvars : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  (* Watch lists, indexed by literal: entry [i < wn.(l)] of literal [l]'s
     list is the clause [wcls.(l).(i)] with blocker [wblk.(l).(i)], a literal
     of the clause other than [l].  When the blocker is already true the
     clause is satisfied and its cells are never touched; for binary clauses
     the blocker is exactly the other literal, so propagation resolves them
     from the watch list alone.  A list's arrays are allocated at its first
     push. *)
  mutable wblk : int array array;
  mutable wcls : clause array array;
  mutable wn : int array;
  mutable assign : int array; (* var -> -1 undef / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : clause array; (* [Cl.none] for decisions and unassigned *)
  mutable phase : bool array;
  mutable seen : int array; (* 0 unseen / 1 in-clause / 2 removable / 3 failed *)
  mutable level_stamp : int array; (* level -> stamp, for LBD counting *)
  mutable stamp : int;
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  activity : float array ref;
  mutable var_inc : float;
  mutable cla_inc : float;
  order : Order_heap.t;
  mutable cid_info : cid_info array; (* indexed by cid, below [next_cid] *)
  mutable cla_act : float array; (* learnt-clause activity, indexed by cid *)
  mutable next_cid : int;
  mutable ok : bool;
  mutable last_core : int list;
  mutable last_failed : int list;
  mutable model : int array;
  mutable assumptions : int array;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_total : int;
  mutable lbd_sum : int;
  mutable deleted_total : int;
  mutable db_reductions : int;
  mutable minimised_lits : int;
  mutable solve_time : float;
  mutable max_learnts : float;
  mutable deadline : float option;
  mutable proof_steps : proof_step list; (* DRAT log, newest first *)
  mutable proof_logging : bool;
  mutable conflict_budget : int option; (* max conflicts per [solve] call *)
  mutable conflict_base : int; (* [t.conflicts] at [solve] entry *)
  mutable learnt_budget_mb : float option; (* learnt-DB memory ceiling *)
  mutable learnt_words : int; (* words held by live learnt clauses *)
}

exception Timeout

exception Budget_exceeded of string

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

(* Base conflict budget of the Luby restart sequence. *)
let restart_base = 100.0
let var_marker v = -v - 1

let create () =
  let activity = ref (Array.make 64 0.0) in
  {
    nvars = 0;
    clauses = Vec.create ~dummy:Cl.none ();
    learnts = Vec.create ~dummy:Cl.none ();
    wblk = Array.make 128 [||];
    wcls = Array.make 128 [||];
    wn = Array.make 128 0;
    assign = Array.make 64 (-1);
    level = Array.make 64 (-1);
    reason = Array.make 64 Cl.none;
    phase = Array.make 64 false;
    seen = Array.make 64 0;
    level_stamp = Array.make 65 0;
    stamp = 0;
    trail = Vec.create ~dummy:0 ();
    trail_lim = Vec.create ~dummy:0 ();
    qhead = 0;
    activity;
    var_inc = 1.0;
    cla_inc = 1.0;
    order = Order_heap.create ~activity:(fun v -> !activity.(v));
    cid_info = Array.make 1024 (Original (-1));
    cla_act = Array.make 1024 0.0;
    next_cid = 0;
    ok = true;
    last_core = [];
    last_failed = [];
    model = [||];
    assumptions = [||];
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_total = 0;
    lbd_sum = 0;
    deleted_total = 0;
    db_reductions = 0;
    minimised_lits = 0;
    solve_time = 0.0;
    max_learnts = 0.0;
    deadline = None;
    proof_steps = [];
    proof_logging = false;
    conflict_budget = None;
    conflict_base = 0;
    learnt_budget_mb = None;
    learnt_words = 0;
  }

let set_deadline t d = t.deadline <- d
let set_proof_logging t b = t.proof_logging <- b
let set_conflict_budget t b = t.conflict_budget <- b
let set_learnt_budget_mb t b = t.learnt_budget_mb <- b
let proof t = List.rev t.proof_steps

let proof_log t =
  List.rev
    (List.filter_map (function Padd c -> Some c | Pdel _ -> None) t.proof_steps)

let num_vars t = t.nvars
let num_clauses t = Vec.size t.clauses
let num_learnts t = Vec.size t.learnts
let num_conflicts t = t.conflicts
let num_decisions t = t.decisions
let num_propagations t = t.propagations
let okay t = t.ok

let stats t =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
    learnt_clauses = t.learnt_total;
    deleted_clauses = t.deleted_total;
    db_reductions = t.db_reductions;
    minimised_lits = t.minimised_lits;
    avg_lbd =
      (if t.learnt_total = 0 then 0.0
       else float_of_int t.lbd_sum /. float_of_int t.learnt_total);
    solve_time_s = t.solve_time;
  }

let grow_arrays t n =
  let old = Array.length t.assign in
  if n > old then begin
    let cap = max (2 * old) n in
    let grow_arr a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 old;
      b
    in
    t.assign <- grow_arr t.assign (-1);
    t.level <- grow_arr t.level (-1);
    t.seen <- grow_arr t.seen 0;
    (let b = Array.make (cap + 1) 0 in
     Array.blit t.level_stamp 0 b 0 (Array.length t.level_stamp);
     t.level_stamp <- b);
    t.reason <- grow_arr t.reason Cl.none;
    (let b = Array.make cap false in
     Array.blit t.phase 0 b 0 old;
     t.phase <- b);
    let acts = Array.make cap 0.0 in
    Array.blit !(t.activity) 0 acts 0 old;
    t.activity := acts
  end;
  let oldw = Array.length t.wn in
  if 2 * n > oldw then begin
    let cap = max (2 * oldw) (2 * n) in
    let grow a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 oldw;
      b
    in
    t.wblk <- grow t.wblk [||];
    t.wcls <- grow t.wcls [||];
    t.wn <- grow t.wn 0
  end

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  Order_heap.insert t.order v;
  v

let ensure_vars t n =
  while t.nvars < n do
    ignore (new_var t)
  done

(* -1 undef / 0 false / 1 true *)
let lit_value t l =
  let v = t.assign.(Lit.var l) in
  if v < 0 then -1 else if Lit.sign l then v else 1 - v

let decision_level t = Vec.size t.trail_lim

let bump_var t v =
  let a = !(t.activity) in
  a.(v) <- a.(v) +. t.var_inc;
  if a.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      a.(i) <- a.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  Order_heap.update t.order v

let bump_clause t c =
  let act = t.cla_act in
  let id = Cl.id c in
  act.(id) <- act.(id) +. t.cla_inc;
  if act.(id) > 1e20 then begin
    Vec.iter (fun c -> act.(Cl.id c) <- act.(Cl.id c) *. 1e-20) t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

(* LBD (literal block distance) of a set of literals: the number of distinct
   non-root decision levels, counted with a stamped per-level scratch array
   (Audemard & Simon's "glue").  Only meaningful while the literals are
   assigned. *)
let lits_lbd t lits =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let n = ref 0 in
  List.iter
    (fun l ->
      let lv = t.level.(Lit.var l) in
      if lv > 0 && t.level_stamp.(lv) <> stamp then begin
        t.level_stamp.(lv) <- stamp;
        incr n
      end)
    lits;
  !n

let clause_lbd t c =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let n = ref 0 in
  Cl.iter
    (fun l ->
      let lv = t.level.(Lit.var l) in
      if lv > 0 && t.level_stamp.(lv) <> stamp then begin
        t.level_stamp.(lv) <- stamp;
        incr n
      end)
    c;
  !n

let enqueue t l reason =
  let v = Lit.var l in
  t.assign.(v) <- (if Lit.sign l then 1 else 0);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  Vec.push t.trail l

let new_decision_level t = Vec.push t.trail_lim (Vec.size t.trail)

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let l = Vec.get t.trail i in
      let v = Lit.var l in
      t.phase.(v) <- Lit.sign l;
      t.assign.(v) <- -1;
      t.reason.(v) <- Cl.none;
      t.level.(v) <- -1;
      Order_heap.insert t.order v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail
  end

(* Append [c] with blocker [blocker] to literal [l]'s watch list. *)
let watch t l blocker c =
  let n = t.wn.(l) in
  if n = Array.length t.wblk.(l) then begin
    let cap = max 4 (2 * n) in
    let blk = Array.make cap 0 and cls = Array.make cap Cl.none in
    Array.blit t.wblk.(l) 0 blk 0 n;
    Array.blit t.wcls.(l) 0 cls 0 n;
    t.wblk.(l) <- blk;
    t.wcls.(l) <- cls
  end;
  Array.unsafe_set t.wblk.(l) n blocker;
  Array.unsafe_set t.wcls.(l) n c;
  t.wn.(l) <- n + 1

(* After a conflict: keep the unvisited watch entries [i, n) by moving them
   down to [j]; returns the new kept count. *)
let keep_rest blk cls i j n =
  Array.blit blk i blk j (n - i);
  Array.blit cls i cls j (n - i);
  j + n - i

(* Two-watched-literal Boolean constraint propagation with blocking literals
   and inlined binary-clause handling.  Returns the conflicting clause, or
   [Cl.none]. *)
let propagate t =
  let confl = ref Cl.none in
  while !confl == Cl.none && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = Lit.negate p in
    let blk = t.wblk.(false_lit) and cls = t.wcls.(false_lit) in
    let n = t.wn.(false_lit) in
    (* Entries [0, j) are kept, [j, i) dropped or moved, [i, n) unvisited. *)
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let blocker = Array.unsafe_get blk !i in
      let c = Array.unsafe_get cls !i in
      incr i;
      if not (Cl.removed c) then begin
        if lit_value t blocker = 1 then begin
          (* Blocker satisfies the clause; the clause itself stays cold. *)
          Array.unsafe_set blk !j blocker;
          Array.unsafe_set cls !j c;
          incr j
        end
        else if Cl.size c = 2 then begin
          (* Binary: the blocker is the other literal, so the watch entry
             alone decides between unit propagation and conflict. *)
          Array.unsafe_set blk !j blocker;
          Array.unsafe_set cls !j c;
          incr j;
          (* Keep the reason invariant: position 0 holds the implied
             literal. *)
          if Cl.lit c 0 <> blocker then begin
            Cl.set_lit c 0 blocker;
            Cl.set_lit c 1 false_lit
          end;
          if lit_value t blocker = 0 then begin
            confl := c;
            t.qhead <- Vec.size t.trail;
            j := keep_rest blk cls !i !j n;
            i := n
          end
          else enqueue t blocker c
        end
        else begin
          (* Normalise: the falsified watch sits at position 1. *)
          if Cl.lit c 0 = false_lit then begin
            Cl.set_lit c 0 (Cl.lit c 1);
            Cl.set_lit c 1 false_lit
          end;
          let first = Cl.lit c 0 in
          if first <> blocker && lit_value t first = 1 then begin
            (* Clause already satisfied; refresh the blocker in place. *)
            Array.unsafe_set blk !j first;
            Array.unsafe_set cls !j c;
            incr j
          end
          else begin
            (* Look for a replacement watch. *)
            let len = Array.length c in
            let k = ref (Cl.base + 2) in
            while !k < len && lit_value t (Array.unsafe_get c !k) = 0 do
              incr k
            done;
            if !k < len then begin
              let l = Array.unsafe_get c !k in
              Cl.set_lit c 1 l;
              Array.unsafe_set c !k false_lit;
              watch t l first c
            end
            else begin
              (* Unit or conflicting. *)
              Array.unsafe_set blk !j first;
              Array.unsafe_set cls !j c;
              incr j;
              if lit_value t first = 0 then begin
                confl := c;
                t.qhead <- Vec.size t.trail;
                j := keep_rest blk cls !i !j n;
                i := n
              end
              else enqueue t first c
            end
          end
        end
      end
    done;
    (* Drop the references to clauses unwatched here, so the GC can reclaim
       deleted learnts. *)
    Array.fill cls !j (n - !j) Cl.none;
    t.wn.(false_lit) <- !j
  done;
  !confl

(* DFS over the resolution bookkeeping.  Seeds follow the premise encoding:
   entries >= 0 are clause ids, negative entries refer to the reason closure
   of a variable's current assignment.  Returns the original clause ids
   reached, plus the assumption literals (reason-less assignments above the
   root level) encountered on the way. *)
let collect_refutation t seeds =
  let visited_cid = Hashtbl.create 251 in
  let visited_var = Hashtbl.create 251 in
  let originals = ref [] in
  let failed = ref [] in
  let stack = ref seeds in
  let push s = stack := s :: !stack in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
      stack := rest;
      if s >= 0 then begin
        if not (Hashtbl.mem visited_cid s) then begin
          Hashtbl.add visited_cid s ();
          match t.cid_info.(s) with
          | Original _ -> originals := s :: !originals
          | Learnt_from premises -> Array.iter push premises
        end
      end
      else begin
        let v = -s - 1 in
        if not (Hashtbl.mem visited_var v) then begin
          Hashtbl.add visited_var v ();
          let c = t.reason.(v) in
          if c != Cl.none then begin
            push (Cl.id c);
            Cl.iter (fun l -> if Lit.var l <> v then push (var_marker (Lit.var l))) c
          end
          else if t.level.(v) > 0 then
            failed := Lit.of_var v (t.assign.(v) = 1) :: !failed
        end
      end
  done;
  (List.sort_uniq compare !originals, !failed)

(* Recursive (MiniSat 2.2 [litRedundant]-style) redundancy check used by
   conflict-clause minimisation: a candidate literal is redundant when every
   path through its reason chain terminates in a literal of the learnt
   clause (seen = 1), an already-proved-removable literal (seen = 2) or the
   root level.  The traversal is an explicit-stack DFS with memoisation in
   [t.seen] (2 = removable, 3 = failed).

   Every reason clause consulted on a successful derivation participates in
   the implicit resolution, so its id — and markers for its root-level
   literals — must join [premises] to keep refutations reconstructible.
   Premises of sub-derivations that concluded "removable" are committed at
   marking time even if the top-level check later fails: a later check may
   reuse the cached mark, and an over-approximated premise set only makes
   the extracted core larger, never wrong. *)
let abstract_level t v = 1 lsl (t.level.(v) land 31)

let commit_removable_premises t premises v =
  let r = t.reason.(v) in
  if r != Cl.none then begin
    premises := Cl.id r :: !premises;
    Cl.iter
      (fun l ->
        let w = Lit.var l in
        if w <> v && t.level.(w) = 0 then premises := var_marker w :: !premises)
      r
  end

(* On BMC unrollings reason chains run thousands of assignments deep, so an
   unbounded walk can dwarf the savings; past the budget the literal is
   conservatively kept. *)
let redundancy_budget = 512

let lit_redundant t abstract_levels premises to_clear q =
  let c0 = t.reason.(Lit.var q) in
  c0 != Cl.none
  && begin
    let stack = ref [] in (* (resume index, literal) continuations *)
    let p = ref q in
    let c = ref c0 in
    let i = ref 1 in
    let ok = ref true in
    let running = ref true in
    let budget = ref redundancy_budget in
    while !running do
      if !i < Cl.size !c then begin
        let l = Cl.lit !c !i in
        incr i;
        let v = Lit.var l in
        decr budget;
        if !budget < 0 then begin
          (* Out of budget: give up on the whole derivation. *)
          List.iter
            (fun (_, pl) ->
              let w = Lit.var pl in
              if t.seen.(w) = 0 then begin
                t.seen.(w) <- 3;
                to_clear := w :: !to_clear
              end)
            ((0, !p) :: !stack);
          ok := false;
          running := false
        end
        else if t.level.(v) = 0 || t.seen.(v) = 1 || t.seen.(v) = 2 then ()
        else if
          t.reason.(v) == Cl.none || t.seen.(v) = 3
          || abstract_level t v land abstract_levels = 0
        then begin
          (* Dead end: everything on the DFS path fails with it. *)
          List.iter
            (fun (_, pl) ->
              let w = Lit.var pl in
              if t.seen.(w) = 0 then begin
                t.seen.(w) <- 3;
                to_clear := w :: !to_clear
              end)
            ((0, !p) :: !stack);
          if t.seen.(v) = 0 then begin
            t.seen.(v) <- 3;
            to_clear := v :: !to_clear
          end;
          ok := false;
          running := false
        end
        else begin
          (* Descend into [l]'s reason. *)
          stack := (!i, !p) :: !stack;
          p := l;
          c := t.reason.(v);
          i := 1
        end
      end
      else begin
        (* All parents of [p] proved redundant. *)
        let v = Lit.var !p in
        if t.seen.(v) = 0 then begin
          t.seen.(v) <- 2;
          to_clear := v :: !to_clear;
          commit_removable_premises t premises v
        end;
        match !stack with
        | [] -> running := false
        | (si, sp) :: rest ->
          stack := rest;
          p := sp;
          c := t.reason.(Lit.var sp);
          i := si
      end
    done;
    !ok
  end

(* First-UIP conflict analysis.  Returns the learnt clause (asserting literal
   first), its LBD, the backjump level, and the premises resolved on the
   way. *)
let analyze t confl =
  let learnt_tail = ref [] in
  let premises = ref [] in
  let to_clear = ref [] in
  let path_c = ref 0 in
  let p = ref (-1) in
  let c = ref confl in
  let index = ref (Vec.size t.trail - 1) in
  let conflict_level = decision_level t in
  let continue = ref true in
  while !continue do
    let cl = !c in
    premises := Cl.id cl :: !premises;
    if Cl.learnt cl then begin
      bump_clause t cl;
      (* Glucose-style dynamic LBD update: clauses that turn out to have a
         lower glue than when they were learnt are promoted. *)
      if Cl.lbd cl > 2 then begin
        let d = clause_lbd t cl in
        if d < Cl.lbd cl then Cl.set_lbd cl d
      end
    end;
    let start = if !p = -1 then 0 else 1 in
    for idx = start to Cl.size cl - 1 do
      let q = Cl.lit cl idx in
      let v = Lit.var q in
      if t.seen.(v) = 0 then begin
        if t.level.(v) > 0 then begin
          t.seen.(v) <- 1;
          to_clear := v :: !to_clear;
          bump_var t v;
          if t.level.(v) >= conflict_level then incr path_c
          else learnt_tail := q :: !learnt_tail
        end
        else
          (* Root-level literal, resolved away: record its derivation so the
             refutation remains reconstructible. *)
          premises := var_marker v :: !premises
      end
    done;
    (* Select the next literal to resolve on. *)
    while t.seen.(Lit.var (Vec.get t.trail !index)) = 0 do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    t.seen.(Lit.var !p) <- 0;
    decr path_c;
    if !path_c <= 0 then continue := false
    else begin
      let r = t.reason.(Lit.var !p) in
      if r != Cl.none then c := r
      else continue := false (* decision reached; cannot precede the UIP *)
    end
  done;
  (* Conflict-clause minimisation: drop every non-asserting literal whose
     reason chain is fully covered by the remaining clause (recursively, not
     just one level deep).  Each dropped literal's reason joins the
     premises. *)
  let abstract_levels =
    List.fold_left (fun m q -> m lor abstract_level t (Lit.var q)) 0 !learnt_tail
  in
  let minimised =
    List.filter
      (fun q ->
        let v = Lit.var q in
        let r = t.reason.(v) in
        if r == Cl.none then true
        else if lit_redundant t abstract_levels premises to_clear q then begin
          premises := Cl.id r :: !premises;
          Cl.iter
            (fun l ->
              let w = Lit.var l in
              if w <> v && t.level.(w) = 0 then premises := var_marker w :: !premises)
            r;
          t.minimised_lits <- t.minimised_lits + 1;
          false
        end
        else true)
      !learnt_tail
  in
  let learnt = Lit.negate !p :: minimised in
  (* LBD must be computed before backjumping unassigns the asserting
     literal. *)
  let lbd = lits_lbd t learnt in
  List.iter (fun v -> t.seen.(v) <- 0) !to_clear;
  let bj =
    List.fold_left
      (fun acc q -> if q = Lit.negate !p then acc else max acc t.level.(Lit.var q))
      0 learnt
  in
  (learnt, lbd, bj, Array.of_list !premises)

let attach_clause t c =
  watch t (Cl.lit c 0) (Cl.lit c 1) c;
  watch t (Cl.lit c 1) (Cl.lit c 0) c

let record_refutation t seeds =
  let core, failed = collect_refutation t seeds in
  t.last_core <- core;
  t.last_failed <- List.sort_uniq compare failed

let mark_root_unsat t seeds =
  record_refutation t seeds;
  t.ok <- false

let conflict_seeds confl =
  Cl.id confl :: Cl.fold (fun acc l -> var_marker (Lit.var l) :: acc) [] confl

(* Allocate the next dense clause id, growing the per-cid arrays. *)
let new_cid t info =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let cap = Array.length t.cid_info in
  if cid = cap then begin
    let infos = Array.make (2 * cap) (Original (-1)) and acts = Array.make (2 * cap) 0.0 in
    Array.blit t.cid_info 0 infos 0 cap;
    Array.blit t.cla_act 0 acts 0 cap;
    t.cid_info <- infos;
    t.cla_act <- acts
  end;
  t.cid_info.(cid) <- info;
  cid

(* Move up to two non-false literals into the watch positions, then attach
   the clause, enqueue its unit or record the root conflict.  The
   root-falsified literals stay in the clause so refutations remain
   faithful. *)
let install_root_clause t c =
  let n = Cl.size c in
  let free = ref 0 in
  let i = ref 0 in
  while !free < 2 && !i < n do
    if lit_value t (Cl.lit c !i) <> 0 then begin
      let tmp = Cl.lit c !free in
      Cl.set_lit c !free (Cl.lit c !i);
      Cl.set_lit c !i tmp;
      incr free
    end;
    incr i
  done;
  if !free = 0 then
    (* All literals false at root: unsatisfiable formula. *)
    mark_root_unsat t (conflict_seeds c)
  else if !free = 1 then begin
    (* Unit at root level. *)
    enqueue t (Cl.lit c 0) c;
    let confl = propagate t in
    if confl != Cl.none then mark_root_unsat t (conflict_seeds confl)
  end
  else attach_clause t c

let add_clause ?(tag = -1) t lits =
  if t.ok then begin
    if decision_level t <> 0 then invalid_arg "Solver.add_clause: not at root level";
    (* Deduplicate and drop tautologies / root-satisfied clauses. *)
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> List.mem (Lit.negate l) lits) lits
      || List.exists (fun l -> lit_value t l = 1) lits
    in
    if not tautology then begin
      List.iter (fun l ->
          if Lit.var l >= t.nvars then
            invalid_arg "Solver.add_clause: undeclared variable")
        lits;
      let c = Cl.make ~id:(new_cid t (Original tag)) ~learnt:false ~lbd:0 lits in
      Vec.push t.clauses c;
      install_root_clause t c
    end
  end

(* Approximate per-clause footprint beyond the literals, in words (array
   header, id and meta, activity slot, two watch entries), used by the
   learnt-DB memory budget. *)
let clause_overhead = 8

let learn_clause t lits lbd premises =
  if t.proof_logging then t.proof_steps <- Padd lits :: t.proof_steps;
  let c = Cl.make ~id:(new_cid t (Learnt_from premises)) ~learnt:true ~lbd lits in
  let n = Cl.size c in
  t.learnt_words <- t.learnt_words + n + clause_overhead;
  t.learnt_total <- t.learnt_total + 1;
  t.lbd_sum <- t.lbd_sum + lbd;
  Vec.push t.learnts c;
  if n > 1 then begin
    (* Position 1 must hold the highest-level non-asserting literal so the
       watch invariant survives the backjump. *)
    let level i = t.level.(Lit.var (Cl.lit c i)) in
    let best = ref 1 in
    for i = 2 to n - 1 do
      if level i > level !best then best := i
    done;
    let tmp = Cl.lit c 1 in
    Cl.set_lit c 1 (Cl.lit c !best);
    Cl.set_lit c !best tmp;
    attach_clause t c
  end;
  bump_clause t c;
  c

let locked t c = Cl.size c > 0 && t.reason.(Lit.var (Cl.lit c 0)) == c

(* Learnt-clause database reduction, LBD-first (Glucose): the half of the
   database with the worst (highest) glue goes, ties broken by activity.
   Glue clauses (LBD <= 2), binary clauses and clauses currently locked as
   reasons are protected regardless of their rank. *)
let reduce_db t =
  t.db_reductions <- t.db_reductions + 1;
  let learnts = Vec.fold (fun acc c -> if Cl.removed c then acc else c :: acc) [] t.learnts in
  let arr = Array.of_list learnts in
  let act = t.cla_act in
  Array.sort
    (fun a b ->
      if Cl.lbd a <> Cl.lbd b then compare (Cl.lbd b) (Cl.lbd a)
      else Float.compare act.(Cl.id a) act.(Cl.id b))
    arr;
  let n = Array.length arr in
  let deleted = ref 0 in
  Array.iteri
    (fun i c ->
      if i < n / 2 && Cl.size c > 2 && Cl.lbd c > 2 && not (locked t c) then begin
        Cl.set_removed c;
        if t.proof_logging then t.proof_steps <- Pdel (Cl.lits c) :: t.proof_steps;
        t.learnt_words <- t.learnt_words - (Cl.size c + clause_overhead);
        incr deleted
      end)
    arr;
  t.deleted_total <- t.deleted_total + !deleted;
  Vec.filter_in_place (fun c -> not (Cl.removed c)) t.learnts;
  (* If protection kept most of the database, allow it to grow so reduction
     does not retrigger on every conflict. *)
  t.max_learnts <- t.max_learnts *. 1.1

let luby y x =
  let rec find_size size seq =
    if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1)
  in
  let rec reduce size seq x =
    if size - 1 = x then seq
    else
      let size = (size - 1) / 2 in
      reduce size (seq - 1) (x mod size)
  in
  let size, seq = find_size 1 0 in
  y ** float_of_int (reduce size seq x)

let pick_branch_var t =
  let rec loop () =
    if Order_heap.is_empty t.order then -1
    else
      let v = Order_heap.remove_max t.order in
      if t.assign.(v) < 0 then v else loop ()
  in
  loop ()

exception Found of result
exception Restart

(* Push the solver's cumulative counters into the ambient trace.  Called on
   a sampling tick in the conflict loop and once per [solve] call, and only
   when tracing is on — the hot path pays one [land] and one branch. *)
let sample_counters t =
  Obs.counter_set "solver.conflicts" (float_of_int t.conflicts);
  Obs.counter_set "solver.decisions" (float_of_int t.decisions);
  Obs.counter_set "solver.propagations" (float_of_int t.propagations);
  Obs.counter_set "solver.restarts" (float_of_int t.restarts);
  Obs.counter_set "solver.learnts" (float_of_int (Vec.size t.learnts))

(* One restart-bounded search episode; raises [Found] on a definitive
   answer, [Restart] when the conflict budget runs out. *)
let search t conflict_budget =
  let conflicts = ref 0 in
  let n_assumptions = Array.length t.assumptions in
  while true do
    let confl = propagate t in
    if confl != Cl.none then begin
      t.conflicts <- t.conflicts + 1;
      incr conflicts;
      if t.conflicts land 1023 = 0 && Obs.enabled () then sample_counters t;
      (match t.deadline with
      | Some d when t.conflicts land 255 = 0 && Unix.gettimeofday () > d ->
        cancel_until t 0;
        raise Timeout
      | Some _ | None -> ());
      (match t.conflict_budget with
      | Some b when t.conflicts - t.conflict_base >= b ->
        cancel_until t 0;
        raise (Budget_exceeded "conflicts")
      | Some _ | None -> ());
      (match t.learnt_budget_mb with
      | Some mb
        when t.conflicts land 255 = 0
             && float_of_int (t.learnt_words * 8) /. 1048576.0 > mb ->
        cancel_until t 0;
        raise (Budget_exceeded "learnt-db memory")
      | Some _ | None -> ());
      if decision_level t = 0 then begin
        mark_root_unsat t (conflict_seeds confl);
        raise (Found Unsat)
      end
      else if decision_level t <= n_assumptions then begin
        (* The conflict is forced by the assumptions alone. *)
        record_refutation t (conflict_seeds confl);
        raise (Found Unsat)
      end
      else begin
        let learnt, lbd, bj, premises = analyze t confl in
        cancel_until t (max bj 0);
        let c = learn_clause t learnt lbd premises in
        (match learnt with
        | asserting :: _ -> enqueue t asserting c
        | [] -> ());
        t.var_inc <- t.var_inc *. var_decay;
        t.cla_inc <- t.cla_inc *. cla_decay;
        if float_of_int (Vec.size t.learnts) >= t.max_learnts then reduce_db t
      end
    end
    else begin
      if !conflicts >= conflict_budget then begin
        cancel_until t 0;
        raise Restart
      end;
      if decision_level t < n_assumptions then begin
        (* Enqueue the next assumption. *)
        let p = t.assumptions.(decision_level t) in
        match lit_value t p with
        | 1 -> new_decision_level t (* already satisfied: placeholder level *)
        | 0 ->
          (* Assumption contradicted by the implied assignment. *)
          let core, failed = collect_refutation t [ var_marker (Lit.var p) ] in
          t.last_core <- core;
          t.last_failed <- List.sort_uniq compare (p :: failed);
          raise (Found Unsat)
        | _ ->
          new_decision_level t;
          enqueue t p Cl.none
      end
      else begin
        let v = pick_branch_var t in
        if v < 0 then raise (Found Sat)
        else begin
          t.decisions <- t.decisions + 1;
          new_decision_level t;
          enqueue t (Lit.of_var v t.phase.(v)) Cl.none
        end
      end
    end
  done

let solve ?(assumptions = []) t =
  if not t.ok then begin
    t.last_failed <- [];
    Unsat
  end
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        t.solve_time <- t.solve_time +. Unix.gettimeofday () -. t0;
        if Obs.enabled () then sample_counters t)
      (fun () ->
        cancel_until t 0;
        t.conflict_base <- t.conflicts;
        t.assumptions <- Array.of_list assumptions;
        Array.iter
          (fun l ->
            if Lit.var l >= t.nvars then invalid_arg "Solver.solve: undeclared assumption")
          t.assumptions;
        t.max_learnts <- max 1000.0 (float_of_int (Vec.size t.clauses) /. 3.0);
        let restarts = ref 0 in
        let answer = ref None in
        while !answer = None do
          let budget = int_of_float (luby 2.0 !restarts *. restart_base) in
          incr restarts;
          match search t budget with
          | exception Restart -> t.restarts <- t.restarts + 1
          | exception Found r -> answer := Some r
          | () -> ()
        done;
        (match !answer with
        | Some Sat ->
          t.model <- Array.sub t.assign 0 t.nvars;
          (* Unassigned variables default to false in the model. *)
          Array.iteri (fun i v -> if v < 0 then t.model.(i) <- 0) t.model
        | Some Unsat | None -> ());
        cancel_until t 0;
        t.assumptions <- [||];
        match !answer with Some r -> r | None -> assert false)
  end

let export_clauses t =
  let acc = ref [] in
  Vec.iter (fun c -> acc := Cl.lits c :: !acc) t.clauses;
  List.rev !acc

let value_var t v = v < Array.length t.model && t.model.(v) = 1

let value t l =
  if Lit.sign l then value_var t (Lit.var l) else not (value_var t (Lit.var l))

let unsat_core t = t.last_core

let unsat_core_tags t =
  let tags =
    List.filter_map
      (fun cid ->
        match t.cid_info.(cid) with
        | Original tag when tag >= 0 -> Some tag
        | Original _ | Learnt_from _ -> None)
      t.last_core
  in
  List.sort_uniq compare tags

let failed_assumptions t = t.last_failed

let pp_stats ppf t =
  let s = stats t in
  Format.fprintf ppf
    "vars=%d clauses=%d learnts=%d conflicts=%d decisions=%d props=%d restarts=%d \
     deleted=%d minimised=%d avg-lbd=%.2f"
    t.nvars (Vec.size t.clauses) (Vec.size t.learnts) s.conflicts s.decisions
    s.propagations s.restarts s.deleted_clauses s.minimised_lits s.avg_lbd
