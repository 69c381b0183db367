(* Tests for the fork-based worker pool (lib/parallel) and its Emmver
   surface: crash containment, deadline SIGKILL, result-order determinism,
   pool reuse across batches, and a differential check that fanning
   verification out over forked workers never changes a verdict. *)

let is_infix ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  go 0

let ok_exn = function
  | Ok v -> v
  | Error (f : Parallel.failure) ->
    Alcotest.failf "unexpected worker failure: %s" (Parallel.failure_message f)

let reason_label = function
  | Ok _ -> "ok"
  | Error { Parallel.reason = Parallel.Crashed _; _ } -> "crashed"
  | Error { Parallel.reason = Parallel.Timed_out _; _ } -> "timed_out"
  | Error { Parallel.reason = Parallel.Cancelled; _ } -> "cancelled"
  | Error { Parallel.reason = Parallel.Protocol _; _ } -> "protocol"

(* {2 Pool mechanics} *)

let test_basic_map () =
  let results = Parallel.map ~jobs:4 ~f:(fun i -> i * i) [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int))
    "squares in order"
    [ 0; 1; 4; 9; 16; 25; 36; 49 ]
    (List.map ok_exn results)

(* A worker that exits, raises, or kills itself loses only its own slot;
   every other job completes. *)
let test_crash_containment () =
  let f i =
    match i with
    | 2 -> exit 137
    | 4 -> failwith "boom"
    | 5 ->
      Unix.kill (Unix.getpid ()) Sys.sigsegv;
      i
    | _ -> i * 10
  in
  let results = Parallel.map ~jobs:3 ~f [ 0; 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list string))
    "crashes contained to their slots"
    [ "ok"; "ok"; "crashed"; "ok"; "crashed"; "crashed"; "ok" ]
    (List.map reason_label results);
  Alcotest.(check (list int))
    "survivors computed"
    [ 0; 10; 30; 60 ]
    (List.filter_map (function Ok v -> Some v | Error _ -> None) results);
  (* The failure messages identify what happened. *)
  let msg i =
    match List.nth results i with
    | Error f -> Parallel.failure_message f
    | Ok _ -> Alcotest.failf "slot %d should have failed" i
  in
  Alcotest.(check bool) "exit code reported" true
    (is_infix ~affix:"exit 137" (msg 2));
  Alcotest.(check bool) "exception text reported" true
    (is_infix ~affix:"boom" (msg 4));
  Alcotest.(check bool) "signal reported" true
    (is_infix ~affix:"SIGSEGV" (msg 5))

(* Deadline enforcement is a hard SIGKILL: a worker stuck in a sleep — no
   cooperative cancellation point — still dies, within a wall-clock bound
   far below its sleep. *)
let test_deadline_sigkill () =
  let t0 = Unix.gettimeofday () in
  let results =
    Parallel.map ~jobs:4 ~job_timeout_s:0.3
      ~f:(fun i -> if i = 1 then Unix.sleepf 30.0; i)
      [ 0; 1; 2 ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string))
    "only the sleeper dies"
    [ "ok"; "timed_out"; "ok" ]
    (List.map reason_label results);
  Alcotest.(check bool)
    (Printf.sprintf "batch returned promptly (%.1fs)" wall)
    true (wall < 10.0);
  match List.nth results 1 with
  | Error f -> Alcotest.(check bool) "partial telemetry: elapsed recorded" true (f.Parallel.elapsed_s >= 0.3)
  | Ok _ -> Alcotest.fail "sleeper should have timed out"

(* Results come back in job order whatever the completion order: give every
   job a pseudo-random duration and check the slots still line up. *)
let test_order_determinism () =
  let n = 16 in
  let f i =
    let st = Random.State.make [| 0xfeed; i |] in
    Unix.sleepf (Random.State.float st 0.15);
    i
  in
  let results = Parallel.map ~jobs:4 ~f (List.init n Fun.id) in
  Alcotest.(check (list int))
    "slot i holds f(i)" (List.init n Fun.id)
    (List.map ok_exn results)

(* One pool across several batches: no leaked state, counters accumulate. *)
let test_pool_reuse () =
  let pool = Parallel.create ~jobs:2 () in
  let batch xs = List.map ok_exn (Parallel.run pool ~f:(fun i -> i + 1) xs) in
  Alcotest.(check (list int)) "batch 1" [ 1; 2; 3 ] (batch [ 0; 1; 2 ]);
  Alcotest.(check (list int)) "batch 2" [ 11; 21 ] (batch [ 10; 20 ]);
  let crashes =
    Parallel.run pool ~f:(fun i -> if i = 0 then exit 7 else i) [ 0; 1 ]
  in
  Alcotest.(check (list string))
    "batch 3 with a crash" [ "crashed"; "ok" ]
    (List.map reason_label crashes);
  let s = Parallel.stats pool in
  Alcotest.(check int) "spawned accumulates over batches" 7 s.Parallel.spawned;
  Alcotest.(check int) "completed" 6 s.Parallel.completed;
  Alcotest.(check int) "crashed" 1 s.Parallel.crashed

(* Racing: first conclusive result wins, losers are SIGKILLed. *)
let test_race () =
  let pool = Parallel.create ~jobs:3 () in
  let f = function
    | `Fast -> "fast"
    | `Slow ->
      Unix.sleepf 30.0;
      "slow"
    | `Inconclusive -> "inconclusive"
  in
  let t0 = Unix.gettimeofday () in
  let winner, results =
    Parallel.race pool ~f
      ~conclusive:(fun v -> v <> "inconclusive")
      [ `Inconclusive; `Slow; `Fast ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  (match winner with
  | Some (2, "fast") -> ()
  | Some (i, v) -> Alcotest.failf "wrong winner: slot %d = %s" i v
  | None -> Alcotest.fail "no winner");
  Alcotest.(check bool) "slow loser cancelled, not awaited" true (wall < 10.0);
  Alcotest.(check string) "slow slot reports cancellation" "cancelled"
    (reason_label (List.nth results 1))

(* No process may survive a finished batch: after reaping everything the
   pool owes us, waitpid(-1) must report that this process has no children
   at all. *)
let check_no_children label =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | 0, _ -> Alcotest.failf "%s: a child is still running" label
  | pid, _ -> Alcotest.failf "%s: zombie child %d left behind" label pid

(* Loser cleanup under sustained reuse: 100 races in one pool, each with a
   winner and a SIGKILLed long-sleeping loser.  A single unreaped loser
   anywhere turns up as a zombie (or a live child) at the end. *)
let test_race_loser_reaping () =
  let pool = Parallel.create ~jobs:2 () in
  let f = function
    | `Fast -> "fast"
    | `Slow ->
      Unix.sleepf 30.0;
      "slow"
  in
  for round = 0 to 99 do
    let winner, _ =
      Parallel.race pool ~f ~conclusive:(fun v -> v = "fast") [ `Slow; `Fast ]
    in
    match winner with
    | Some (1, "fast") -> ()
    | _ -> Alcotest.failf "round %d: fast worker should have won" round
  done;
  check_no_children "after 100 races";
  let s = Parallel.stats pool in
  Alcotest.(check int) "every race spawned both workers" 200 s.Parallel.spawned;
  Alcotest.(check int) "every loser accounted as cancelled" 100 s.Parallel.cancelled

(* An exception escaping the drive loop itself — here a raising [conclusive]
   callback — must not abandon the still-running workers. *)
let test_exception_reaps_workers () =
  let pool = Parallel.create ~jobs:2 () in
  let t0 = Unix.gettimeofday () in
  (try
     ignore
       (Parallel.race pool
          ~f:(fun i -> if i = 0 then "quick" else (Unix.sleepf 30.0; "slow"))
          ~conclusive:(fun _ -> failwith "callback boom")
          [ 0; 1 ]);
     Alcotest.fail "callback exception should propagate"
   with Failure msg ->
     Alcotest.(check string) "original exception survives" "callback boom" msg);
  Alcotest.(check bool) "sleeper killed, not awaited" true
    (Unix.gettimeofday () -. t0 < 10.0);
  check_no_children "after aborted race"

(* {2 Differential: forked fan-out never changes a verdict}

   The 50 seeded random memory designs of test_differential.ml (the shared
   {!Diffgen} generator), verified sequentially and through a 4-worker
   pool: the conclusions must match slot for slot. *)

let build id = Diffgen.build (Diffgen.random_cfg id)

let options = { Emmver.default_options with Emmver.max_depth = 8 }

let conclusion_signature o =
  Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion

let test_differential_fanout () =
  let ids = List.init 50 Fun.id in
  let verify_one id =
    Emmver.verify ~options ~method_:Emmver.Emm_falsify (build id)
      ~property:"p"
  in
  let sequential = List.map (fun id -> conclusion_signature (verify_one id)) ids in
  let parallel =
    Parallel.map ~jobs:4 ~f:(fun id -> conclusion_signature (verify_one id)) ids
  in
  List.iteri
    (fun id seq ->
      Alcotest.(check string)
        (Printf.sprintf "design %d: -j 4 verdict = sequential verdict" id)
        seq
        (ok_exn (List.nth parallel id)))
    sequential

(* The Emmver surface: verify_many at -j 4 equals the sequential loop on a
   multi-property design, slot for slot. *)
let test_verify_many_differential () =
  let net = Designs.Multiport.build Designs.Multiport.default_config in
  let properties = List.map fst (Netlist.properties net) in
  let options = { Emmver.default_options with Emmver.max_depth = 6 } in
  let sequential =
    List.map
      (fun p ->
        (p, conclusion_signature (Emmver.verify ~options ~method_:Emmver.Emm_bmc net ~property:p)))
      properties
  in
  let parallel =
    Emmver.verify_many ~options ~jobs:4 ~method_:Emmver.Emm_bmc net ~properties
    |> List.map (fun (p, o) -> (p, conclusion_signature o))
  in
  Alcotest.(check (list (pair string string)))
    "verify_many -j 4 = sequential loop" sequential parallel

(* {2 Tracing through the pool}

   With a recorder installed in the parent, forked workers record events
   locally ([Obs.worker_scope] in the pool's child shim) and marshal them
   back alongside their results; the parent merges them into one
   pid-annotated stream. *)

let with_recorder r f =
  let saved = Obs.current () in
  Obs.set_current (Some r);
  Fun.protect ~finally:(fun () -> Obs.set_current saved) f

let worker_pids rows =
  let parent = Unix.getpid () in
  List.sort_uniq compare
    (List.filter_map (fun (pid, _) -> if pid <> parent then Some pid else None) rows)

let spans_exn rows =
  match Obs.spans rows with
  | Ok s -> s
  | Error e -> Alcotest.failf "span reconstruction failed: %s" e

(* A -j 4 fanout over the 50 seeded designs yields one merged trace: the
   stream validates, and every worker pid contributes a well-formed span
   tree containing a "verify" span whose parents stay within that pid. *)
let test_traced_fanout () =
  let r = Obs.create ~track_alloc:false () in
  let results =
    with_recorder r (fun () ->
        Parallel.map ~jobs:4
          ~f:(fun id ->
            conclusion_signature
              (Emmver.verify ~options ~method_:Emmver.Emm_falsify
                 (build id) ~property:"p"))
          (List.init 50 Fun.id))
  in
  List.iter (fun res -> ignore (ok_exn res)) results;
  let rows = Obs.rows r in
  (match Obs.validate rows with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace invalid: %s" e);
  let spans = spans_exn rows in
  let pids = worker_pids rows in
  Alcotest.(check bool)
    (Printf.sprintf "many workers contributed (%d pids)" (List.length pids))
    true
    (List.length pids >= 4);
  List.iter
    (fun pid ->
      let mine = List.filter (fun s -> s.Obs.sp_pid = pid) spans in
      Alcotest.(check bool)
        (Printf.sprintf "worker %d contributed spans" pid)
        true (mine <> []);
      Alcotest.(check bool)
        (Printf.sprintf "worker %d recorded a verify span" pid)
        true
        (List.exists (fun s -> s.Obs.sp_name = "verify") mine);
      List.iter
        (fun s ->
          match s.Obs.sp_parent with
          | None -> ()
          | Some idx ->
            Alcotest.(check int)
              (Printf.sprintf "worker %d: enclosing span in same process" pid)
              pid
              (List.nth spans idx).Obs.sp_pid)
        mine)
    pids

(* A SIGKILLed worker marshals nothing back: its partial spans are dropped,
   the merged stream stays valid, and survivors' spans still arrive. *)
let test_sigkill_drops_partial_spans () =
  let r = Obs.create ~track_alloc:false () in
  let results =
    with_recorder r (fun () ->
        Parallel.map ~jobs:3 ~job_timeout_s:0.3
          ~f:(fun i ->
            Obs.span "job" ~attrs:[ ("i", Obs.Int i) ] (fun () ->
                if i = 1 then Unix.sleepf 30.0;
                i))
          [ 0; 1; 2 ])
  in
  Alcotest.(check (list string))
    "only the sleeper dies"
    [ "ok"; "timed_out"; "ok" ]
    (List.map reason_label results);
  let rows = Obs.rows r in
  (match Obs.validate rows with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged trace corrupted by the kill: %s" e);
  let job_ids =
    List.filter_map
      (fun s ->
        if s.Obs.sp_name = "job" then Obs.attr_int "i" s.Obs.sp_attrs else None)
      (spans_exn rows)
    |> List.sort compare
  in
  Alcotest.(check (list int))
    "killed worker's span dropped, survivors kept"
    [ 0; 2 ] job_ids;
  Alcotest.(check int)
    "exactly the two surviving workers contributed rows"
    2
    (List.length (worker_pids rows))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map returns in order" `Quick test_basic_map;
          Alcotest.test_case "crash containment (exit/raise/signal)" `Quick
            test_crash_containment;
          Alcotest.test_case "deadline enforced by SIGKILL" `Quick test_deadline_sigkill;
          Alcotest.test_case "order deterministic under random durations" `Quick
            test_order_determinism;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
          Alcotest.test_case "race cancels losers" `Quick test_race;
          Alcotest.test_case "100 races leave no zombies" `Quick
            test_race_loser_reaping;
          Alcotest.test_case "exception mid-drive reaps workers" `Quick
            test_exception_reaps_workers;
        ] );
      ( "differential",
        [
          Alcotest.test_case "50 seeded designs: -j 4 = sequential" `Quick
            test_differential_fanout;
          Alcotest.test_case "verify_many -j 4 = sequential loop" `Quick
            test_verify_many_differential;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "50-design fanout merges one valid trace" `Quick
            test_traced_fanout;
          Alcotest.test_case "SIGKILLed worker's partial spans dropped" `Quick
            test_sigkill_drops_partial_spans;
        ] );
    ]
