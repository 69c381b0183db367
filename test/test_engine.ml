(* Engine regression tests: exact deterministic counters of single-property
   runs (the CNF and every solver step must not move when the engine's
   control flow is restructured), deadline handling on the solver's clock,
   and the encode/solve time accounting of the platform façade. *)

type pin = {
  verdict : string;
  vars : int;
  clauses : int;
  conflicts : int;
  propagations : int;
}

let pin_of (r : Bmc.Engine.result) =
  let s = r.Bmc.Engine.stats in
  {
    verdict = Format.asprintf "%a" Bmc.Engine.pp_verdict r.Bmc.Engine.verdict;
    vars = s.Bmc.Engine.num_vars;
    clauses = s.Bmc.Engine.num_clauses;
    conflicts = s.Bmc.Engine.num_conflicts;
    propagations = s.Bmc.Engine.solver_stats.Satsolver.Solver.propagations;
  }

let pin =
  Alcotest.testable
    (fun ppf p ->
      Format.fprintf ppf "%s vars=%d clauses=%d conflicts=%d propagations=%d" p.verdict
        p.vars p.clauses p.conflicts p.propagations)
    ( = )

let design name = (Designs.Registry.find name).Designs.Registry.build ()
let depth k = { Bmc.Engine.default_config with max_depth = k }

let check_pin ~expect ?(config = depth 12) name property =
  let r, _ = Emm.check ~config (design name) ~property in
  Alcotest.check pin (name ^ "/" ^ property) expect (pin_of r);
  r

(* {2 Pinned counters}

   Recorded with the engine as it stood before its two depth loops were
   merged; any change here is a change of the CNF or of the solver's path. *)

let test_pin_fifo () =
  ignore
    (check_pin "fifo" "fifo_data"
       ~expect:
         {
           verdict = "no counterexample up to depth 12";
           vars = 3361;
           clauses = 11451;
           conflicts = 14445;
           propagations = 4508456;
         })

let test_pin_quicksort () =
  ignore
    (check_pin "quicksort-n3" "P1"
       ~expect:
         {
           verdict = "no counterexample up to depth 12";
           vars = 11092;
           clauses = 39186;
           conflicts = 520;
           propagations = 350075;
         })

let test_pin_multiport () =
  ignore
    (check_pin ~config:(depth 10) "multiport" "hit0"
       ~expect:
         {
           verdict = "no counterexample up to depth 10";
           vars = 12428;
           clauses = 44577;
           conflicts = 96;
           propagations = 160466;
         })

let test_pin_pba () =
  let net = design "quicksort-n3" in
  match Pba.discover ~max_depth:60 ~stability:10 net ~property:"P2" with
  | Either.Right v -> Alcotest.failf "discovery concluded: %a" Bmc.Engine.pp_verdict v
  | Either.Left a ->
    Alcotest.(check (pair int int))
      "kept latches, discovery depth" (15, 27)
      (List.length a.Pba.kept_latches, a.Pba.discovery_depth);
    let r, _ = Pba.check_with_abstraction ~config:(depth 60) net a ~property:"P2" in
    Alcotest.check pin "quicksort-n3/P2 abstract"
      {
        verdict = "proof (forward diameter 32)";
        vars = 27411;
        clauses = 92580;
        conflicts = 4276;
        propagations = 4696634;
      }
      (pin_of r)

let certified = { (depth 12) with Bmc.Engine.certify = true }

let check_cert ~steps ~artifact ~cert (r : Bmc.Engine.result) =
  Alcotest.(check int) "proof steps" steps r.Bmc.Engine.stats.Bmc.Engine.proof_steps;
  Alcotest.(check bool) "artifact" artifact (r.Bmc.Engine.artifact <> None);
  Alcotest.(check string) "certificate" cert
    (Format.asprintf "%a" Cert.pp r.Bmc.Engine.certificate)

let test_pin_certified_proof () =
  check_pin ~config:certified "memcpy" "copied"
    ~expect:
      {
        verdict = "proof (induction at depth 8)";
        vars = 1431;
        clauses = 7097;
        conflicts = 166;
        propagations = 34973;
      }
  |> check_cert ~steps:165 ~artifact:true ~cert:"certified (drat-checked)"

let test_pin_certified_cex () =
  check_pin ~config:certified "fifo-buggy" "fifo_data"
    ~expect:
      {
        verdict = "counterexample at depth 5";
        vars = 844;
        clauses = 2691;
        conflicts = 228;
        propagations = 20273;
      }
  |> check_cert ~steps:224 ~artifact:false ~cert:"certified (trace-replayed)"

(* A one-property [check_all] is the same run as [check]: same CNF, same
   solver path, same certificate. *)
let test_check_all_singleton () =
  List.iter
    (fun (name, property, config) ->
      let single, _ = Emm.check ~config (design name) ~property in
      let multi, _, _ = Emm.check_many ~config (design name) ~properties:[ property ] in
      let multi = List.assoc property multi in
      Alcotest.check pin (name ^ "/" ^ property) (pin_of single) (pin_of multi);
      Alcotest.(check string) "certificate"
        (Format.asprintf "%a" Cert.pp single.Bmc.Engine.certificate)
        (Format.asprintf "%a" Cert.pp multi.Bmc.Engine.certificate);
      Alcotest.(check bool) "artifact" (single.Bmc.Engine.artifact <> None)
        (multi.Bmc.Engine.artifact <> None))
    [
      ("quicksort-n3", "P1", depth 12);
      ("memcpy", "copied", certified);
      ("fifo-buggy", "fifo_data", { certified with Bmc.Engine.proof_checks = false });
    ]

(* {2 Deadlines}

   Deadlines are on the [Unix.gettimeofday] scale the solver enforces, also
   when a deterministic trace clock is installed: a deadline already in the
   past stops every entry point before its first depth. *)

let with_fixed_clock f =
  Obs.set_current (Some (Obs.create ~clock:(Obs.Clock.fixed ()) ()));
  Fun.protect ~finally:(fun () -> Obs.set_current None) f

let test_past_deadline () =
  with_fixed_clock (fun () ->
      let past () = Some (Unix.gettimeofday () -. 1.0) in
      let config = { Bmc.Engine.default_config with deadline = past () } in
      let net = design "quicksort-n3" in
      let timed_out name (r : Bmc.Engine.result) =
        Alcotest.(check bool)
          (Format.asprintf "%s: %a" name Bmc.Engine.pp_verdict r.Bmc.Engine.verdict)
          true
          (match r.Bmc.Engine.verdict with Bmc.Engine.Timed_out _ -> true | _ -> false)
      in
      timed_out "check P1" (fst (Emm.check ~config net ~property:"P1"));
      let results, _, _ = Emm.check_many ~config net ~properties:[ "P1"; "P2" ] in
      List.iter (fun (p, r) -> timed_out ("check_all " ^ p) r) results;
      Alcotest.(check bool) "find_data_race finds nothing" true
        (Emm.find_data_race ?deadline:(past ()) (design "regfile-racy") = None))

(* {2 Time accounting}

   The engine's encode span already contains the EMM constraint generation,
   so a run's encode and solve times together fit inside its wall time. *)

let test_encode_time_within_run () =
  let o = Emmver.verify ~method_:Emmver.Emm_falsify (design "multiport") ~property:"hit0" in
  Alcotest.(check bool)
    (Printf.sprintf "encode %.3f + solve %.3f <= time %.3f" o.Emmver.encode_time_s
       o.Emmver.solve_time_s o.Emmver.time_s)
    true
    (o.Emmver.encode_time_s +. o.Emmver.solve_time_s <= o.Emmver.time_s)

let () =
  Alcotest.run "engine"
    [
      ( "pinned",
        [
          Alcotest.test_case "fifo/fifo_data k=12" `Quick test_pin_fifo;
          Alcotest.test_case "quicksort-n3/P1 k=12" `Quick test_pin_quicksort;
          Alcotest.test_case "multiport/hit0 k=10" `Quick test_pin_multiport;
          Alcotest.test_case "pba quicksort-n3/P2" `Quick test_pin_pba;
          Alcotest.test_case "certified proof" `Quick test_pin_certified_proof;
          Alcotest.test_case "certified counterexample" `Quick test_pin_certified_cex;
          Alcotest.test_case "check_all of one property" `Quick test_check_all_singleton;
        ] );
      ( "deadline",
        [ Alcotest.test_case "past deadline, fixed clock" `Quick test_past_deadline ] );
      ( "timing",
        [ Alcotest.test_case "encode + solve within run" `Quick test_encode_time_within_run ]
      );
    ]
