(* Tests for the resilience policy layer (lib/policy) and its Emmver
   instantiation: the generic fallback executor, and fault-injection runs
   (SIGKILL, out-of-memory, poisoned encoder, exhausted budgets) asserting
   that degradation never changes the final verdict. *)

let signature o = Format.asprintf "%a" Emmver.pp_conclusion o.Emmver.conclusion

(* {2 The generic executor} *)

let test_execute_first_done_wins () =
  let ran = ref [] in
  let run stage ~attempt =
    ran := (stage, attempt) :: !ran;
    if stage = "b" then Policy.Done "b!" else Policy.Soft "meh"
  in
  let result, events =
    Policy.execute Policy.default ~stages:[ "a"; "b"; "c" ] ~stage_name:Fun.id ~run
  in
  Alcotest.(check bool) "done result" true (result = Ok "b!");
  Alcotest.(check (list (pair string int)))
    "c never ran"
    [ ("a", 0); ("b", 0) ]
    (List.rev !ran);
  Alcotest.(check int) "no degradation events" 0 (List.length events)

let test_execute_retries_worker_death () =
  let run stage ~attempt =
    match (stage, attempt) with
    | "a", 0 -> Policy.Failed (Policy.Worker_killed "SIGKILL")
    | "a", _ -> Policy.Done "recovered"
    | _ -> Policy.Done "fallback"
  in
  let result, events =
    Policy.execute Policy.default ~stages:[ "a"; "b" ] ~stage_name:Fun.id ~run
  in
  Alcotest.(check bool) "same stage recovered on retry" true (result = Ok "recovered");
  match events with
  | [ { Policy.ev_stage = "a"; ev_attempt = 0; ev_error = Policy.Worker_killed _; _ } ]
    -> ()
  | _ -> Alcotest.failf "expected one worker-death event, got %d" (List.length events)

let test_execute_encode_error_advances () =
  let attempts_on_a = ref 0 in
  let run stage ~attempt:_ =
    if stage = "a" then begin
      incr attempts_on_a;
      Policy.Failed (Policy.Encode_error "poisoned")
    end
    else Policy.Done "fallback"
  in
  let result, events =
    Policy.execute Policy.default ~stages:[ "a"; "b" ] ~stage_name:Fun.id ~run
  in
  Alcotest.(check bool) "fell through to b" true (result = Ok "fallback");
  Alcotest.(check int) "encode errors are not retried" 1 !attempts_on_a;
  Alcotest.(check int) "one event" 1 (List.length events)

let test_execute_soft_is_last_resort () =
  let run stage ~attempt:_ =
    if stage = "a" then Policy.Soft "honest inconclusive"
    else Policy.Failed (Policy.Budget_exhausted stage)
  in
  let result, events =
    Policy.execute Policy.default ~stages:[ "a"; "b"; "c" ] ~stage_name:Fun.id ~run
  in
  Alcotest.(check bool) "soft answer survives later failures" true
    (result = Ok "honest inconclusive");
  Alcotest.(check (list string))
    "failures recorded in order" [ "b"; "c" ]
    (List.map (fun e -> e.Policy.ev_stage) events)

let test_execute_all_failed () =
  let run stage ~attempt:_ = Policy.Failed (Policy.Budget_exhausted stage) in
  let result, events =
    Policy.execute
      { Policy.default with Policy.worker_retries = 0 }
      ~stages:[ "a"; "b" ] ~stage_name:Fun.id ~run
  in
  (match result with
  | Error (Policy.Budget_exhausted "b") -> ()
  | Error e -> Alcotest.failf "wrong final error: %s" (Policy.error_message e)
  | Ok _ -> Alcotest.fail "nothing should have succeeded");
  Alcotest.(check (list (pair string int)))
    "both failures recorded, in order" [ ("a", 0); ("b", 0) ]
    (List.map (fun e -> (e.Policy.ev_stage, e.Policy.ev_attempt)) events)

(* {2 Fault injection through Emmver.verify_resilient}

   Each scenario compares against a clean run of the same policy: injected
   faults may add degradation events but must never change the verdict. *)

let proved_net = Designs.Fifo.build Designs.Fifo.default_config
let buggy_net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config
let options = { Emmver.default_options with Emmver.max_depth = 12 }

let clean_signature net ~property =
  signature (Emmver.verify_resilient ~options net ~property)

let test_sigkill_once_retried () =
  let inject method_ ~attempt =
    if method_ = Emmver.Emm_bmc && attempt = 0 then
      Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  List.iter
    (fun (net, property) ->
      let o = Emmver.verify_resilient ~options ~inject net ~property in
      Alcotest.(check string)
        (property ^ ": verdict unchanged by a killed worker")
        (clean_signature net ~property) (signature o);
      match o.Emmver.degradations with
      | [ { Policy.ev_stage = "emm"; ev_error = Policy.Worker_killed _; _ } ] -> ()
      | evs -> Alcotest.failf "expected one emm worker-death event, got %d" (List.length evs))
    [ (proved_net, "fifo_count"); (buggy_net, "fifo_data") ]

let test_sigkill_always_falls_back () =
  (* emm dies on every attempt: the chain must degrade to explicit and still
     produce the clean verdict. *)
  let inject method_ ~attempt:_ =
    if method_ = Emmver.Emm_bmc then Unix.kill (Unix.getpid ()) Sys.sigkill
  in
  let o = Emmver.verify_resilient ~options ~inject buggy_net ~property:"fifo_data" in
  Alcotest.(check string) "explicit fallback reproduces the verdict"
    (clean_signature buggy_net ~property:"fifo_data")
    (signature o);
  Alcotest.(check (list string))
    "emm died twice (initial + retry) before falling back"
    [ "emm"; "emm" ]
    (List.map (fun e -> e.Policy.ev_stage) o.Emmver.degradations)

let test_oom_treated_as_worker_death () =
  let inject method_ ~attempt =
    if method_ = Emmver.Emm_bmc && attempt = 0 then raise Out_of_memory
  in
  let o = Emmver.verify_resilient ~options ~inject proved_net ~property:"fifo_count" in
  Alcotest.(check string) "verdict unchanged by OOM"
    (clean_signature proved_net ~property:"fifo_count")
    (signature o);
  match o.Emmver.degradations with
  | [ { Policy.ev_error = Policy.Worker_killed why; _ } ] ->
    Alcotest.(check bool) "OOM named in the event" true
      (let affix = "Out of memory" in
       let n = String.length why and m = String.length affix in
       let rec go i = i + m <= n && (String.sub why i m = affix || go (i + 1)) in
       go 0)
  | evs -> Alcotest.failf "expected one OOM event, got %d" (List.length evs)

let test_poisoned_encoder_falls_through () =
  let inject method_ ~attempt:_ =
    if method_ = Emmver.Emm_bmc then failwith "poisoned encoder"
  in
  let o = Emmver.verify_resilient ~options ~inject buggy_net ~property:"fifo_data" in
  Alcotest.(check string) "verdict unchanged by a poisoned encoder"
    (clean_signature buggy_net ~property:"fifo_data")
    (signature o);
  (* Encode errors are not retried: exactly one emm event, then explicit. *)
  match o.Emmver.degradations with
  | [ { Policy.ev_stage = "emm"; ev_error = Policy.Encode_error _; _ } ] -> ()
  | evs ->
    Alcotest.failf "expected one encode-error event, got [%s]"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Policy.pp_event e) evs))

let test_budget_exhaustion_degrades () =
  (* A one-conflict budget starves both SAT engines on the hard property;
     the chain ends with a typed budget error, not a bogus verdict. *)
  let policy =
    {
      Policy.default with
      Policy.budgets = { Policy.unlimited with Policy.conflicts = Some 1 };
      fallback = [ "emm"; "explicit" ];
    }
  in
  let o =
    Emmver.verify_resilient ~options ~policy proved_net ~property:"fifo_data"
  in
  (match o.Emmver.conclusion with
  | Emmver.Inconclusive _ -> ()
  | c -> Alcotest.failf "starved run must be inconclusive, got %a" Emmver.pp_conclusion c);
  (match o.Emmver.error with
  | Some (Policy.Budget_exhausted _) -> ()
  | Some e -> Alcotest.failf "wrong error class: %s" (Policy.error_message e)
  | None -> Alcotest.fail "expected a typed budget error");
  Alcotest.(check (list string))
    "both stages exhausted in order" [ "emm"; "explicit" ]
    (List.map (fun e -> e.Policy.ev_stage) o.Emmver.degradations)

let test_budget_narrows_but_verdict_survives () =
  (* An easy property concludes within one SAT query even under a small
     conflict budget — budgets narrow the work, never the answer. *)
  let policy =
    {
      Policy.default with
      Policy.budgets = { Policy.unlimited with Policy.conflicts = Some 50 };
    }
  in
  let o = Emmver.verify_resilient ~options ~policy proved_net ~property:"fifo_count" in
  Alcotest.(check string) "verdict as clean run"
    (clean_signature proved_net ~property:"fifo_count")
    (signature o)

let () =
  Alcotest.run "policy"
    [
      ( "execute",
        [
          Alcotest.test_case "first Done wins" `Quick test_execute_first_done_wins;
          Alcotest.test_case "worker death retried on same stage" `Quick
            test_execute_retries_worker_death;
          Alcotest.test_case "encode error advances the chain" `Quick
            test_execute_encode_error_advances;
          Alcotest.test_case "soft answer kept as last resort" `Quick
            test_execute_soft_is_last_resort;
          Alcotest.test_case "all-failed returns the last error" `Quick
            test_execute_all_failed;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "SIGKILL on first attempt is retried" `Quick
            test_sigkill_once_retried;
          Alcotest.test_case "persistent SIGKILL falls back to explicit" `Quick
            test_sigkill_always_falls_back;
          Alcotest.test_case "OOM classified as worker death" `Quick
            test_oom_treated_as_worker_death;
          Alcotest.test_case "poisoned encoder falls through, no retry" `Quick
            test_poisoned_encoder_falls_through;
          Alcotest.test_case "exhausted budgets degrade with typed error" `Quick
            test_budget_exhaustion_degrades;
          Alcotest.test_case "budget does not change an easy verdict" `Quick
            test_budget_narrows_but_verdict_survives;
        ] );
    ]
