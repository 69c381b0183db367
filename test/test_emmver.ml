(* Platform-façade tests: every verification method agrees on easy designs,
   spurious counterexamples are flagged, and the race checker behaves. *)

let options max_depth = { Emmver.default_options with Emmver.max_depth }

let conclusion ?(max_depth = 30) method_ net property =
  (Emmver.verify ~options:(options max_depth) ~method_ net ~property).Emmver.conclusion

let test_methods_agree_on_proof () =
  (* A provable memory property: never-written zero memory reads zero. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let ra = Hdl.input ctx "ra" ~width:2 in
  let rd = Hdl.read_port ctx mem ~addr:ra ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" (Hdl.eq_const ctx rd 0);
  let net = Hdl.netlist ctx in
  List.iter
    (fun method_ ->
      match conclusion method_ net "p" with
      | Emmver.Proved _ -> ()
      | c ->
        Alcotest.failf "%s: expected proof, got %s"
          (Emmver.method_to_string method_)
          (Format.asprintf "%a" Emmver.pp_conclusion c))
    [ Emmver.Emm_bmc; Emmver.Explicit_bmc; Emmver.Bdd_reach ]

let test_methods_agree_on_bug () =
  let net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config in
  let depths =
    List.map
      (fun method_ ->
        match conclusion ~max_depth:8 method_ net "fifo_data" with
        | Emmver.Falsified { depth; genuine; _ } ->
          Alcotest.(check bool)
            (Emmver.method_to_string method_ ^ " genuine")
            true
            (genuine = Some true || genuine = None);
          depth
        | c ->
          Alcotest.failf "%s: expected bug, got %s"
            (Emmver.method_to_string method_)
            (Format.asprintf "%a" Emmver.pp_conclusion c))
      [ Emmver.Emm_bmc; Emmver.Emm_falsify; Emmver.Explicit_bmc; Emmver.Bdd_reach ]
  in
  match depths with
  | d :: rest -> List.iter (fun d' -> Alcotest.(check int) "same minimal depth" d d') rest
  | [] -> ()

let test_abstract_method_spurious () =
  let net = Designs.Multiport.build Designs.Multiport.default_config in
  match conclusion ~max_depth:10 Emmver.Abstract_bmc net "hit0" with
  | Emmver.Falsified { genuine = Some false; depth; _ } ->
    Alcotest.(check int) "pipeline depth" 7 depth
  | c ->
    Alcotest.failf "expected spurious counterexample, got %s"
      (Format.asprintf "%a" Emmver.pp_conclusion c)

let test_emm_pba_on_quicksort () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  let outcome =
    Emmver.verify ~options:(options 60) ~method_:Emmver.Emm_pba net ~property:"P2"
  in
  (match outcome.Emmver.conclusion with
  | Emmver.Proved _ -> ()
  | c -> Alcotest.failf "expected proof, got %s" (Format.asprintf "%a" Emmver.pp_conclusion c));
  match outcome.Emmver.abstraction with
  | Some a ->
    Alcotest.(check bool) "array abstracted" true
      (List.exists (fun m -> Netlist.memory_name m = "arr") a.Pba.abstracted_memories)
  | None -> Alcotest.fail "expected abstraction info"

let test_method_of_string () =
  List.iter
    (fun m ->
      match Emmver.method_of_string (Emmver.method_to_string m) with
      | Ok m' -> Alcotest.(check bool) "roundtrip" true (m = m')
      | Error e -> Alcotest.fail e)
    Emmver.all_methods;
  match Emmver.method_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let test_timeout_inconclusive () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:5) in
  let options = { Emmver.default_options with max_depth = 200; timeout_s = Some 0.2 } in
  match (Emmver.verify ~options ~method_:Emmver.Explicit_bmc net ~property:"P1").Emmver.conclusion with
  | Emmver.Inconclusive _ -> ()
  | c -> Alcotest.failf "expected timeout, got %s" (Format.asprintf "%a" Emmver.pp_conclusion c)

let test_race_found_and_replayed () =
  let net = Designs.Regfile.build ~dual_write:true Designs.Regfile.default_config in
  match Emm.find_data_race ~max_depth:4 net with
  | Some race ->
    Alcotest.(check string) "memory" "regfile" race.Emm.race_memory;
    Alcotest.(check int) "depth 0 suffices" 0 race.Emm.race_depth
  | None -> Alcotest.fail "expected a race"

let test_no_race_single_port () =
  let net = Designs.Quicksort.build (Designs.Quicksort.default_config ~n:3) in
  Alcotest.(check bool) "single write port is race-free" true
    (Emm.find_data_race ~max_depth:6 net = None)

let test_no_race_when_unreachable () =
  (* Two write ports whose enables are mutually exclusive by construction. *)
  let ctx = Hdl.create () in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:2 ~data_width:2 ~init:Netlist.Zeros in
  let addr = Hdl.input ctx "addr" ~width:2 in
  let data = Hdl.input ctx "data" ~width:2 in
  let sel = Hdl.input_bit ctx "sel" in
  Hdl.write_port ctx mem ~addr ~data ~enable:sel;
  Hdl.write_port ctx mem ~addr ~data ~enable:(Netlist.not_ sel);
  let rd = Hdl.read_port ctx mem ~addr ~enable:Netlist.true_ in
  Hdl.assert_always ctx "p" Netlist.true_;
  Hdl.output ctx "rd" rd;
  let net = Hdl.netlist ctx in
  Alcotest.(check bool) "exclusive enables never race" true
    (Emm.find_data_race ~max_depth:4 net = None)

(* [memory_mb] is the process's peak major heap: never below the heap read
   right after the run, nor below a peak the process reached before it, even
   when that earlier heap has been freed (and, on runtimes that compact,
   returned to the system). *)
let test_memory_is_peak () =
  let heap_mb words = float_of_int (words * 8) /. 1e6 in
  let garbage = ref (List.init 1_000_000 Fun.id) in
  let peak_before = heap_mb (Gc.quick_stat ()).Gc.top_heap_words in
  garbage := [];
  Gc.compact ();
  let net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config in
  let o = Emmver.verify ~options:(options 8) ~method_:Emmver.Emm_bmc net ~property:"fifo_data" in
  let heap_after = heap_mb (Gc.quick_stat ()).Gc.heap_words in
  Alcotest.(check bool)
    (Printf.sprintf "memory_mb %.1f >= heap after the run %.1f" o.Emmver.memory_mb heap_after)
    true (o.Emmver.memory_mb >= heap_after);
  Alcotest.(check bool)
    (Printf.sprintf "memory_mb %.1f >= earlier peak %.1f" o.Emmver.memory_mb peak_before)
    true (o.Emmver.memory_mb >= peak_before)

(* [proof_dir] may name a directory whose parents do not exist yet: a
   certified run creates the whole path and writes its DRAT derivation
   there. *)
let test_proof_dir_nested () =
  let root = Filename.temp_file "emmver-proofs" "" in
  Sys.remove root;
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let net = (Designs.Registry.find "memcpy").Designs.Registry.build () in
  let options = { Emmver.default_options with certify = true; proof_dir = Some dir } in
  let o = Emmver.verify ~options ~method_:Emmver.Emm_bmc net ~property:"copied" in
  Alcotest.(check string) "certificate" "drat-checked" (Cert.label o.Emmver.certificate);
  let file = Filename.concat dir "copied-emm.drat" in
  Alcotest.(check bool) (file ^ " written") true (Sys.file_exists file);
  Sys.remove file;
  Sys.rmdir dir;
  Sys.rmdir (Filename.dirname dir);
  Sys.rmdir root

(* A traced verify on the real clock: the JSON-lines rows carry distinct
   timestamps, and every span lasts as long in the JSON-lines export as in
   the Chrome one, to within a microsecond. *)
let test_trace_time_resolution () =
  let r = Obs.create () in
  let saved = Obs.current () in
  Obs.set_current (Some r);
  Fun.protect
    ~finally:(fun () -> Obs.set_current saved)
    (fun () ->
      let net = Designs.Fifo.build ~buggy:true Designs.Fifo.default_config in
      ignore (Emmver.verify ~options:(options 8) ~method_:Emmver.Emm_bmc net ~property:"fifo_data"));
  let export fmt =
    let b = Buffer.create 65536 in
    Obs.export fmt b (Obs.rows r);
    Buffer.contents b
  in
  let parse s =
    match Obs.Json.parse s with Ok j -> j | Error why -> Alcotest.failf "bad JSON: %s" why
  in
  let num key ev =
    match Obs.Json.member key ev with
    | Some (Obs.Json.Num x) -> x
    | _ -> Alcotest.failf "event without numeric %S" key
  in
  let ph ev = match Obs.Json.member "ph" ev with Some (Obs.Json.Str p) -> p | _ -> "" in
  (* Span durations in row order of their Begin, paired per pid by nesting. *)
  let durations scale events =
    let stacks = Hashtbl.create 4 and out = ref [] and n = ref 0 in
    List.iter
      (fun ev ->
        let pid = num "pid" ev and ts = num "ts" ev *. scale in
        let stack = Option.value ~default:[] (Hashtbl.find_opt stacks pid) in
        match (ph ev, stack) with
        | "B", _ ->
          Hashtbl.replace stacks pid ((!n, ts) :: stack);
          incr n
        | "E", (i, t0) :: rest ->
          Hashtbl.replace stacks pid rest;
          out := (i, ts -. t0) :: !out
        | _ -> ())
      events;
    List.map snd (List.sort compare !out)
  in
  let jsonl =
    List.map parse (List.filter (( <> ) "") (String.split_on_char '\n' (export Obs.Jsonl)))
  in
  let chrome =
    match Obs.Json.member "traceEvents" (parse (export Obs.Chrome)) with
    | Some (Obs.Json.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let distinct = List.sort_uniq compare (List.map (num "ts") jsonl) in
  Alcotest.(check bool)
    (Printf.sprintf "distinct jsonl timestamps (%d)" (List.length distinct))
    true
    (List.length distinct > 1);
  let dj = durations 1e6 jsonl and dc = durations 1.0 chrome in
  Alcotest.(check bool) "some spans" true (dj <> []);
  Alcotest.(check int) "same spans" (List.length dj) (List.length dc);
  List.iter2
    (fun a b ->
      if Float.abs (a -. b) > 1.0 then
        Alcotest.failf "span lasts %.3f us in jsonl, %.3f us in chrome" a b)
    dj dc

let () =
  Alcotest.run "emmver"
    [
      ( "unit",
        [
          Alcotest.test_case "methods agree on proof" `Quick test_methods_agree_on_proof;
          Alcotest.test_case "methods agree on bug" `Quick test_methods_agree_on_bug;
          Alcotest.test_case "abstract method spurious" `Quick
            test_abstract_method_spurious;
          Alcotest.test_case "emm-pba on quicksort" `Quick test_emm_pba_on_quicksort;
          Alcotest.test_case "method of string" `Quick test_method_of_string;
          Alcotest.test_case "timeout inconclusive" `Quick test_timeout_inconclusive;
          Alcotest.test_case "race found" `Quick test_race_found_and_replayed;
          Alcotest.test_case "no race single port" `Quick test_no_race_single_port;
          Alcotest.test_case "no race when unreachable" `Quick
            test_no_race_when_unreachable;
          Alcotest.test_case "memory is the peak heap" `Quick test_memory_is_peak;
          Alcotest.test_case "trace time resolution" `Quick test_trace_time_resolution;
          Alcotest.test_case "proof dir with missing parents" `Quick test_proof_dir_nested;
        ] );
    ]
