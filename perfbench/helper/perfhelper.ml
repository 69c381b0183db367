(* Measurement helper for perfbench/run.py.

   Subcommands, each printing JSON objects, one a line:

     probe                   for every line read, time two fixed reference
                             computations once
     setup DESIGN...         build the designs through the registry (median
                             of 15 batches of 10 builds) and time the
                             reference compute between batches; for
                             image-filter also print the property names and
                             the ones whose value the filter can produce
     job   --design D --property P --method M --depth K [--certify] [--trace]
                             verify one property in this process
     serve --socket S --cache-dir C --journal J --workers N --design D
           --properties P1,P2,... --summary FILE
                             run the serve daemon with tracing on until a
                             client asks it to drain, then write the span
                             analysis to FILE

   Everything here is measured from outside the library: spans the program
   already emits are read from the in-memory recorder (never from the
   jsonl export, whose timestamps are printed at %.6g), and the few layers
   without spans (PBA discovery, cone signatures) are timed around their
   public entry points.  Two outcome fields are never reported:
   [encode_time_s] counts EMM time twice, and [memory_mb] is the final GC
   heap size, not a peak; peak memory is VmHWM from /proc. *)

type json = Num of float | Int of int | Str of string | Bool of bool | List of json list

let rec render b = function
  | Num x -> Buffer.add_string b (if Float.is_finite x then Printf.sprintf "%.17g" x else "null")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | List l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        render b v)
      l;
    Buffer.add_char b ']'

let object_string fields =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      render b (Str k);
      Buffer.add_char b ':';
      render b v)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfhelper: " ^ msg);
      exit 3)
    fmt

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Peak resident set of this process as the kernel records it. *)
let vmhwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> fail "no VmHWM line in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let build_design name =
  match Designs.Registry.find name with
  | e -> e.Designs.Registry.build ()
  | exception Not_found -> fail "unknown design %s" name

(* {1 Span analysis} *)

let str_attr key attrs =
  match List.assoc_opt key attrs with Some (Obs.Str s) -> Some s | _ -> None

(* Metrics read from a recorder's rows.  Rejects a trace that fails
   [Obs.validate], a child span reaching outside its parent, children that
   cover more than their parent, and a [verify] span whose encode and solve
   descendants add up to more than its own duration.

   Engine-level metrics cover the verdict run of each [verify] span: the
   engine numbers its depths from 0 on every run, and PBA runs discovery
   before the run that decides the property. *)
let analyse rows =
  (* Durations are differences of wall-clock readings; sums of them may
     round past their parent's by a few ulps. *)
  let rounding = 1e-6 in
  (match Obs.validate rows with
  | Ok () -> ()
  | Error e -> fail "trace fails Obs.validate: %s" e);
  let spans =
    match Obs.spans rows with Ok s -> Array.of_list s | Error e -> fail "trace spans: %s" e
  in
  let n = Array.length spans in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    match spans.(i).Obs.sp_parent with
    | Some p -> children.(p) <- i :: children.(p)
    | None -> ()
  done;
  let name i = spans.(i).Obs.sp_name in
  let dur i = Obs.duration spans.(i) in
  let covered i = List.fold_left (fun acc c -> acc +. dur c) 0.0 children.(i) in
  let self i = dur i -. covered i in
  Array.iteri
    (fun i (s : Obs.span_info) ->
      (match s.Obs.sp_parent with
      | Some p ->
        let q = spans.(p) in
        if s.Obs.sp_start < q.Obs.sp_start || s.Obs.sp_stop > q.Obs.sp_stop then
          fail "span %s [%f, %f] escapes its parent %s [%f, %f]" s.Obs.sp_name
            s.Obs.sp_start s.Obs.sp_stop q.Obs.sp_name q.Obs.sp_start q.Obs.sp_stop
      | None -> ());
      if covered i > dur i +. rounding then
        fail "children of span %s cover %fs of its %fs" (name i) (covered i) (dur i))
    spans;
  let rec descendants i = List.concat_map (fun c -> c :: descendants c) children.(i) in
  let all_named nm = List.filter (fun i -> name i = nm) (List.init n Fun.id) in
  let sum f l = List.fold_left (fun acc i -> acc +. f i) 0.0 l in
  let verifies = all_named "verify" in
  List.iter
    (fun v ->
      let d = descendants v in
      let enc = sum dur (List.filter (fun i -> name i = "encode") d) in
      let sol = sum dur (List.filter (fun i -> name i = "solve") d) in
      if enc +. sol > dur v +. rounding then
        fail "verify span: encode %fs + solve %fs exceed its %fs" enc sol (dur v))
    verifies;
  let verdict_run v =
    let depths = List.filter (fun c -> name c = "depth") children.(v) in
    List.rev
      (List.fold_left
         (fun run d -> if Obs.attr_int "k" spans.(d).Obs.sp_attrs = Some 0 then [ d ] else d :: run)
         [] depths)
  in
  let runs = List.filter (fun r -> r <> []) (List.map verdict_run verifies) in
  let run_nodes = List.concat_map (fun r -> List.concat_map (fun d -> d :: descendants d) r) runs in
  let solves = List.filter (fun i -> name i = "solve") run_nodes in
  let solve_s q =
    sum dur
      (List.filter (fun i -> str_attr "query" spans.(i).Obs.sp_attrs = Some q) solves)
  in
  (* EMM counts come from the per-memory instants emitted inside each
     verdict run's [emm] spans. *)
  let windows =
    List.map
      (fun r ->
        let first = spans.(List.hd r) and last = spans.(List.nth r (List.length r - 1)) in
        (first.Obs.sp_pid, first.Obs.sp_start, last.Obs.sp_stop))
      runs
  in
  let in_run pid ts = List.exists (fun (p, a, b) -> p = pid && ts >= a && ts <= b) windows in
  let emm_clauses = ref 0 and emm_aux = ref 0 and emm_pairs = ref 0 in
  let last_counter = Hashtbl.create 16 in
  List.iter
    (fun (pid, ev) ->
      match ev with
      | Obs.Instant { name = "emm.memory"; ts; attrs } when in_run pid ts ->
        let get k = Option.value (Obs.attr_int k attrs) ~default:0 in
        emm_clauses := !emm_clauses + get "emitted_clauses";
        emm_aux := !emm_aux + get "aux_vars";
        emm_pairs := !emm_pairs + get "init_pairs"
      | Obs.Count { name; value; _ } -> Hashtbl.replace last_counter (pid, name) value
      | _ -> ())
    rows;
  let counter_sum nm =
    Hashtbl.fold (fun (_, k) v acc -> if k = nm then acc +. v else acc) last_counter 0.0
  in
  let hit_pids =
    Hashtbl.fold (fun (pid, k) v acc -> if k = "vcache.hits" && v > 0.0 then pid :: acc else acc)
      last_counter []
  in
  let lookups = all_named "cache.lookup" in
  let hit_lookups = List.filter (fun i -> List.mem spans.(i).Obs.sp_pid hit_pids) lookups in
  let emm_s = sum dur (List.filter (fun i -> name i = "emm") run_nodes) in
  let solve_total = sum dur solves in
  ( [
      ("trace.rows", Int (List.length rows));
      ("trace.spans", Int n);
      ("satsolver.solve_s", Num solve_total);
      ("bmc.falsify_s", Num (solve_s "falsify"));
      ("bmc.lfp_s", Num (solve_s "lfp"));
      ("bmc.induction_s", Num (solve_s "induction"));
      ("bmc.queries", Int (List.length solves));
      ("bmc.depths", Int (List.fold_left (fun acc r -> acc + List.length r) 0 runs));
      ("cnf.unroll_s", Num (sum self (List.filter (fun i -> name i = "encode") run_nodes)));
      ("emm.encode_s", Num emm_s);
      ("emm.clauses", Int !emm_clauses);
      ("emm.aux_vars", Int !emm_aux);
      ("emm.init_pairs", Int !emm_pairs);
      ( "emm.us_per_clause",
        Num (if !emm_clauses > 0 then emm_s *. 1e6 /. float_of_int !emm_clauses else 0.0) );
      ("cert.check_s", Num (sum dur (all_named "certify")));
      ("core.verify_self_s", Num (sum self verifies));
      ("vcache.load_us", Num (1e6 *. median (List.map dur hit_lookups)));
      ("vcache.store_us", Num (1e6 *. median (List.map dur (all_named "cache.store"))));
    ],
    counter_sum )

(* {1 Subcommands} *)

let rec flags acc = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" && v <> "" && v.[0] <> '-' ->
    flags ((k, v) :: acc) rest
  | k :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> flags ((k, "") :: acc) rest
  | a :: _ -> fail "unexpected argument %s" a
  | [] -> acc

let flag opts k = match List.assoc_opt k opts with Some v -> v | None -> fail "missing %s" k
let has opts k = List.mem_assoc k opts

(* Two fixed computations that no emmver code takes part in, each starting
   from a state that does not depend on what ran before it.  [compute] sorts,
   hashes and allocates, like the encoders, in a working set of well under
   a megabyte that it builds afresh each time.  [chase] follows a random
   cycle through a 16 MB ring, like the solver's clause and watch-list
   walks, after one sequential pass that brings the ring back into the
   caches as far as the host's other tenants leave room for it; so it
   measures how much of the shared caches and memory bandwidth they
   leave, not how much of them the workload used. *)
let lcg st =
  st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
  !st

let compute () =
  let st = ref 12345 in
  let a = Array.init 20_000 (fun _ -> lcg st) in
  Array.sort compare a;
  let h = Hashtbl.create 16 in
  Array.iteri (fun i x -> Hashtbl.replace h (x land 0xFFFFF) i) a;
  let l = List.init 6_000 (fun i -> (i, a.(i))) in
  let l = List.sort (fun (_, x) (_, y) -> compare y x) l in
  ignore (Sys.opaque_identity (l, Hashtbl.length h))

let ring () =
  let n = 1 lsl 21 and st = ref 777 in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = lcg st mod (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  let next = Array.make n 0 in
  Array.iteri (fun i x -> next.(x) <- p.((i + 1) mod n)) p;
  next

let warm next = ignore (Sys.opaque_identity (Array.fold_left ( + ) 0 next))

let chase next =
  let x = ref 0 in
  for _ = 1 to 60_000 do
    x := next.(!x)
  done;
  ignore (Sys.opaque_identity !x)

(* Building a netlist takes well under a millisecond.  The builds are
   timed in batches, each followed by one run of the reference [compute],
   so that the host's speed is sampled within milliseconds of the builds
   it scales. *)
let setup designs =
  let build () = List.map (fun d -> (d, build_design d)) designs in
  let nets = build () in
  let batches = ref [] and computes = ref [] in
  for _ = 1 to 15 do
    let (), batch_s =
      timed (fun () ->
          for _ = 1 to 10 do
            ignore (Sys.opaque_identity (build ()))
          done)
    in
    let (), compute_s = timed compute in
    batches := (batch_s /. 10.0) :: !batches;
    computes := compute_s :: !computes
  done;
  let filter =
    if List.mem_assoc "image-filter" nets then begin
      let cfg = Designs.Image_filter.default_config in
      let names = Designs.Image_filter.property_names cfg in
      let reachable =
        List.map (Printf.sprintf "P%d") (Designs.Image_filter.reachable_values cfg)
      in
      List.iter
        (fun p -> if not (List.mem p names) then fail "no property %s in image-filter" p)
        reachable;
      [
        ("properties", List (List.map (fun p -> Str p) names));
        ("reachable", List (List.map (fun p -> Str p) reachable));
      ]
    end
    else []
  in
  print_endline
    (object_string
       (("designs.build_s", Num (median !batches))
       :: ("compute_s", Num (median !computes))
       :: filter))

let job opts =
  let design = flag opts "--design" and property = flag opts "--property" in
  let method_ =
    match Emmver.method_of_string (flag opts "--method") with Ok m -> m | Error e -> fail "%s" e
  in
  let max_depth =
    match int_of_string_opt (flag opts "--depth") with Some d -> d | None -> fail "bad --depth"
  in
  let options = { Emmver.default_options with max_depth; certify = has opts "--certify" } in
  let net = build_design design in
  let recorder = if has opts "--trace" then Some (Obs.create ()) else None in
  Obs.set_current recorder;
  let started_at = now () in
  let o = Emmver.verify ~options ~method_ net ~property in
  let wall_s = now () -. started_at in
  Obs.set_current None;
  let peak = vmhwm_mb () in
  let verdict =
    match o.Emmver.conclusion with
    | Emmver.Proved { depth; induction } ->
      [ ("verdict", Str "proved"); ("depth", Int depth); ("induction", Bool induction) ]
    | Emmver.Falsified { depth; genuine; _ } ->
      [
        ("verdict", Str "falsified");
        ("depth", Int depth);
        ("genuine", Bool (genuine = Some true));
      ]
    | Emmver.Inconclusive why -> [ ("verdict", Str "inconclusive"); ("reason", Str why) ]
  in
  let stats = Option.value o.Emmver.solver_stats ~default:Satsolver.Solver.empty_stats in
  let kept, stable =
    match o.Emmver.abstraction with
    | Some a -> (List.length a.Pba.kept_latches, a.Pba.discovery_depth)
    | None -> (0, 0)
  in
  let counts =
    [
      ("satsolver.conflicts", Int stats.Satsolver.Solver.conflicts);
      ("satsolver.propagations", Int stats.Satsolver.Solver.propagations);
      ("satsolver.decisions", Int stats.Satsolver.Solver.decisions);
      ("cnf.vars", Int o.Emmver.model_vars);
      ("cnf.clauses", Int o.Emmver.model_clauses);
      ( "bmc.proof_depth",
        Int (match o.Emmver.conclusion with Emmver.Proved { depth; _ } -> depth | _ -> 0) );
      ("cert.drat_steps", Int o.Emmver.proof_steps);
      ("pba.kept_latches", Int kept);
      ("pba.stable_depth", Int stable);
    ]
  in
  let layers =
    match recorder with
    | None -> []
    | Some r ->
      let metrics, _ = analyse (Obs.rows r) in
      let pba =
        if method_ = Emmver.Emm_pba then begin
          let found, discover_s =
            timed (fun () ->
                Pba.discover ~max_depth ~stability:options.Emmver.stability ~use_emm:true net
                  ~property)
          in
          match found with
          | Either.Left a when List.length a.Pba.kept_latches = kept
                               && a.Pba.discovery_depth = stable ->
            [ ("pba.discover_s", Num discover_s) ]
          | Either.Left _ -> fail "Pba.discover disagrees with the verified run's abstraction"
          | Either.Right _ -> fail "Pba.discover concluded instead of abstracting"
        end
        else []
      in
      metrics @ pba
  in
  print_endline
    (object_string
       (verdict
       @ [
           ("certificate", Str (Cert.label o.Emmver.certificate));
           ("started_at", Num started_at);
           ("wall_s", Num wall_s);
           ("peak_rss_mb", Num peak);
         ]
       @ counts @ layers))

let serve opts =
  let socket = flag opts "--socket" and summary = flag opts "--summary" in
  let cache_dir = flag opts "--cache-dir" and design = flag opts "--design" in
  let workers =
    match int_of_string_opt (flag opts "--workers") with Some w -> w | None -> fail "bad --workers"
  in
  let properties = String.split_on_char ',' (flag opts "--properties") in
  let recorder = Obs.create () in
  Obs.set_current (Some recorder);
  Serve.Server.run
    (Serve.Server.config ~workers ~cache_dir:(Some cache_dir) ~quiet:true
       ~journal:(flag opts "--journal") ~socket ());
  Obs.set_current None;
  let metrics, counter_sum = analyse (Obs.rows recorder) in
  let net = build_design design in
  let cone_ms =
    median
      (List.map
         (fun p ->
           let root = Netlist.find_property net p in
           1e3 *. snd (timed (fun () -> Netlist.cone_signature net root)))
         properties)
  in
  let store = Vcache.stats (Vcache.config ~dir:cache_dir ()) in
  let out =
    metrics
    @ [
        ("satsolver.conflicts", Num (counter_sum "solver.conflicts"));
        ("satsolver.propagations", Num (counter_sum "solver.propagations"));
        ("satsolver.decisions", Num (counter_sum "solver.decisions"));
        ("netlist.cone_signature_ms", Num cone_ms);
        ("vcache.bytes", Int store.Vcache.bytes);
      ]
  in
  let oc = open_out summary in
  output_string oc (object_string out);
  close_out oc

(* For every line read, run both computations once and print the wall
   time each took, until end of input.  The benchmark asks for a sample
   only while the workload's processes are stopped, never beside them, so
   the workload's own demands on the cores, caches and memory bandwidth do
   not enter the result: what remains is how fast the host executes right
   now. *)
let probe () =
  let next = ring () in
  try
    while true do
      ignore (input_line stdin);
      let (), compute_s = timed compute in
      warm next;
      let (), chase_s = timed (fun () -> chase next) in
      print_endline (object_string [ ("compute_s", Num compute_s); ("chase_s", Num chase_s) ])
    done
  with End_of_file -> ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "probe" ] -> probe ()
  | "setup" :: designs -> setup designs
  | "job" :: rest -> job (flags [] rest)
  | "serve" :: rest -> serve (flags [] rest)
  | _ -> fail "usage: perfhelper (probe | setup DESIGN... | job FLAGS | serve FLAGS)"
