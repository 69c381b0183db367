(* Structured observability.  See obs.mli for the contract.

   Implementation notes: rows are kept as a reversed list (append is the
   only hot operation); the span stack and counter totals live beside the
   log so emission stays well-formed by construction.  Everything a worker
   marshals back is made of plain constructors over immediate values. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type event =
  | Begin of { name : string; ts : float; attrs : attr list }
  | End of { name : string; ts : float; alloc_words : float }
  | Count of { name : string; ts : float; value : float }
  | Instant of { name : string; ts : float; attrs : attr list }

type row = int * event

module Clock = struct
  type t = unit -> float

  let wall = Unix.gettimeofday

  let fixed ?(start = 0.0) ?(step = 1.0) () =
    let t = ref (start -. step) in
    fun () ->
      t := !t +. step;
      !t
end

type t = {
  c : Clock.t;
  pid : int;
  track_alloc : bool;
  mutable rev_rows : row list;
  mutable n : int;
  mutable stack : (string * float) list; (* open spans: name, alloc at begin *)
  totals : (string, float) Hashtbl.t;
}

let create ?(clock = Clock.wall) ?pid ?(track_alloc = true) () =
  let pid = match pid with Some p -> p | None -> Unix.getpid () in
  {
    c = clock;
    pid;
    track_alloc;
    rev_rows = [];
    n = 0;
    stack = [];
    totals = Hashtbl.create 16;
  }

let clock t = t.c
let rows t = List.rev t.rev_rows
let num_rows t = t.n
let open_spans t = List.map fst t.stack

(* Cumulative words allocated by this process so far. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let push t row =
  t.rev_rows <- (t.pid, row) :: t.rev_rows;
  t.n <- t.n + 1

let end_top t =
  match t.stack with
  | [] -> ()
  | (name, a0) :: rest ->
    t.stack <- rest;
    let alloc = if t.track_alloc then alloc_words () -. a0 else 0.0 in
    push t (End { name; ts = t.c (); alloc_words = alloc })

let close_open_spans t =
  while t.stack <> [] do
    end_top t
  done

(* {2 The current recorder} *)

let cur_ref : t option ref = ref None

let cur () = !cur_ref
let set_cur v = cur_ref := v

let set_current r = set_cur r
let current () = cur ()
let enabled () = cur () <> None

let now () = match cur () with Some r -> r.c () | None -> Unix.gettimeofday ()

let span ?(attrs = []) name f =
  match cur () with
  | None -> f ()
  | Some r ->
    let a0 = if r.track_alloc then alloc_words () else 0.0 in
    r.stack <- (name, a0) :: r.stack;
    push r (Begin { name; ts = r.c (); attrs });
    Fun.protect f ~finally:(fun () -> end_top r)

let instant ?(attrs = []) name =
  match cur () with
  | None -> ()
  | Some r -> push r (Instant { name; ts = r.c (); attrs })

let bump r name total =
  Hashtbl.replace r.totals name total;
  push r (Count { name; ts = r.c (); value = total })

let counter_add name delta =
  match cur () with
  | None -> ()
  | Some r ->
    let delta = max 0 delta in
    let total =
      (match Hashtbl.find_opt r.totals name with Some v -> v | None -> 0.0)
      +. float_of_int delta
    in
    bump r name total

let counter_set name v =
  match cur () with
  | None -> ()
  | Some r ->
    let old = match Hashtbl.find_opt r.totals name with Some v -> v | None -> 0.0 in
    bump r name (Float.max old v)

let counter_total t name =
  match Hashtbl.find_opt t.totals name with Some v -> v | None -> 0.0

let counter_totals t =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) t.totals []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* {2 Worker support} *)

let worker_scope f =
  match cur () with
  | None -> (f (), [])
  | Some parent ->
    let r = create ~clock:parent.c ~track_alloc:parent.track_alloc () in
    set_cur (Some r);
    let v = Fun.protect f ~finally:(fun () -> set_cur None) in
    close_open_spans r;
    (v, rows r)

let ingest t worker_rows =
  List.iter
    (fun row ->
      t.rev_rows <- row :: t.rev_rows;
      t.n <- t.n + 1)
    worker_rows

let ingest_current worker_rows =
  match cur () with None -> () | Some r -> ingest r worker_rows

(* {2 Validation and span extraction} *)

type span_info = {
  sp_pid : int;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
  sp_alloc_words : float;
  sp_attrs : attr list;
  sp_level : int;
  sp_parent : int option;
}

let ts_of = function
  | Begin { ts; _ } | End { ts; _ } | Count { ts; _ } | Instant { ts; _ } -> ts

let spans rows =
  (* One stack per pid: (index into the output, name). *)
  let stacks : (int, (int * string) list) Hashtbl.t = Hashtbl.create 4 in
  let last_ts : (int, float) Hashtbl.t = Hashtbl.create 4 in
  let out = ref [] in
  let n_out = ref 0 in
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  List.iter
    (fun (pid, ev) ->
      if !err = None then begin
        let ts = ts_of ev in
        (match Hashtbl.find_opt last_ts pid with
        | Some prev when ts < prev ->
          fail "pid %d: timestamp runs backwards (%g after %g)" pid ts prev
        | _ -> Hashtbl.replace last_ts pid ts);
        let stack = match Hashtbl.find_opt stacks pid with Some s -> s | None -> [] in
        match ev with
        | Begin { name; ts; attrs } ->
          let parent = match stack with (i, _) :: _ -> Some i | [] -> None in
          let idx = !n_out in
          out :=
            {
              sp_pid = pid;
              sp_name = name;
              sp_start = ts;
              sp_stop = nan;
              sp_alloc_words = 0.0;
              sp_attrs = attrs;
              sp_level = List.length stack;
              sp_parent = parent;
            }
            :: !out;
          incr n_out;
          Hashtbl.replace stacks pid ((idx, name) :: stack)
        | End { name; ts; alloc_words } -> (
          match stack with
          | [] -> fail "pid %d: orphan end of span %S" pid name
          | (idx, open_name) :: rest ->
            if open_name <> name then
              fail "pid %d: end of span %S while %S is open" pid name open_name
            else begin
              Hashtbl.replace stacks pid rest;
              out :=
                List.mapi
                  (fun i sp ->
                    if i = !n_out - 1 - idx then
                      { sp with sp_stop = ts; sp_alloc_words = alloc_words }
                    else sp)
                  !out
            end)
        | Count _ | Instant _ -> ()
      end)
    rows;
  (match !err with
  | None ->
    Hashtbl.iter
      (fun pid stack ->
        match stack with
        | (_, name) :: _ -> fail "pid %d: span %S left open" pid name
        | [] -> ())
      stacks
  | Some _ -> ());
  match !err with Some m -> Error m | None -> Ok (List.rev !out)

let validate rows =
  match spans rows with
  | Error _ as e -> e
  | Ok _ ->
    let totals : (int * string, float) Hashtbl.t = Hashtbl.create 16 in
    let err = ref None in
    List.iter
      (fun (pid, ev) ->
        if !err = None then
          match ev with
          | Count { name; value; _ } -> (
            match Hashtbl.find_opt totals (pid, name) with
            | Some prev when value < prev ->
              err :=
                Some
                  (Printf.sprintf "pid %d: counter %S not monotone (%g after %g)"
                     pid name value prev)
            | _ -> Hashtbl.replace totals (pid, name) value)
          | Begin _ | End _ | Instant _ -> ())
      rows;
    (match !err with Some m -> Error m | None -> Ok ())

let attr_int key attrs =
  match List.assoc_opt key attrs with Some (Int i) -> Some i | _ -> None

let duration sp = sp.sp_stop -. sp.sp_start

(* {2 Exporters} *)

type format = Jsonl | Chrome

let format_of_path path =
  if Filename.check_suffix path ".jsonl" then Jsonl else Chrome

(* Deterministic number rendering: integers without a fraction, everything
   else with six significant digits. *)
let add_num b (x : float) =
  if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" x)
  else Buffer.add_string b (Printf.sprintf "%.6g" x)

let add_value v b =
  match v with
  | Str s -> Json.str s b
  | Int i -> Json.int i b
  | Float f -> add_num b f
  | Bool bo -> Json.bool bo b

let add_attrs b attrs =
  Json.obj
    (fun b ->
      List.iteri (fun i (k, v) -> Json.field b ~first:(i = 0) k (add_value v)) attrs)
    b

(* Timestamps: JSON-lines keeps the raw clock readings ("ts", seconds) at
   microsecond resolution, the wall clock's own (epoch seconds take ten
   digits before the point, so [add_num]'s six significant digits would
   keep none of the fraction); integers print bare, so fixed-clock traces
   stay byte-identical.  Chrome wants microseconds ("ts" in us): the same
   readings rounded to whole microseconds, made relative to the earliest
   row so traces open at t=0 in Perfetto.  A span's duration is thus the
   same in both exports. *)
let add_common b ~ph ~name ~ts ~pid =
  Buffer.add_string b "{\"ph\":\"";
  Buffer.add_string b ph;
  Buffer.add_string b "\",\"name\":";
  Json.add_string b name;
  Buffer.add_string b ",\"ts\":";
  if Float.is_integer ts then add_num b ts
  else Buffer.add_string b (Printf.sprintf "%.6f" ts);
  Buffer.add_string b ",\"pid\":";
  Buffer.add_string b (string_of_int pid);
  Buffer.add_string b ",\"tid\":";
  Buffer.add_string b (string_of_int pid)

let add_event b ~us_of (pid, ev) =
  match ev with
  | Begin { name; ts; attrs } ->
    add_common b ~ph:"B" ~name ~ts:(us_of ts) ~pid;
    if attrs <> [] then begin
      Buffer.add_string b ",\"args\":";
      add_attrs b attrs
    end;
    Buffer.add_char b '}'
  | End { name; ts; alloc_words } ->
    add_common b ~ph:"E" ~name ~ts:(us_of ts) ~pid;
    Buffer.add_string b ",\"args\":{\"alloc_words\":";
    add_num b alloc_words;
    Buffer.add_string b "}}"
  | Count { name; ts; value } ->
    add_common b ~ph:"C" ~name ~ts:(us_of ts) ~pid;
    Buffer.add_string b ",\"args\":{\"value\":";
    add_num b value;
    Buffer.add_string b "}}"
  | Instant { name; ts; attrs } ->
    add_common b ~ph:"i" ~name ~ts:(us_of ts) ~pid;
    Buffer.add_string b ",\"s\":\"t\"";
    if attrs <> [] then begin
      Buffer.add_string b ",\"args\":";
      add_attrs b attrs
    end;
    Buffer.add_char b '}'

let export fmt b rows =
  match fmt with
  | Jsonl ->
    List.iter
      (fun row ->
        add_event b ~us_of:Fun.id row;
        Buffer.add_char b '\n')
      rows
  | Chrome ->
    let base =
      List.fold_left (fun acc (_, ev) -> Float.min acc (ts_of ev)) infinity rows
    in
    let us ts = Float.round (ts *. 1e6) in
    let base = if base = infinity then 0.0 else us base in
    let us_of ts = us ts -. base in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i row ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        add_event b ~us_of row)
      rows;
    Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n"

let write_file ?format path t =
  let fmt = match format with Some f -> f | None -> format_of_path path in
  let b = Buffer.create 65536 in
  export fmt b (rows t);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc b)

(* {2 Trace-file plumbing} *)

let ensure_dir dir =
  let rec mk d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let trace_env_var = "EMMVER_TRACE"

let run_with_trace ?clock ?out ~label f =
  let out =
    match out with Some _ -> out | None -> Sys.getenv_opt trace_env_var
  in
  match out with
  | None | Some "" -> f ()
  | Some path ->
    let r = create ?clock () in
    set_current (Some r);
    let written = ref false in
    let write () =
      if not !written then begin
        written := true;
        (match current () with
        | Some r' when r' == r -> set_current None
        | Some _ | None -> ());
        close_open_spans r;
        try write_file path r with Sys_error _ -> ()
      end
    in
    (* The CLI exits from inside [f]; the hook makes sure the trace still
       lands on disk. *)
    at_exit write;
    Fun.protect (fun () -> span label f) ~finally:write

(* {2 JSON} *)

module Json = Json
