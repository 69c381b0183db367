(* Write-ahead job journal for the serve daemon.

   One file, append-only, one record per line:

     EMMVER-JOURNAL 1
     <md5-hex-of-json> <canonical json>
     ...

   The checksum covers exactly the JSON body of its own line, so every
   record is independently verifiable: a torn tail (daemon killed mid
   [write]), a flipped bit, or a stray partial line is detected and
   skipped during replay without poisoning the records around it.
   Records are idempotent under replay — duplicates (possible when a
   crash lands between a state change and its fsync on a previous
   incarnation's file) collapse to the same job state.

   Durability discipline mirrors the vcache store: appends are plain
   writes until the daemon is about to make a promise externally visible
   (an [accepted] reply, a [result] line), at which point it calls
   {!sync}; compaction writes a fresh file to [<path>.tmp], fsyncs it,
   [rename]s over the journal and fsyncs the directory. *)

let magic = "EMMVER-JOURNAL 1"

type submit = {
  a_job : int;
  a_tenant : string;
  a_req : string;
  a_design : string;
  a_property : string;
  a_method : string;
  a_max_depth : int option;
  a_timeout_s : float option;
  a_cache : bool option;
}

type result = {
  f_job : int;
  f_tenant : string;
  f_req : string;
  f_property : string;
  f_method : string;
  f_verdict : string;
  f_depth : int option;
  f_induction : bool option;
  f_genuine : bool option;
  f_reason : string option;
  f_time_s : float;
  f_cache : string;
  f_certificate : string;
}

type record =
  | Accepted of submit
  | Started of { job : int; pid : int; token : string }
  | Finished of result
  | Acked of { job : int }
  | Cancelled of { job : int }

(* {2 Canonical rendering} — same discipline as the wire protocol: fixed
   field order, [%.3f] floats, so a record has exactly one byte form. *)

let add_jstring b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_field b ~first name f =
  if not first then Buffer.add_char b ',';
  add_jstring b name;
  Buffer.add_char b ':';
  f b

let jint n b = Buffer.add_string b (string_of_int n)
let jfloat x b = Buffer.add_string b (Printf.sprintf "%.3f" x)
let jbool v b = Buffer.add_string b (if v then "true" else "false")
let jstr s b = add_jstring b s

let render f =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  f b;
  Buffer.add_char b '}';
  Buffer.contents b

let opt b name f = function
  | Some v -> add_field b ~first:false name (f v)
  | None -> ()

let record_to_json = function
  | Accepted a ->
    render (fun b ->
        add_field b ~first:true "rec" (jstr "accepted");
        add_field b ~first:false "job" (jint a.a_job);
        add_field b ~first:false "tenant" (jstr a.a_tenant);
        add_field b ~first:false "req" (jstr a.a_req);
        add_field b ~first:false "design" (jstr a.a_design);
        add_field b ~first:false "property" (jstr a.a_property);
        add_field b ~first:false "method" (jstr a.a_method);
        opt b "max_depth" jint a.a_max_depth;
        opt b "timeout_s" jfloat a.a_timeout_s;
        opt b "cache" jbool a.a_cache)
  | Started { job; pid; token } ->
    render (fun b ->
        add_field b ~first:true "rec" (jstr "started");
        add_field b ~first:false "job" (jint job);
        add_field b ~first:false "pid" (jint pid);
        add_field b ~first:false "token" (jstr token))
  | Finished f ->
    render (fun b ->
        add_field b ~first:true "rec" (jstr "result");
        add_field b ~first:false "job" (jint f.f_job);
        add_field b ~first:false "tenant" (jstr f.f_tenant);
        add_field b ~first:false "req" (jstr f.f_req);
        add_field b ~first:false "property" (jstr f.f_property);
        add_field b ~first:false "method" (jstr f.f_method);
        add_field b ~first:false "verdict" (jstr f.f_verdict);
        opt b "depth" jint f.f_depth;
        opt b "induction" jbool f.f_induction;
        opt b "genuine" jbool f.f_genuine;
        opt b "reason" jstr f.f_reason;
        add_field b ~first:false "time_s" (jfloat f.f_time_s);
        add_field b ~first:false "cache" (jstr f.f_cache);
        add_field b ~first:false "certificate" (jstr f.f_certificate))
  | Acked { job } ->
    render (fun b ->
        add_field b ~first:true "rec" (jstr "acked");
        add_field b ~first:false "job" (jint job))
  | Cancelled { job } ->
    render (fun b ->
        add_field b ~first:true "rec" (jstr "cancelled");
        add_field b ~first:false "job" (jint job))

(* {2 Parsing} *)

open Obs.Json

let str_field name o =
  match member name o with Some (Str s) -> Some s | _ -> None

let int_field name o =
  match member name o with Some (Num n) -> Some (int_of_float n) | _ -> None

let num_field name o = match member name o with Some (Num n) -> Some n | _ -> None

let bool_field name o =
  match member name o with Some (Bool v) -> Some v | _ -> None

let required what = function
  | Some v -> Ok v
  | None -> Stdlib.Error (Printf.sprintf "missing or ill-typed field %S" what)

let ( let* ) r f = match r with Ok v -> f v | Stdlib.Error _ as e -> e

let record_of_json body =
  match parse body with
  | Stdlib.Error e -> Stdlib.Error ("bad JSON: " ^ e)
  | Ok o -> (
    let* kind = required "rec" (str_field "rec" o) in
    match kind with
    | "accepted" ->
      let* a_job = required "job" (int_field "job" o) in
      let* a_tenant = required "tenant" (str_field "tenant" o) in
      let* a_design = required "design" (str_field "design" o) in
      let* a_property = required "property" (str_field "property" o) in
      let* a_method = required "method" (str_field "method" o) in
      Ok
        (Accepted
           {
             a_job;
             a_tenant;
             a_req = Option.value (str_field "req" o) ~default:"";
             a_design;
             a_property;
             a_method;
             a_max_depth = int_field "max_depth" o;
             a_timeout_s = num_field "timeout_s" o;
             a_cache = bool_field "cache" o;
           })
    | "started" ->
      let* job = required "job" (int_field "job" o) in
      let* pid = required "pid" (int_field "pid" o) in
      let* token = required "token" (str_field "token" o) in
      Ok (Started { job; pid; token })
    | "result" ->
      let* f_job = required "job" (int_field "job" o) in
      let* f_tenant = required "tenant" (str_field "tenant" o) in
      let* f_property = required "property" (str_field "property" o) in
      let* f_method = required "method" (str_field "method" o) in
      let* f_verdict = required "verdict" (str_field "verdict" o) in
      let* f_time_s = required "time_s" (num_field "time_s" o) in
      let* f_cache = required "cache" (str_field "cache" o) in
      let* f_certificate = required "certificate" (str_field "certificate" o) in
      Ok
        (Finished
           {
             f_job;
             f_tenant;
             f_req = Option.value (str_field "req" o) ~default:"";
             f_property;
             f_method;
             f_verdict;
             f_depth = int_field "depth" o;
             f_induction = bool_field "induction" o;
             f_genuine = bool_field "genuine" o;
             f_reason = str_field "reason" o;
             f_time_s;
             f_cache;
             f_certificate;
           })
    | "acked" ->
      let* job = required "job" (int_field "job" o) in
      Ok (Acked { job })
    | "cancelled" ->
      let* job = required "job" (int_field "job" o) in
      Ok (Cancelled { job })
    | kind -> Stdlib.Error (Printf.sprintf "unknown record kind %S" kind))

let job_of = function
  | Accepted a -> a.a_job
  | Started { job; _ } -> job
  | Finished f -> f.f_job
  | Acked { job } -> job
  | Cancelled { job } -> job

(* {2 Live state}

   The journal tracks per-job state as records are applied (both at replay
   and at runtime), so it can count dead lines for compaction and project
   the recovery view without a second pass. *)

type jstate = {
  mutable js_submit : submit option;
  mutable js_started : (int * string) option;
  mutable js_result : result option;
  mutable js_closed : bool;  (** acked or cancelled: nothing left to do *)
  mutable js_lines : int;  (** journal lines this job occupies *)
}

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  mutable bytes : int;
  mutable records : int;
  mutable dead : int;  (** lines belonging to closed jobs *)
  mutable compactions : int;
  jobs : (int, jstate) Hashtbl.t;
}

type recovery = {
  pending : submit list;
  orphans : (int * int * string) list;
  undelivered : result list;
  next_job : int;
  replayed : int;
  corrupt : int;
}

let jstate t job =
  match Hashtbl.find_opt t.jobs job with
  | Some s -> s
  | None ->
    let s =
      {
        js_submit = None;
        js_started = None;
        js_result = None;
        js_closed = false;
        js_lines = 0;
      }
    in
    Hashtbl.replace t.jobs job s;
    s

let apply t r =
  let s = jstate t (job_of r) in
  s.js_lines <- s.js_lines + 1;
  if s.js_closed then t.dead <- t.dead + 1
  else
    match r with
    | Accepted a -> if s.js_submit = None then s.js_submit <- Some a
    | Started { pid; token; _ } -> s.js_started <- Some (pid, token)
    | Finished f ->
      if s.js_result = None then s.js_result <- Some f;
      s.js_started <- None
    | Acked _ | Cancelled _ ->
      s.js_closed <- true;
      t.dead <- t.dead + s.js_lines

(* {2 Low-level IO} *)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let fsync_dir path =
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with _ -> ());
    Unix.close fd
  | exception _ -> ()

let line_of_record r =
  let body = record_to_json r in
  Digest.to_hex (Digest.string body) ^ " " ^ body ^ "\n"

let parse_line line =
  (* <32 hex chars> <space> <json> *)
  let n = String.length line in
  if n < 34 || line.[32] <> ' ' then Stdlib.Error "malformed line"
  else
    let sum = String.sub line 0 32 in
    let body = String.sub line 33 (n - 33) in
    if not (String.equal sum (Digest.to_hex (Digest.string body))) then
      Stdlib.Error "checksum mismatch"
    else record_of_json body

(* {2 Compaction}

   Rewrites the journal to just the live truth: for every open job, its
   accepted record, its last started record (a running child of {e this}
   daemon, meaningless after recovery — the caller clears it first there)
   and its undelivered result.  Closed jobs vanish entirely. *)

let live_records t =
  Hashtbl.fold (fun job s acc -> (job, s) :: acc) t.jobs []
  |> List.filter (fun (_, s) -> not s.js_closed)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.concat_map (fun (job, s) ->
         List.concat
           [
             (match s.js_submit with Some a -> [ Accepted a ] | None -> []);
             (match s.js_started with
             | Some (pid, token) -> [ Started { job; pid; token } ]
             | None -> []);
             (match s.js_result with Some f -> [ Finished f ] | None -> []);
           ])

let compact t =
  let records = live_records t in
  let tmp = t.path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let bytes = ref 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      let header = magic ^ "\n" in
      write_all fd header;
      bytes := String.length header;
      List.iter
        (fun r ->
          let line = line_of_record r in
          write_all fd line;
          bytes := !bytes + String.length line)
        records;
      Unix.fsync fd);
  Sys.rename tmp t.path;
  fsync_dir t.path;
  (try Unix.close t.fd with _ -> ());
  t.fd <- Unix.openfile t.path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644;
  t.bytes <- !bytes;
  t.records <- List.length records;
  t.dead <- 0;
  t.compactions <- t.compactions + 1;
  (* Rebuild line accounting and forget closed jobs. *)
  Hashtbl.iter (fun _ s -> s.js_lines <- 0) t.jobs;
  let closed =
    Hashtbl.fold (fun job s acc -> if s.js_closed then job :: acc else acc) t.jobs []
  in
  List.iter (Hashtbl.remove t.jobs) closed;
  List.iter (fun r -> (jstate t (job_of r)).js_lines <- (jstate t (job_of r)).js_lines + 1) records

(* Compact when at least half the lines are dead and the waste is worth a
   rewrite.  Called opportunistically (after acks); cheap when it says no. *)
let maybe_compact t =
  if t.dead >= 64 && t.dead * 2 >= t.records then begin
    compact t;
    true
  end
  else false

let append ?(sync = false) t r =
  let line = line_of_record r in
  write_all t.fd line;
  t.bytes <- t.bytes + String.length line;
  t.records <- t.records + 1;
  apply t r;
  if sync then Unix.fsync t.fd

let sync t = Unix.fsync t.fd

let close t = try Unix.close t.fd with _ -> ()

let records t = t.records
let bytes t = t.bytes
let compactions t = t.compactions
let path t = t.path

(* {2 Open + replay} *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let open_ path =
  Obs.ensure_dir (Filename.dirname path);
  let content = if Sys.file_exists path then Some (read_file path) else None in
  let t =
    {
      path;
      fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644;
      bytes = 0;
      records = 0;
      dead = 0;
      compactions = 0;
      jobs = Hashtbl.create 64;
    }
  in
  let replayed = ref 0 and corrupt = ref 0 in
  (match content with
   | None -> ()
   | Some content ->
     match String.split_on_char '\n' content with
     | header :: lines when String.equal header magic ->
       List.iter
         (fun line ->
           if line <> "" then
             match parse_line line with
             | Ok r ->
               t.records <- t.records + 1;
               incr replayed;
               apply t r
             | Stdlib.Error _ -> incr corrupt)
         lines
     | lines ->
       (* Wrong or missing header: nothing in this file can be trusted to
          be ours; count it all corrupt and start fresh. *)
       List.iter (fun l -> if l <> "" then incr corrupt) lines);
  let open_jobs =
    Hashtbl.fold (fun job s acc -> if s.js_closed then acc else (job, s) :: acc) t.jobs []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let pending =
    List.filter_map
      (fun (_, s) ->
        match (s.js_submit, s.js_result) with Some a, None -> Some a | _ -> None)
      open_jobs
  in
  let orphans =
    List.filter_map
      (fun (job, s) ->
        match (s.js_started, s.js_result) with
        | Some (pid, token), None -> Some (job, pid, token)
        | _ -> None)
      open_jobs
  in
  let undelivered =
    List.filter_map (fun (_, s) -> s.js_result) open_jobs
    |> List.sort (fun a b -> compare a.f_job b.f_job)
  in
  let next_job = 1 + Hashtbl.fold (fun job _ acc -> max job acc) t.jobs 0 in
  (* The previous incarnation's workers are dead (or about to be reaped by
     the caller): a [started] record must not survive into the fresh file,
     or the *next* recovery would try to reap a long-recycled pid. *)
  Hashtbl.iter (fun _ s -> s.js_started <- None) t.jobs;
  (* Compaction rewrites the (possibly corrupt-tailed) file into a clean
     one and opens the append fd as a side effect. *)
  compact t;
  t.compactions <- 0;
  ( t,
    {
      pending;
      orphans;
      undelivered;
      next_job;
      replayed = !replayed;
      corrupt = !corrupt;
    } )
