(* The wire protocol: message types and their canonical JSON codec.  See
   proto.mli and doc/protocol.mld.  The journal stores [submit] and
   [result_line] values too, through the shared field codecs below. *)

type submit = {
  s_id : string;
  s_design : string;
  s_property : string option;
  s_method : string;
  s_max_depth : int option;
  s_timeout_s : float option;
  s_cache : bool option;
}

type request =
  | Hello of string
  | Ping
  | Submit of submit
  | Poll of int
  | Resume of string
  | Ack of int
  | Metrics
  | Shutdown

type result_line = {
  r_job : int;
  r_id : string;
  r_property : string;
  r_method : string;
  r_verdict : string;
  r_depth : int option;
  r_induction : bool option;
  r_genuine : bool option;
  r_reason : string option;
  r_time_s : float;
  r_cache : string;
  r_certificate : string;
}

type metrics_line = {
  m_uptime_s : float;
  m_queue_depth : int;
  m_running : int;
  m_clients : int;
  m_accepted : int;
  m_completed : int;
  m_failed : int;
  m_cancelled : int;
  m_rejected_busy : int;
  m_rejected_shutdown : int;
  m_protocol_errors : int;
  m_cache_hits : int;
  m_cache_misses : int;
  m_cache_entries : int;
  m_cache_bytes : int;
  m_gc_runs : int;
  m_gc_evicted : int;
  m_journal_records : int;
  m_journal_bytes : int;
  m_compactions : int;
  m_replayed : int;
  m_recovered : int;
  m_orphans_killed : int;
  m_redelivered : int;
  m_acked : int;
  m_retained : int;
  m_methods : (string * int * float) list;
}

type reply =
  | Hello_ok of { server : string; version : int }
  | Pong
  | Accepted of { id : string; jobs : (int * string) list; queue_depth : int }
  | Busy of {
      id : string;
      queue_depth : int;
      max_queue : int;
      retry_after_s : float;
    }
  | Shutdown_reply of {
      id : string;
      job : int option;
      retry_after_s : float option;
    }
  | Error of { id : string option; message : string }
  | Result of result_line
  | Status of { job : int; state : string }
  | Resumed of { client : string; results : int; pending : int }
  | Acked of { job : int }
  | Metrics_reply of metrics_line
  | Draining

let inconclusive ~job ~id ~property ~method_ ~time_s reason =
  {
    r_job = job;
    r_id = id;
    r_property = property;
    r_method = method_;
    r_verdict = "inconclusive";
    r_depth = None;
    r_induction = None;
    r_genuine = None;
    r_reason = Some reason;
    r_time_s = time_s;
    r_cache = "off";
    r_certificate = "unchecked";
  }

open Obs.Json

(* {1 Rendering}

   Field order and number format are fixed: the protocol golden tests
   compare rendered bytes against recorded transcripts, so any drift here
   breaks CI before it breaks a deployed client.  Times travel with
   millisecond precision — plenty for wall clocks, and deterministic. *)

let jfloat x b = Buffer.add_string b (Printf.sprintf "%.3f" x)

let add_submit_fields b s =
  field b ~first:false "design" (str s.s_design);
  opt b "property" str s.s_property;
  field b ~first:false "method" (str s.s_method);
  opt b "max_depth" int s.s_max_depth;
  opt b "timeout_s" jfloat s.s_timeout_s;
  opt b "cache" bool s.s_cache

let add_result_fields b r =
  field b ~first:false "property" (str r.r_property);
  field b ~first:false "method" (str r.r_method);
  field b ~first:false "verdict" (str r.r_verdict);
  opt b "depth" int r.r_depth;
  opt b "induction" bool r.r_induction;
  opt b "genuine" bool r.r_genuine;
  opt b "reason" str r.r_reason;
  field b ~first:false "time_s" (jfloat r.r_time_s);
  field b ~first:false "cache" (str r.r_cache);
  field b ~first:false "certificate" (str r.r_certificate)

let tagged key tag fields = render (fun b -> field b ~first:true key (str tag); fields b)
let op = tagged "op"
let reply = tagged "reply"

let request_to_string = function
  | Hello client -> op "hello" (fun b -> field b ~first:false "client" (str client))
  | Ping -> op "ping" ignore
  | Submit s ->
    op "submit" (fun b ->
        field b ~first:false "id" (str s.s_id);
        add_submit_fields b s)
  | Poll job -> op "poll" (fun b -> field b ~first:false "job" (int job))
  | Resume client -> op "resume" (fun b -> field b ~first:false "client" (str client))
  | Ack job -> op "ack" (fun b -> field b ~first:false "job" (int job))
  | Metrics -> op "metrics" ignore
  | Shutdown -> op "shutdown" ignore

let reply_to_string = function
  | Hello_ok { server; version } ->
    reply "hello" (fun b ->
        field b ~first:false "server" (str server);
        field b ~first:false "version" (int version))
  | Pong -> reply "pong" ignore
  | Accepted { id; jobs; queue_depth } ->
    reply "accepted" (fun b ->
        field b ~first:false "id" (str id);
        field b ~first:false "jobs"
          (arr
             (fun (job, property) ->
               obj (fun b ->
                   field b ~first:true "job" (int job);
                   field b ~first:false "property" (str property)))
             jobs);
        field b ~first:false "queue_depth" (int queue_depth))
  | Busy { id; queue_depth; max_queue; retry_after_s } ->
    reply "busy" (fun b ->
        field b ~first:false "id" (str id);
        field b ~first:false "queue_depth" (int queue_depth);
        field b ~first:false "max_queue" (int max_queue);
        field b ~first:false "retry_after_s" (jfloat retry_after_s))
  | Shutdown_reply { id; job; retry_after_s } ->
    reply "shutdown" (fun b ->
        field b ~first:false "id" (str id);
        opt b "job" int job;
        opt b "retry_after_s" jfloat retry_after_s)
  | Error { id; message } ->
    reply "error" (fun b ->
        opt b "id" str id;
        field b ~first:false "message" (str message))
  | Result r ->
    reply "result" (fun b ->
        field b ~first:false "job" (int r.r_job);
        field b ~first:false "id" (str r.r_id);
        add_result_fields b r)
  | Status { job; state } ->
    reply "status" (fun b ->
        field b ~first:false "job" (int job);
        field b ~first:false "state" (str state))
  | Resumed { client; results; pending } ->
    reply "resumed" (fun b ->
        field b ~first:false "client" (str client);
        field b ~first:false "results" (int results);
        field b ~first:false "pending" (int pending))
  | Acked { job } -> reply "acked" (fun b -> field b ~first:false "job" (int job))
  | Metrics_reply m ->
    reply "metrics" (fun b ->
        field b ~first:false "uptime_s" (jfloat m.m_uptime_s);
        field b ~first:false "queue_depth" (int m.m_queue_depth);
        field b ~first:false "running" (int m.m_running);
        field b ~first:false "clients" (int m.m_clients);
        field b ~first:false "jobs"
          (obj (fun b ->
               field b ~first:true "accepted" (int m.m_accepted);
               field b ~first:false "completed" (int m.m_completed);
               field b ~first:false "failed" (int m.m_failed);
               field b ~first:false "cancelled" (int m.m_cancelled);
               field b ~first:false "rejected_busy" (int m.m_rejected_busy);
               field b ~first:false "rejected_shutdown" (int m.m_rejected_shutdown);
               field b ~first:false "protocol_errors" (int m.m_protocol_errors)));
        field b ~first:false "cache"
          (obj (fun b ->
               field b ~first:true "hits" (int m.m_cache_hits);
               field b ~first:false "misses" (int m.m_cache_misses);
               field b ~first:false "entries" (int m.m_cache_entries);
               field b ~first:false "bytes" (int m.m_cache_bytes);
               field b ~first:false "gc_runs" (int m.m_gc_runs);
               field b ~first:false "gc_evicted" (int m.m_gc_evicted)));
        field b ~first:false "durability"
          (obj (fun b ->
               field b ~first:true "journal_records" (int m.m_journal_records);
               field b ~first:false "journal_bytes" (int m.m_journal_bytes);
               field b ~first:false "compactions" (int m.m_compactions);
               field b ~first:false "replayed" (int m.m_replayed);
               field b ~first:false "recovered_results" (int m.m_recovered);
               field b ~first:false "orphans_killed" (int m.m_orphans_killed);
               field b ~first:false "redelivered" (int m.m_redelivered);
               field b ~first:false "acked" (int m.m_acked);
               field b ~first:false "retained" (int m.m_retained)));
        field b ~first:false "methods"
          (arr
             (fun (name, jobs, wall_s) ->
               obj (fun b ->
                   field b ~first:true "method" (str name);
                   field b ~first:false "jobs" (int jobs);
                   field b ~first:false "wall_s" (jfloat wall_s)))
             m.m_methods))
  | Draining -> reply "draining" ignore

(* {1 Parsing} *)

let submit_of_json ~id o =
  let* design = required "design" (str_field "design" o) in
  Ok
    {
      s_id = id;
      s_design = design;
      s_property = str_field "property" o;
      s_method = Option.value (str_field "method" o) ~default:"emm";
      s_max_depth = int_field "max_depth" o;
      s_timeout_s = num_field "timeout_s" o;
      s_cache = bool_field "cache" o;
    }

let result_of_json ~job ~id o =
  let* r_property = required "property" (str_field "property" o) in
  let* r_method = required "method" (str_field "method" o) in
  let* r_verdict = required "verdict" (str_field "verdict" o) in
  let* r_time_s = required "time_s" (num_field "time_s" o) in
  let* r_cache = required "cache" (str_field "cache" o) in
  let* r_certificate = required "certificate" (str_field "certificate" o) in
  Ok
    {
      r_job = job;
      r_id = id;
      r_property;
      r_method;
      r_verdict;
      r_depth = int_field "depth" o;
      r_induction = bool_field "induction" o;
      r_genuine = bool_field "genuine" o;
      r_reason = str_field "reason" o;
      r_time_s;
      r_cache;
      r_certificate;
    }

(* A JSON array of objects, each read by [f]. *)
let list_field name f o =
  match member name o with
  | Some (Arr l) ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* x = f e in
        Ok (x :: acc))
      (Ok []) l
    |> Result.map List.rev
  | _ -> Stdlib.Error (Printf.sprintf "missing %s array" name)

let request_of_string line =
  match parse line with
  | Stdlib.Error e -> Stdlib.Error ("bad JSON: " ^ e)
  | Ok o -> (
    let* op = required "op" (str_field "op" o) in
    match op with
    | "hello" ->
      let* client = required "client" (str_field "client" o) in
      Ok (Hello client)
    | "ping" -> Ok Ping
    | "submit" ->
      let id = Option.value (str_field "id" o) ~default:"" in
      let* s = submit_of_json ~id o in
      Ok (Submit s)
    | "poll" ->
      let* job = required "job" (int_field "job" o) in
      Ok (Poll job)
    | "resume" ->
      let* client = required "client" (str_field "client" o) in
      Ok (Resume client)
    | "ack" ->
      let* job = required "job" (int_field "job" o) in
      Ok (Ack job)
    | "metrics" -> Ok Metrics
    | "shutdown" -> Ok Shutdown
    | op -> Stdlib.Error (Printf.sprintf "unknown op %S" op))

let reply_of_string line =
  match parse line with
  | Stdlib.Error e -> Stdlib.Error ("bad JSON: " ^ e)
  | Ok o -> (
    let* reply = required "reply" (str_field "reply" o) in
    match reply with
    | "hello" ->
      let* server = required "server" (str_field "server" o) in
      let* version = required "version" (int_field "version" o) in
      Ok (Hello_ok { server; version })
    | "pong" -> Ok Pong
    | "accepted" ->
      let* id = required "id" (str_field "id" o) in
      let* jobs =
        list_field "jobs"
          (fun j ->
            let* job = required "job" (int_field "job" j) in
            let* property = required "property" (str_field "property" j) in
            Ok (job, property))
          o
      in
      let* queue_depth = required "queue_depth" (int_field "queue_depth" o) in
      Ok (Accepted { id; jobs; queue_depth })
    | "busy" ->
      let* id = required "id" (str_field "id" o) in
      let* queue_depth = required "queue_depth" (int_field "queue_depth" o) in
      let* max_queue = required "max_queue" (int_field "max_queue" o) in
      (* Optional for v1-server compat: an old daemon sends no hint. *)
      let retry_after_s = Option.value (num_field "retry_after_s" o) ~default:0.0 in
      Ok (Busy { id; queue_depth; max_queue; retry_after_s })
    | "shutdown" ->
      let* id = required "id" (str_field "id" o) in
      Ok
        (Shutdown_reply
           { id; job = int_field "job" o; retry_after_s = num_field "retry_after_s" o })
    | "error" ->
      let* message = required "message" (str_field "message" o) in
      Ok (Error { id = str_field "id" o; message })
    | "result" ->
      let* job = required "job" (int_field "job" o) in
      let* id = required "id" (str_field "id" o) in
      let* r = result_of_json ~job ~id o in
      Ok (Result r)
    | "status" ->
      let* job = required "job" (int_field "job" o) in
      let* state = required "state" (str_field "state" o) in
      Ok (Status { job; state })
    | "resumed" ->
      let* client = required "client" (str_field "client" o) in
      let* results = required "results" (int_field "results" o) in
      let* pending = required "pending" (int_field "pending" o) in
      Ok (Resumed { client; results; pending })
    | "acked" ->
      let* job = required "job" (int_field "job" o) in
      Ok (Acked { job })
    | "metrics" ->
      let obj name =
        match member name o with Some (Obj _ as v) -> Some v | _ -> None
      in
      let* jobs = required "jobs" (obj "jobs") in
      let* cache = required "cache" (obj "cache") in
      let* m_uptime_s = required "uptime_s" (num_field "uptime_s" o) in
      let* m_queue_depth = required "queue_depth" (int_field "queue_depth" o) in
      let* m_running = required "running" (int_field "running" o) in
      let* m_clients = required "clients" (int_field "clients" o) in
      let need name v = required name (int_field name v) in
      let* m_accepted = need "accepted" jobs in
      let* m_completed = need "completed" jobs in
      let* m_failed = need "failed" jobs in
      let* m_cancelled = need "cancelled" jobs in
      let* m_rejected_busy = need "rejected_busy" jobs in
      let* m_rejected_shutdown = need "rejected_shutdown" jobs in
      let* m_protocol_errors = need "protocol_errors" jobs in
      let* m_cache_hits = need "hits" cache in
      let* m_cache_misses = need "misses" cache in
      let* m_cache_entries = need "entries" cache in
      let* m_cache_bytes = need "bytes" cache in
      let* m_gc_runs = need "gc_runs" cache in
      let* m_gc_evicted = need "gc_evicted" cache in
      (* Optional for v1-server compat: absent object reads as zeros. *)
      let dur name =
        match obj "durability" with
        | None -> 0
        | Some d -> Option.value (int_field name d) ~default:0
      in
      let* m_methods =
        list_field "methods"
          (fun e ->
            let* name = required "method" (str_field "method" e) in
            let* jobs = required "jobs" (int_field "jobs" e) in
            let* wall_s = required "wall_s" (num_field "wall_s" e) in
            Ok (name, jobs, wall_s))
          o
      in
      Ok
        (Metrics_reply
           {
             m_uptime_s;
             m_queue_depth;
             m_running;
             m_clients;
             m_accepted;
             m_completed;
             m_failed;
             m_cancelled;
             m_rejected_busy;
             m_rejected_shutdown;
             m_protocol_errors;
             m_cache_hits;
             m_cache_misses;
             m_cache_entries;
             m_cache_bytes;
             m_gc_runs;
             m_gc_evicted;
             m_journal_records = dur "journal_records";
             m_journal_bytes = dur "journal_bytes";
             m_compactions = dur "compactions";
             m_replayed = dur "replayed";
             m_recovered = dur "recovered_results";
             m_orphans_killed = dur "orphans_killed";
             m_redelivered = dur "redelivered";
             m_acked = dur "acked";
             m_retained = dur "retained";
             m_methods;
           })
    | "draining" -> Ok Draining
    | r -> Stdlib.Error (Printf.sprintf "unknown reply %S" r))
