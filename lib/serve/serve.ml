(* Verification-as-a-service daemon.  See serve.mli for the contract and
   doc/protocol.mld for the wire format.

   Architecture: one single-threaded select loop multiplexes the listening
   socket, every client connection (buffered line reader + backpressured
   writer) and the result pipes of the forked job workers
   (Parallel.Async).  All blocking work — encoding, SAT solving, cache
   validation — happens in the workers; the loop only parses lines,
   schedules jobs and shuffles bytes, so a wedged client or a crashing job
   can never stall the service. *)

(* Version 2 adds the durability surface: [resume]/[ack] ops, retry hints
   on [busy]/[shutdown] replies, and the [durability] metrics object.  All
   v1 request and reply forms parse and render unchanged. *)
let protocol_version = 2

let default_socket () =
  match Sys.getenv_opt "EMMVER_SOCKET" with
  | Some s when s <> "" -> s
  | _ -> Printf.sprintf "/tmp/emmver-%d.sock" (Unix.getuid ())

let load_design name =
  if Filename.check_suffix name ".emn" || Filename.check_suffix name ".aag" then
    try
      Ok (if Filename.check_suffix name ".emn" then Netio.load name else Aiger.load name)
    with e -> Error (Printf.sprintf "cannot load %s: %s" name (Printexc.to_string e))
  else
    match Designs.Registry.find name with
    | e -> Ok (e.Designs.Registry.build ())
    | exception Not_found ->
      Error (Printf.sprintf "unknown design %S; try `emmver list`" name)

let select_properties net ~design property =
  match (property, List.map fst (Netlist.properties net)) with
  | _, [] -> Error (design ^ " has no properties")
  | None, names -> Ok names
  | Some p, names when List.mem p names -> Ok [ p ]
  | Some p, names ->
    Error
      (Printf.sprintf "design %s has no property %S; its properties: %s" design p
         (String.concat ", " names))

(* Re-export the journal so tests and tooling reach it as [Serve.Journal]
   (the library is wrapped; [Journal] alone is internal). *)
module Journal = Journal

(* {1 Wire protocol} *)

module Proto = Proto

(* {1 Shared socket plumbing} *)

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + retry_eintr (fun () -> Unix.write fd b !pos (n - !pos))
  done

(* {1 The client} *)

module Backoff = struct
  (* Capped jittered exponential backoff for busy/draining/unreachable
     daemons.  The k-th delay is [min cap (max base hint) * 2^k] scaled by
     a uniform factor in [0.5, 1.0) — the jitter keeps a fleet of clients
     that were all bounced by the same [busy] from stampeding back in
     lockstep. *)
  type t = {
    base_s : float;
    cap_s : float;
    attempts : int;
    mutable used : int;
  }

  let create ?(base_s = 0.5) ?(cap_s = 30.0) ?(attempts = 5) () =
    {
      base_s = Float.max 0.001 base_s;
      cap_s = Float.max 0.001 cap_s;
      attempts = max 0 attempts;
      used = 0;
    }

  let attempts_used t = t.used

  let next t ~hint_s =
    if t.used >= t.attempts then None
    else begin
      let base =
        match hint_s with
        | Some h when h > 0.0 -> Float.max t.base_s h
        | _ -> t.base_s
      in
      let ideal = Float.min t.cap_s (base *. (2.0 ** float_of_int t.used)) in
      t.used <- t.used + 1;
      Some (ideal *. (0.5 +. Random.float 0.5))
    end
end

module Client = struct
  type t = {
    fd : Unix.file_descr;
    mutable pending : string;
    mutable version : int option;
  }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
  let server_version t = t.version

  let send t req =
    try
      write_all t.fd (Proto.request_to_string req ^ "\n");
      Ok ()
    with
    | Unix.Unix_error (e, _, _) -> Error ("send: " ^ Unix.error_message e)
    | Sys_error e -> Error ("send: " ^ e)

  let rec take_line t =
    match String.index_opt t.pending '\n' with
    | Some i ->
      let line = String.sub t.pending 0 i in
      t.pending <- String.sub t.pending (i + 1) (String.length t.pending - i - 1);
      Some line
    | None -> None

  and read_reply ?(timeout_s = 60.0) t =
    match take_line t with
    | Some line -> Proto.reply_of_string line
    | None ->
      let deadline = Unix.gettimeofday () +. timeout_s in
      let chunk = Bytes.create 65536 in
      let rec wait () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error "timed out waiting for a reply"
        else
          let readable, _, _ =
            retry_eintr (fun () -> Unix.select [ t.fd ] [] [] remaining)
          in
          if readable = [] then Error "timed out waiting for a reply"
          else
            match retry_eintr (fun () -> Unix.read t.fd chunk 0 (Bytes.length chunk)) with
            | 0 -> Error "connection closed by server"
            | k ->
              t.pending <- t.pending ^ Bytes.sub_string chunk 0 k;
              (match take_line t with
              | Some line -> Proto.reply_of_string line
              | None -> wait ())
            | exception Unix.Unix_error (e, _, _) ->
              Error ("read: " ^ Unix.error_message e)
      in
      wait ()

  let request ?timeout_s t req =
    match send t req with Ok () -> read_reply ?timeout_s t | Error _ as e -> e

  (* Deadline-bounded connect: a wedged (but listening) daemon, or a
     backlogged listen queue, must not hang the client forever.  The
     socket goes non-blocking for the connect itself, then back to
     blocking — reads are already deadline-bounded by [read_reply]. *)
  let connect_fd ~timeout_s path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.set_nonblock fd;
      (try Unix.connect fd (Unix.ADDR_UNIX path) with
      | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        let _, w, _ = retry_eintr (fun () -> Unix.select [] [ fd ] [] timeout_s) in
        if w = [] then raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", path));
        (match Unix.getsockopt_error fd with
        | None -> ()
        | Some e -> raise (Unix.Unix_error (e, "connect", path))));
      Unix.clear_nonblock fd;
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

  let connect ?client ?(timeout_s = 10.0) path =
    match { fd = connect_fd ~timeout_s path; pending = ""; version = None } with
    | t -> (
      match client with
      | None -> Ok t
      | Some c -> (
        match request ~timeout_s t (Proto.Hello c) with
        | Ok (Proto.Hello_ok { version; _ }) ->
          t.version <- Some version;
          Ok t
        | Ok r ->
          close t;
          Error ("unexpected hello reply: " ^ Proto.reply_to_string r)
        | Error e ->
          close t;
          Error e))
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))
end

(* {1 The daemon} *)

module Server = struct
  type config = {
    socket : string;
    workers : int;
    max_queue : int;
    cache_dir : string option;
    gc_policy : Vcache.gc_policy;
    gc_interval_s : float;
    budgets : Policy.budgets;
    kill_grace_s : float;
    quiet : bool;
    journal : string option;
    runner :
      (Proto.submit -> property:string -> options:Emmver.options -> Emmver.outcome)
      option;
  }

  let config ?workers ?(max_queue = 64) ?cache_dir ?(gc_policy = Vcache.gc_policy ())
      ?(gc_interval_s = 60.0) ?(budgets = Policy.unlimited) ?(kill_grace_s = 10.0)
      ?(quiet = false) ?journal ?runner ~socket () =
    {
      socket;
      workers = (match workers with Some w -> max 1 w | None -> Parallel.default_jobs ());
      max_queue = max 1 max_queue;
      cache_dir =
        (match cache_dir with Some d -> d | None -> Some (Vcache.default_dir ()));
      gc_policy;
      gc_interval_s;
      budgets;
      kill_grace_s;
      quiet;
      journal;
      runner;
    }

  type conn = {
    fd : Unix.file_descr;
    cid : int;
    mutable client : string;
    mutable named : bool;  (* said hello/resume: a stable tenant identity *)
    inbuf : Buffer.t;
    mutable out : string;  (* pending unwritten reply bytes *)
    mutable out_pos : int;
    mutable closed : bool;
  }

  type job_state = Queued | Running | Done

  type job = {
    j_id : int;
    j_req : string;  (* the submit's request id, echoed in replies *)
    j_conn : int;
    j_tenant : string;  (* owning client name: results survive the conn *)
    j_property : string;
    j_method : string;
    j_kill_s : float option;
    mutable j_run : unit -> Emmver.outcome;
    mutable j_state : job_state;
    mutable j_abandoned : bool;  (* submitting connection went away *)
  }

  type metrics = {
    mutable accepted : int;
    mutable completed : int;
    mutable failed : int;
    mutable cancelled : int;
    mutable rejected_busy : int;
    mutable rejected_shutdown : int;
    mutable protocol_errors : int;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable gc_runs : int;
    mutable gc_evicted : int;
    mutable replayed : int;
    mutable recovered : int;
    mutable orphans_killed : int;
    mutable redelivered : int;
    mutable acked : int;
    method_wall : (string, int * float) Hashtbl.t;
  }

  type state = {
    cfg : config;
    pool : Parallel.t;
    listen_fd : Unix.file_descr;
    jnl : Journal.t option;
    conns : (int, conn) Hashtbl.t;
    queues : (string, job Queue.t) Hashtbl.t;
    mutable rotation : string list;  (* round-robin order of client ids *)
    mutable queued : int;
    jobs_tbl : (int, job) Hashtbl.t;
    (* Completed results by job id, with the owning tenant: kept until the
       tenant acks (journal on) so a reconnecting client can [resume]. *)
    retained : (int, string * Proto.result_line) Hashtbl.t;
    mutable running : (job * Emmver.outcome Parallel.Async.handle) list;
    mutable draining : bool;
    mutable drain_since : float;
    mutable next_job : int;
    mutable next_conn : int;
    mutable last_gc : float;
    started : float;
    clients_seen : (string, unit) Hashtbl.t;
    m : metrics;
  }

  let log st fmt =
    Format.ksprintf
      (fun s ->
        if not st.cfg.quiet then begin
          print_string ("serve: " ^ s ^ "\n");
          flush stdout
        end)
      fmt

  (* {2 Connection plumbing} *)

  let push_reply st conn reply =
    if not conn.closed then begin
      conn.out <- conn.out ^ Proto.reply_to_string reply ^ "\n";
      ignore st
    end

  let flush_conn conn =
    if (not conn.closed) && String.length conn.out > conn.out_pos then
      match
        Unix.write_substring conn.fd conn.out conn.out_pos
          (String.length conn.out - conn.out_pos)
      with
      | n ->
        conn.out_pos <- conn.out_pos + n;
        if conn.out_pos = String.length conn.out then begin
          conn.out <- "";
          conn.out_pos <- 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error _ -> conn.closed <- true

  let pending_out conn = (not conn.closed) && String.length conn.out > conn.out_pos

  (* {2 Journal plumbing} *)

  let journal_append ?sync st r =
    match st.jnl with Some j -> Journal.append ?sync j r | None -> ()

  let journal_sync st = match st.jnl with Some j -> Journal.sync j | None -> ()

  (* Bound on unacked retained results: a v1 client (or one run with
     [--no-ack]) never acks, so without a cap the table and the journal
     would grow forever.  At the cap the oldest result is dropped as if
     acked — at-least-once delivery holds for any client that resumes
     within [retained_cap] completions. *)
  let retained_cap = 4096

  let retain st tenant (line : Proto.result_line) =
    if st.jnl <> None then begin
      Hashtbl.replace st.retained line.Proto.r_job (tenant, line);
      if Hashtbl.length st.retained > retained_cap then begin
        let oldest = Hashtbl.fold (fun k _ acc -> min k acc) st.retained max_int in
        Hashtbl.remove st.retained oldest;
        journal_append st (Journal.Acked { job = oldest });
        log st "retained-results cap reached: dropped unacked job %d" oldest
      end
    end

  (* A connection's death cancels its footprint — unless the daemon is
     durable and the client introduced itself: a named tenant's jobs keep
     running, their results are retained, and a later [resume] on a fresh
     connection collects them.  Anonymous connections (and journal-off
     daemons) keep the old contract: queued jobs are dropped, running jobs
     are SIGKILLed — a caller that went away should not keep burning
     worker slots. *)
  let drop_conn st conn =
    if not conn.closed then conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove st.conns conn.cid;
    if st.jnl <> None && conn.named then
      log st "client %s (conn %d) disconnected; its jobs continue" conn.client
        conn.cid
    else begin
      Hashtbl.iter
        (fun _ q ->
          let keep = Queue.create () in
          Queue.iter
            (fun j ->
              if j.j_conn = conn.cid then begin
                j.j_state <- Done;
                j.j_run <- (fun () -> assert false);
                st.queued <- st.queued - 1;
                st.m.cancelled <- st.m.cancelled + 1;
                Obs.counter_add "serve.cancelled" 1;
                journal_append st (Journal.Cancelled { job = j.j_id })
              end
              else Queue.add j keep)
            q;
          Queue.clear q;
          Queue.transfer keep q)
        st.queues;
      List.iter
        (fun (j, h) ->
          if j.j_conn = conn.cid && not j.j_abandoned then begin
            j.j_abandoned <- true;
            Parallel.Async.cancel st.pool h
          end)
        st.running;
      log st "client %s (conn %d) disconnected" conn.client conn.cid
    end

  (* {2 Submission} *)

  let clamp_options st (s : Proto.submit) =
    let b = st.cfg.budgets in
    let o = Emmver.default_options in
    let max_depth =
      match (s.s_max_depth, b.Policy.max_depth) with
      | Some d, Some cap -> min d cap
      | Some d, None -> d
      | None, Some cap -> min cap o.Emmver.max_depth
      | None, None -> o.Emmver.max_depth
    in
    let timeout_s =
      match (s.s_timeout_s, b.Policy.wall_s) with
      | Some t, Some cap -> Some (Float.min t cap)
      | Some t, None -> Some t
      | None, cap -> cap
    in
    let cache_available = st.cfg.cache_dir <> None in
    {
      o with
      Emmver.max_depth;
      timeout_s;
      conflict_budget = b.Policy.conflicts;
      learnt_mb_budget = b.Policy.learnt_mb;
      cache =
        (match s.s_cache with
        | Some c -> c && cache_available
        | None -> cache_available);
      cache_dir = st.cfg.cache_dir;
    }

  let enqueue st (j : job) client =
    let q =
      match Hashtbl.find_opt st.queues client with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace st.queues client q;
        st.rotation <- st.rotation @ [ client ];
        q
    in
    Queue.add j q;
    st.queued <- st.queued + 1

  (* Round-robin across client ids: take the head client, rotate it to the
     tail, serve one job from its queue if it has one.  Bounded by the
     rotation length, so clients with empty queues just pass their turn. *)
  let pick_next st =
    let rec go tries =
      if tries = 0 then None
      else
        match st.rotation with
        | [] -> None
        | c :: rest -> (
          st.rotation <- rest @ [ c ];
          match Hashtbl.find_opt st.queues c with
          | Some q when not (Queue.is_empty q) ->
            let j = Queue.pop q in
            st.queued <- st.queued - 1;
            Some j
          | _ -> go (tries - 1))
    in
    go (List.length st.rotation)

  (* How long a bounced client should wait before retrying.  Busy: scale
     with the backlog per worker (each queued job is roughly one worker
     slot of delay), clamped to [0.5, 30] — deterministic, so the golden
     tests can record it; the client adds the jitter.  Draining: the
     successor daemon is typically up within seconds. *)
  let busy_hint st =
    let per_worker = float_of_int (st.queued + 1) /. float_of_int st.cfg.workers in
    Float.min 30.0 (Float.max 0.5 (0.5 *. per_worker))

  let drain_hint = 5.0

  (* A submission's method, design and properties, resolved the way the
     CLI resolves them. *)
  let resolve (s : Proto.submit) =
    let ( let* ) = Result.bind in
    let* method_ = Emmver.method_of_string s.s_method in
    let* net = load_design s.s_design in
    let* props = select_properties net ~design:s.s_design s.s_property in
    Ok (method_, net, props)

  (* Admission, the same for a fresh submission (once per property) and for
     a job replayed from the journal: clamp the options under the current
     budgets, set the kill deadline, pick the job body and enqueue it. *)
  let admit st ~job ~conn ~tenant (s : Proto.submit) ~method_ net property =
    let options = clamp_options st s in
    let run =
      match st.cfg.runner with
      | Some r -> fun () -> r s ~property ~options
      | None -> fun () -> Emmver.verify ~options ~method_ net ~property
    in
    let j =
      {
        j_id = job;
        j_req = s.s_id;
        j_conn = conn;
        j_tenant = tenant;
        j_property = property;
        j_method = s.s_method;
        j_kill_s =
          Option.map (fun t -> t +. st.cfg.kill_grace_s) options.Emmver.timeout_s;
        j_run = run;
        j_state = Queued;
        j_abandoned = false;
      }
    in
    Hashtbl.replace st.jobs_tbl job j;
    Hashtbl.replace st.clients_seen tenant ();
    enqueue st j tenant;
    j

  let handle_submit st conn (s : Proto.submit) =
    if st.draining then begin
      st.m.rejected_shutdown <- st.m.rejected_shutdown + 1;
      Obs.counter_add "serve.rejected_shutdown" 1;
      push_reply st conn
        (Proto.Shutdown_reply
           { id = s.s_id; job = None; retry_after_s = Some drain_hint })
    end
    else
      let reject message =
        st.m.protocol_errors <- st.m.protocol_errors + 1;
        push_reply st conn (Proto.Error { id = Some s.s_id; message })
      in
      match resolve s with
      | Error msg -> reject msg
      | Ok (method_, net, props) ->
        let n = List.length props in
        if n > st.cfg.max_queue then
          (* Never fits, however long the caller waits: not [busy]. *)
          reject
            (Printf.sprintf
               "submission expands to %d properties but max_queue is %d; \
                submit them in groups of at most %d"
               n st.cfg.max_queue st.cfg.max_queue)
        else if st.queued + n > st.cfg.max_queue then begin
          (* Explicit backpressure: the daemon never buffers beyond
             [max_queue] — the caller retries or backs off. *)
          st.m.rejected_busy <- st.m.rejected_busy + 1;
          Obs.counter_add "serve.rejected_busy" 1;
          push_reply st conn
            (Proto.Busy
               {
                 id = s.s_id;
                 queue_depth = st.queued;
                 max_queue = st.cfg.max_queue;
                 retry_after_s = busy_hint st;
               })
        end
        else begin
          let tenant = conn.client in
          let jobs =
            List.map
              (fun property ->
                let job = st.next_job in
                st.next_job <- st.next_job + 1;
                (* The journal keeps the submit narrowed to this job's
                   property: recovery re-admits it unchanged. *)
                let submit = { s with s_property = Some property } in
                journal_append st (Journal.Accepted { job; tenant; submit });
                admit st ~job ~conn:conn.cid ~tenant submit ~method_ net property)
              props
          in
          (* The accepted records hit the platter before the accepted
             reply hits the wire: once a client sees its jobs, no
             SIGKILL loses them. *)
          journal_sync st;
          st.m.accepted <- st.m.accepted + n;
          Obs.counter_add "serve.accepted" n;
          log st "accepted %d job(s) for %s from %s (queue %d)" n s.s_design tenant
            st.queued;
          push_reply st conn
            (Proto.Accepted
               {
                 id = s.s_id;
                 jobs = List.map (fun j -> (j.j_id, j.j_property)) jobs;
                 queue_depth = st.queued;
               })
        end

  (* {2 Results} *)

  let result_of_outcome (j : job) (o : Emmver.outcome) =
    let verdict, depth, induction, genuine, reason =
      match o.Emmver.conclusion with
      | Emmver.Proved { depth; induction } ->
        ("proved", Some depth, Some induction, None, None)
      | Emmver.Falsified { depth; genuine; _ } ->
        ("falsified", Some depth, None, genuine, None)
      | Emmver.Inconclusive why -> ("inconclusive", None, None, None, Some why)
    in
    {
      Proto.r_job = j.j_id;
      r_id = j.j_req;
      r_property = j.j_property;
      r_method = j.j_method;
      r_verdict = verdict;
      r_depth = depth;
      r_induction = induction;
      r_genuine = genuine;
      r_reason = reason;
      r_time_s = o.Emmver.time_s;
      r_cache =
        (match o.Emmver.cache with
        | Emmver.Cache_off -> "off"
        | Emmver.Cache_miss -> "miss"
        | Emmver.Cache_hit -> "hit"
        | Emmver.Cache_dedup -> "dedup");
      r_certificate = Cert.label o.Emmver.certificate;
    }

  (* Make a completed result durable, retain it for [resume], and push it
     to the best live connection — the submitting one if it is still
     there, else any live connection that introduced itself as the same
     tenant (a reconnected client needn't even ask).  The journal record
     is fsync'd {e before} any of that: a result a client saw is a result
     a restart can serve again. *)
  let finish st ~tenant ~conn (line : Proto.result_line) =
    journal_append ~sync:true st (Journal.Finished { tenant; line });
    retain st tenant line;
    let target =
      match Hashtbl.find_opt st.conns conn with
      | Some c when not c.closed -> Some c
      | _ ->
        Hashtbl.fold
          (fun _ c acc ->
            match acc with
            | Some _ -> acc
            | None ->
              if (not c.closed) && c.named && String.equal c.client tenant then
                Some c
              else None)
          st.conns None
    in
    Option.iter (fun c -> push_reply st c (Proto.Result line)) target

  let deliver st (j : job) (r : Emmver.outcome Parallel.job_result) =
    j.j_state <- Done;
    j.j_run <- (fun () -> assert false);
    let bump_method wall_s =
      let jobs, wall =
        match Hashtbl.find_opt st.m.method_wall j.j_method with
        | Some (n, w) -> (n, w)
        | None -> (0, 0.0)
      in
      Hashtbl.replace st.m.method_wall j.j_method (jobs + 1, wall +. wall_s)
    in
    match r with
    | _ when j.j_abandoned ->
      st.m.cancelled <- st.m.cancelled + 1;
      Obs.counter_add "serve.cancelled" 1;
      journal_append st (Journal.Cancelled { job = j.j_id });
      log st "job %d cancelled (client gone)" j.j_id
    | Ok o ->
      st.m.completed <- st.m.completed + 1;
      Obs.counter_add "serve.completed" 1;
      (match o.Emmver.cache with
      | Emmver.Cache_hit | Emmver.Cache_dedup ->
        st.m.cache_hits <- st.m.cache_hits + 1;
        Obs.counter_add "serve.cache_hits" 1
      | Emmver.Cache_miss ->
        st.m.cache_misses <- st.m.cache_misses + 1;
        Obs.counter_add "serve.cache_misses" 1
      | Emmver.Cache_off -> ());
      bump_method o.Emmver.time_s;
      let line = result_of_outcome j o in
      log st "job %d (%s/%s) %s in %.3fs [cache %s]" j.j_id line.Proto.r_property
        j.j_method line.Proto.r_verdict line.Proto.r_time_s line.Proto.r_cache;
      finish st ~tenant:j.j_tenant ~conn:j.j_conn line
    | Error f ->
      st.m.failed <- st.m.failed + 1;
      Obs.counter_add "serve.failed" 1;
      bump_method f.Parallel.elapsed_s;
      let why = "worker killed: " ^ Parallel.failure_message f in
      log st "job %d failed: %s" j.j_id why;
      finish st ~tenant:j.j_tenant ~conn:j.j_conn
        (Proto.inconclusive ~job:j.j_id ~id:j.j_req ~property:j.j_property
           ~method_:j.j_method ~time_s:f.Parallel.elapsed_s why)

  (* {2 Metrics} *)

  let metrics_line st =
    let entries, bytes =
      match st.cfg.cache_dir with
      | None -> (0, 0)
      | Some dir ->
        let s = Vcache.stats (Vcache.config ~dir ()) in
        (s.Vcache.entries, s.Vcache.bytes)
    in
    let methods =
      Hashtbl.fold (fun name (jobs, wall) acc -> (name, jobs, wall) :: acc)
        st.m.method_wall []
      |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
    in
    {
      Proto.m_uptime_s = Obs.now () -. st.started;
      m_queue_depth = st.queued;
      m_running = List.length st.running;
      m_clients = Hashtbl.length st.clients_seen;
      m_accepted = st.m.accepted;
      m_completed = st.m.completed;
      m_failed = st.m.failed;
      m_cancelled = st.m.cancelled;
      m_rejected_busy = st.m.rejected_busy;
      m_rejected_shutdown = st.m.rejected_shutdown;
      m_protocol_errors = st.m.protocol_errors;
      m_cache_hits = st.m.cache_hits;
      m_cache_misses = st.m.cache_misses;
      m_cache_entries = entries;
      m_cache_bytes = bytes;
      m_gc_runs = st.m.gc_runs;
      m_gc_evicted = st.m.gc_evicted;
      m_journal_records = (match st.jnl with Some j -> Journal.records j | None -> 0);
      m_journal_bytes = (match st.jnl with Some j -> Journal.bytes j | None -> 0);
      m_compactions = (match st.jnl with Some j -> Journal.compactions j | None -> 0);
      m_replayed = st.m.replayed;
      m_recovered = st.m.recovered;
      m_orphans_killed = st.m.orphans_killed;
      m_redelivered = st.m.redelivered;
      m_acked = st.m.acked;
      m_retained = Hashtbl.length st.retained;
      m_methods = methods;
    }

  (* {2 Drain} *)

  let enter_drain st reason =
    if not st.draining then begin
      st.draining <- true;
      st.drain_since <- Unix.gettimeofday ();
      log st "draining (%s): %d running, %d queued" reason
        (List.length st.running) st.queued;
      (* Queued jobs are refused with [shutdown] replies; in-flight jobs
         run to completion and deliver normally.  With the journal on,
         their accepted records stay open on disk — the {e next}
         incarnation re-enqueues and runs them, so the shutdown reply is
         a "not now", not a cancellation. *)
      Hashtbl.iter
        (fun _ q ->
          Queue.iter
            (fun j ->
              j.j_state <- Done;
              j.j_run <- (fun () -> assert false);
              st.m.rejected_shutdown <- st.m.rejected_shutdown + 1;
              Obs.counter_add "serve.rejected_shutdown" 1;
              match Hashtbl.find_opt st.conns j.j_conn with
              | Some c ->
                push_reply st c
                  (Proto.Shutdown_reply
                     {
                       id = j.j_req;
                       job = Some j.j_id;
                       retry_after_s = Some drain_hint;
                     })
              | None -> ())
            q;
          Queue.clear q)
        st.queues;
      st.queued <- 0
    end

  (* {2 Request dispatch} *)

  let handle_request st conn = function
    | Proto.Hello client ->
      conn.client <- client;
      conn.named <- true;
      Hashtbl.replace st.clients_seen client ();
      push_reply st conn
        (Proto.Hello_ok { server = "emmver"; version = protocol_version })
    | Proto.Ping -> push_reply st conn Proto.Pong
    | Proto.Submit s -> handle_submit st conn s
    | Proto.Resume tenant ->
      (* [resume] doubles as a hello: the connection takes the tenant
         identity, receives every retained result for it (oldest first),
         and keeps receiving live results for the tenant's jobs still in
         flight. *)
      conn.client <- tenant;
      conn.named <- true;
      Hashtbl.replace st.clients_seen tenant ();
      let results =
        Hashtbl.fold
          (fun _ (t, line) acc -> if String.equal t tenant then line :: acc else acc)
          st.retained []
        |> List.sort (fun a b -> compare a.Proto.r_job b.Proto.r_job)
      in
      let pending =
        Hashtbl.fold
          (fun _ j acc ->
            if String.equal j.j_tenant tenant && j.j_state <> Done then acc + 1
            else acc)
          st.jobs_tbl 0
      in
      push_reply st conn
        (Proto.Resumed { client = tenant; results = List.length results; pending });
      List.iter
        (fun line ->
          st.m.redelivered <- st.m.redelivered + 1;
          Obs.counter_add "serve.redelivered" 1;
          push_reply st conn (Proto.Result line))
        results;
      if results <> [] || pending > 0 then
        log st "resume %s: %d result(s) redelivered, %d job(s) still pending"
          tenant (List.length results) pending
    | Proto.Ack job ->
      (* Idempotent: acking an unknown or already-acked job succeeds —
         at-least-once delivery means duplicate acks are normal. *)
      if Hashtbl.mem st.retained job then begin
        Hashtbl.remove st.retained job;
        st.m.acked <- st.m.acked + 1;
        Obs.counter_add "serve.acked" 1
      end;
      (match st.jnl with
      | Some jn ->
        Journal.append jn (Journal.Acked { job });
        if Journal.maybe_compact jn then
          log st "journal compacted: %d record(s), %d byte(s)"
            (Journal.records jn) (Journal.bytes jn)
      | None -> ());
      push_reply st conn (Proto.Acked { job })
    | Proto.Poll job ->
      let state =
        match Hashtbl.find_opt st.jobs_tbl job with
        | Some { j_state = Queued; _ } -> "queued"
        | Some { j_state = Running; _ } -> "running"
        | Some { j_state = Done; _ } -> "done"
        | None -> "unknown"
      in
      push_reply st conn (Proto.Status { job; state })
    | Proto.Metrics -> push_reply st conn (Proto.Metrics_reply (metrics_line st))
    | Proto.Shutdown ->
      push_reply st conn Proto.Draining;
      enter_drain st "shutdown request"

  let handle_line st conn line =
    let line = String.trim line in
    if line <> "" then
      match Proto.request_of_string line with
      | Ok req -> handle_request st conn req
      | Error message ->
        st.m.protocol_errors <- st.m.protocol_errors + 1;
        Obs.counter_add "serve.protocol_errors" 1;
        push_reply st conn (Proto.Error { id = None; message })

  let read_conn st conn =
    let chunk = Bytes.create 65536 in
    let rec drain () =
      match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
      | 0 -> drop_conn st conn
      | k ->
        Buffer.add_subbytes conn.inbuf chunk 0 k;
        drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | exception Unix.Unix_error _ -> drop_conn st conn
    in
    drain ();
    (* Process every complete line buffered so far. *)
    let data = Buffer.contents conn.inbuf in
    Buffer.clear conn.inbuf;
    let rec split from =
      match String.index_from_opt data from '\n' with
      | Some i ->
        handle_line st conn (String.sub data from (i - from));
        split (i + 1)
      | None ->
        Buffer.add_string conn.inbuf
          (String.sub data from (String.length data - from))
    in
    if data <> "" then split 0

  (* {2 Scheduling} *)

  (* Runs first inside a freshly forked worker: drop the daemon's socket
     fds.  Without this an orphaned worker (daemon SIGKILLed mid-run)
     keeps the inherited listening socket alive, so connects to the dead
     daemon's socket still succeed into a backlog nobody drains — and a
     restarted daemon mistakes its dead predecessor for a live one. *)
  let close_daemon_fds st =
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    Hashtbl.iter
      (fun _ (c : conn) ->
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      st.conns

  let start_jobs st =
    while List.length st.running < st.cfg.workers && st.queued > 0 do
      match pick_next st with
      | None -> st.queued <- 0 (* defensive: rotation lost track *)
      | Some j ->
        let run = j.j_run in
        let h =
          Parallel.Async.spawn st.pool ?job_timeout_s:j.j_kill_s
            ~f:(fun () ->
              close_daemon_fds st;
              run ())
            ()
        in
        j.j_state <- Running;
        st.running <- (j, h) :: st.running;
        (* Synced so a SIGKILL between here and delivery leaves a findable
           orphan: the next incarnation reaps the pid (token-guarded)
           before re-running the job. *)
        let pid = Parallel.Async.pid h in
        journal_append ~sync:true st
          (Journal.Started
             { job = j.j_id; pid; token = Parallel.process_token pid });
        log st "job %d (%s) started [%d/%d workers]" j.j_id j.j_property
          (List.length st.running) st.cfg.workers
    done

  let service_workers st readable =
    let still = ref [] in
    List.iter
      (fun (j, h) ->
        if List.mem (Parallel.Async.fd h) readable then
          match Parallel.Async.service st.pool h with
          | Some result -> deliver st j result
          | None -> still := (j, h) :: !still
        else begin
          Parallel.Async.check_deadline st.pool h;
          still := (j, h) :: !still
        end)
      st.running;
    st.running <- List.rev !still

  let maybe_gc st =
    match st.cfg.cache_dir with
    | Some dir
      when (st.cfg.gc_policy.Vcache.max_bytes <> None
           || st.cfg.gc_policy.Vcache.max_age_s <> None)
           && Unix.gettimeofday () -. st.last_gc >= st.cfg.gc_interval_s ->
      st.last_gc <- Unix.gettimeofday ();
      let r = Vcache.maintain (Vcache.config ~dir ()) st.cfg.gc_policy in
      st.m.gc_runs <- st.m.gc_runs + 1;
      let evicted = r.Vcache.evicted_age + r.Vcache.evicted_size in
      st.m.gc_evicted <- st.m.gc_evicted + evicted;
      if evicted > 0 then
        log st "cache gc: evicted %d (age %d, size %d of which %d never-hit), kept %d (%.2f MB)"
          evicted r.Vcache.evicted_age r.Vcache.evicted_size r.Vcache.evicted_cold
          r.Vcache.kept
          (float_of_int r.Vcache.kept_bytes /. 1048576.0)
    | _ -> ()

  (* {2 Recovery}

     Re-create a journalled-but-unfinished job in the fresh daemon through
     the same {!admit} as a fresh submission.  The job id is reused
     verbatim (clients hold it), budgets are re-clamped under the
     {e current} config, and the method, design and property are resolved
     again — if that now fails (registry changed, file gone), the job
     completes as an inconclusive result rather than silently vanishing:
     the tenant still gets an answer for every accepted job. *)
  let replay_submit st (job, tenant, (s : Proto.submit)) =
    (* Connection 0 names none: results go to the tenant's next named
       connection, or wait for its [resume]. *)
    match resolve s with
    | Ok (method_, net, props) ->
      List.iter (fun p -> ignore (admit st ~job ~conn:0 ~tenant s ~method_ net p)) props
    | Error why ->
      finish st ~tenant ~conn:0
        (Proto.inconclusive ~job ~id:s.s_id
           ~property:(Option.value s.s_property ~default:"")
           ~method_:s.s_method ~time_s:0.0 ("at recovery: " ^ why));
      st.m.failed <- st.m.failed + 1;
      log st "job %d could not be replayed: %s" job why

  let recover st (r : Journal.recovery) =
    if r.Journal.corrupt > 0 then
      log st "journal: skipped %d corrupt record(s)" r.Journal.corrupt;
    st.next_job <- max st.next_job r.Journal.next_job;
    List.iter
      (fun (job, pid, token) ->
        if Parallel.reap_orphan ~pid ~token then begin
          st.m.orphans_killed <- st.m.orphans_killed + 1;
          Obs.counter_add "serve.orphans_killed" 1;
          log st "journal: killed orphan worker %d of job %d" pid job
        end)
      r.Journal.orphans;
    List.iter
      (fun ((_, line) as retained) ->
        Hashtbl.replace st.retained line.Proto.r_job retained;
        st.m.recovered <- st.m.recovered + 1;
        Obs.counter_add "serve.recovered_results" 1)
      r.Journal.undelivered;
    List.iter
      (fun pending ->
        st.m.replayed <- st.m.replayed + 1;
        Obs.counter_add "serve.journal_replayed" 1;
        replay_submit st pending)
      r.Journal.pending;
    if r.Journal.pending <> [] || r.Journal.undelivered <> [] then
      log st "journal: re-enqueued %d job(s), recovered %d undelivered result(s)"
        (List.length r.Journal.pending)
        (List.length r.Journal.undelivered)

  (* {2 The loop} *)

  (* Whether a daemon still serves [path].  A refused connect means a stale
     file left by a dead daemon.  Anything else is live unless the
     connection is closed or reset before any reply: that is a worker of a
     SIGKILLed daemon holding the inherited listening socket, which it
     closes first thing.  A daemon that is draining or replaying its
     journal accepts nothing for a while, so its ping goes unanswered; a
     ping timeout therefore counts as live. *)
  let socket_is_live path =
    match Client.connect_fd ~timeout_s:5.0 path with
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
    | exception Unix.Unix_error _ -> true
    | fd ->
      let live =
        try
          write_all fd (Proto.request_to_string Proto.Ping ^ "\n");
          match retry_eintr (fun () -> Unix.select [ fd ] [] [] 5.0) with
          | [], _, _ -> true
          | _ -> Unix.read fd (Bytes.create 1) 0 1 > 0
        with
        | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false
        | Unix.Unix_error _ -> true
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      live

  let bind_socket cfg =
    if Sys.file_exists cfg.socket then begin
      if socket_is_live cfg.socket then
        failwith (Printf.sprintf "socket %s is already served by a live daemon" cfg.socket);
      try Sys.remove cfg.socket with Sys_error _ -> ()
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
    Unix.listen fd 64;
    fd

  let run cfg =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let term = ref false in
    let old_term =
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true))
    in
    let old_int =
      Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> term := true))
    in
    let listen_fd = bind_socket cfg in
    let journal =
      Option.map (fun path -> Journal.open_ path) cfg.journal
    in
    let st =
      {
        cfg;
        pool = Parallel.create ~jobs:cfg.workers ();
        listen_fd;
        jnl = Option.map fst journal;
        conns = Hashtbl.create 16;
        queues = Hashtbl.create 16;
        rotation = [];
        queued = 0;
        jobs_tbl = Hashtbl.create 64;
        retained = Hashtbl.create 64;
        running = [];
        draining = false;
        drain_since = 0.0;
        next_job = 1;
        next_conn = 1;
        last_gc = Unix.gettimeofday ();
        started = Obs.now ();
        clients_seen = Hashtbl.create 16;
        m =
          {
            accepted = 0;
            completed = 0;
            failed = 0;
            cancelled = 0;
            rejected_busy = 0;
            rejected_shutdown = 0;
            protocol_errors = 0;
            cache_hits = 0;
            cache_misses = 0;
            gc_runs = 0;
            gc_evicted = 0;
            replayed = 0;
            recovered = 0;
            orphans_killed = 0;
            redelivered = 0;
            acked = 0;
            method_wall = Hashtbl.create 8;
          };
      }
    in
    log st "listening on %s (%d workers, queue %d, cache %s, journal %s)"
      cfg.socket cfg.workers cfg.max_queue
      (match cfg.cache_dir with Some d -> d | None -> "off")
      (match cfg.journal with Some p -> p | None -> "off");
    Option.iter (fun (_, r) -> recover st r) journal;
    let finished () =
      st.draining && st.queued = 0 && st.running = []
      && not (Hashtbl.fold (fun _ c acc -> acc || pending_out c) st.conns false)
    in
    let drain_expired () =
      (* A drain must terminate even if a client never reads its replies. *)
      st.draining && Unix.gettimeofday () -. st.drain_since > 30.0
    in
    while not (finished () || drain_expired ()) do
      if !term then enter_drain st "SIGTERM";
      if not st.draining then start_jobs st;
      let conn_fds =
        Hashtbl.fold (fun _ c acc -> if c.closed then acc else c.fd :: acc) st.conns []
      in
      let write_fds =
        Hashtbl.fold
          (fun _ c acc -> if pending_out c then c.fd :: acc else acc)
          st.conns []
      in
      let worker_fds = List.map (fun (_, h) -> Parallel.Async.fd h) st.running in
      let read_fds =
        (if st.draining then [] else [ st.listen_fd ]) @ conn_fds @ worker_fds
      in
      let readable, writable, _ =
        match Unix.select read_fds write_fds [] 0.25 with
        | r -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if (not st.draining) && List.mem st.listen_fd readable then begin
        match Unix.accept st.listen_fd with
        | fd, _ ->
          Unix.set_nonblock fd;
          let cid = st.next_conn in
          st.next_conn <- st.next_conn + 1;
          Hashtbl.replace st.conns cid
            {
              fd;
              cid;
              client = Printf.sprintf "conn-%d" cid;
              named = false;
              inbuf = Buffer.create 256;
              out = "";
              out_pos = 0;
              closed = false;
            }
        | exception Unix.Unix_error _ -> ()
      end;
      Hashtbl.fold (fun _ c acc -> c :: acc) st.conns []
      |> List.iter (fun c ->
             if (not c.closed) && List.mem c.fd readable then read_conn st c);
      service_workers st readable;
      Hashtbl.iter
        (fun _ c ->
          if List.mem c.fd writable || pending_out c then flush_conn c)
        st.conns;
      Hashtbl.fold
        (fun _ c acc -> if c.closed then c :: acc else acc)
        st.conns []
      |> List.iter (fun c -> drop_conn st c);
      maybe_gc st
    done;
    Hashtbl.iter
      (fun _ c ->
        flush_conn c;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
      st.conns;
    (match st.jnl with
    | Some jn ->
      (* Leave the smallest correct journal behind: drained state, no
         dead lines — the successor's replay is exactly the open jobs. *)
      (try Journal.compact jn with _ -> ());
      Journal.close jn
    | None -> ());
    (* Journal and socket file go before the listening socket: a successor
       waiting on it sees the reset only once they are no longer ours. *)
    (try Sys.remove cfg.socket with Sys_error _ -> ());
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int;
    log st "drained: %d completed, %d failed, %d cancelled, %d cache hits"
      st.m.completed st.m.failed st.m.cancelled st.m.cache_hits
end
