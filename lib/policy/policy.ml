type error =
  | Budget_exhausted of string
  | Worker_killed of string
  | Encode_error of string
  | Cert_failed of string

let error_message = function
  | Budget_exhausted s -> "budget exhausted: " ^ s
  | Worker_killed s -> "worker killed: " ^ s
  | Encode_error s -> "encode error: " ^ s
  | Cert_failed s -> "certification failed: " ^ s

let pp_error ppf e = Format.pp_print_string ppf (error_message e)

type budgets = {
  wall_s : float option;
  conflicts : int option;
  learnt_mb : float option;
  max_depth : int option;
}

let unlimited = { wall_s = None; conflicts = None; learnt_mb = None; max_depth = None }

type event = {
  ev_stage : string;
  ev_attempt : int;
  ev_error : error;
  ev_elapsed_s : float;
}

let pp_event ppf ev =
  Format.fprintf ppf "%s (attempt %d, %.2fs): %a" ev.ev_stage ev.ev_attempt
    ev.ev_elapsed_s pp_error ev.ev_error

type t = { budgets : budgets; fallback : string list; worker_retries : int }

let default =
  { budgets = unlimited; fallback = [ "emm"; "explicit"; "bdd" ]; worker_retries = 1 }

type 'r attempt_result = Done of 'r | Soft of 'r | Failed of error

let execute policy ~stages ~stage_name ~run =
  let events = ref [] in
  let record stage attempt error elapsed =
    events :=
      { ev_stage = stage; ev_attempt = attempt; ev_error = error; ev_elapsed_s = elapsed }
      :: !events
  in
  let soft = ref None in
  let last_error = ref None in
  let rec attempt_stage stage n =
    let name = stage_name stage in
    let t0 = Unix.gettimeofday () in
    match run stage ~attempt:n with
    | Done r -> Some r
    | Soft r ->
      (match !soft with None -> soft := Some r | Some _ -> ());
      None
    | Failed err ->
      record name n err (Unix.gettimeofday () -. t0);
      last_error := Some err;
      (match err with
      | Worker_killed _ when n < policy.worker_retries -> attempt_stage stage (n + 1)
      | _ -> None)
  in
  let rec chain = function
    | [] -> (
      match (!soft, !last_error) with
      | Some r, _ -> Ok r
      | None, Some err -> Error err
      | None, None -> Error (Encode_error "no stages to run"))
    | stage :: rest -> (
      match attempt_stage stage 0 with Some r -> Ok r | None -> chain rest)
  in
  let result = chain stages in
  (result, List.rev !events)
