(* The one JSON codec of the code base: a canonical writer and a minimal
   reader with typed field accessors.  See json.mli; reached as [Obs.Json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* {1 Writing}

   Canonical rendering for every JSON format the platform writes (serve's
   wire protocol and journal, the cache store's entries, the trace
   exporters): fields in the caller's order, no whitespace.  Floats are
   left to each format, whose number rendering is part of its contract. *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let field b ~first name f =
  if not first then Buffer.add_char b ',';
  add_string b name;
  Buffer.add_char b ':';
  f b

let opt b name f = function Some v -> field b ~first:false name (f v) | None -> ()
let int n b = Buffer.add_string b (string_of_int n)
let bool v b = Buffer.add_string b (if v then "true" else "false")
let str s b = add_string b s

let obj f b =
  Buffer.add_char b '{';
  f b;
  Buffer.add_char b '}'

let arr f l b =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f x b)
    l;
  Buffer.add_char b ']'

let render f =
  let b = Buffer.create 128 in
  obj f b;
  Buffer.contents b

(* {1 Reading} *)

exception Fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'
        | Some '\\' -> Buffer.add_char b '\\'
        | Some '/' -> Buffer.add_char b '/'
        | Some 'b' -> Buffer.add_char b '\b'
        | Some 'f' -> Buffer.add_char b '\012'
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'u' ->
          (* Decode the escape; non-ASCII code points come back as '?'
             (the exporter never emits them). *)
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          Buffer.add_char b (if code < 128 then Char.chr code else '?')
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while match peek () with Some c when is_num_char c -> true | _ -> false do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail m -> Error m

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let str_field name o = match member name o with Some (Str s) -> Some s | _ -> None
let num_field name o = match member name o with Some (Num n) -> Some n | _ -> None
let int_field name o = Option.map int_of_float (num_field name o)
let bool_field name o = match member name o with Some (Bool v) -> Some v | _ -> None

let required what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" what)

let ( let* ) = Result.bind
