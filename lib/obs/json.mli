(** JSON values, a canonical writer and a minimal reader with typed field
    accessors; reached as {!Obs.Json}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Writing}

    Writers append to a buffer.  Fields come out in the caller's order
    with no whitespace, so a value has exactly one byte form.  There is
    no float writer: each format fixes its own number rendering as part
    of its contract ([%.3f] on the wire and in the journal, [%.17g] in
    the cache store, [%.6g] or integer in traces). *)

val add_string : Buffer.t -> string -> unit
(** A quoted string literal; ['"'], ['\\'], newline, return and tab get
    their short escapes, other control characters [\u00XX]. *)

val field : Buffer.t -> first:bool -> string -> (Buffer.t -> unit) -> unit
(** [field b ~first name v]: one object member [name:v], preceded by a
    comma unless [first]. *)

val opt : Buffer.t -> string -> ('a -> Buffer.t -> unit) -> 'a option -> unit
(** A non-first member that is omitted when the value is [None]. *)

val int : int -> Buffer.t -> unit
val bool : bool -> Buffer.t -> unit
val str : string -> Buffer.t -> unit

val obj : (Buffer.t -> unit) -> Buffer.t -> unit
(** [obj members]: braces around [members]. *)

val arr : ('a -> Buffer.t -> unit) -> 'a list -> Buffer.t -> unit
(** A comma-separated array. *)

val render : (Buffer.t -> unit) -> string
(** [render members]: one object as a string. *)

(** {1 Reading} *)

val parse : string -> (t, string) result
val member : string -> t -> t option

val str_field : string -> t -> string option
val num_field : string -> t -> float option

val int_field : string -> t -> int option
(** A number member, truncated to an integer. *)

val bool_field : string -> t -> bool option
(** Typed member readers: [None] when the member is absent or of another
    type. *)

val required : string -> 'a option -> ('a, string) result
(** [required name v]: [v] or an error naming the missing field. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
