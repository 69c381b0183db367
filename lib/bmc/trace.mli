(** Counterexample traces and their replay.

    A trace records everything needed to reproduce a property violation on
    the {!Simulator}: the primary-input stimulus per frame, the values of
    arbitrary-initial-value latches, and — for EMM counterexamples over
    memories with arbitrary initial contents — the initial memory words the
    solver chose.  Replaying a trace on the original netlist confirms the
    counterexample is a real design behaviour (and exposes spurious ones
    produced by over-abstraction, as in the paper's Industry-II study). *)

type watch = {
  w_name : string;  (** e.g. ["m.w0.addr[2]"] — memory, port, bit *)
  w_signal : Netlist.signal;
  w_enable : Netlist.signal option;
      (** for read-data bits: the port enable; the bit is only compared in
          cycles where the enable is high (EMM leaves disabled read data
          unconstrained, the simulator drives zero) *)
  w_values : bool array;  (** the solver model's value per frame *)
}
(** One memory-interface bit whose solver-model values were recorded at
    extraction time, for cycle-by-cycle diffing during {!certify}. *)

type t = {
  property : string;
  depth : int;  (** frame at which the property fails *)
  inputs : (string * bool) list array;  (** index = frame *)
  latch0 : (string * bool) list;  (** arbitrary-init latches only *)
  mem_init : (string * (int * int) list) list;
      (** memory name -> (address, word) initial contents constraints *)
  watch : watch list;
      (** memory-interface observations; empty unless the run certified *)
}

val replay : Netlist.t -> t -> bool
(** [replay net trace] simulates the stimulus and returns [true] iff the
    named property evaluates to false at frame [depth] — i.e. the trace is a
    genuine counterexample of [net]. *)

val certify : Netlist.t -> t -> Cert.t
(** Replay the trace on the {e concrete} design (the given netlist, with its
    real memories — not the EMM abstraction) and diff every watched memory
    interface signal cycle by cycle, then require the property to fail at
    [depth].  Returns [Certified Trace_replayed], or [Refuted] naming the
    first diverging signal and cycle. *)

val of_model :
  ?watches:(string * Netlist.signal * Netlist.signal option) list ->
  Cnf.t ->
  property:string ->
  depth:int ->
  mem_init:(string * (int * int) list) list ->
  t
(** Read a trace of length [depth] off the unroller's solver after a
    satisfiable query: the input stimulus of every frame and the frame-0
    values of arbitrary-init latches.  Each [(name, signal, enable)] watch
    whose signal is encoded in every frame [0 .. depth] is recorded as a
    {!watch}; the others are dropped. *)

val property_values : Netlist.t -> t -> bool array
(** Value of the property signal at each frame [0 .. depth] during replay. *)

val pp : Format.formatter -> t -> unit
