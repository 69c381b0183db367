type watch = {
  w_name : string;
  w_signal : Netlist.signal;
  w_enable : Netlist.signal option;
  w_values : bool array;
}

type t = {
  property : string;
  depth : int;
  inputs : (string * bool) list array;
  latch0 : (string * bool) list;
  mem_init : (string * (int * int) list) list;
  watch : watch list;
}

let property_values net trace =
  let prop = Netlist.find_property net trace.property in
  let latch_values l =
    match List.assoc_opt (Netlist.latch_name net l) trace.latch0 with
    | Some v -> v
    | None -> false
  in
  let mem_values m a =
    match List.assoc_opt (Netlist.memory_name m) trace.mem_init with
    | Some words -> ( match List.assoc_opt a words with Some w -> w | None -> 0)
    | None -> 0
  in
  let sim = Simulator.create ~latch_values ~mem_values net in
  Array.init (trace.depth + 1) (fun frame ->
      let frame_inputs =
        if frame < Array.length trace.inputs then trace.inputs.(frame) else []
      in
      let inputs name =
        match List.assoc_opt name frame_inputs with Some v -> v | None -> false
      in
      Simulator.step sim ~inputs;
      Simulator.value sim prop)

let replay net trace =
  let values = property_values net trace in
  not values.(trace.depth)

let certify net trace =
  match Netlist.find_property net trace.property with
  | exception Not_found -> Cert.Unchecked ("no property " ^ trace.property)
  | prop -> (
    let latch_values l =
      match List.assoc_opt (Netlist.latch_name net l) trace.latch0 with
      | Some v -> v
      | None -> false
    in
    let mem_values m a =
      match List.assoc_opt (Netlist.memory_name m) trace.mem_init with
      | Some words -> ( match List.assoc_opt a words with Some w -> w | None -> 0)
      | None -> 0
    in
    let sim = Simulator.create ~latch_values ~mem_values net in
    let exception Mismatch of string in
    try
      for frame = 0 to trace.depth do
        let frame_inputs =
          if frame < Array.length trace.inputs then trace.inputs.(frame) else []
        in
        let inputs name =
          match List.assoc_opt name frame_inputs with Some v -> v | None -> false
        in
        Simulator.step sim ~inputs;
        List.iter
          (fun w ->
            (* Read-data watches are meaningful only while the port is
               enabled: with the enable low EMM leaves the data bus
               unconstrained, while the simulator drives zero. *)
            let live =
              match w.w_enable with
              | None -> true
              | Some e -> Simulator.value sim e
            in
            if live && frame < Array.length w.w_values then begin
              let expect = w.w_values.(frame) in
              let got = Simulator.value sim w.w_signal in
              if got <> expect then
                raise
                  (Mismatch
                     (Printf.sprintf
                        "signal %s differs at cycle %d: model %b, simulator %b"
                        w.w_name frame expect got))
            end)
          trace.watch
      done;
      if Simulator.value sim prop then
        Cert.Refuted
          (Printf.sprintf "property %s holds on the concrete design at depth %d"
             trace.property trace.depth)
      else Cert.Certified Cert.Trace_replayed
    with Mismatch why -> Cert.Refuted why)

let of_model ?(watches = []) unr ~property ~depth ~mem_init =
  let net = Cnf.net unr in
  let value l = Satsolver.Solver.value (Cnf.solver unr) l in
  let inputs =
    Array.init (depth + 1) (fun frame ->
        List.filter_map
          (fun s ->
            match Netlist.node net (Netlist.node_of s) with
            | Netlist.Input name -> Some (name, value (Cnf.lit unr ~frame s))
            | Netlist.Const_false | Netlist.Latch _ | Netlist.And _
            | Netlist.Mem_out _ -> None)
          (Netlist.inputs net))
  in
  let latch0 =
    List.filter_map
      (fun l ->
        match Netlist.latch_init net l with
        | None -> Some (Netlist.latch_name net l, value (Cnf.lit unr ~frame:0 l))
        | Some _ -> None)
      (Netlist.latches net)
  in
  let watch =
    List.filter_map
      (fun (name, s, enable) ->
        let complete = ref true in
        let values =
          Array.init (depth + 1) (fun frame ->
              match Cnf.lit_opt unr ~frame s with
              | Some l -> value l
              | None ->
                complete := false;
                false)
        in
        if !complete then
          Some { w_name = name; w_signal = s; w_enable = enable; w_values = values }
        else None)
      watches
  in
  { property; depth; inputs; latch0; mem_init; watch }

let pp ppf t =
  Format.fprintf ppf "@[<v>counterexample for %S at depth %d@," t.property t.depth;
  if t.latch0 <> [] then begin
    Format.fprintf ppf "initial latches:";
    List.iter (fun (n, v) -> Format.fprintf ppf " %s=%b" n v) t.latch0;
    Format.fprintf ppf "@,"
  end;
  List.iter
    (fun (m, words) ->
      Format.fprintf ppf "initial %s:" m;
      List.iter (fun (a, w) -> Format.fprintf ppf " [%d]=%d" a w) words;
      Format.fprintf ppf "@,")
    t.mem_init;
  Array.iteri
    (fun frame assignments ->
      Format.fprintf ppf "frame %d:" frame;
      List.iter (fun (n, v) -> if v then Format.fprintf ppf " %s" n) assignments;
      Format.fprintf ppf "@,")
    t.inputs;
  Format.fprintf ppf "@]"
