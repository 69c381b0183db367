(* Shared differential-net generator: seeded random closed designs with one
   memory, a simulator ground truth and a verdict signature.  Used by
   [test_differential] (the four-way EMM/explicit/plain/simulator net),
   [test_vcache] (cold vs. warm verdicts) and [test_parallel] (sequential
   vs. forked verdicts). *)

let depth_bound = 8

(* No primary inputs: all stimulus derives from a free-running counter, so
   the simulator yields a ground-truth verdict.  Write-port enables are
   mutually exclusive by construction (the EMM model assumes race freedom,
   while the explicit model resolves same-address collisions by port order).
   Read enables are tied to true — the EMM contract allows designs to depend
   on read data only while the read is enabled.

   Two generator styles share the [cfg] record:

   - [Classic]: a 3-bit counter, write data a function of the counter, an
     XOR accumulator latch — the original falsification-oriented net.
   - [Latch_poor]: [cw] counter bits (possibly {e zero} latches), write data
     a function of the written {e address} alone shared by every write port,
     and no accumulator.  Latch state cycles with period [2^cw] while memory
     fills monotonically towards [f(addr)] — exactly the regime where
     latch-only loop-free-path distinctness over-proves, and where the
     memory-state distinctness predicates must agree with the explicit
     model's sound latch-level proofs on both verdict and proved depth.
     (Data depending only on the address means a write can never restore a
     location to an older value, so "some write changed memory" coincides
     with "memory state differs" along loop-free paths and proved depths
     match exactly, not just soundly.) *)

type style = Classic | Latch_poor

type cfg = {
  id : int;
  style : style;
  cw : int; (* counter width; latches in the design (Classic: always 3) *)
  aw : int;
  dw : int;
  wports : int;
  rports : int;
  arbitrary : bool;
  wconsts : int array; (* write address = counter xor this *)
  dconsts : int array; (* write data   = counter (Classic) / addr xor this *)
  rconsts : int array; (* read address = counter xor this *)
  en_bit : int option; (* None: first write port always enabled *)
  prop_on_acc : bool; (* property watches accumulator vs raw read data *)
  target : int;
}

let random_cfg id =
  let st = Random.State.make [| 0x3d1f; id |] in
  let aw = 1 + Random.State.int st 2 in
  let dw = 1 + Random.State.int st 3 in
  let wports = 1 + Random.State.int st 2 in
  let rports = 1 + Random.State.int st 2 in
  let const8 () = Random.State.int st 8 in
  {
    id;
    style = Classic;
    cw = 3;
    aw;
    dw;
    wports;
    rports;
    arbitrary = Random.State.bool st;
    wconsts = Array.init wports (fun _ -> const8 ());
    dconsts = Array.init wports (fun _ -> const8 ());
    rconsts = Array.init rports (fun _ -> const8 ());
    en_bit = (if Random.State.bool st then Some (Random.State.int st 3) else None);
    prop_on_acc = Random.State.bool st;
    target = Random.State.int st (1 lsl dw);
  }

(* The latch-poor net draws from its own seed space so the classic seeds
   stay byte-stable. *)
let latch_poor_cfg id =
  let st = Random.State.make [| 0x7a2b; 0x5eed; id |] in
  let cw = Random.State.int st 3 in
  let aw = 1 + Random.State.int st 2 in
  let dw = 1 + Random.State.int st 3 in
  let wports = 1 + Random.State.int st 2 in
  let rports = 1 + Random.State.int st 2 in
  let const8 () = Random.State.int st 8 in
  {
    id;
    style = Latch_poor;
    cw;
    aw;
    dw;
    wports;
    rports;
    (* Arbitrary init makes most targets reachable at depth 0; keep it rare
       so the net stays proof-rich (proved depths are the point here). *)
    arbitrary = Random.State.int st 4 = 0;
    wconsts = Array.init wports (fun _ -> const8 ());
    dconsts = [| const8 () |]; (* one shared data function of the address *)
    rconsts = Array.init rports (fun _ -> const8 ());
    en_bit =
      (if cw > 0 && Random.State.bool st then Some (Random.State.int st cw)
       else None);
    prop_on_acc = false;
    target = Random.State.int st (1 lsl dw);
  }

let build_classic cfg =
  let ctx = Hdl.create () in
  let init = if cfg.arbitrary then Netlist.Arbitrary else Netlist.Zeros in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:cfg.aw ~data_width:cfg.dw ~init in
  let cnt = Hdl.reg ctx "cnt" ~width:3 in
  Hdl.connect ctx cnt (Hdl.incr ctx cnt);
  let addr_of c =
    Hdl.select (Hdl.xor_v ctx cnt (Hdl.const ~width:3 c)) ~hi:(cfg.aw - 1) ~lo:0
  in
  let data_of c = Hdl.uresize (Hdl.xor_v ctx cnt (Hdl.const ~width:3 c)) ~width:cfg.dw in
  let en0 =
    match cfg.en_bit with None -> Netlist.true_ | Some b -> Hdl.bit_of cnt b
  in
  for w = 0 to cfg.wports - 1 do
    let enable = if w = 0 then en0 else Netlist.not_ en0 in
    Hdl.write_port ctx mem ~addr:(addr_of cfg.wconsts.(w)) ~data:(data_of cfg.dconsts.(w))
      ~enable
  done;
  let rds =
    List.init cfg.rports (fun r ->
        Hdl.read_port ctx mem ~addr:(addr_of cfg.rconsts.(r)) ~enable:Netlist.true_)
  in
  let acc = Hdl.reg ctx "acc" ~width:cfg.dw in
  Hdl.connect ctx acc (List.fold_left (Hdl.xor_v ctx) acc rds);
  let watched = if cfg.prop_on_acc then acc else List.hd rds in
  Hdl.assert_always ctx "p" (Netlist.not_ (Hdl.eq_const ctx watched cfg.target));
  Hdl.netlist ctx

let build_latch_poor cfg =
  let ctx = Hdl.create () in
  let init = if cfg.arbitrary then Netlist.Arbitrary else Netlist.Zeros in
  let mem = Hdl.memory ctx ~name:"m" ~addr_width:cfg.aw ~data_width:cfg.dw ~init in
  let cnt =
    if cfg.cw = 0 then None
    else begin
      let cnt = Hdl.reg ctx "cnt" ~width:cfg.cw in
      Hdl.connect ctx cnt (Hdl.incr ctx cnt);
      Some cnt
    end
  in
  let addr_of c =
    let cbus = Hdl.const ~width:cfg.aw c in
    match cnt with
    | None -> cbus
    | Some cnt -> Hdl.xor_v ctx (Hdl.uresize cnt ~width:cfg.aw) cbus
  in
  (* Write data depends on the written address only, identically across
     ports: writes are idempotent per location, so memory state evolves
     monotonically and EMM's "some write changed memory" predicate is exact
     (see the style comment above). *)
  let data_of addr =
    Hdl.xor_v ctx (Hdl.uresize addr ~width:cfg.dw)
      (Hdl.const ~width:cfg.dw cfg.dconsts.(0))
  in
  let en0 =
    match (cfg.en_bit, cnt) with
    | Some b, Some cnt -> Hdl.bit_of cnt b
    | _ -> Netlist.true_
  in
  for w = 0 to cfg.wports - 1 do
    let enable = if w = 0 then en0 else Netlist.not_ en0 in
    let addr = addr_of cfg.wconsts.(w) in
    Hdl.write_port ctx mem ~addr ~data:(data_of addr) ~enable
  done;
  let rds =
    List.init cfg.rports (fun r ->
        Hdl.read_port ctx mem ~addr:(addr_of cfg.rconsts.(r)) ~enable:Netlist.true_)
  in
  Hdl.assert_always ctx "p"
    (Netlist.not_ (Hdl.eq_const ctx (List.hd rds) cfg.target));
  Hdl.netlist ctx

let build cfg =
  match cfg.style with Classic -> build_classic cfg | Latch_poor -> build_latch_poor cfg

(* Ground truth on a closed design: first frame (after-step convention, as in
   [Bmc.Trace.property_values]) at which the property fails, within the
   bound. *)
let sim_first_failure ?(depth = depth_bound) net =
  let sim = Simulator.create net in
  let p = Netlist.find_property net "p" in
  let rec go k =
    if k > depth then None
    else begin
      Simulator.step sim ~inputs:(fun _ -> false);
      if not (Simulator.value sim p) then Some k else go (k + 1)
    end
  in
  go 0

let falsify_config =
  { Bmc.Engine.default_config with max_depth = depth_bound; proof_checks = false }

let signature = function
  | Bmc.Engine.Counterexample t -> Printf.sprintf "cex@%d" t.Bmc.Trace.depth
  | Bmc.Engine.Proof { depth; _ } -> Printf.sprintf "proof@%d" depth
  | Bmc.Engine.Bounded_safe d -> Printf.sprintf "safe@%d" d
  | Bmc.Engine.Reasons_stable d -> Printf.sprintf "stable@%d" d
  | Bmc.Engine.Timed_out d -> Printf.sprintf "timeout@%d" d
  | Bmc.Engine.Out_of_budget { depth; what } -> Printf.sprintf "budget(%s)@%d" what depth
