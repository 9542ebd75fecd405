open Fpva_grid
module Tv = Fpva_testgen.Test_vector

(* The passes below walk the fault list with top-level recursive functions,
   so resolving the effective states allocates nothing (a closure over
   [states] would, on every read).  Intermittent wrappers are seen through
   with [Fault.underlying]: the ideal simulator takes the deterministic
   worst case, an intermittent fault permanently active.  Per-application
   activity draws live in [Measurement], which resolves wrappers before
   calling down here. *)

(* One pass of the control-leak rule: an actuated (commanded-closed)
   aggressor drags its victim closed.  [true] iff some victim closed. *)
let rec leak_pass states changed = function
  | [] -> changed
  | f :: rest -> (
    match Fault.underlying f with
    | Fault.Control_leak (a, b) when (not states.(a)) && states.(b) ->
      states.(b) <- false;
      leak_pass states true rest
    | Fault.Control_leak _ | Fault.Stuck_at_0 _ | Fault.Stuck_at_1 _
    | Fault.Intermittent _ ->
      leak_pass states changed rest)

(* Every valve stuck at [value] takes it. *)
let rec force_stuck states value = function
  | [] -> ()
  | f :: rest ->
    (match Fault.underlying f with
    | Fault.Stuck_at_1 v when value -> states.(v) <- true
    | Fault.Stuck_at_0 v when not value -> states.(v) <- false
    | Fault.Stuck_at_0 _ | Fault.Stuck_at_1 _ | Fault.Control_leak _
    | Fault.Intermittent _ -> ());
    force_stuck states value rest

let effective_states_into fpva ~faults ~open_valves states =
  let nv = Fpva.num_valves fpva in
  if Array.length open_valves <> nv then
    invalid_arg "Simulator.effective_states";
  Array.blit open_valves 0 states 0 nv;
  (* Control leaks first.  Leak chains propagate (a->b, b->c): iterate to a
     fixed point; the commanded state of the aggressor is what actuates the
     leak, but a victim closed by a leak also pressurises its own control
     channel, so closure propagates transitively. *)
  while leak_pass states false faults do
    ()
  done;
  force_stuck states true faults;
  force_stuck states false faults

(* Only a fault's victim — the stuck valve, or the leak's victim — can
   leave its commanded state: [true] iff one of them did. *)
let rec deviates states open_valves = function
  | [] -> false
  | f :: rest -> (
    match Fault.underlying f with
    | Fault.Stuck_at_0 v | Fault.Stuck_at_1 v | Fault.Control_leak (_, v) ->
      states.(v) <> open_valves.(v) || deviates states open_valves rest
    | Fault.Intermittent _ -> assert false)

let effective_states fpva ~faults ~open_valves =
  let states = Array.make (Array.length open_valves) false in
  effective_states_into fpva ~faults ~open_valves states;
  states

(* ---------- compiled simulation handle ---------- *)

(* One handle per run: the compiled CSR adjacency plus the scratch and
   result buffers every vector application reuses, so a whole campaign
   allocates nothing per trial beyond its fault draws. *)
type handle = {
  h_fpva : Fpva.t;
  comp : Compiled.t;
  scratch : Compiled.scratch;
  states : bool array;  (* effective valve states, length num_valves *)
  obs : bool array;  (* port observation buffer, length num_ports *)
}

let make fpva =
  let comp = Compiled.get fpva in
  { h_fpva = fpva;
    comp;
    scratch = Compiled.create_scratch comp;
    states = Array.make (Compiled.num_valves comp) false;
    obs = Array.make (Compiled.num_ports comp) false }

let handle_fpva h = h.h_fpva

let sweep h =
  let states = h.states in
  Graph.pressurized_into h.comp h.scratch
    ~open_valve:(fun vid -> states.(vid))
    ~into:h.obs

(* The scalar twin of [batch_detects]'s deviation skip: when every valve
   keeps its commanded state the chip drives the fault-free valve states,
   so the observation is [v]'s golden response by definition and the
   sweep is skipped. *)
let response_h h ~faults (v : Tv.t) =
  let ov = v.Tv.open_valves in
  effective_states_into h.h_fpva ~faults ~open_valves:ov h.states;
  if deviates h.states ov faults then begin
    sweep h;
    h.obs
  end
  else v.Tv.golden

let apply_vector_h h ~faults v = Array.copy (response_h h ~faults v)

let detects_h h ~faults (v : Tv.t) =
  let obs = response_h h ~faults v in
  obs != v.Tv.golden && obs <> v.Tv.golden

(* ---------- bit-parallel batch handle ---------- *)

let batch_width = Compiled.batch_width

(* Per-vector work for a whole batch: rebuild the effective-state lane
   masks (commanded states, then the control-leak fixpoint, then the
   stuck-at overrides — the same precedence as [effective_states_into],
   applied per lane), one batch BFS, one masked golden compare.  The
   stuck-at masks and the leak list depend only on the loaded faults, so
   they are built once per batch by [batch_set_lane]. *)
type batch = {
  bt_fpva : Fpva.t;
  bt_comp : Compiled.t;
  bt_scratch : Compiled.batch_scratch;
  bt_open : int array;  (* per valve: lanes seeing it open, rebuilt per vector *)
  bt_sa1 : int array;  (* per valve: lanes forcing it open *)
  bt_sa0 : int array;  (* per valve: lanes forcing it closed *)
  bt_sa1_valves : int array;  (* the valves with an SA1 lane, in load order *)
  mutable bt_num_sa1 : int;  (* entries of [bt_sa1_valves] in use *)
  mutable bt_leaks : (int * int * int) list;  (* lane bit, aggressor, victim *)
  bt_obs : int array;  (* per port: lanes pressurising it *)
}

let make_batch fpva =
  let comp = Compiled.get fpva in
  let nv = Compiled.num_valves comp in
  { bt_fpva = fpva;
    bt_comp = comp;
    bt_scratch = Compiled.create_batch_scratch comp;
    (* One slot per valve plus the always-open sentinel slot the batch
       sweep uses for non-valve arcs (see [Compiled.pressurized_batch_into]). *)
    bt_open = Array.make (nv + 1) 0;
    bt_sa1 = Array.make (max nv 1) 0;
    bt_sa0 = Array.make (max nv 1) 0;
    bt_sa1_valves = Array.make (max nv 1) 0;
    bt_num_sa1 = 0;
    bt_leaks = [];
    bt_obs = Array.make (Compiled.num_ports comp) 0 }

let batch_fpva b = b.bt_fpva

let batch_reset b =
  Array.fill b.bt_sa1 0 (Array.length b.bt_sa1) 0;
  Array.fill b.bt_sa0 0 (Array.length b.bt_sa0) 0;
  b.bt_num_sa1 <- 0;
  b.bt_leaks <- []

let batch_set_lane b lane ~faults =
  if lane < 0 || lane >= batch_width then
    invalid_arg "Simulator.batch_set_lane: lane out of range";
  let bit = 1 lsl lane in
  List.iter
    (fun f ->
      (* Intermittents collapse to their deterministic worst case, exactly
         as [effective_states_into] does via [Fault.underlying]. *)
      match Fault.underlying f with
      | Fault.Stuck_at_1 v ->
        if b.bt_sa1.(v) = 0 then begin
          b.bt_sa1_valves.(b.bt_num_sa1) <- v;
          b.bt_num_sa1 <- b.bt_num_sa1 + 1
        end;
        b.bt_sa1.(v) <- b.bt_sa1.(v) lor bit
      | Fault.Stuck_at_0 v -> b.bt_sa0.(v) <- b.bt_sa0.(v) lor bit
      | Fault.Control_leak (a, v) -> b.bt_leaks <- (bit, a, v) :: b.bt_leaks
      | Fault.Intermittent _ -> assert false)
    faults

let batch_detects b ~alive (v : Tv.t) =
  let nv = Compiled.num_valves b.bt_comp in
  let ov = v.Tv.open_valves in
  if Array.length ov <> nv then invalid_arg "Simulator.batch_detects";
  let om = b.bt_open in
  if b.bt_leaks = [] then begin
    (* Hot path (every stuck-at-only batch, i.e. the whole campaign):
       commanded state and the stuck-at overrides in one pass.  SA1
       forces open, then SA0 forces closed — a valve under both lands
       closed, matching the scalar pass order.  [sa1]/[sa0] have [nv]
       slots, [om] has [nv + 1], and [ov]'s length was checked above.

       The same pass collects the lanes whose effective state differs
       from the commanded state on at least one valve: [shrink], the
       lanes an SA0 closes a commanded-open valve for, and [opened], the
       lanes an SA1 opens a commanded-closed valve for.  A lane in
       neither drives exactly the fault-free valve states, so its
       observation is the golden response by definition — it cannot
       detect, and the sweep can skip it.  A lane outside [shrink] only
       opens valves: it reaches at least [v]'s region, and the sweep
       starts it there. *)
    let sa1 = b.bt_sa1 and sa0 = b.bt_sa0 in
    let shrink = ref 0 and opened = ref 0 in
    for vid = 0 to nv - 1 do
      let sa1v = Array.unsafe_get sa1 vid
      and sa0v = Array.unsafe_get sa0 vid in
      if Array.unsafe_get ov vid then begin
        Array.unsafe_set om vid ((alive lor sa1v) land lnot sa0v);
        shrink := !shrink lor sa0v
      end
      else begin
        Array.unsafe_set om vid (sa1v land lnot sa0v);
        opened := !opened lor sa1v
      end
    done;
    let active = alive land (!shrink lor !opened) in
    if active = 0 then 0
    else begin
      Compiled.pressurized_batch_into b.bt_comp b.bt_scratch ~active
        ~grow:(active land lnot !shrink) ~region:v.Tv.region
        ~opened:b.bt_sa1_valves ~num_opened:b.bt_num_sa1 ~open_mask:om
        ~into:b.bt_obs;
      (* A lane detects iff any port's observation differs from golden —
         the lane-wise transcription of [detects_h]'s array compare,
         restricted to the lanes that could deviate at all. *)
      let diff = ref 0 in
      let golden = v.Tv.golden in
      for i = 0 to Compiled.num_ports b.bt_comp - 1 do
        let gm = if golden.(i) then active else 0 in
        diff := !diff lor ((b.bt_obs.(i) lxor gm) land active)
      done;
      !diff
    end
  end
  else begin
    for vid = 0 to nv - 1 do
      om.(vid) <- (if ov.(vid) then alive else 0)
    done;
    (* Leak closure on the commanded states: a chaotic iteration of the
       per-lane rules (closures only accumulate, so the fixpoint is unique
       and matches the scalar per-lane iteration). *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (bit, a, victim) ->
          if om.(a) land bit = 0 && om.(victim) land bit <> 0 then begin
            om.(victim) <- om.(victim) land lnot bit;
            changed := true
          end)
        b.bt_leaks
    done;
    (* SA1 forces open, then SA0 forces closed: a valve under both lands
       closed, matching the scalar pass order. *)
    for vid = 0 to nv - 1 do
      om.(vid) <- (om.(vid) lor b.bt_sa1.(vid)) land lnot b.bt_sa0.(vid)
    done;
    (* Every lane floods from the sources: a leak closes its victim, so
       a batch with leaks does not split off grow lanes. *)
    Compiled.pressurized_batch_into b.bt_comp b.bt_scratch ~active:alive
      ~grow:0 ~region:v.Tv.region ~opened:b.bt_sa1_valves ~num_opened:0
      ~open_mask:om ~into:b.bt_obs;
    (* A lane detects iff any port's observation differs from golden —
       the lane-wise transcription of [detects_h]'s array compare. *)
    let diff = ref 0 in
    let golden = v.Tv.golden in
    for i = 0 to Compiled.num_ports b.bt_comp - 1 do
      let gm = if golden.(i) then alive else 0 in
      diff := !diff lor ((b.bt_obs.(i) lxor gm) land alive)
    done;
    !diff
  end

(* ---------- per-call wrappers ---------- *)

let response fpva ~faults ~open_valves =
  let h = make fpva in
  effective_states_into fpva ~faults ~open_valves h.states;
  sweep h;
  h.obs

let apply_vector fpva ~faults (v : Tv.t) =
  apply_vector_h (make fpva) ~faults v

let detects fpva ~faults (v : Tv.t) = detects_h (make fpva) ~faults v

let detected_by_suite fpva ~faults suite =
  let h = make fpva in
  List.exists (fun v -> detects_h h ~faults v) suite

let first_detecting fpva ~faults suite =
  let h = make fpva in
  List.find_opt (fun v -> detects_h h ~faults v) suite

(* Tailored probes: for each fault, synthesise the vector family that would
   expose it on a fault-free-except-this chip, then check whether any member
   actually distinguishes the full fault list. *)
let rec probes_for fpva fault =
  let module Fp = Fpva_testgen.Flow_path in
  let module Cs = Fpva_testgen.Cut_set in
  let module Ps = Fpva_testgen.Path_search in
  (* The flow path through [target] (weight 1000 on its edge), which the
     flow and the pierced probes wrap. *)
  let path_through ?(forbidden = []) target =
    let prob, mapping = Fp.problem ~forbidden_valves:forbidden fpva in
    let weight = Array.make prob.Fpva_testgen.Problem.num_edges 0.0 in
    (match Fp.edge_id_of_mapping mapping (Fpva.edge_of_valve fpva target) with
    | Some e -> weight.(e) <- 1000.0
    | None -> ());
    match Ps.find prob ~weight with
    | None -> []
    | Some p ->
      let path = Fp.of_problem_path fpva mapping p in
      if List.mem target path.Fp.valve_ids then [ path ] else []
  in
  let flow_probe ?forbidden target =
    List.map (Tv.of_flow_path ~label:"probe-flow" fpva)
      (path_through ?forbidden target)
  in
  let cut_probes target =
    let specs = Cs.problems fpva in
    List.concat_map
      (fun (prob, mapping) ->
        let weight = Array.make prob.Fpva_testgen.Problem.num_edges 0.0 in
        let te = Fpva.edge_of_valve fpva target in
        Array.iteri
          (fun de _ ->
            match Cs.crossed_edge_of_mapping mapping de with
            | Some ce when ce = te -> weight.(de) <- 1000.0
            | Some _ | None -> ())
          prob.Fpva_testgen.Problem.edge_ends;
        match Ps.find prob ~weight with
        | None -> []
        | Some p ->
          let cut = Cs.of_problem_path fpva mapping p in
          if List.mem target cut.Cs.valve_ids && Cs.is_valid fpva cut then
            [ Tv.of_cut_set ~label:"probe-cut" fpva cut ]
          else [])
      specs
  in
  match fault with
  | Fault.Stuck_at_0 v -> flow_probe v
  | Fault.Stuck_at_1 v ->
    cut_probes v
    @ List.map
        (fun p -> Tv.of_pierced_path ~label:"probe-pierced" fpva p v)
        (path_through v)
  | Fault.Control_leak (a, b) -> flow_probe ~forbidden:[ a ] b
  | Fault.Intermittent (f, _) -> probes_for fpva f

let detectable fpva ~faults =
  let probes = List.concat_map (probes_for fpva) faults in
  let h = make fpva in
  List.exists (fun p -> detects_h h ~faults p) probes
