(* Cross-cutting properties: monotonicity and consistency laws that tie the
   subsystems together. *)

open Helpers
open Fpva_grid
open Fpva_testgen
open Fpva_sim

(* A random valve mask and the equivalent legacy edge predicate for the
   compiled/specification differential properties below. *)
let random_valve_mask rng t =
  let nv = Fpva.num_valves t in
  let mask = Array.init (max nv 1) (fun _ -> Fpva_util.Rng.bool rng) in
  let edge_pred e =
    match Fpva.valve_id_opt t e with
    | Some v -> mask.(v)
    | None -> false
  in
  (mask, edge_pred)

(* A fault placed against the commanded states [open_valves]: a stuck-at
   fault on a commanded-open or a commanded-closed valve, or a control leak
   whose aggressor is commanded open or closed; a third of them wrapped as
   intermittent.  A side the states leave empty falls back to any valve. *)
let random_fault rng t ~open_valves =
  let module R = Fpva_util.Rng in
  let nv = Fpva.num_valves t in
  let pick = function
    | [] -> None
    | l -> Some (List.nth l (R.int rng (List.length l)))
  in
  let valve_with state =
    Option.value ~default:(R.int rng nv)
      (pick
         (List.filter (fun v -> open_valves.(v) = state) (List.init nv Fun.id)))
  in
  let leak_with state =
    pick
      (List.filter
         (fun (a, _) -> open_valves.(a) = state)
         (Array.to_list (Fault.adjacent_pairs t)))
  in
  let base =
    match R.int rng 6 with
    | 0 -> Fault.Stuck_at_0 (valve_with true)
    | 1 -> Fault.Stuck_at_0 (valve_with false)
    | 2 -> Fault.Stuck_at_1 (valve_with true)
    | 3 -> Fault.Stuck_at_1 (valve_with false)
    | k -> (
      match leak_with (k = 4) with
      | Some (a, b) -> Fault.Control_leak (a, b)
      | None -> Fault.Stuck_at_0 (valve_with true))
  in
  if R.int rng 3 = 0 then
    Fault.intermittent ~probability:(R.float rng 1.0) base
  else base

(* [t] with a second source on the north side and a second sink on the
   south side where those cells are fluid: several sources are what a
   bridge search rooted at one source would get wrong. *)
let with_second_ports rng t =
  let module R = Fpva_util.Rng in
  let t = Fpva.copy t in
  let add side kind =
    let p = { Fpva.side; offset = R.int rng (Fpva.cols t); kind } in
    if Fpva.cell_state t (Fpva.port_cell t p) = Fpva.Fluid then
      Fpva.add_port t p
  in
  add Coord.North Fpva.Source;
  add Coord.South Fpva.Sink;
  t

let tests =
  [
    qcheck_layout ~count:60 "compiled pressurized_sinks matches the spec"
      (fun t ->
        let rng = Fpva_util.Rng.create 23 in
        let comp = Compiled.get t in
        let scratch = Compiled.create_scratch comp in
        let ok = ref true in
        for _ = 1 to 8 do
          let mask, edge_open = random_valve_mask rng t in
          let legacy =
            Graph_oracle.pressurized_sinks t ~open_edge:edge_open
          in
          let compiled =
            Graph.pressurized_sinks_c comp scratch
              ~open_valve:(fun v -> mask.(v))
          in
          if legacy <> compiled then ok := false
        done;
        !ok);
    qcheck_layout ~count:60 "compiled separates matches the spec" (fun t ->
        let rng = Fpva_util.Rng.create 29 in
        let comp = Compiled.get t in
        let scratch = Compiled.create_scratch comp in
        let ok = ref true in
        for _ = 1 to 8 do
          let mask, edge_closed = random_valve_mask rng t in
          let legacy = Graph_oracle.separates t ~closed_edge:edge_closed in
          let compiled =
            Graph.separates_c comp scratch ~closed_valve:(fun v -> mask.(v))
          in
          if legacy <> compiled then ok := false
        done;
        !ok);
    qcheck_layout ~count:40 "pressure is monotone in the open valve set"
      (fun t ->
        (* opening additional valves can only add pressurized ports *)
        let rng = Fpva_util.Rng.create 7 in
        let nv = Fpva.num_valves t in
        let small = Array.init nv (fun _ -> Fpva_util.Rng.bool rng) in
        let big = Array.mapi (fun i b -> b || i mod 3 = 0) small in
        let obs states =
          Test_vector.golden_response t ~open_valves:states
        in
        let a = obs small and b = obs big in
        let ok = ref true in
        Array.iteri (fun i x -> if x && not b.(i) then ok := false) a;
        !ok);
    qcheck_layout ~count:30 "stuck-at-1 never removes pressure"
      (fun t ->
        let rng = Fpva_util.Rng.create 13 in
        let nv = Fpva.num_valves t in
        let states = Array.init nv (fun _ -> Fpva_util.Rng.bool rng) in
        let v = Fpva_util.Rng.int rng nv in
        let golden = Test_vector.golden_response t ~open_valves:states in
        let faulty =
          Simulator.response t ~faults:[ Fault.Stuck_at_1 v ]
            ~open_valves:states
        in
        let ok = ref true in
        Array.iteri (fun i x -> if x && not faulty.(i) then ok := false) golden;
        !ok);
    qcheck_layout ~count:30 "stuck-at-0 never adds pressure"
      (fun t ->
        let rng = Fpva_util.Rng.create 17 in
        let nv = Fpva.num_valves t in
        let states = Array.init nv (fun _ -> Fpva_util.Rng.bool rng) in
        let v = Fpva_util.Rng.int rng nv in
        let golden = Test_vector.golden_response t ~open_valves:states in
        let faulty =
          Simulator.response t ~faults:[ Fault.Stuck_at_0 v ]
            ~open_valves:states
        in
        let ok = ref true in
        Array.iteri (fun i x -> if x && not golden.(i) then ok := false) faulty;
        !ok);
    qcheck_layout ~count:20 "pipeline coverage implies detection"
      (fun t ->
        (* the central soundness law: every valve the pipeline claims as
           flow-covered has its SA0 fault detected, and every cut/pierced
           valve its SA1 fault *)
        let suite = Pipeline.run_exn t in
        let covered_flow = Array.make (Fpva.num_valves t) false in
        List.iter
          (fun p ->
            List.iter
              (fun v -> covered_flow.(v) <- true)
              (Flow_path.tested_valves t p))
          suite.Pipeline.flow;
        let ok = ref true in
        Array.iteri
          (fun v c ->
            if c
               && not
                    (Simulator.detected_by_suite t
                       ~faults:[ Fault.Stuck_at_0 v ]
                       suite.Pipeline.vectors)
            then ok := false)
          covered_flow;
        List.iter
          (fun cut ->
            List.iter
              (fun v ->
                if
                  not
                    (Simulator.detected_by_suite t
                       ~faults:[ Fault.Stuck_at_1 v ]
                       suite.Pipeline.vectors)
                then ok := false)
              cut.Cut_set.valve_ids)
          suite.Pipeline.cuts;
        !ok);
    qcheck_layout ~count:20 "tested_valves matches per-valve detection"
      (fun t ->
        let paths, _ = Flow_path.generate t in
        List.for_all
          (fun p ->
            let vec = Test_vector.of_flow_path t p in
            let tested = Flow_path.tested_valves t p in
            List.for_all
              (fun v ->
                let detects =
                  Simulator.detects t ~faults:[ Fault.Stuck_at_0 v ] vec
                in
                detects = List.mem v tested)
              p.Flow_path.valve_ids)
          paths);
    qcheck_layout ~count:8
      "every generated vector's region is the fault-free visit set" (fun t ->
        (* The reference walk's visited cells and ports, against the bytes
           of each vector's region, in compiled node order: cells
           row-major, then ports.  A region holds port i exactly when the
           golden response does. *)
        let suite = Pipeline.run_exn t in
        let comp = Compiled.get t in
        let nc = Compiled.num_cells comp in
        List.for_all
          (fun (v : Test_vector.t) ->
            let seen_cell, seen_port =
              Graph_oracle.bfs t
                ~open_edge:(fun e ->
                  v.Test_vector.open_valves.(Fpva.valve_id t e))
                ~from:(Graph_oracle.source_nodes t)
            in
            let region = v.Test_vector.region in
            String.length region = Compiled.num_nodes comp
            && List.for_all
                 (fun n ->
                   let visited =
                     if n < nc then seen_cell.(n) else seen_port.(n - nc)
                   in
                   region.[n] = if visited then '\001' else '\000')
                 (List.init (Compiled.num_nodes comp) Fun.id)
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun i g -> (region.[Compiled.port_node comp i] = '\001') = g)
                    v.Test_vector.golden))
          suite.Pipeline.vectors);
    qcheck_layout ~count:20 "suite round-trips through Suite_io" (fun t ->
        (* A suite read back writes the same text, so it keeps its
           digest and the journal keys built on it. *)
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let text = Suite_io.to_string t vectors in
        match Suite_io.of_string t text with
        | Ok back ->
          List.length back = List.length vectors
          && Suite_io.to_string t back = text
          && Suite_io.digest t back = Suite_io.digest t vectors
        | Error _ -> false);
    qcheck_layout ~count:15 "sequencer never hurts and preserves detection"
      (fun t ->
        let suite = Pipeline.run_exn t in
        let before, after = Sequencer.improvement t suite.Pipeline.vectors in
        let ordered = Sequencer.order t suite.Pipeline.vectors in
        after <= before
        && List.length ordered = List.length suite.Pipeline.vectors);
    qcheck_layout ~count:10 "compaction preserves detected faults" (fun t ->
        let suite = Pipeline.run_exn t in
        let compacted, missed = Compaction.compact t suite.Pipeline.vectors in
        List.for_all
          (fun f ->
            Simulator.detected_by_suite t ~faults:[ f ] compacted
            || List.exists (Fault.equal f) missed
            || not
                 (Simulator.detected_by_suite t ~faults:[ f ]
                    suite.Pipeline.vectors))
          (Diagnosis.single_faults t));
    qcheck_layout ~count:60
      "scalar read equals the oracle walk of the effective states" (fun t ->
        (* The scalar read skips the sweep when no fault's victim leaves
           its commanded state and answers with the golden response; the
           oracle always walks.  Commanded states are random (half open,
           near the percolation threshold, where one valve matters most),
           with golden computed from them, and 1-3 faults of every class
           and placement. *)
        let module R = Fpva_util.Rng in
        let rng = R.create 37 in
        let h = Simulator.make t in
        let nv = Fpva.num_valves t in
        let ok = ref true in
        for _ = 1 to 25 do
          let open_valves = Array.init nv (fun _ -> R.bool rng) in
          let v =
            Test_vector.make ~label:"random"
              (Test_vector.Cut
                 { Cut_set.valves = []; valve_ids = []; corners = [] })
              t ~open_valves
          in
          let faults =
            List.init (1 + R.int rng 3) (fun _ ->
                random_fault rng t ~open_valves)
          in
          let observed = Simulator.apply_vector_h h ~faults v in
          if observed <> Graph_oracle.response t ~faults v
             || Simulator.detects_h h ~faults v
                <> (observed <> v.Test_vector.golden)
          then ok := false
        done;
        !ok);
    qcheck_layout ~count:60 "a leak is valid exactly on Control's pair table"
      (fun t ->
        (* Fault's draw table is Control's, reversed (the order
           [Rng.pick] has always seen), and [validate] accepts exactly
           the pairs in it. *)
        let pairs = Control.leak_pairs t Control.Fluid_adjacency in
        let n = Array.length pairs and nv = Fpva.num_valves t in
        let table = Hashtbl.create (max n 1) in
        Array.iter (fun p -> Hashtbl.replace table p ()) pairs;
        let valves = List.init nv Fun.id in
        Fault.adjacent_pairs t = Array.init n (fun i -> pairs.(n - 1 - i))
        && List.for_all
             (fun a ->
               List.for_all
                 (fun b ->
                   Result.is_ok (Fault.validate t (Fault.Control_leak (a, b)))
                   = Hashtbl.mem table (a, b))
                 valves)
             valves);
    qcheck_layout ~count:60
      "tested_valves and sound match the per-valve sweep with two sources"
      (fun t ->
        (* On the generated paths and on random open-valve sets (half
           open, where a single valve most often matters), with every port
           as the watched sink of [sound]. *)
        let module R = Fpva_util.Rng in
        let rng = R.create 43 in
        let t = with_second_ports rng t in
        let nv = Fpva.num_valves t in
        let num_ports = Array.length (Fpva.ports t) in
        let agree (p : Flow_path.t) =
          Flow_path.tested_valves t p = Graph_oracle.tested_valves t p
          && List.for_all
               (fun sink ->
                 let p = { p with Flow_path.sink } in
                 Flow_path.sound t p = Graph_oracle.sound t p)
               (List.init num_ports Fun.id)
        in
        let random_set () =
          { Flow_path.cells = [];
            edges = [];
            valve_ids = List.filter (fun _ -> R.bool rng) (List.init nv Fun.id);
            source = 0;
            sink = 0 }
        in
        let paths, _ = Flow_path.generate t in
        List.for_all agree paths
        && List.for_all agree (List.init 20 (fun _ -> random_set ())));
  ]
