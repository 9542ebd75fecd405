(* Tests for control-leakage pair generation. *)

open Helpers
open Fpva_grid
open Fpva_testgen
module Trace = Fpva_util.Trace

let pair_list = Alcotest.(list (pair int int))

(* [Leakage.generate] on [existing], traced: its result and the number of
   pairs it rejected without a search. *)
let traced_generate t ~existing =
  Trace.reset ();
  Trace.enable ();
  let r =
    Fun.protect ~finally:Trace.disable (fun () ->
        Leakage.generate t ~existing)
  in
  (r, Trace.count (Trace.counter "leakage.dead_end_pairs"))

(* The flow paths the pipeline hands the leakage stage. *)
let pipeline_flow t = (Hierarchy.generate t).Hierarchy.paths

let tests =
  [
    case "adjacent pairs are symmetric and distinct" (fun () ->
        let t = small_full_layout 4 4 in
        let pairs = Control.leak_pairs t Control.Fluid_adjacency in
        checkb "nonempty" true (Array.length pairs > 0);
        Array.iter
          (fun (a, b) ->
            checkb "distinct" true (a <> b);
            checkb "symmetric" true
              (Array.exists (fun (x, y) -> x = b && y = a) pairs))
          pairs;
        (* no duplicates *)
        let lst = Array.to_list pairs in
        checki "unique" (List.length lst)
          (List.length (List.sort_uniq compare lst)));
    case "pairs share a fluid cell" (fun () ->
        let t = small_full_layout 4 4 in
        Array.iter
          (fun (a, b) ->
            let ea = Fpva.edge_of_valve t a and eb = Fpva.edge_of_valve t b in
            let a1, a2 = Coord.edge_endpoints ea in
            let b1, b2 = Coord.edge_endpoints eb in
            checkb "share cell" true
              (a1 = b1 || a1 = b2 || a2 = b1 || a2 = b2))
          (Control.leak_pairs t Control.Fluid_adjacency));
    case "exercised_by semantics" (fun () ->
        let t = small_full_layout 3 3 in
        let paths, _ = Flow_path.generate t in
        match paths with
        | p :: _ ->
          let on = p.Flow_path.valve_ids in
          let off =
            List.filter
              (fun v -> not (List.mem v on))
              (List.init (Fpva.num_valves t) (fun i -> i))
          in
          (match (on, off) with
          | b :: _, a :: _ ->
            checkb "exercised" true (Leakage.exercised_by t p (a, b));
            checkb "not exercised (aggressor on path)" false
              (Leakage.exercised_by t p (b, b));
            checkb "not exercised (victim off path)" false
              (Leakage.exercised_by t p (b, a))
          | _, _ -> Alcotest.fail "need on/off valves")
        | [] -> Alcotest.fail "no paths");
    case "generate retires all exercisable pairs" (fun () ->
        let t = Layouts.paper_array 5 in
        let flow, _ = Flow_path.generate t in
        let extra, impossible = Leakage.generate t ~existing:flow in
        let residual = Leakage.residual_pairs t ~existing:(flow @ extra) in
        check
          (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
          "residual = impossible" (List.sort compare impossible)
          (List.sort compare residual));
    case "corner-cell pairs are impossible" (fun () ->
        (* A corner cell has exactly two valves; a path through the cell
           must use both, so neither can serve as aggressor for the other. *)
        let t = small_full_layout 4 4 in
        let flow, _ = Flow_path.generate t in
        let _, impossible = Leakage.generate t ~existing:flow in
        let corner = Coord.cell 0 0 in
        let v1 = Fpva.valve_id t (Coord.edge_towards corner Coord.East) in
        let v2 = Fpva.valve_id t (Coord.edge_towards corner Coord.South) in
        checkb "corner pair 1" true (List.mem (v1, v2) impossible);
        checkb "corner pair 2" true (List.mem (v2, v1) impossible));
    case "leak paths avoid their aggressor" (fun () ->
        let t = Layouts.paper_array 5 in
        let flow, _ = Flow_path.generate t in
        let before = Leakage.residual_pairs t ~existing:flow in
        let extra, _ = Leakage.generate t ~existing:flow in
        (* every extra path must exercise at least one previously-residual
           pair *)
        List.iter
          (fun p ->
            checkb "useful" true
              (List.exists (fun pr -> Leakage.exercised_by t p pr) before))
          extra);
    qcheck_layout ~count:20 "generate leaves only impossible pairs"
      (fun t ->
        let flow, _ = Flow_path.generate t in
        let extra, impossible = Leakage.generate t ~existing:flow in
        let residual = Leakage.residual_pairs t ~existing:(flow @ extra) in
        List.sort compare residual = List.sort compare impossible);
    case "the paper 5x5 rejects exactly its 8 corner-cell pairs up front"
      (fun () ->
        (* Each corner cell has two valves and no port; with one held
           closed the other leads into a dead end. *)
        let t = Layouts.paper_array 5 in
        let corners =
          [ (Coord.cell 0 0, Coord.East, Coord.South, (0, 19));
            (Coord.cell 0 4, Coord.West, Coord.South, (3, 23));
            (Coord.cell 4 0, Coord.East, Coord.North, (15, 34));
            (Coord.cell 4 4, Coord.West, Coord.North, (18, 38)) ]
        in
        List.iter
          (fun (cell, d1, d2, (v1, v2)) ->
            let valve d = Fpva.valve_id t (Coord.edge_towards cell d) in
            checki "first valve" v1 (valve d1);
            checki "second valve" v2 (valve d2))
          corners;
        let expected =
          [ (0, 19); (3, 23); (15, 34); (18, 38);
            (19, 0); (23, 3); (34, 15); (38, 18) ]
        in
        let rejected =
          List.filter (Leakage.dead_end t)
            (Array.to_list (Control.leak_pairs t Control.Fluid_adjacency))
        in
        check pair_list "rejected up front" expected (List.sort compare rejected);
        let (_, impossible), dead_ends =
          traced_generate t ~existing:(pipeline_flow t)
        in
        checki "leakage.dead_end_pairs" 8 dead_ends;
        check pair_list "unexercisable" expected (List.sort compare impossible));
    qcheck_layout ~count:15 "generate matches the loop that searches every pair"
      (fun t ->
        let flow, _ = Flow_path.generate t in
        Leakage.generate t ~existing:flow
        = Leakage_oracle.generate t ~existing:flow);
    slow_case "generate matches the loop that searches every pair on the paper \
               5x5 and 10x10"
      (fun () ->
        List.iter
          (fun n ->
            let t = Layouts.paper_array n in
            let existing = pipeline_flow t in
            let (paths, impossible), dead_ends = traced_generate t ~existing in
            let ref_paths, ref_impossible =
              Leakage_oracle.generate t ~existing
            in
            checki "leakage.dead_end_pairs" 8 dead_ends;
            checkb "same paths" true (paths = ref_paths);
            check pair_list "same unexercisable pairs" ref_impossible
              impossible)
          [ 5; 10 ]);
  ]
