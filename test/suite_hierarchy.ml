(* Tests for the hierarchical flow-path generator. *)

open Helpers
open Fpva_grid
open Fpva_testgen

let tests =
  [
    case "block_of_cell partitions correctly" (fun () ->
        let o = { Hierarchy.default_options with Hierarchy.block_rows = 5; block_cols = 5 } in
        checkb "origin" true (Hierarchy.block_of_cell o (Coord.cell 0 0) = (0, 0));
        checkb "last of block" true (Hierarchy.block_of_cell o (Coord.cell 4 4) = (0, 0));
        checkb "next block" true (Hierarchy.block_of_cell o (Coord.cell 5 4) = (1, 0));
        checkb "east block" true (Hierarchy.block_of_cell o (Coord.cell 4 5) = (0, 1)));
    case "bypassed valve retired up front in both modes" (fun () ->
        (* Channels E(2,2), S(2,2) and S(2,3) join cells (2,2), (2,3),
           (3,2) and (3,3) into one fluid node, so valve E(3,2) between
           the last two is permanently bypassed. *)
        let t = Layouts.full ~rows:6 ~cols:6 in
        List.iter
          (fun e -> Fpva.set_edge t e Fpva.Open_channel)
          Coord.[ E (cell 2 2); S (cell 2 2); S (cell 2 3) ];
        checki "valve id" 16 (Fpva.valve_id t (Coord.E (Coord.cell 3 2)));
        List.iter
          (fun config ->
            let r = Pipeline.run_exn ~config t in
            check (Alcotest.list Alcotest.int) "uncovered_flow" [ 16 ]
              r.Pipeline.uncovered_flow)
          [ Pipeline.default_config; Pipeline.direct_config ]);
    case "10x10 hierarchical covers all valves" (fun () ->
        let t = Layouts.paper_array 10 in
        let r = Hierarchy.generate t in
        checkb "covers" true (Flow_path.covers_all_valves t r.Hierarchy.paths);
        checkb "none uncovered" true (r.Hierarchy.uncovered = []));
    case "hierarchical paths are valid flow paths" (fun () ->
        let t = Layouts.paper_array 10 in
        let r = Hierarchy.generate t in
        List.iter
          (fun p ->
            (* simple *)
            checki "distinct cells"
              (List.length p.Flow_path.cells)
              (List.length
                 (List.sort_uniq Coord.compare_cell p.Flow_path.cells));
            checkb "sound" true (Flow_path.sound t p))
          r.Hierarchy.paths);
    case "hierarchical produces more paths than direct (Fig 8)" (fun () ->
        let t = Layouts.paper_array 10 in
        let direct, _ = Flow_path.generate t in
        let hier = Hierarchy.generate t in
        checkb "more paths" true
          (List.length hier.Hierarchy.paths > List.length direct));
    case "top routes start and end at port blocks" (fun () ->
        let t = Layouts.paper_array 10 in
        let r = Hierarchy.generate t in
        let o = Hierarchy.default_options in
        let src_block =
          Hierarchy.block_of_cell o
            (Fpva.port_cell t (Fpva.sources t).(0))
        in
        let snk_block =
          Hierarchy.block_of_cell o (Fpva.port_cell t (Fpva.sinks t).(0))
        in
        List.iter
          (fun route ->
            match (route, List.rev route) with
            | first :: _, last :: _ ->
              checkb "first is source block" true (first = src_block);
              checkb "last is sink block" true (last = snk_block)
            | _, _ -> Alcotest.fail "empty route")
          r.Hierarchy.top_routes);
    case "degenerate 1x1 top grid still works (5x5)" (fun () ->
        let t = Layouts.paper_array 5 in
        let r = Hierarchy.generate t in
        checkb "covers" true (Flow_path.covers_all_valves t r.Hierarchy.paths));
    case "non-square blocks" (fun () ->
        let t = small_full_layout 6 6 in
        let options =
          { Hierarchy.default_options with
            Hierarchy.block_rows = 2;
            block_cols = 3 }
        in
        let r = Hierarchy.generate ~options t in
        checkb "covers" true (Flow_path.covers_all_valves t r.Hierarchy.paths));
    case "block size sweep preserves coverage" (fun () ->
        let t = Layouts.paper_array 10 in
        List.iter
          (fun b ->
            let options =
              { Hierarchy.default_options with
                Hierarchy.block_rows = b;
                block_cols = b }
            in
            let r = Hierarchy.generate ~options t in
            checkb
              (Printf.sprintf "covers with block %d" b)
              true
              (Flow_path.covers_all_valves t r.Hierarchy.paths))
          [ 2; 3; 5; 7 ]);
    case "figure9 hierarchical coverage with obstacles" (fun () ->
        let t = Layouts.figure9 () in
        let r = Hierarchy.generate t in
        let _, mapping = Flow_path.problem t in
        let bypassed = Flow_path.bypassed_valves mapping in
        checkb "uncovered only bypassed" true
          (List.for_all (fun v -> List.mem v bypassed) r.Hierarchy.uncovered));
    qcheck_layout ~count:20 "hierarchy covers random layouts (small blocks)"
      (fun t ->
        let options =
          { Hierarchy.default_options with
            Hierarchy.block_rows = 2;
            block_cols = 2 }
        in
        let r = Hierarchy.generate ~options t in
        List.for_all (Suite_flow.uncoverable_agreed t) r.Hierarchy.uncovered);
  ]
