(* Tests for cut-set generation: validity, minimisation, anti-masking,
   coverage. *)

open Helpers
open Fpva_grid
open Fpva_testgen

let all_cut_valves cuts =
  List.concat_map (fun c -> c.Cut_set.valve_ids) cuts

let essential fpva cut v =
  let closed =
    List.filter_map
      (fun x -> if x = v then None else Some (Fpva.edge_of_valve fpva x))
      cut.Cut_set.valve_ids
  in
  not (Dual.is_cut fpva closed)

let cut_tests =
  [
    case "5x5 cuts cover and are valid" (fun () ->
        let t = Layouts.paper_array 5 in
        let cuts, uncovered = Cut_set.generate t in
        checkb "covers" true (Cut_set.covers_all_valves t cuts);
        checkb "none uncovered" true (uncovered = []);
        List.iter
          (fun c -> checkb "valid" true (Cut_set.is_valid t c))
          cuts);
    case "every cut valve is essential" (fun () ->
        let t = Layouts.paper_array 5 in
        let cuts, _ = Cut_set.generate t in
        List.iter
          (fun cut ->
            List.iter
              (fun v -> checkb "essential" true (essential t cut v))
              cut.Cut_set.valve_ids)
          cuts);
    case "minimize drops redundant valves" (fun () ->
        let t = small_full_layout 4 4 in
        (* A straight column cut plus two spurious extra valves. *)
        let column =
          List.init 4 (fun i -> Fpva.valve_id t (Coord.E (Coord.cell i 1)))
        in
        let extras =
          [ Fpva.valve_id t (Coord.S (Coord.cell 0 0));
            Fpva.valve_id t (Coord.S (Coord.cell 2 3)) ]
        in
        let valve_ids = column @ extras in
        let cut =
          { Cut_set.valves = List.map (Fpva.edge_of_valve t) valve_ids;
            valve_ids; corners = [] }
        in
        checkb "valid before" true (Cut_set.is_valid t cut);
        let cut' = Cut_set.minimize t ~drop_first:(fun _ -> false) cut in
        checkb "still valid" true (Cut_set.is_valid t cut');
        check
          (Alcotest.list Alcotest.int)
          "exactly the column" (List.sort compare column)
          (List.sort compare cut'.Cut_set.valve_ids));
    case "minimize respects drop_first preference" (fun () ->
        let t = small_full_layout 3 3 in
        (* Two parallel column cuts joined: only one column survives; the
           preferred-drop column goes first. *)
        let col j =
          List.init 3 (fun i -> Fpva.valve_id t (Coord.E (Coord.cell i j)))
        in
        let c0 = col 0 and c1 = col 1 in
        let valve_ids = c0 @ c1 in
        let cut =
          { Cut_set.valves = List.map (Fpva.edge_of_valve t) valve_ids;
            valve_ids; corners = [] }
        in
        let keep_c1 =
          Cut_set.minimize t ~drop_first:(fun v -> List.mem v c0) cut
        in
        check
          (Alcotest.list Alcotest.int)
          "kept col 1" (List.sort compare c1)
          (List.sort compare keep_c1.Cut_set.valve_ids));
    case "cuts avoid open channels" (fun () ->
        let t = Layouts.paper_array 10 in
        let cuts, _ = Cut_set.generate t in
        List.iter
          (fun cut ->
            List.iter
              (fun e ->
                checkb "valve edge" true (Fpva.edge_state t e = Fpva.Valve))
              cut.Cut_set.valves)
          cuts);
    case "anti-masking: no single off-cut valve bridges the dual path"
      (fun () ->
        (* eq. (9): visiting both dual endpoints of a valve forces the valve
           into the cut.  Verified structurally on generated cuts: for every
           generated corner path, path_ok holds in the generating problem,
           which includes the pair constraints. *)
        let t = Layouts.paper_array 5 in
        let specs = Cut_set.problems t in
        checki "one arc pair" 1 (List.length specs);
        let cuts, _ = Cut_set.generate t in
        checkb "cuts found" true (cuts <> []));
    case "anti-masking can be disabled" (fun () ->
        let t = Layouts.paper_array 5 in
        let specs = Cut_set.problems ~anti_masking:false t in
        List.iter
          (fun (prob, _) ->
            checkb "no pair constraints" true
              (Array.for_all not prob.Problem.pair_constrained))
          specs;
        let specs = Cut_set.problems ~anti_masking:true t in
        List.iter
          (fun (prob, _) ->
            checkb "has pair constraints" true
              (Array.exists (fun b -> b) prob.Problem.pair_constrained))
          specs);
    case "figure9 cuts cover despite channels/obstacles" (fun () ->
        let t = Layouts.figure9 () in
        let cuts, uncovered = Cut_set.generate t in
        ignore uncovered;
        List.iter
          (fun c -> checkb "valid" true (Cut_set.is_valid t c))
          cuts;
        (* coverage counted together with the leftover list *)
        let seen = Array.make (Fpva.num_valves t) false in
        List.iter (fun v -> seen.(v) <- true) (all_cut_valves cuts);
        List.iter (fun v -> seen.(v) <- true) uncovered;
        checkb "accounted" true (Array.for_all (fun b -> b) seen));
    qcheck_layout ~count:25 "generated cuts valid and essential on random layouts"
      (fun t ->
        let cuts, _ = Cut_set.generate t in
        List.for_all
          (fun cut ->
            Cut_set.is_valid t cut
            && List.for_all (essential t cut) cut.Cut_set.valve_ids)
          cuts);
    qcheck_layout ~count:25 "cut coverage accounts for every valve"
      (fun t ->
        let cuts, uncovered = Cut_set.generate t in
        let seen = Array.make (Fpva.num_valves t) false in
        List.iter (fun v -> seen.(v) <- true) (all_cut_valves cuts);
        List.iter (fun v -> seen.(v) <- true) uncovered;
        Array.for_all (fun b -> b) seen);
    case "is_cut allocates nothing in the major heap" (fun () ->
        (* A per-call valve mask on the 20x20 (760 valves) is too big for
           the minor heap; the closed set is stamped into the scratch. *)
        if Sys.backend_type = Sys.Native then begin
          let t = Layouts.paper_array 20 in
          let column c = List.init 20 (fun r -> Coord.E (Coord.cell r c)) in
          checkb "a full column is a cut" true (Dual.is_cut t (column 9));
          checkb "half a column is not" false
            (Dual.is_cut t (List.filteri (fun i _ -> i < 10) (column 9)));
          let _, promoted0, major0 = Gc.counters () in
          for c = 0 to 999 do
            ignore (Sys.opaque_identity (Dual.is_cut t (column (c mod 19))))
          done;
          let _, promoted1, major1 = Gc.counters () in
          let direct = major1 -. major0 -. (promoted1 -. promoted0) in
          checkb (Printf.sprintf "%.0f words allocated directly" direct) true
            (direct = 0.0)
        end);
  ]

let tests = cut_tests
