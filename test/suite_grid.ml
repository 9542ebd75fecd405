(* Tests for the FPVA architecture model: Coord, Fpva, Graph, Dual,
   Layouts, Render. *)

open Helpers
open Fpva_grid

(* ---------- Coord ---------- *)

let coord_tests =
  [
    case "move and opposite" (fun () ->
        let c = Coord.cell 3 4 in
        checkb "north" true (Coord.move c Coord.North = Coord.cell 2 4);
        checkb "south" true (Coord.move c Coord.South = Coord.cell 4 4);
        checkb "east" true (Coord.move c Coord.East = Coord.cell 3 5);
        checkb "west" true (Coord.move c Coord.West = Coord.cell 3 3);
        List.iter
          (fun d ->
            checkb "double opposite" true
              (Coord.opposite (Coord.opposite d) = d))
          Coord.all_dirs);
    case "edge_between canonical both ways" (fun () ->
        let a = Coord.cell 1 1 and b = Coord.cell 1 2 in
        checkb "E" true (Coord.edge_between a b = Coord.E a);
        checkb "E sym" true (Coord.edge_between b a = Coord.E a);
        let c = Coord.cell 2 1 in
        checkb "S" true (Coord.edge_between a c = Coord.S a);
        checkb "S sym" true (Coord.edge_between c a = Coord.S a));
    case "edge_between non-adjacent raises" (fun () ->
        Alcotest.check_raises "diag"
          (Invalid_argument "Coord.edge_between: cells not adjacent")
          (fun () ->
            ignore (Coord.edge_between (Coord.cell 0 0) (Coord.cell 1 1))));
    case "edge_endpoints inverse of edge_between" (fun () ->
        let e = Coord.edge_between (Coord.cell 2 3) (Coord.cell 2 4) in
        let a, b = Coord.edge_endpoints e in
        checkb "endpoints" true (Coord.edge_between a b = e));
    case "edge_towards matches move" (fun () ->
        let c = Coord.cell 2 2 in
        List.iter
          (fun d ->
            let e = Coord.edge_towards c d in
            let a, b = Coord.edge_endpoints e in
            let n = Coord.move c d in
            checkb "incident" true
              ((a = c && b = n) || (a = n && b = c)))
          Coord.all_dirs);
    qcheck "compare_cell is a total order consistent with equality"
      QCheck2.Gen.(
        pair
          (pair (int_bound 20) (int_bound 20))
          (pair (int_bound 20) (int_bound 20)))
      (fun ((r1, c1), (r2, c2)) ->
        let a = Coord.cell r1 c1 and b = Coord.cell r2 c2 in
        let cmp = Coord.compare_cell a b in
        (cmp = 0) = (a = b)
        && Coord.compare_cell b a = -cmp);
  ]

(* ---------- Fpva ---------- *)

let fpva_tests =
  [
    case "full array valve count" (fun () ->
        let t = Fpva.create ~rows:4 ~cols:6 in
        (* internal edges: 4*5 east + 3*6 south = 38 *)
        checki "nv" 38 (Fpva.num_valves t));
    case "valve ids dense and invertible" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        for i = 0 to Fpva.num_valves t - 1 do
          let e = Fpva.edge_of_valve t i in
          checki "roundtrip" i (Fpva.valve_id t e)
        done);
    case "set_edge invalidates valve numbering" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        let n0 = Fpva.num_valves t in
        Fpva.set_edge t (Coord.E (Coord.cell 0 0)) Fpva.Open_channel;
        checki "one fewer" (n0 - 1) (Fpva.num_valves t);
        checkb "gone" true
          (Fpva.valve_id_opt t (Coord.E (Coord.cell 0 0)) = None));
    case "obstacle seals incident edges" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        Fpva.set_obstacle t (Coord.cell 1 1);
        checkb "cell state" true
          (Fpva.cell_state t (Coord.cell 1 1) = Fpva.Obstacle);
        List.iter
          (fun d ->
            let e = Coord.edge_towards (Coord.cell 1 1) d in
            checkb "wall" true (Fpva.edge_state t e = Fpva.Wall))
          Coord.all_dirs;
        (* 12 internal edges, 4 sealed *)
        checki "nv" 8 (Fpva.num_valves t));
    case "corner obstacle seals only in-bounds edges" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        Fpva.set_obstacle t (Coord.cell 0 0);
        checki "nv" 10 (Fpva.num_valves t));
    case "ports validated" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        Alcotest.check_raises "off chip" (Invalid_argument "Fpva.add_port: off chip")
          (fun () ->
            Fpva.add_port t
              { Fpva.side = Coord.West; offset = 5; kind = Fpva.Source });
        Fpva.set_obstacle t (Coord.cell 1 0);
        Alcotest.check_raises "obstacle"
          (Invalid_argument "Fpva.add_port: port cell is an obstacle")
          (fun () ->
            Fpva.add_port t
              { Fpva.side = Coord.West; offset = 1; kind = Fpva.Source });
        Fpva.add_port t
          { Fpva.side = Coord.West; offset = 0; kind = Fpva.Source };
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Fpva.add_port: duplicate port") (fun () ->
            Fpva.add_port t
              { Fpva.side = Coord.West; offset = 0; kind = Fpva.Source }));
    case "validate requires both port kinds" (fun () ->
        let t = Fpva.create ~rows:2 ~cols:2 in
        checkb "no source" true (Fpva.validate t = Error "no source port");
        Fpva.add_port t
          { Fpva.side = Coord.West; offset = 0; kind = Fpva.Source };
        checkb "no sink" true (Fpva.validate t = Error "no sink port");
        Fpva.add_port t
          { Fpva.side = Coord.East; offset = 1; kind = Fpva.Sink };
        checkb "ok" true (Fpva.validate t = Ok ()));
    case "validate rejects a port cell made an obstacle" (fun () ->
        let t = Layouts.full ~rows:4 ~cols:4 in
        Fpva.set_obstacle t (Fpva.port_cell t (Fpva.ports t).(0));
        checkb "error" true
          (Fpva.validate t = Error "port cell (2,0) is an obstacle"));
    case "validate flags unreachable fluid" (fun () ->
        let t = small_full_layout 3 3 in
        (* wall off the north-east corner cell *)
        Fpva.set_edge t (Coord.E (Coord.cell 0 1)) Fpva.Wall;
        Fpva.set_edge t (Coord.S (Coord.cell 0 2)) Fpva.Wall;
        checkb "unreachable" true
          (match Fpva.validate t with Error _ -> true | Ok () -> false));
    case "copy independent" (fun () ->
        let t = small_full_layout 3 3 in
        let u = Fpva.copy t in
        Fpva.set_obstacle u (Coord.cell 0 0);
        checkb "orig untouched" true
          (Fpva.cell_state t (Coord.cell 0 0) = Fpva.Fluid));
    case "port_cell per side" (fun () ->
        let t = Fpva.create ~rows:4 ~cols:6 in
        let pc side offset =
          Fpva.port_cell t { Fpva.side; offset; kind = Fpva.Source }
        in
        checkb "north" true (pc Coord.North 2 = Coord.cell 0 2);
        checkb "south" true (pc Coord.South 2 = Coord.cell 3 2);
        checkb "west" true (pc Coord.West 1 = Coord.cell 1 0);
        checkb "east" true (pc Coord.East 1 = Coord.cell 1 5));
    qcheck_layout ~count:60 "random layouts validate" (fun t ->
        Fpva.validate t = Ok ());
    qcheck_layout ~count:60 "fluid_cells consistent with cell_state"
      (fun t ->
        let listed = Fpva.fluid_cells t in
        List.for_all (fun c -> Fpva.cell_state t c = Fpva.Fluid) listed
        &&
        let count = ref 0 in
        for r = 0 to Fpva.rows t - 1 do
          for c = 0 to Fpva.cols t - 1 do
            if Fpva.cell_state t (Coord.cell r c) = Fpva.Fluid then incr count
          done
        done;
        !count = List.length listed);
  ]

(* ---------- Graph ---------- *)

(* The polymorphic wrappers over the compiled traversals. *)
module G = Graph_oracle.Compiled_api

let graph_tests =
  [
    case "all-open: sink pressurized" (fun () ->
        let t = small_full_layout 3 3 in
        let p = G.pressurized_sinks t ~open_edge:(fun _ -> true) in
        checkb "sink sees pressure" true (Array.exists (fun b -> b) p));
    case "all-closed: sink dark" (fun () ->
        let t = small_full_layout 3 3 in
        let p = G.pressurized_sinks t ~open_edge:(fun _ -> false) in
        Array.iteri
          (fun i b ->
            if (Fpva.ports t).(i).Fpva.kind = Fpva.Sink then
              checkb "dark" false b)
          p);
    case "single open row carries pressure" (fun () ->
        let t = small_full_layout 3 3 in
        (* open only row 1's east edges: source at (1,0), sink at (1,2) *)
        let open_edge e =
          match e with
          | Coord.E c -> c.Coord.row = 1
          | Coord.S _ -> false
        in
        let p = G.pressurized_sinks t ~open_edge in
        Array.iteri
          (fun i b ->
            if (Fpva.ports t).(i).Fpva.kind = Fpva.Sink then
              checkb "pressurized" true b)
          p);
    case "separates detects blocking" (fun () ->
        let t = small_full_layout 3 3 in
        (* closing the middle column of east edges cuts west from east *)
        let closed e =
          match e with
          | Coord.E c -> c.Coord.col = 1
          | Coord.S _ -> false
        in
        checkb "separated" true (G.separates t ~closed_edge:closed);
        checkb "not separated" false
          (G.separates t ~closed_edge:(fun _ -> false)));
    case "reachable respects obstacles" (fun () ->
        let t = small_full_layout 3 3 in
        Fpva.set_obstacle t (Coord.cell 0 1);
        checkb "obstacle cell unreachable" false
          (Graph_oracle.reachable t
             ~open_edge:(fun _ -> true)
             ~from:[ Graph_oracle.Cell (Coord.cell 0 0) ]
             (Graph_oracle.Cell (Coord.cell 0 1)));
        checkb "detour exists" true
          (Graph_oracle.reachable t
             ~open_edge:(fun _ -> true)
             ~from:[ Graph_oracle.Cell (Coord.cell 0 0) ]
             (Graph_oracle.Cell (Coord.cell 0 2))));
    qcheck_layout ~count:60 "separates is monotone in the closed set"
      (fun t ->
        (* if closing S separates, closing S ∪ extra still separates *)
        let closed1 e = match e with Coord.E _ -> true | Coord.S _ -> false in
        let closed2 _ = true in
        (not (G.separates t ~closed_edge:closed1))
        || G.separates t ~closed_edge:closed2);
  ]

(* ---------- Dual ---------- *)

let dual_tests =
  [
    case "crossed_edge geometry" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        (* vertical segment between (1,1)-(2,1) crosses E(1,0) *)
        checkb "vertical" true
          (Dual.crossed_edge t (Dual.corner 1 1) (Dual.corner 2 1)
          = Some (Coord.E (Coord.cell 1 0)));
        (* horizontal segment between (1,1)-(1,2) crosses S(0,1) *)
        checkb "horizontal" true
          (Dual.crossed_edge t (Dual.corner 1 1) (Dual.corner 1 2)
          = Some (Coord.S (Coord.cell 0 1)));
        (* outline segments cross nothing *)
        checkb "outline" true
          (Dual.crossed_edge t (Dual.corner 0 0) (Dual.corner 0 1) = None));
    case "boundary ring size and order" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:4 in
        let ring = Dual.boundary_corners t in
        checki "size" (2 * (3 + 4)) (List.length ring);
        (* distinct corners *)
        checki "distinct" (List.length ring)
          (List.length (List.sort_uniq Dual.compare_corner ring));
        (* consecutive corners adjacent *)
        let arr = Array.of_list ring in
        Array.iteri
          (fun i a ->
            let b = arr.((i + 1) mod Array.length arr) in
            checki "adjacent" 1
              (abs (a.Dual.ci - b.Dual.ci) + abs (a.Dual.cj - b.Dual.cj)))
          arr);
    case "steps exclude open channels and outline" (fun () ->
        let t = small_full_layout 3 3 in
        Fpva.set_edge t (Coord.E (Coord.cell 1 0)) Fpva.Open_channel;
        let from = Dual.corner 1 1 in
        let steps = Dual.steps t from in
        checkb "channel excluded" true
          (not (List.exists (fun (n, _) -> n = Dual.corner 2 1) steps)));
    case "valid endpoints split sources from sinks" (fun () ->
        let t = small_full_layout 5 5 in
        checkb "N-S valid" true
          (Dual.valid_endpoints t (Dual.corner 0 2) (Dual.corner 5 3));
        checkb "same corner invalid" false
          (Dual.valid_endpoints t (Dual.corner 0 2) (Dual.corner 0 2));
        checkb "same side invalid" false
          (Dual.valid_endpoints t (Dual.corner 0 1) (Dual.corner 0 4)));
    case "straight dual line is a cut" (fun () ->
        let t = small_full_layout 4 4 in
        let path = List.init 5 (fun i -> Dual.corner i 2) in
        let cut = Dual.cut_of_corner_path t path in
        checki "4 valves" 4 (List.length cut);
        checkb "is_cut" true (Dual.is_cut t cut));
    case "partial line is not a cut" (fun () ->
        let t = small_full_layout 4 4 in
        let path = List.init 3 (fun i -> Dual.corner i 2) in
        let cut = Dual.cut_of_corner_path t path in
        checkb "not a cut" false (Dual.is_cut t cut));
    case "cut_of_corner_path rejects channel crossings" (fun () ->
        let t = small_full_layout 4 4 in
        Fpva.set_edge t (Coord.E (Coord.cell 2 1)) Fpva.Open_channel;
        let path = List.init 5 (fun i -> Dual.corner i 2) in
        Alcotest.check_raises "channel"
          (Invalid_argument "Dual.cut_of_corner_path: crosses an open channel")
          (fun () -> ignore (Dual.cut_of_corner_path t path)));
    case "wall crossings are free" (fun () ->
        let t = small_full_layout 4 4 in
        Fpva.set_obstacle t (Coord.cell 2 1);
        (* the dual line at column 2 crosses E(2,1)->wall: skipped *)
        let path = List.init 5 (fun i -> Dual.corner i 2) in
        let cut = Dual.cut_of_corner_path t path in
        checki "3 valves" 3 (List.length cut);
        checkb "is_cut" true (Dual.is_cut t cut));
  ]

(* ---------- Layouts ---------- *)

let layout_tests =
  [
    case "paper suite valve counts match Table I" (fun () ->
        List.iter2
          (fun (label, t) expected ->
            checki label expected (Fpva.num_valves t))
          Layouts.paper_suite
          [ 39; 176; 411; 744; 1704 ]);
    case "paper suite validates" (fun () ->
        List.iter
          (fun (label, t) ->
            checkb label true (Fpva.validate t = Ok ()))
          Layouts.paper_suite);
    case "figure9 has channels and obstacles" (fun () ->
        let t = Layouts.figure9 () in
        checkb "validates" true (Fpva.validate t = Ok ());
        checkb "fewer valves than full" true
          (Fpva.num_valves t < 2 * 20 * 19);
        checkb "has obstacle" true
          (Fpva.cell_state t (Coord.cell 7 12) = Fpva.Obstacle);
        checkb "has channel" true
          (Fpva.edge_state t (Coord.E (Coord.cell 3 5)) = Fpva.Open_channel));
    case "carve_row_channel opens exactly the segment" (fun () ->
        let t = Fpva.create ~rows:5 ~cols:8 in
        Layouts.carve_row_channel t ~row:2 ~from_col:1 ~to_col:5;
        for c = 1 to 4 do
          checkb "open" true
            (Fpva.edge_state t (Coord.E (Coord.cell 2 c)) = Fpva.Open_channel)
        done;
        checkb "before closed" true
          (Fpva.edge_state t (Coord.E (Coord.cell 2 0)) = Fpva.Valve);
        checkb "after closed" true
          (Fpva.edge_state t (Coord.E (Coord.cell 2 5)) = Fpva.Valve));
    case "add_obstacle_block marks the rectangle" (fun () ->
        let t = Fpva.create ~rows:6 ~cols:6 in
        Layouts.add_obstacle_block t ~row:1 ~col:2 ~height:2 ~width:3;
        for r = 1 to 2 do
          for c = 2 to 4 do
            checkb "obstacle" true
              (Fpva.cell_state t (Coord.cell r c) = Fpva.Obstacle)
          done
        done;
        checkb "outside fluid" true
          (Fpva.cell_state t (Coord.cell 0 0) = Fpva.Fluid));
  ]

(* ---------- Render ---------- *)

let render_tests =
  [
    case "canvas dimensions" (fun () ->
        let t = small_full_layout 3 4 in
        let lines = String.split_on_char '\n' (Render.plain t) in
        checki "height" (2 * 3 + 1) (List.length lines);
        List.iter (fun l -> checki "width" (2 * 4 + 1) (String.length l)) lines);
    case "ports pierce the outline" (fun () ->
        let t = small_full_layout 3 3 in
        let s = Render.plain t in
        checkb "has S" true (String.contains s 'S');
        checkb "has M" true (String.contains s 'M'));
    case "obstacles drawn" (fun () ->
        let t = small_full_layout 3 3 in
        Fpva.set_obstacle t (Coord.cell 1 1);
        let lines = String.split_on_char '\n' (Render.plain t) in
        let row = List.nth lines 3 in
        check Alcotest.char "obstacle" '#' row.[3]);
    case "custom marks override" (fun () ->
        let t = small_full_layout 3 3 in
        let s =
          Render.custom
            ~cell_marks:[ (Coord.cell 0 0, '*') ]
            ~edge_marks:[ (Coord.E (Coord.cell 0 0), '=') ]
            t
        in
        let lines = String.split_on_char '\n' s in
        let row = List.nth lines 1 in
        check Alcotest.char "cell" '*' row.[1];
        check Alcotest.char "edge" '=' row.[2]);
    case "out-of-grid marks ignored" (fun () ->
        let t = small_full_layout 3 3 in
        let s = Render.custom ~cell_marks:[ (Coord.cell 9 9, '*') ] t in
        checkb "no star" true (not (String.contains s '*')));
  ]

(* ---------- Control ---------- *)

let control_tests =
  [
    case "fluid adjacency matches the leakage pair model" (fun () ->
        let t = small_full_layout 4 4 in
        let a = Control.leak_pairs t Control.Fluid_adjacency in
        let b = Fpva_sim.Fault.adjacent_pairs t in
        checkb "same set" true
          (List.sort compare (Array.to_list a)
          = List.sort compare (Array.to_list b)));
    case "manifold pairs are symmetric" (fun () ->
        let t = small_full_layout 4 4 in
        List.iter
          (fun routing ->
            let pairs = Control.leak_pairs t routing in
            Array.iter
              (fun (a, b) ->
                checkb "sym" true
                  (Array.exists (fun (x, y) -> x = b && y = a) pairs))
              pairs)
          [ Control.Row_manifold; Control.Column_manifold ]);
    case "track geometry" (fun () ->
        let t = small_full_layout 3 3 in
        let e00 = Fpva.valve_id t (Coord.E (Coord.cell 0 0)) in
        let s00 = Fpva.valve_id t (Coord.S (Coord.cell 0 0)) in
        checki "E row track" 0 (Control.track t Control.Row_manifold e00);
        checki "S row track" 1 (Control.track t Control.Row_manifold s00);
        checki "E col track" 1 (Control.track t Control.Column_manifold e00);
        checki "S col track" 0 (Control.track t Control.Column_manifold s00));
    case "fluid adjacency has no track" (fun () ->
        let t = small_full_layout 3 3 in
        checkb "raises" true
          (try
             ignore (Control.track t Control.Fluid_adjacency 0);
             false
           with Invalid_argument _ -> true));
    case "routed pairs drive leakage generation" (fun () ->
        let t = small_full_layout 4 4 in
        let flow, _ = Fpva_testgen.Flow_path.generate t in
        let pairs = Control.leak_pairs t Control.Row_manifold in
        let extra, impossible =
          Fpva_testgen.Leakage.generate t ~pairs ~existing:flow
        in
        (* every routed pair is either exercised or reported impossible *)
        let exercised (a, b) =
          List.exists
            (fun p -> Fpva_testgen.Leakage.exercised_by t p (a, b))
            (flow @ extra)
        in
        Array.iter
          (fun pr ->
            checkb "accounted" true
              (exercised pr || List.mem pr impossible))
          pairs);
  ]

let tests =
  coord_tests @ fpva_tests @ graph_tests @ dual_tests @ layout_tests
  @ render_tests @ control_tests
