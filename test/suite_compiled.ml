(* CSR construction invariants of the compiled flat-grid core, plus the
   cache discipline that keeps a compilation consistent with its layout. *)

open Helpers
open Fpva_grid

(* Structural invariants every compilation must satisfy, asserted on both
   fixed and random layouts. *)
let check_invariants t =
  let comp = Compiled.of_fpva t in
  let n = Compiled.num_nodes comp in
  let off = Compiled.adj_off comp in
  let nodes = Compiled.adj_node comp in
  let edges = Compiled.adj_edge comp in
  let nv = Compiled.num_valves comp in
  checki "num_nodes = cells + ports" n
    (Compiled.num_cells comp + Compiled.num_ports comp);
  checki "offset array arity" (n + 1) (Array.length off);
  checki "offsets start at zero" 0 off.(0);
  for i = 0 to n - 1 do
    checkb "offsets monotone" true (off.(i) <= off.(i + 1))
  done;
  checkb "offsets end at the arc count" true
    (off.(n) <= Array.length nodes && Array.length nodes = Array.length edges);
  (* Every arc is in range and carries either -1 or a valid valve id. *)
  for k = 0 to off.(n) - 1 do
    checkb "arc target in range" true (nodes.(k) >= 0 && nodes.(k) < n);
    checkb "arc edge slot in range" true
      (edges.(k) >= -1 && edges.(k) < nv)
  done;
  (* Symmetry: arc u->v with slot e has a mirror v->u with the same slot. *)
  let has_arc u v e =
    let found = ref false in
    for k = off.(u) to off.(u + 1) - 1 do
      if nodes.(k) = v && edges.(k) = e then found := true
    done;
    !found
  in
  for u = 0 to n - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      checkb "arcs are symmetric" true (has_arc nodes.(k) u edges.(k))
    done
  done;
  (* Each port node has degree exactly 1: the tube to its boundary cell. *)
  let ports = Fpva.ports t in
  Array.iteri
    (fun i p ->
      let pn = Compiled.port_node comp i in
      checki "port degree 1" 1 (off.(pn + 1) - off.(pn));
      let k = off.(pn) in
      checki "port tube targets the boundary cell"
        (Compiled.cell_node comp (Fpva.port_cell t p))
        nodes.(k);
      checki "port tube carries no valve" (-1) edges.(k))
    ports;
  (* Every valve between two fluid cells appears exactly twice (one arc per
     direction); valve edges never touch obstacles, so that is all of them. *)
  let uses = Array.make (max nv 1) 0 in
  for k = 0 to off.(n) - 1 do
    if edges.(k) >= 0 then uses.(edges.(k)) <- uses.(edges.(k)) + 1
  done;
  for v = 0 to nv - 1 do
    checki (Printf.sprintf "valve %d appears twice" v) 2 uses.(v)
  done;
  (* Role sets match the port table. *)
  let expect_sources =
    ports |> Array.to_list
    |> List.mapi (fun i p -> (i, p))
    |> List.filter_map (fun (i, p) ->
           if p.Fpva.kind = Fpva.Source then Some (Compiled.port_node comp i)
           else None)
  in
  check
    (Alcotest.list Alcotest.int)
    "source nodes" expect_sources
    (Array.to_list (Compiled.source_nodes comp));
  let mask = Compiled.sink_node_mask comp in
  Array.iteri
    (fun i p ->
      checkb "sink mask agrees with port kinds"
        (p.Fpva.kind = Fpva.Sink)
        mask.(Compiled.port_node comp i))
    ports

let construction_tests =
  [
    case "invariants on a full 4x5 with ports" (fun () ->
        check_invariants (small_full_layout 4 5));
    case "invariants on figure 9 (channels and obstacles)" (fun () ->
        check_invariants (Layouts.figure9 ()));
    case "obstacle cells keep their id but lose all arcs" (fun () ->
        let t = small_full_layout 4 4 in
        Fpva.set_obstacle t (Coord.cell 1 1);
        let comp = Compiled.of_fpva t in
        let ob = Compiled.cell_node comp (Coord.cell 1 1) in
        let off = Compiled.adj_off comp in
        checki "no outgoing arcs" 0 (off.(ob + 1) - off.(ob));
        let nodes = Compiled.adj_node comp in
        for k = 0 to off.(Compiled.num_nodes comp) - 1 do
          checkb "no incoming arcs" true (nodes.(k) <> ob)
        done;
        check_invariants t);
    qcheck_layout ~count:50 "invariants hold on random layouts" (fun t ->
        check_invariants t;
        true);
  ]

let cache_tests =
  [
    case "get is cached until the layout mutates" (fun () ->
        let t = small_full_layout 3 3 in
        let a = Compiled.get t in
        checkb "same compilation" true (a == Compiled.get t);
        Fpva.set_edge t (Coord.E (Coord.cell 0 0)) Fpva.Open_channel;
        let b = Compiled.get t in
        checkb "mutation invalidates" true (not (a == b));
        checki "valve count tracks the mutation"
          (Compiled.num_valves a - 1)
          (Compiled.num_valves b));
    case "adding a port invalidates the compilation" (fun () ->
        let t = small_full_layout 3 3 in
        let a = Compiled.get t in
        Fpva.add_port t
          { Fpva.side = Coord.North; offset = 1; kind = Fpva.Sink };
        let b = Compiled.get t in
        checkb "new compilation" true (not (a == b));
        checki "one more node" (Compiled.num_nodes a + 1)
          (Compiled.num_nodes b));
    case "copy does not share the compilation" (fun () ->
        let t = small_full_layout 3 3 in
        let a = Compiled.get t in
        let u = Fpva.copy t in
        checkb "copy compiles afresh" true (not (a == Compiled.get u)));
  ]

let traversal_tests =
  [
    case "scratch reuse across traversals is safe" (fun () ->
        let t = small_full_layout 4 4 in
        let comp = Compiled.get t in
        let scratch = Compiled.create_scratch comp in
        let all_open = Graph.pressurized_sinks_c comp scratch
            ~open_valve:(fun _ -> true)
        in
        let all_closed = Graph.pressurized_sinks_c comp scratch
            ~open_valve:(fun _ -> false)
        in
        let again = Graph.pressurized_sinks_c comp scratch
            ~open_valve:(fun _ -> true)
        in
        check (Alcotest.array Alcotest.bool) "stamped generations isolate runs"
          all_open again;
        checkb "closed run saw the closures" true (all_open <> all_closed));
    case "separates_c agrees with the spec on a hand cut" (fun () ->
        let t = small_full_layout 3 3 in
        let comp = Compiled.get t in
        let cut_col = [ 0; 1; 2 ] |> List.map (fun r -> Coord.E (Coord.cell r 0)) in
        let ids = List.filter_map (Fpva.valve_id_opt t) cut_col in
        let mask = Array.make (Compiled.num_valves comp) false in
        List.iter (fun v -> mask.(v) <- true) ids;
        let closed_edge e =
          match Fpva.valve_id_opt t e with
          | Some v -> mask.(v)
          | None -> false
        in
        checkb "spec separates" true (Graph_oracle.separates t ~closed_edge);
        checkb "compiled separates" true
          (Graph.separates_c comp
             (Compiled.create_scratch comp)
             ~closed_valve:(fun v -> mask.(v)));
        checkb "empty cut does not separate" false
          (Graph.separates_c comp
             (Compiled.create_scratch comp)
             ~closed_valve:(fun _ -> false)));
  ]

(* The bit-parallel sweep must agree with the scalar BFS on every lane:
   extracting lane [l] of the batched per-port masks must reproduce
   [pressurized_into] under that lane's assignment exactly — including
   lanes outside [active], which must come back all-zero. *)
let lanes_match comp ~width ~grow ~region ~opened ~open_mask =
  (* [1 lsl 63] is unspecified on 63-bit ints: the full-width mask is all
     ones, i.e. [-1]. *)
  let active =
    if width = Compiled.batch_width then -1 else (1 lsl width) - 1
  in
  let np = Compiled.num_ports comp in
  let into = Array.make np 0 in
  let bs = Compiled.create_batch_scratch comp in
  Compiled.pressurized_batch_into comp bs ~active ~grow:(grow land active)
    ~region ~opened ~num_opened:(Array.length opened) ~open_mask ~into;
  let scratch = Compiled.create_scratch comp in
  let expect = Array.make np false in
  let ok = ref true in
  for l = 0 to Compiled.batch_width - 1 do
    if l < width then begin
      Graph.pressurized_into comp scratch
        ~open_valve:(fun v -> open_mask.(v) land (1 lsl l) <> 0)
        ~into:expect;
      for p = 0 to np - 1 do
        if (into.(p) land (1 lsl l) <> 0) <> expect.(p) then ok := false
      done
    end
    else
      for p = 0 to np - 1 do
        if into.(p) land (1 lsl l) <> 0 then ok := false
      done
  done;
  !ok

(* A stuck-at batch against the commanded state [cmd], as the simulator
   builds it: per lane, SA1 on up to three valves ([sa1_pool] picks
   them), and SA0 on one commanded-open valve for a lane that [shrinks],
   else at most on a commanded-closed one, which leaves it a grow lane.
   The lane's open mask is the commanded state, opened by its SA1s, then
   closed by its SA0s; the grow lanes are read off the masks (every
   commanded-open valve open for them), not off the draw, and [opened]
   lists every SA1 valve, commanded-open ones included. *)
let stuck_batch rng comp ~cmd ~width ~sa1_pool ~shrinks =
  let module R = Fpva_util.Rng in
  let nv = Compiled.num_valves comp in
  let with_state b = List.filter (fun v -> cmd.(v) = b) (List.init nv Fun.id) in
  let cmd_open = Array.of_list (with_state true)
  and cmd_closed = Array.of_list (with_state false) in
  let pick a = a.(R.int rng (Array.length a)) in
  let sa1 = Array.make nv 0 and sa0 = Array.make nv 0 in
  let opened = ref [] in
  for l = 0 to width - 1 do
    let bit = 1 lsl l in
    for _ = 1 to R.int rng 4 do
      let v = pick sa1_pool in
      if sa1.(v) = 0 then opened := v :: !opened;
      sa1.(v) <- sa1.(v) lor bit
    done;
    if shrinks l && Array.length cmd_open > 0 then begin
      let v = pick cmd_open in
      sa0.(v) <- sa0.(v) lor bit
    end
    else if R.bool rng && Array.length cmd_closed > 0 then begin
      let v = pick cmd_closed in
      sa0.(v) <- sa0.(v) lor bit
    end
  done;
  let open_mask =
    Array.init (nv + 1) (fun v ->
        if v = nv then 0
        else if cmd.(v) then lnot sa0.(v)
        else sa1.(v) land lnot sa0.(v))
  in
  let grow = Array.fold_left (fun g v -> g land open_mask.(v)) (-1) cmd_open in
  (grow, Array.of_list !opened, open_mask)

(* The commanded state's region, as a vector stores it. *)
let region_of comp cmd =
  let into = Array.make (Compiled.num_ports comp) false in
  Graph.pressurized_region comp (Compiled.create_scratch comp)
    ~open_valve:(fun v -> cmd.(v)) ~into

(* Grow-only, non-grow and mixed batches on [cmd]. *)
let commanded_cases_match rng comp ~cmd ~width ~sa1_pool =
  let module R = Fpva_util.Rng in
  let region = region_of comp cmd in
  List.for_all
    (fun shrinks ->
      let grow, opened, open_mask =
        stuck_batch rng comp ~cmd ~width ~sa1_pool ~shrinks
      in
      lanes_match comp ~width ~grow ~region ~opened ~open_mask)
    [ (fun _ -> false); (fun _ -> true); (fun _ -> R.bool rng) ]

let batch_tests =
  [
    qcheck ~count:60 "batched traversal matches scalar on every lane"
      QCheck2.Gen.(int_bound 1_000_000)
      (fun seed ->
        let module R = Fpva_util.Rng in
        let rng = R.create seed in
        let t = random_layout rng in
        let comp = Compiled.get t in
        let nv = Compiled.num_valves comp in
        let width = 1 + R.int rng Compiled.batch_width in
        (* A plain sweep: random per-lane open bits across all 63 lanes,
           including lanes above [width] that the sweep must ignore. *)
        let open_mask = Array.init (nv + 1) (fun _ ->
            R.int rng max_int lor (if R.bool rng then min_int else 0))
        in
        let all_closed = Array.make nv false in
        lanes_match comp ~width ~grow:0 ~region:(region_of comp all_closed)
          ~opened:[||] ~open_mask
        (* Seeded sweeps: a random commanded state (half its valves open,
           where one valve matters most), and the all-closed one, whose
           region holds only the sources and what open channels join to
           them. *)
        && List.for_all
             (fun cmd ->
               commanded_cases_match rng comp ~cmd ~width
                 ~sa1_pool:(Array.init nv Fun.id))
             [ Array.init nv (fun _ -> R.bool rng); all_closed ]);
    case "seeded sweep matches scalar beside an obstacle" (fun () ->
        (* Every SA1 draws from the valves around the obstacle at (2,2), on
           a region that reaches it and on one that holds only the
           sources. *)
        let t = small_full_layout 5 5 in
        Fpva.set_obstacle t (Coord.cell 2 2);
        let comp = Compiled.get t in
        let nv = Compiled.num_valves comp in
        let beside =
          List.concat_map
            (fun (r, c) ->
              List.filter_map
                (fun d ->
                  Fpva.valve_id_opt t (Coord.edge_towards (Coord.cell r c) d))
                Coord.all_dirs)
            [ (1, 2); (3, 2); (2, 1); (2, 3) ]
        in
        let rng = Fpva_util.Rng.create 11 in
        List.iter
          (fun cmd ->
            checkb "every lane matches" true
              (commanded_cases_match rng comp ~cmd ~width:Compiled.batch_width
                 ~sa1_pool:(Array.of_list beside)))
          [ Array.init nv (fun v -> v mod 2 = 0); Array.make nv false ]);
    case "batch scratch reuse across sweeps is safe" (fun () ->
        let t = small_full_layout 4 4 in
        let comp = Compiled.get t in
        let bs = Compiled.create_batch_scratch comp in
        let np = Compiled.num_ports comp in
        let nv = Compiled.num_valves comp + 1 in
        let all = Array.make np 0 and none = Array.make np 0 in
        let again = Array.make np 0 in
        let region = String.make (Compiled.num_nodes comp) '\000' in
        let sweep open_mask into =
          Compiled.pressurized_batch_into comp bs ~active:(-1) ~grow:0 ~region
            ~opened:[||] ~num_opened:0 ~open_mask ~into
        in
        sweep (Array.make nv (-1)) all;
        sweep (Array.make nv 0) none;
        sweep (Array.make nv (-1)) again;
        check (Alcotest.array Alcotest.int) "generations isolate sweeps" all
          again;
        checkb "closed sweep saw the closures" true (all <> none));
  ]

let tests = construction_tests @ cache_tests @ traversal_tests @ batch_tests
