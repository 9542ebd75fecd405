open Fpva_grid
module Vec = Fpva_util.Vec

type options = {
  block_rows : int;
  block_cols : int;
  engine : Cover.engine;
  segment_budget : int;
}

let default_options =
  {
    block_rows = 5;
    block_cols = 5;
    engine = Cover.default_engine;
    segment_budget = 30_000;
  }

(* Bound on the stitched paths of one run, and on its rounds over the
   top-level routes. *)
let max_instances = 64

type result = {
  paths : Flow_path.t list;
  top_routes : (int * int) list list;
  stitched : int;
  fallback : int;
  uncovered : int list;
}

let block_of_cell options (c : Coord.cell) =
  (c.Coord.row / options.block_rows, c.Coord.col / options.block_cols)

(* ---------- Top-level block problem ---------- *)

type top_mapping = { blocks_c : int; num_blocks : int }

let traversable fpva e =
  match Fpva.edge_state fpva e with
  | Fpva.Valve | Fpva.Open_channel -> true
  | Fpva.Wall -> false

(* Enumerate traversable internal edges crossing between two distinct
   blocks, keyed by the unordered block pair. *)
let border_edges options fpva =
  let table = Hashtbl.create 64 in
  let consider e =
    if Fpva.edge_in_bounds fpva e && traversable fpva e then begin
      let a, b = Coord.edge_endpoints e in
      if Fpva.cell_state fpva a = Fpva.Fluid
         && Fpva.cell_state fpva b = Fpva.Fluid
      then begin
        let ba = block_of_cell options a and bb = block_of_cell options b in
        if ba <> bb then begin
          let key = if ba < bb then (ba, bb) else (bb, ba) in
          let prev = Option.value (Hashtbl.find_opt table key) ~default:[] in
          Hashtbl.replace table key (e :: prev)
        end
      end
    end
  in
  for r = 0 to Fpva.rows fpva - 1 do
    for c = 0 to Fpva.cols fpva - 1 do
      consider (Coord.E (Coord.cell r c));
      consider (Coord.S (Coord.cell r c))
    done
  done;
  table

let top_problem options fpva =
  let blocks_r = (Fpva.rows fpva + options.block_rows - 1) / options.block_rows in
  let blocks_c = (Fpva.cols fpva + options.block_cols - 1) / options.block_cols in
  let num_blocks = blocks_r * blocks_c in
  let block_node (bi, bj) = (bi * blocks_c) + bj in
  let edges = Vec.create () and required = Vec.create () in
  Hashtbl.iter
    (fun (ba, bb) crossing ->
      Vec.push edges (block_node ba, block_node bb);
      Vec.push required
        (List.exists (fun e -> Fpva.edge_state fpva e = Fpva.Valve) crossing))
    (border_edges options fpva);
  let prob =
    Flow_path.with_ports fpva ~num_inner:num_blocks
      ~inner_of_cell:(fun c -> block_node (block_of_cell options c))
      ~edges:(Vec.to_array edges) ~required:(Vec.to_array required)
  in
  (prob, { blocks_c; num_blocks })

(* Decode a top-level problem path into (source port, block route, sink
   port). *)
let decode_top mapping (p : Problem.path) =
  let block_coord n = (n / mapping.blocks_c, n mod mapping.blocks_c) in
  match (p.Problem.nodes, List.rev p.Problem.nodes) with
  | first :: _, last :: _ ->
    let port n = n - mapping.num_blocks in
    let route =
      List.filter_map
        (fun n -> if n < mapping.num_blocks then Some (block_coord n) else None)
        p.Problem.nodes
    in
    (port first, route, port last)
  | _, _ -> invalid_arg "Hierarchy.decode_top"

(* When the top grid is trivial (no required border), synthesise a BFS block
   route per (source, sink) pair so stitching still has routes to follow. *)
let bfs_routes options fpva =
  let borders = border_edges options fpva in
  let neighbors b =
    List.filter_map
      (fun (key, _) ->
        let x, y = key in
        if x = b then Some y else if y = b then Some x else None)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) borders [])
  in
  let ports = Fpva.ports fpva in
  let route src_block dst_block =
    let prev = Hashtbl.create 16 in
    let seen = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace seen src_block ();
    Queue.add src_block q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let b = Queue.pop q in
      if b = dst_block then found := true
      else
        List.iter
          (fun n ->
            if not (Hashtbl.mem seen n) then begin
              Hashtbl.replace seen n ();
              Hashtbl.replace prev n b;
              Queue.add n q
            end)
          (neighbors b)
    done;
    if not !found then None
    else begin
      let rec back acc b =
        if b = src_block then b :: acc
        else back (b :: acc) (Hashtbl.find prev b)
      in
      Some (back [] dst_block)
    end
  in
  let sources = ref [] and sinks = ref [] in
  Array.iteri
    (fun i p ->
      match p.Fpva.kind with
      | Fpva.Source -> sources := i :: !sources
      | Fpva.Sink -> sinks := i :: !sinks)
    ports;
  List.concat_map
    (fun s ->
      List.filter_map
        (fun t ->
          let sb = block_of_cell options (Fpva.port_cell fpva ports.(s)) in
          let tb = block_of_cell options (Fpva.port_cell fpva ports.(t)) in
          if sb = tb then Some (s, [ sb ], t)
          else
            Option.map (fun r -> (s, r, t)) (route sb tb))
        !sinks)
    !sources

(* ---------- In-block segment search ---------- *)

(* The arcs from a block's cells to other cells, in compiled order (cells
   row-major): [f a b vid] for cell nodes [a] in the block and [b], with
   [vid] the valve between them or -1 for an open channel. *)
let iter_block_arcs options comp (bi, bj) f =
  let fpva = Compiled.fpva comp in
  let num_cells = Compiled.num_cells comp in
  let off = Compiled.adj_off comp and node = Compiled.adj_node comp
  and edge = Compiled.adj_edge comp in
  for r = bi * options.block_rows
      to min (Fpva.rows fpva) ((bi + 1) * options.block_rows) - 1 do
    for c = bj * options.block_cols
        to min (Fpva.cols fpva) ((bj + 1) * options.block_cols) - 1 do
      let a = Compiled.cell_node comp (Coord.cell r c) in
      for k = off.(a) to off.(a + 1) - 1 do
        if node.(k) < num_cells then f a node.(k) edge.(k)
      done
    done
  done

(* A local instance on compiled node ids: the block's cells, the entry
   (a port, or the across cell of the previous border) and the exits (the
   sink port, or the across cells of the next border).  Returns the nodes
   of the path found, entry first. *)
let segment ?budget ?stats options comp ~need ~block ~entry ~exits =
  let num_cells = Compiled.num_cells comp in
  let ids = Hashtbl.create 64 in
  let rev = Vec.create () in
  let node_of n =
    match Hashtbl.find_opt ids n with
    | Some i -> i
    | None ->
      let i = Vec.length rev in
      Hashtbl.add ids n i;
      Vec.push rev n;
      i
  in
  let edges = Vec.create () in
  let edge_valve = Vec.create () in
  (* open-channel edges are uncontrollable: pair-constrain them so a
     segment never visits both sides of a channel without crossing it
     (which would bypass its own valves) *)
  let edge_chan = Vec.create () in
  let add_edge ~chan a b vid =
    Vec.push edges (node_of a, node_of b);
    Vec.push edge_valve vid;
    Vec.push edge_chan chan
  in
  let member n = block_of_cell options (Compiled.node_cell comp n) = block in
  iter_block_arcs options comp block (fun a b vid ->
      (* in-block edges once, from their lower cell *)
      if (member b && a < b) || ((not (member b)) && List.mem b exits) then
        add_edge ~chan:(vid < 0) a b vid);
  (* A port node's one arc leads to its cell. *)
  List.iter
    (fun p ->
      if p >= num_cells then begin
        let cell = (Compiled.adj_node comp).((Compiled.adj_off comp).(p)) in
        if member cell then add_edge ~chan:false p cell (-1)
      end)
    (entry :: exits);
  match
    (Hashtbl.find_opt ids entry, List.filter_map (Hashtbl.find_opt ids) exits)
  with
  | None, _ | _, [] -> None
  | Some start, ends ->
    let num_nodes = Vec.length rev in
    let terminal = Array.make num_nodes false in
    List.iter (fun i -> terminal.(i) <- true) ends;
    if entry >= num_cells then terminal.(start) <- true;
    let prob =
      Problem.build ~num_nodes ~edges:(Vec.to_array edges)
        ~required:(Array.make (Vec.length edges) false)
        ~pair_constrained:(Vec.to_array edge_chan) ~terminal
        ~starts:[| start |] ~ends:(Array.of_list ends) ()
    in
    let weight =
      Array.map
        (fun vid -> if vid >= 0 && need.(vid) then 1.0 else 0.0)
        (Vec.to_array edge_valve)
    in
    let params =
      { Path_search.default_params with
        Path_search.step_budget = options.segment_budget }
    in
    let seg_engine =
      match options.engine with
      | Cover.Search base ->
        Cover.Search { params with Path_search.seed = base.Path_search.seed }
      | (Cover.Ilp _ | Cover.Custom _) as e -> e
    in
    Option.map
      (fun path -> List.map (Vec.get rev) path.Problem.nodes)
      (Cover.find_robust ?budget ?stats seg_engine prob ~weight)

(* ---------- Stitching ---------- *)

let stitch_instance ?budget ?stats options fpva ~need (src, route, snk) =
  let comp = Compiled.get fpva in
  let num_cells = Compiled.num_cells comp in
  (* The cell nodes of the route, entry side first, ports excluded. *)
  let rec walk entry route acc =
    match route with
    | [] -> None
    | block :: rest ->
      let exits =
        match rest with
        | next :: _ ->
          let out = ref [] in
          iter_block_arcs options comp block (fun _ b _ ->
              if block_of_cell options (Compiled.node_cell comp b) = next then
                out := b :: !out);
          !out
        | [] -> [ Compiled.port_node comp snk ]
      in
      (match segment ?budget ?stats options comp ~need ~block ~entry ~exits with
      | None -> None
      | Some nodes -> (
        let cells = List.filter (fun n -> n < num_cells) nodes in
        match (rest, List.rev cells) with
        | [], _ -> Some (List.rev_append acc cells)
        (* [last] is the across cell: it starts the next segment. *)
        | _ :: _, last :: body -> walk last rest (body @ acc)
        | _ :: _, [] -> None))
  in
  match walk (Compiled.port_node comp src) route [] with
  | None -> None
  | Some nodes ->
    (* Reject non-simple sequences defensively. *)
    let seen = Hashtbl.create 64 in
    if
      List.exists
        (fun n -> Hashtbl.mem seen n || (Hashtbl.add seen n (); false))
        nodes
    then None
    else begin
      let path =
        Flow_path.of_cells fpva ~source:src ~sink:snk
          (List.map (Compiled.node_cell comp) nodes)
      in
      (* Cross-block channel chords can still slip through the per-block
         pair constraints; the soundness audit catches them. *)
      if Flow_path.sound fpva path then Some path else None
    end

let generate ?(options = default_options) ?(budget = Budget.unlimited) ?stats
    fpva =
  let prob, mapping = top_problem options fpva in
  let top_paths =
    if Problem.num_required prob = 0 then bfs_routes options fpva
    else begin
      let outcome =
        Cover.run ~budget ?stats options.engine prob
          ~pending:(Array.copy prob.Problem.required) ~edge_of:Option.some
          ~decode:Fun.id ~retires:(fun p -> p.Problem.edges)
      in
      match outcome.Cover.paths with
      | [] -> bfs_routes options fpva
      | paths -> List.map (decode_top mapping) paths
    end
  in
  (* Bypassed valves are retired up front: no path can test them, so they
     must not pull segment weights toward them. *)
  let ((_, fmapping) as instance) = Flow_path.problem fpva in
  let bypassed = Flow_path.bypassed_valves fmapping in
  let need = Array.make (Fpva.num_valves fpva) true in
  List.iter (fun v -> need.(v) <- false) bypassed;
  let paths = ref [] in
  let instances = ref 0 in
  let rec rounds budget_left =
    if
      budget_left > 0
      && Array.exists (fun b -> b) need
      && not (Budget.exhausted budget)
    then begin
      let progressed = ref false in
      List.iter
        (fun route ->
          if
            Array.exists (fun b -> b) need
            && !instances < max_instances
            && not (Budget.exhausted budget)
          then
            match stitch_instance ~budget ?stats options fpva ~need route with
            | None -> ()
            | Some p ->
              incr instances;
              (* Only detection-verified valves count as covered
                 (multi-source chips can re-feed a path mid-route, silently
                 untesting its upstream valves). *)
              let tested = Flow_path.tested_valves fpva p in
              if List.exists (fun v -> need.(v)) tested then begin
                List.iter (fun v -> need.(v) <- false) tested;
                paths := p :: !paths;
                progressed := true
              end)
        top_paths;
      if !progressed then rounds (budget_left - 1)
    end
  in
  rounds max_instances;
  let stitched = List.rev !paths in
  (* Direct fallback for anything the stitched routes could not reach. *)
  let fallback =
    Flow_path.cover ~engine:options.engine ~budget ?stats fpva instance
      ~pending:need
  in
  {
    paths = stitched @ fallback.Cover.paths;
    top_routes = List.map (fun (_, r, _) -> r) top_paths;
    stitched = List.length stitched;
    fallback = List.length fallback.Cover.paths;
    uncovered = fallback.Cover.uncovered @ bypassed;
  }
