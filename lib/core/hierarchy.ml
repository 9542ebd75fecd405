open Fpva_grid
module Vec = Fpva_util.Vec

type options = {
  block_rows : int;
  block_cols : int;
  engine : Cover.engine;
  segment_budget : int;
  max_instances : int;
}

let default_options =
  {
    block_rows = 5;
    block_cols = 5;
    engine = Cover.default_engine;
    segment_budget = 30_000;
    max_instances = 64;
  }

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
  let ports = Fpva.ports fpva in
  let num_nodes = num_blocks + Array.length ports in
  let borders = border_edges options fpva in
  let edges = Vec.create () and required = Vec.create () in
  Hashtbl.iter
    (fun (ba, bb) crossing ->
      Vec.push edges (block_node ba, block_node bb);
      let has_valve =
        List.exists (fun e -> Fpva.edge_state fpva e = Fpva.Valve) crossing
      in
      Vec.push required has_valve)
    borders;
  Array.iteri
    (fun i p ->
      let b = block_of_cell options (Fpva.port_cell fpva p) in
      Vec.push edges (num_blocks + i, block_node b);
      Vec.push required false)
    ports;
  let terminal = Array.make num_nodes false in
  Array.iteri (fun i _ -> terminal.(num_blocks + i) <- true) ports;
  let starts = Vec.create () and ends = Vec.create () in
  Array.iteri
    (fun i p ->
      match p.Fpva.kind with
      | Fpva.Source -> Vec.push starts (num_blocks + i)
      | Fpva.Sink -> Vec.push ends (num_blocks + i))
    ports;
  let prob =
    Problem.build ~num_nodes ~edges:(Vec.to_array edges)
      ~required:(Vec.to_array required) ~terminal
      ~starts:(Vec.to_array starts) ~ends:(Vec.to_array ends) ()
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

type endpoint = Port_end of int | Cell_end of Coord.cell

(* Build a local problem: nodes are the member cells of the current block,
   plus terminal extras (the entry port, exit ports, or the across-border
   cells of the next block). *)
let segment ?budget ?stats options fpva ~need ~block ~entry ~exits =
  let member c = block_of_cell options c = block in
  let ids = Hashtbl.create 64 in
  let rev = Vec.create () in
  let node_of key =
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
      let i = Vec.length rev in
      Hashtbl.add ids key i;
      Vec.push rev key;
      i
  in
  (* keys: `Cell c | `Port i *)
  let edges = Vec.create () in
  let edge_valve = Vec.create () in
  (* valve id per local edge, if any *)
  let edge_chan = Vec.create () in
  (* open-channel edges are uncontrollable: pair-constrain them so a
     segment never visits both sides of a channel without crossing it
     (which would bypass its own valves) *)
  let add_edge ?(chan = false) ka kb vid =
    Vec.push edges (node_of ka, node_of kb);
    Vec.push edge_valve vid;
    Vec.push edge_chan chan
  in
  let nr = Fpva.rows fpva and nc = Fpva.cols fpva in
  let across = Hashtbl.create 16 in
  List.iter
    (fun e -> match e with Cell_end c -> Hashtbl.replace across c () | Port_end _ -> ())
    exits;
  for r = 0 to nr - 1 do
    for c = 0 to nc - 1 do
      let a = Coord.cell r c in
      if Fpva.cell_state fpva a = Fpva.Fluid && member a then begin
        let consider d =
          let b = Coord.move a d in
          let e = Coord.edge_towards a d in
          if Fpva.edge_in_bounds fpva e && traversable fpva e
             && Fpva.in_bounds fpva b
             && Fpva.cell_state fpva b = Fpva.Fluid
          then begin
            let vid = Fpva.valve_id_opt fpva e in
            let chan = Fpva.edge_state fpva e = Fpva.Open_channel in
            if member b then begin
              (* one direction only, to avoid duplicates *)
              if Coord.compare_cell a b < 0 then
                add_edge ~chan (`Cell a) (`Cell b) vid
            end
            else if Hashtbl.mem across b then
              add_edge ~chan (`Cell a) (`Cell b) vid
          end
        in
        List.iter consider Coord.all_dirs
      end
    done
  done;
  (* Port links for the entry/exit ports. *)
  let ports = Fpva.ports fpva in
  let link_port i =
    let cell = Fpva.port_cell fpva ports.(i) in
    if member cell then add_edge (`Port i) (`Cell cell) None
  in
  (match entry with Port_end i -> link_port i | Cell_end _ -> ());
  List.iter (function Port_end i -> link_port i | Cell_end _ -> ()) exits;
  let key_of_endpoint = function
    | Port_end i -> `Port i
    | Cell_end c -> `Cell c
  in
  (* Entry cell might sit outside the block (it never does: the across cell
     of the previous border belongs to this block) — guard anyway. *)
  let entry_key = key_of_endpoint entry in
  if not (Hashtbl.mem ids entry_key) then None
  else begin
    let exit_keys =
      List.filter (fun k -> Hashtbl.mem ids k) (List.map key_of_endpoint exits)
    in
    if exit_keys = [] then None
    else begin
      let num_nodes = Vec.length rev in
      let terminal = Array.make num_nodes false in
      List.iter (fun k -> terminal.(Hashtbl.find ids k) <- true) exit_keys;
      (match entry with
      | Port_end i -> terminal.(Hashtbl.find ids (`Port i)) <- true
      | Cell_end _ -> ());
      let starts = [| Hashtbl.find ids entry_key |] in
      let ends = Array.of_list (List.map (Hashtbl.find ids) exit_keys) in
      let num_edges = Vec.length edges in
      let required = Array.make num_edges false in
      let prob =
        Problem.build ~num_nodes
          ~edges:(Vec.to_array edges) ~required
          ~pair_constrained:(Vec.to_array edge_chan) ~terminal ~starts ~ends
          ()
      in
      let weight =
        Array.init num_edges (fun e ->
            match Vec.get edge_valve e with
            | Some vid -> if need.(vid) then 1.0 else 0.0
            | None -> 0.0)
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
      let found = Cover.find_robust ?budget ?stats seg_engine prob ~weight in
      match found with
      | None -> None
      | Some path ->
        (* Decode to global cells / edges. *)
        let keys = List.map (Vec.get rev) path.Problem.nodes in
        Some keys
    end
  end

(* ---------- Stitching ---------- *)

let stitch_instance ?budget ?stats options fpva ~need (src, route, snk) =
  (* Returns the full cell sequence (ports excluded) or None. *)
  let rec walk entry route acc =
    match route with
    | [] -> Some (List.rev acc)
    | block :: rest ->
      let exits =
        match rest with
        | next :: _ ->
          (* across cells: cells of [next] adjacent to [block] *)
          let nr = Fpva.rows fpva and nc = Fpva.cols fpva in
          let out = ref [] in
          for r = 0 to nr - 1 do
            for c = 0 to nc - 1 do
              let a = Coord.cell r c in
              if Fpva.cell_state fpva a = Fpva.Fluid
                 && block_of_cell options a = block
              then
                List.iter
                  (fun d ->
                    let b = Coord.move a d in
                    let e = Coord.edge_towards a d in
                    if Fpva.in_bounds fpva b && Fpva.edge_in_bounds fpva e
                       && traversable fpva e
                       && Fpva.cell_state fpva b = Fpva.Fluid
                       && block_of_cell options b = next
                    then out := Cell_end b :: !out)
                  Coord.all_dirs
            done
          done;
          !out
        | [] -> [ Port_end snk ]
      in
      (match segment ?budget ?stats options fpva ~need ~block ~entry ~exits with
      | None -> None
      | Some keys ->
        let cells =
          List.filter_map
            (function `Cell c -> Some c | `Port _ -> None)
            keys
        in
        (match rest with
        | [] -> Some (List.rev acc @ cells)
        | next :: _ -> (
          ignore next;
          match List.rev cells with
          | last :: _ ->
            (* [last] is the across cell: it starts the next segment. *)
            let body = List.filteri (fun i _ -> i < List.length cells - 1) cells in
            walk (Cell_end last) rest (List.rev_append body acc)
          | [] -> None)))
  in
  match walk (Port_end src) route [] with
  | None -> None
  | Some cells ->
    (* Convert the cell sequence into a Flow_path.t. *)
    let rec edges_of = function
      | a :: (b :: _ as rest) -> Coord.edge_between a b :: edges_of rest
      | [] | [ _ ] -> []
    in
    (* Reject non-simple sequences defensively. *)
    let seen = Hashtbl.create 64 in
    if List.exists (fun c -> Hashtbl.mem seen c || (Hashtbl.add seen c (); false)) cells
    then None
    else begin
      let edges = edges_of cells in
      let valve_ids = List.filter_map (Fpva.valve_id_opt fpva) edges in
      let path =
        { Flow_path.cells; edges; valve_ids; source = src; sink = snk }
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
            && !instances < options.max_instances
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
  rounds options.max_instances;
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
