open Fpva_grid
module Vec = Fpva_util.Vec

type t = {
  cells : Coord.cell list;
  edges : Coord.edge list;
  valve_ids : int list;
  source : int;
  sink : int;
}

type edge_kind = Internal of Coord.edge | Port_link of int

(* Open channels are uncontrollable: fluid moves freely through them no
   matter what the test vector commands.  Cells connected by open channels
   therefore behave as a single fluid node, and a path that visited such a
   group twice would short-circuit its own valves (an undetectable bypass).
   The problem graph is built on the contraction: nodes are channel-connected
   components of fluid cells, edges are valves between distinct components.
   Valves whose two endpoints fall in the same component are permanently
   bypassed — no pressure test can observe their stuck-at-0 fault — and are
   reported instead of covered. *)
type mapping = {
  comp_of_cell : int array;  (* cell index -> component id, -1 obstacle *)
  comp_cells : Coord.cell list array;  (* component id -> member cells *)
  cols : int;
  num_comps : int;
  node_of_port : int -> int;
  port_of_node : int -> int option;
  edge_kind : edge_kind array;
  edge_id_of : Coord.edge -> int option;
  bypassed_valves : int list;  (* valves interior to one component *)
  forbidden : (Coord.edge, unit) Hashtbl.t;
}

let cell_index cols (c : Coord.cell) = (c.Coord.row * cols) + c.Coord.col

(* Channel-connected components over fluid cells (edges: Open_channel). *)
let components fpva =
  let nr = Fpva.rows fpva and nc = Fpva.cols fpva in
  let comp = Array.make (nr * nc) (-1) in
  let cells_rev = Vec.create () in
  let next = ref 0 in
  List.iter
    (fun c ->
      if comp.(cell_index nc c) = -1 then begin
        let id = !next in
        incr next;
        Vec.push cells_rev [];
        (* BFS through open channels *)
        let q = Queue.create () in
        comp.(cell_index nc c) <- id;
        Queue.add c q;
        while not (Queue.is_empty q) do
          let x = Queue.pop q in
          Vec.set cells_rev id (x :: Vec.get cells_rev id);
          List.iter
            (fun d ->
              let y = Coord.move x d in
              let e = Coord.edge_towards x d in
              if Fpva.in_bounds fpva y
                 && Fpva.cell_state fpva y = Fpva.Fluid
                 && Fpva.edge_in_bounds fpva e
                 && Fpva.edge_state fpva e = Fpva.Open_channel
                 && comp.(cell_index nc y) = -1
              then begin
                comp.(cell_index nc y) <- id;
                Queue.add y q
              end)
            Coord.all_dirs
        done
      end)
    (Fpva.fluid_cells fpva);
  (comp, Array.map List.rev (Vec.to_array cells_rev), !next)

let problem ?(forbidden_valves = []) fpva =
  let forbidden = Hashtbl.create 8 in
  List.iter
    (fun vid -> Hashtbl.replace forbidden (Fpva.edge_of_valve fpva vid) ())
    forbidden_valves;
  let nc = Fpva.cols fpva in
  let comp_of_cell, comp_cells, num_comps = components fpva in
  let ports = Fpva.ports fpva in
  let num_nodes = num_comps + Array.length ports in
  let node_of_port i = num_comps + i in
  let port_of_node n = if n >= num_comps then Some (n - num_comps) else None in
  let edges = Vec.create () in
  let kinds = Vec.create () in
  let required = Vec.create () in
  let edge_ids = Hashtbl.create 64 in
  let bypassed = ref [] in
  let add_valve e =
    if not (Hashtbl.mem forbidden e) then begin
      let a, b = Coord.edge_endpoints e in
      if Fpva.cell_state fpva a = Fpva.Fluid
         && Fpva.cell_state fpva b = Fpva.Fluid
      then begin
        let ca = comp_of_cell.(cell_index nc a)
        and cb = comp_of_cell.(cell_index nc b) in
        if ca = cb then begin
          match Fpva.valve_id_opt fpva e with
          | Some vid -> bypassed := vid :: !bypassed
          | None -> ()
        end
        else begin
          Hashtbl.replace edge_ids e (Vec.length edges);
          Vec.push edges (ca, cb);
          Vec.push kinds (Internal e);
          Vec.push required true
        end
      end
    end
  in
  for r = 0 to Fpva.rows fpva - 1 do
    for c = 0 to nc - 1 do
      let consider e =
        if Fpva.edge_in_bounds fpva e && Fpva.edge_state fpva e = Fpva.Valve
        then add_valve e
      in
      consider (Coord.E (Coord.cell r c));
      consider (Coord.S (Coord.cell r c))
    done
  done;
  Array.iteri
    (fun i p ->
      let c = Fpva.port_cell fpva p in
      Vec.push edges (node_of_port i, comp_of_cell.(cell_index nc c));
      Vec.push kinds (Port_link i);
      Vec.push required false)
    ports;
  let terminal = Array.make num_nodes false in
  Array.iteri (fun i _ -> terminal.(node_of_port i) <- true) ports;
  let starts = Vec.create () and ends = Vec.create () in
  Array.iteri
    (fun i p ->
      match p.Fpva.kind with
      | Fpva.Source -> Vec.push starts (node_of_port i)
      | Fpva.Sink -> Vec.push ends (node_of_port i))
    ports;
  let prob =
    Problem.build ~num_nodes ~edges:(Vec.to_array edges)
      ~required:(Vec.to_array required) ~terminal
      ~starts:(Vec.to_array starts) ~ends:(Vec.to_array ends) ()
  in
  let mapping =
    {
      comp_of_cell;
      comp_cells;
      cols = nc;
      num_comps;
      node_of_port;
      port_of_node;
      edge_kind = Vec.to_array kinds;
      edge_id_of = (fun e -> Hashtbl.find_opt edge_ids e);
      bypassed_valves = List.rev !bypassed;
      forbidden;
    }
  in
  (prob, mapping)

let edge_id_of_mapping mapping e = mapping.edge_id_of e

let bypassed_valves mapping = mapping.bypassed_valves

(* Route between two cells inside one component, through open channels
   only. *)
let component_route fpva mapping ~from_cell ~to_cell =
  if from_cell = to_cell then [ from_cell ]
  else begin
    let nc = mapping.cols in
    let prev = Hashtbl.create 16 in
    let seen = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace seen from_cell ();
    Queue.add from_cell q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let x = Queue.pop q in
      if x = to_cell then found := true
      else
        List.iter
          (fun d ->
            let y = Coord.move x d in
            let e = Coord.edge_towards x d in
            if Fpva.in_bounds fpva y
               && Fpva.cell_state fpva y = Fpva.Fluid
               && Fpva.edge_in_bounds fpva e
               && Fpva.edge_state fpva e = Fpva.Open_channel
               && mapping.comp_of_cell.(cell_index nc y)
                  = mapping.comp_of_cell.(cell_index nc x)
               && not (Hashtbl.mem seen y)
            then begin
              Hashtbl.replace seen y ();
              Hashtbl.replace prev y x;
              Queue.add y q
            end)
          Coord.all_dirs
    done;
    if not !found then
      invalid_arg "Flow_path.component_route: cells not channel-connected";
    let rec back acc c =
      if c = from_cell then c :: acc else back (c :: acc) (Hashtbl.find prev c)
    in
    back [] to_cell
  end

let of_problem_path fpva mapping (p : Problem.path) =
  let fail msg = invalid_arg ("Flow_path.of_problem_path: " ^ msg) in
  match (p.Problem.nodes, List.rev p.Problem.nodes) with
  | first :: _, last :: _ ->
    let source =
      match mapping.port_of_node first with
      | Some i -> i
      | None -> fail "path does not start at a port"
    in
    let sink =
      match mapping.port_of_node last with
      | Some i -> i
      | None -> fail "path does not end at a port"
    in
    (* Walk the component sequence, expanding each component into the cell
       route between its entry and exit cells.  Entry/exit cells come from
       the valve endpoints (or the port cell at the extremities). *)
    let ports = Fpva.ports fpva in
    let nc = mapping.cols in
    let valve_edges =
      List.filter_map
        (fun e ->
          match mapping.edge_kind.(e) with
          | Internal ce -> Some ce
          | Port_link _ -> None)
        p.Problem.edges
    in
    let comp_seq =
      List.filter_map
        (fun n -> if n < mapping.num_comps then Some n else None)
        p.Problem.nodes
    in
    let endpoint_in comp e =
      let a, b = Coord.edge_endpoints e in
      if mapping.comp_of_cell.(cell_index nc a) = comp then a
      else begin
        assert (mapping.comp_of_cell.(cell_index nc b) = comp);
        b
      end
    in
    let rec expand comps valves entry acc_cells acc_edges =
      match (comps, valves) with
      | [ comp ], [] ->
        (* final component: walk from entry to the sink port cell *)
        let exit_cell = Fpva.port_cell fpva ports.(sink) in
        assert (mapping.comp_of_cell.(cell_index nc exit_cell) = comp);
        let route = component_route fpva mapping ~from_cell:entry ~to_cell:exit_cell in
        let cells = List.rev_append acc_cells route in
        let edges =
          let rec channel_edges = function
            | a :: (b :: _ as rest) ->
              Coord.edge_between a b :: channel_edges rest
            | [] | [ _ ] -> []
          in
          List.rev_append acc_edges (channel_edges route)
        in
        (cells, edges)
      | comp :: (_ :: _ as rest_comps), valve :: rest_valves ->
        let exit_cell = endpoint_in comp valve in
        let route = component_route fpva mapping ~from_cell:entry ~to_cell:exit_cell in
        let rec channel_edges = function
          | a :: (b :: _ as rest) -> Coord.edge_between a b :: channel_edges rest
          | [] | [ _ ] -> []
        in
        let acc_cells = List.rev_append route acc_cells in
        let acc_edges =
          valve :: List.rev_append (channel_edges route) acc_edges
        in
        let next_comp = List.hd rest_comps in
        let next_entry = endpoint_in next_comp valve in
        expand rest_comps rest_valves next_entry acc_cells acc_edges
      | _, _ -> fail "component/valve sequence mismatch"
    in
    let entry = Fpva.port_cell fpva ports.(source) in
    let cells_raw, edges =
      match comp_seq with
      | [] -> fail "no components on path"
      | first_comp :: _ ->
        assert (mapping.comp_of_cell.(cell_index nc entry) = first_comp);
        expand comp_seq valve_edges entry [] []
    in
    (* acc_cells accumulates component routes back-to-back; consecutive
       routes share no cells except when a valve endpoint repeats — dedupe
       consecutive duplicates defensively. *)
    let rec dedupe = function
      | a :: (b :: _ as rest) when a = b -> dedupe rest
      | a :: rest -> a :: dedupe rest
      | [] -> []
    in
    let cells = dedupe cells_raw in
    let valve_ids = List.filter_map (Fpva.valve_id_opt fpva) edges in
    { cells; edges; valve_ids; source; sink }
  | _, _ -> fail "empty path"

(* Serpentine construction over full rectangular arrays. *)
let serpentine_cells ~rows ~cols ~row_major ~from_top ~from_left =
  let cell i j =
    let r = if from_top then i else rows - 1 - i in
    let c = if from_left then j else cols - 1 - j in
    Coord.cell r c
  in
  let out = Vec.create () in
  if row_major then
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        let j = if i mod 2 = 0 then j else cols - 1 - j in
        Vec.push out (cell i j)
      done
    done
  else
    for j = 0 to cols - 1 do
      for i = 0 to rows - 1 do
        let i = if j mod 2 = 0 then i else rows - 1 - i in
        Vec.push out (cell i j)
      done
    done;
  Vec.to_list out

let serpentine_seeds fpva =
  let all_fluid =
    List.length (Fpva.fluid_cells fpva) = Fpva.rows fpva * Fpva.cols fpva
  in
  if not all_fluid then []
  else begin
    let _, mapping = problem fpva in
    let ports = Fpva.ports fpva in
    let nc = mapping.cols in
    let comp c = mapping.comp_of_cell.(cell_index nc c) in
    let port_at kind cell =
      let found = ref None in
      Array.iteri
        (fun i p ->
          if p.Fpva.kind = kind && Fpva.port_cell fpva p = cell && !found = None
          then found := Some i)
        ports;
      !found
    in
    let candidates = ref [] in
    let try_variant ~row_major ~from_top ~from_left =
      let cells =
        serpentine_cells ~rows:(Fpva.rows fpva) ~cols:(Fpva.cols fpva)
          ~row_major ~from_top ~from_left
      in
      let rec steps_ok = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) ->
          Fpva.edge_state fpva (Coord.edge_between a b) <> Fpva.Wall
          && steps_ok rest
      in
      if steps_ok cells then begin
        match (cells, List.rev cells) with
        | first :: _, last :: _ ->
          let attach src_cell dst_cell cell_seq =
            match (port_at Fpva.Source src_cell, port_at Fpva.Sink dst_cell)
            with
            | Some s, Some t -> (
              (* Component sequence with consecutive duplicates merged;
                 reject if a component repeats non-consecutively. *)
              let comp_seq =
                let rec go acc = function
                  | [] -> List.rev acc
                  | c :: rest -> (
                    match acc with
                    | top :: _ when top = comp c -> go acc rest
                    | _ -> go (comp c :: acc) rest)
                in
                go [] cell_seq
              in
              let distinct =
                let seen = Hashtbl.create 64 in
                List.for_all
                  (fun x ->
                    if Hashtbl.mem seen x then false
                    else begin
                      Hashtbl.add seen x ();
                      true
                    end)
                  comp_seq
              in
              if distinct then begin
                try
                  let edge_seq =
                    let rec go = function
                      | a :: (b :: _ as rest) ->
                        if comp a = comp b then go rest
                        else begin
                          match mapping.edge_id_of (Coord.edge_between a b) with
                          | Some id -> id :: go rest
                          | None -> raise Exit
                        end
                      | [] | [ _ ] -> []
                    in
                    go cell_seq
                  in
                  let internal_count =
                    Array.length mapping.edge_kind - Array.length ports
                  in
                  let nodes =
                    (mapping.node_of_port s :: comp_seq)
                    @ [ mapping.node_of_port t ]
                  in
                  let edges =
                    (internal_count + s) :: edge_seq
                    @ [ internal_count + t ]
                  in
                  candidates := { Problem.nodes; edges } :: !candidates
                with Exit -> ()
              end)
            | _, _ -> ()
          in
          attach first last cells;
          attach last first (List.rev cells)
        | _, _ -> ()
      end
    in
    List.iter
      (fun row_major ->
        List.iter
          (fun from_top ->
            List.iter
              (fun from_left -> try_variant ~row_major ~from_top ~from_left)
              [ true; false ])
          [ true; false ])
      [ true; false ];
    !candidates
  end

(* One bridge search over the vector's open valves (the path's): [k]
   gets whether a watched node has pressure and a test for "closing this
   path valve alone cuts a watched node off".  The path's valves are
   stamped [opened]; a cut restamps its valve [opened + 1], which still
   reads as open, so no per-call mask is allocated.  The test reads the
   stamps, so [k] runs while the scratch is still borrowed. *)
let path_cuts fpva path ~watched k =
  let comp = Compiled.get fpva in
  Compiled.with_scratch comp (fun s ->
      Compiled.extend_scratch comp s;
      let marks = s.Compiled.marks in
      let opened = s.Compiled.mark_gen + 1 in
      let cut = opened + 1 in
      s.Compiled.mark_gen <- cut;
      List.iter (fun v -> marks.(v) <- opened) path.valve_ids;
      let reached =
        Graph.cut_valves_c comp s
          ~open_valve:(fun v -> marks.(v) >= opened)
          ~watched ~on_cut:(fun v -> marks.(v) <- cut)
      in
      k reached (fun v -> marks.(v) = cut))

(* The valves whose closure flips the observation: exactly the stuck-at-0
   faults this path's vector detects.  Source ports always see pressure,
   so the observation flips exactly when a sink loses it. *)
let tested_valves fpva path =
  let sinks = Compiled.sink_node_mask (Compiled.get fpva) in
  path_cuts fpva path
    ~watched:(fun n -> sinks.(n))
    (fun _ is_cut -> List.filter is_cut path.valve_ids)

(* Coverage absorbs only detection-verified valves (see tested_valves):
   multi-source chips can re-feed a path mid-route, silently untesting its
   upstream valves. *)
let cover ?(engine = Cover.default_engine) ?seeds ?budget ?stats fpva
    (prob, mapping) ~pending =
  Cover.run ?budget ?stats ?seeds engine prob ~pending
    ~edge_of:(fun v -> mapping.edge_id_of (Fpva.edge_of_valve fpva v))
    ~decode:(of_problem_path fpva mapping) ~retires:(tested_valves fpva)

let generate ?engine ?(use_seeds = true) ?budget ?stats fpva =
  let ((_, mapping) as instance) = problem fpva in
  let pending = Array.make (Fpva.num_valves fpva) true in
  List.iter (fun v -> pending.(v) <- false) mapping.bypassed_valves;
  let seeds = if use_seeds then serpentine_seeds fpva else [] in
  let outcome = cover ?engine ~seeds ?budget ?stats fpva instance ~pending in
  (outcome.Cover.paths, outcome.Cover.uncovered @ mapping.bypassed_valves)

let minimum ?bb_options ~max_paths fpva =
  let prob, mapping = problem fpva in
  match Path_ilp.minimum_cover ?bb_options prob ~max_paths with
  | None -> None
  | Some paths -> Some (List.map (of_problem_path fpva mapping) paths)

let covers_all_valves fpva paths =
  let seen = Array.make (Fpva.num_valves fpva) false in
  List.iter
    (fun p -> List.iter (fun v -> seen.(v) <- true) p.valve_ids)
    paths;
  Array.for_all (fun b -> b) seen

(* Single-fault soundness audit: with the path's vector applied, the
   path's sink has pressure and closing any single path valve removes it. *)
let sound fpva path =
  let sink = Compiled.port_node (Compiled.get fpva) path.sink in
  path_cuts fpva path
    ~watched:(fun n -> n = sink)
    (fun reached is_cut -> reached && List.for_all is_cut path.valve_ids)

let pp fpva ppf p =
  let ports = Fpva.ports fpva in
  ignore ports;
  Format.fprintf ppf "@[<h>port#%d ->" p.source;
  List.iter (fun c -> Format.fprintf ppf " %a" Coord.pp_cell c) p.cells;
  Format.fprintf ppf " -> port#%d (%d valves)@]" p.sink
    (List.length p.valve_ids)
