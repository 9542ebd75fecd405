open Fpva_grid
module Vec = Fpva_util.Vec

type t = {
  cells : Coord.cell list;
  edges : Coord.edge list;
  valve_ids : int list;
  source : int;
  sink : int;
}

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
  compiled : Compiled.t;
  comp_of_cell : int array;  (* cell node -> component id, -1 obstacle *)
  num_comps : int;  (* port [i] is node [num_comps + i] *)
  valve_edges : Coord.edge array;
      (* edge id -> its valve; the ids past the end are the port links *)
  edge_id_of : Coord.edge -> int option;
  bypassed_valves : int list;  (* valves interior to one component *)
}

let of_cells fpva ~source ~sink cells =
  let rec edges = function
    | a :: (b :: _ as rest) -> Coord.edge_between a b :: edges rest
    | [] | [ _ ] -> []
  in
  let edges = edges cells in
  { cells; edges; valve_ids = List.filter_map (Fpva.valve_id_opt fpva) edges;
    source; sink }

let with_ports fpva ~num_inner ~inner_of_cell ~edges ~required =
  let ports = Fpva.ports fpva in
  let num_nodes = num_inner + Array.length ports in
  let nodes kind =
    Array.of_seq
      (Seq.filter_map
         (fun (i, p) ->
           if p.Fpva.kind = kind then Some (num_inner + i) else None)
         (Array.to_seqi ports))
  in
  Problem.build ~num_nodes
    ~edges:
      (Array.append edges
         (Array.mapi
            (fun i p -> (num_inner + i, inner_of_cell (Fpva.port_cell fpva p)))
            ports))
    ~required:(Array.append required (Array.make (Array.length ports) false))
    ~terminal:(Array.init num_nodes (fun n -> n >= num_inner))
    ~starts:(nodes Fpva.Source) ~ends:(nodes Fpva.Sink) ()

(* Channel-connected components of the fluid cells, numbered in
   [Fpva.fluid_cells] order: a sweep over the compiled arcs that join two
   cells without a valve. *)
let components comp =
  let num_cells = Compiled.num_cells comp in
  let off = Compiled.adj_off comp and node = Compiled.adj_node comp
  and edge = Compiled.adj_edge comp in
  let comp_of = Array.make num_cells (-1) in
  let stack = Array.make num_cells 0 in
  let count = ref 0 in
  List.iter
    (fun c ->
      let root = Compiled.cell_node comp c in
      if comp_of.(root) < 0 then begin
        comp_of.(root) <- !count;
        stack.(0) <- root;
        let top = ref 1 in
        while !top > 0 do
          decr top;
          let u = stack.(!top) in
          for k = off.(u) to off.(u + 1) - 1 do
            let v = node.(k) in
            if edge.(k) < 0 && v < num_cells && comp_of.(v) < 0 then begin
              comp_of.(v) <- !count;
              stack.(!top) <- v;
              incr top
            end
          done
        done;
        incr count
      end)
    (Fpva.fluid_cells (Compiled.fpva comp));
  (comp_of, !count)

let problem ?(forbidden_valves = []) fpva =
  let comp = Compiled.get fpva in
  let comp_of_cell, num_comps = components comp in
  let comp_of c = comp_of_cell.(Compiled.cell_node comp c) in
  let edges = Vec.create () in
  let valve_edges = Vec.create () in
  let edge_ids = Hashtbl.create 64 in
  let bypassed = ref [] in
  for r = 0 to Fpva.rows fpva - 1 do
    for c = 0 to Fpva.cols fpva - 1 do
      List.iter
        (fun e ->
          if Fpva.edge_in_bounds fpva e
             && Fpva.edge_state fpva e = Fpva.Valve
             && not (List.mem (Fpva.valve_id fpva e) forbidden_valves)
          then begin
            let a, b = Coord.edge_endpoints e in
            if comp_of a = comp_of b then
              bypassed := Fpva.valve_id fpva e :: !bypassed
            else begin
              Hashtbl.replace edge_ids e (Vec.length edges);
              Vec.push edges (comp_of a, comp_of b);
              Vec.push valve_edges e
            end
          end)
        [ Coord.E (Coord.cell r c); Coord.S (Coord.cell r c) ]
    done
  done;
  let prob =
    with_ports fpva ~num_inner:num_comps ~inner_of_cell:comp_of
      ~edges:(Vec.to_array edges)
      ~required:(Array.make (Vec.length edges) true)
  in
  ( prob,
    { compiled = comp;
      comp_of_cell;
      num_comps;
      valve_edges = Vec.to_array valve_edges;
      edge_id_of = Hashtbl.find_opt edge_ids;
      bypassed_valves = List.rev !bypassed } )

let edge_id_of_mapping mapping e = mapping.edge_id_of e

let bypassed_valves mapping = mapping.bypassed_valves

(* The cell route between two cells of one component: a breadth-first
   search over the channel arcs, in compiled arc order. *)
let component_route mapping ~from_cell ~to_cell =
  if from_cell = to_cell then [ from_cell ]
  else begin
    let comp = mapping.compiled in
    let src = Compiled.cell_node comp from_cell
    and dst = Compiled.cell_node comp to_cell in
    let num_cells = Compiled.num_cells comp in
    let off = Compiled.adj_off comp and node = Compiled.adj_node comp
    and edge = Compiled.adj_edge comp in
    let prev = Hashtbl.create 16 in
    let q = Queue.create () in
    Hashtbl.replace prev src src;
    Queue.add src q;
    while (not (Hashtbl.mem prev dst)) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      for k = off.(u) to off.(u + 1) - 1 do
        let v = node.(k) in
        if edge.(k) < 0 && v < num_cells && not (Hashtbl.mem prev v) then begin
          Hashtbl.replace prev v u;
          Queue.add v q
        end
      done
    done;
    if not (Hashtbl.mem prev dst) then
      invalid_arg "Flow_path.component_route: cells not channel-connected";
    let rec back acc u =
      let acc = Compiled.node_cell comp u :: acc in
      if u = src then acc else back acc (Hashtbl.find prev u)
    in
    back [] dst
  end

(* Each valve on the path leaves the component that holds [entry]; the
   channel route from [entry] to the valve's near cell precedes it. *)
let of_problem_path fpva mapping (p : Problem.path) =
  let port n =
    if n >= mapping.num_comps then n - mapping.num_comps
    else invalid_arg "Flow_path.of_problem_path: path ends off a port"
  in
  match p.Problem.nodes with
  | [] -> invalid_arg "Flow_path.of_problem_path: empty path"
  | first :: rest ->
    let source = port first
    and sink = port (List.fold_left (fun _ n -> n) first rest) in
    let cell_of i = Fpva.port_cell fpva (Fpva.ports fpva).(i) in
    let comp_of c =
      mapping.comp_of_cell.(Compiled.cell_node mapping.compiled c)
    in
    let rec walk entry routes = function
      | [] ->
        List.concat
          (List.rev
             (component_route mapping ~from_cell:entry ~to_cell:(cell_of sink)
             :: routes))
      | e :: rest when e >= Array.length mapping.valve_edges ->
        walk entry routes rest
      | e :: rest ->
        let a, b = Coord.edge_endpoints mapping.valve_edges.(e) in
        let near, far = if comp_of a = comp_of entry then (a, b) else (b, a) in
        walk far
          (component_route mapping ~from_cell:entry ~to_cell:near :: routes)
          rest
    in
    of_cells fpva ~source ~sink (walk (cell_of source) [] p.Problem.edges)

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
    let comp c = mapping.comp_of_cell.(Compiled.cell_node mapping.compiled c) in
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
                  let internal_count = Array.length mapping.valve_edges in
                  let nodes =
                    ((mapping.num_comps + s) :: comp_seq)
                    @ [ mapping.num_comps + t ]
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

let generate ?engine ?budget ?stats fpva =
  let ((_, mapping) as instance) = problem fpva in
  let pending = Array.make (Fpva.num_valves fpva) true in
  List.iter (fun v -> pending.(v) <- false) mapping.bypassed_valves;
  let outcome =
    cover ?engine ~seeds:(serpentine_seeds fpva) ?budget ?stats fpva instance
      ~pending
  in
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
