(* Reference implementation of [Graph]'s traversals: the direct
   node-by-node breadth-first walk the compiled CSR form replaced, kept as a
   test oracle.  Every visit re-derives a cell's neighbours from the layout
   (a fresh list, plus a rescan of the ports), the visited sets are plain
   bool arrays, and nothing stops early.  Edge predicates are consulted on
   valve edges only: open channels always pass and walls never do, as in
   the compiled path.  BFS computes a reachability set, so the compiled
   traversals must give exactly the same answers. *)

open Fpva_grid

type node = Cell of Coord.cell | Port of int  (** index into [Fpva.ports] *)

let cell_neighbors t ~open_edge c =
  let step acc d =
    let n = Coord.move c d in
    if Fpva.in_bounds t n && Fpva.cell_state t n = Fpva.Fluid then begin
      let e = Coord.edge_towards c d in
      match Fpva.edge_state t e with
      | Fpva.Wall -> acc
      | Fpva.Open_channel -> Cell n :: acc
      | Fpva.Valve -> if open_edge e then Cell n :: acc else acc
    end
    else acc
  in
  List.fold_left step [] Coord.all_dirs

let ports_of_cell t ports c =
  let out = ref [] in
  Array.iteri
    (fun i p -> if Fpva.port_cell t p = c then out := Port i :: !out)
    ports;
  !out

(* Exhaustive BFS from [from]; returns the visited cells (row-major) and
   ports. *)
let bfs t ~open_edge ~from =
  let nc = Fpva.cols t in
  let ports = Fpva.ports t in
  let seen_cell = Array.make (Fpva.rows t * nc) false in
  let seen_port = Array.make (max (Array.length ports) 1) false in
  let mark = function
    | Cell c ->
      let i = (c.Coord.row * nc) + c.Coord.col in
      let was = seen_cell.(i) in
      seen_cell.(i) <- true;
      was
    | Port i ->
      let was = seen_port.(i) in
      seen_port.(i) <- true;
      was
  in
  let neighbors = function
    | Port i -> [ Cell (Fpva.port_cell t ports.(i)) ]
    | Cell c -> cell_neighbors t ~open_edge c @ ports_of_cell t ports c
  in
  let queue = Queue.create () in
  List.iter (fun n -> if not (mark n) then Queue.add n queue) from;
  while not (Queue.is_empty queue) do
    List.iter
      (fun m -> if not (mark m) then Queue.add m queue)
      (neighbors (Queue.pop queue))
  done;
  (seen_cell, seen_port)

let reachable t ~open_edge ~from n =
  let seen_cell, seen_port = bfs t ~open_edge ~from in
  match n with
  | Cell c -> seen_cell.((c.Coord.row * Fpva.cols t) + c.Coord.col)
  | Port i -> seen_port.(i)

let source_nodes t =
  let out = ref [] in
  Array.iteri
    (fun i p -> if p.Fpva.kind = Fpva.Source then out := Port i :: !out)
    (Fpva.ports t);
  !out

let pressurized_sinks t ~open_edge =
  let _, seen_port = bfs t ~open_edge ~from:(source_nodes t) in
  Array.sub seen_port 0 (Array.length (Fpva.ports t))

let separates t ~closed_edge =
  let pressure = pressurized_sinks t ~open_edge:(fun e -> not (closed_edge e)) in
  let ok = ref true in
  Array.iteri
    (fun i p -> if p.Fpva.kind = Fpva.Sink && pressure.(i) then ok := false)
    (Fpva.ports t);
  !ok

(* Polymorphic wrappers over the compiled traversals: they fetch the
   layout's cached compilation, borrow a scratch and consult the edge
   predicate on valve edges only, as the reference walk does. *)
module Compiled_api = struct
  let pressurized_sinks t ~open_edge =
    let comp = Compiled.get t in
    Compiled.with_scratch comp (fun s ->
        Graph.pressurized_sinks_c comp s ~open_valve:(fun v ->
            open_edge (Compiled.valve_edge comp v)))

  let separates t ~closed_edge =
    let comp = Compiled.get t in
    Compiled.with_scratch comp (fun s ->
        Graph.separates_c comp s ~closed_valve:(fun v ->
            closed_edge (Compiled.valve_edge comp v)))
end

(* The per-valve sweep [Flow_path.tested_valves] and [Flow_path.sound]
   replaced with one bridge search: the path's vector opens exactly its
   valves, and each valve is closed in turn and the whole array swept
   again. *)
let path_states t (path : Fpva_testgen.Flow_path.t) =
  let states = Array.make (Fpva.num_valves t) false in
  List.iter (fun v -> states.(v) <- true) path.Fpva_testgen.Flow_path.valve_ids;
  states

let observation t states =
  pressurized_sinks t ~open_edge:(fun e ->
      match Fpva.valve_id_opt t e with
      | Some vid -> states.(vid)
      | None -> true)

(* The path valves whose closure alone changes what some port sees. *)
let tested_valves t path =
  let states = path_states t path in
  let golden = observation t states in
  List.filter
    (fun v ->
      states.(v) <- false;
      let obs = observation t states in
      states.(v) <- true;
      obs <> golden)
    path.Fpva_testgen.Flow_path.valve_ids

(* The path's sink sees pressure, and closing any one path valve takes it
   away. *)
let sound t path =
  let states = path_states t path in
  let sink = path.Fpva_testgen.Flow_path.sink in
  (observation t states).(sink)
  && List.for_all
       (fun v ->
         states.(v) <- false;
         let alive = (observation t states).(sink) in
         states.(v) <- true;
         not alive)
       path.Fpva_testgen.Flow_path.valve_ids

(* The response to vector [v] under [faults]: the simulator's effective
   valve states, walked by the reference BFS above instead of the compiled
   one — and always walked, with no shortcut for non-deviating reads. *)
let response t ~faults (v : Fpva_testgen.Test_vector.t) =
  let states =
    Fpva_sim.Simulator.effective_states t ~faults
      ~open_valves:v.Fpva_testgen.Test_vector.open_valves
  in
  pressurized_sinks t ~open_edge:(fun e ->
      match Fpva.valve_id_opt t e with
      | Some vid -> states.(vid)
      | None -> true)

(* Does vector [v] detect [faults]? *)
let detects t ~faults (v : Fpva_testgen.Test_vector.t) =
  response t ~faults v <> v.Fpva_testgen.Test_vector.golden
