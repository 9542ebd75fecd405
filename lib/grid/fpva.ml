module Vec = Fpva_util.Vec

type edge_state = Valve | Open_channel | Wall

type cell_state = Fluid | Obstacle

type port_kind = Source | Sink

type port = { side : Coord.dir; offset : int; kind : port_kind }

type derived = ..

type t = {
  rows : int;
  cols : int;
  cells : cell_state array;  (* row-major *)
  east : edge_state array;  (* rows x (cols-1): E(r,c) at r*(cols-1)+c *)
  south : edge_state array;  (* (rows-1) x cols: S(r,c) at r*cols+c *)
  ports : port Vec.t;
  mutable valve_cache : (Coord.edge array * (Coord.edge, int) Hashtbl.t) option;
  mutable derived_cache : derived option;
}

let create ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Fpva.create";
  {
    rows;
    cols;
    cells = Array.make (rows * cols) Fluid;
    east = Array.make (rows * max 0 (cols - 1)) Valve;
    south = Array.make (max 0 (rows - 1) * cols) Valve;
    ports = Vec.create ();
    valve_cache = None;
    derived_cache = None;
  }

let derived t = t.derived_cache

let set_derived t d = t.derived_cache <- d

let rows t = t.rows

let cols t = t.cols

let in_bounds t (c : Coord.cell) =
  c.row >= 0 && c.row < t.rows && c.col >= 0 && c.col < t.cols

let edge_in_bounds t e =
  let a, b = Coord.edge_endpoints e in
  in_bounds t a && in_bounds t b

let cell_index t (c : Coord.cell) = (c.row * t.cols) + c.col

let cell_state t c =
  if not (in_bounds t c) then invalid_arg "Fpva.cell_state";
  t.cells.(cell_index t c)

let edge_slot t = function
  | Coord.E c -> (t.east, (c.row * (t.cols - 1)) + c.col)
  | Coord.S c -> (t.south, (c.row * t.cols) + c.col)

let edge_state t e =
  if not (edge_in_bounds t e) then invalid_arg "Fpva.edge_state";
  let arr, i = edge_slot t e in
  arr.(i)

let set_edge t e st =
  if not (edge_in_bounds t e) then invalid_arg "Fpva.set_edge";
  let a, b = Coord.edge_endpoints e in
  if cell_state t a = Obstacle || cell_state t b = Obstacle then
    invalid_arg "Fpva.set_edge: edge touches an obstacle (permanently Wall)";
  let arr, i = edge_slot t e in
  arr.(i) <- st;
  t.valve_cache <- None;
  t.derived_cache <- None

let set_obstacle t c =
  if not (in_bounds t c) then invalid_arg "Fpva.set_obstacle";
  t.cells.(cell_index t c) <- Obstacle;
  let seal d =
    let e = Coord.edge_towards c d in
    if edge_in_bounds t e then begin
      let arr, i = edge_slot t e in
      arr.(i) <- Wall
    end
  in
  List.iter seal Coord.all_dirs;
  t.valve_cache <- None;
  t.derived_cache <- None

let port_cell t p =
  match p.side with
  | Coord.North -> Coord.cell 0 p.offset
  | Coord.South -> Coord.cell (t.rows - 1) p.offset
  | Coord.West -> Coord.cell p.offset 0
  | Coord.East -> Coord.cell p.offset (t.cols - 1)

let add_port t p =
  let c = port_cell t p in
  if not (in_bounds t c) then invalid_arg "Fpva.add_port: off chip";
  if cell_state t c = Obstacle then
    invalid_arg "Fpva.add_port: port cell is an obstacle";
  if Vec.exists (fun q -> q = p) t.ports then
    invalid_arg "Fpva.add_port: duplicate port";
  Vec.push t.ports p;
  (* Ports add graph nodes even though the valve numbering is untouched. *)
  t.derived_cache <- None

let ports t = Vec.to_array t.ports

let filter_ports t kind =
  Array.of_list
    (List.filter (fun p -> p.kind = kind) (Vec.to_list t.ports))

let sources t = filter_ports t Source

let sinks t = filter_ports t Sink

let all_edges t =
  let out = Vec.create () in
  for r = 0 to t.rows - 1 do
    for c = 0 to t.cols - 2 do
      Vec.push out (Coord.E (Coord.cell r c))
    done
  done;
  for r = 0 to t.rows - 2 do
    for c = 0 to t.cols - 1 do
      Vec.push out (Coord.S (Coord.cell r c))
    done
  done;
  Vec.to_array out

let valve_tables t =
  match t.valve_cache with
  | Some tables -> tables
  | None ->
    let edges =
      Array.of_list
        (List.filter
           (fun e -> edge_state t e = Valve)
           (Array.to_list (all_edges t)))
    in
    let index = Hashtbl.create (Array.length edges) in
    Array.iteri (fun i e -> Hashtbl.replace index e i) edges;
    t.valve_cache <- Some (edges, index);
    (edges, index)

let valves t = fst (valve_tables t)

let num_valves t = Array.length (valves t)

let valve_id t e =
  let _, index = valve_tables t in
  match Hashtbl.find_opt index e with
  | Some i -> i
  | None -> raise Not_found

let valve_id_opt t e =
  let _, index = valve_tables t in
  Hashtbl.find_opt index e

let edge_of_valve t i =
  let edges = valves t in
  if i < 0 || i >= Array.length edges then invalid_arg "Fpva.edge_of_valve";
  edges.(i)

let fluid_cells t =
  let out = ref [] in
  for r = t.rows - 1 downto 0 do
    for c = t.cols - 1 downto 0 do
      let cell = Coord.cell r c in
      if cell_state t cell = Fluid then out := cell :: !out
    done
  done;
  !out

(* Flood fill through non-Wall edges starting from the port cells. *)
let reachable_with_all_open t =
  let seen = Array.make (t.rows * t.cols) false in
  let stack = ref [] in
  Vec.iter
    (fun p ->
      let c = port_cell t p in
      if not seen.(cell_index t c) then begin
        seen.(cell_index t c) <- true;
        stack := c :: !stack
      end)
    t.ports;
  let rec loop () =
    match !stack with
    | [] -> ()
    | c :: rest ->
      stack := rest;
      let visit d =
        let n = Coord.move c d in
        if in_bounds t n && cell_state t n = Fluid
           && not seen.(cell_index t n)
        then begin
          let e = Coord.edge_towards c d in
          match edge_state t e with
          | Valve | Open_channel ->
            seen.(cell_index t n) <- true;
            stack := n :: !stack
          | Wall -> ()
        end
      in
      List.iter visit Coord.all_dirs;
      loop ()
  in
  loop ();
  seen

let validate t =
  (* [add_port] refuses an obstacle cell, but [set_obstacle] may come
     later. *)
  let blocked =
    List.find_opt
      (fun p -> cell_state t (port_cell t p) = Obstacle)
      (Vec.to_list t.ports)
  in
  if Array.length (sources t) = 0 then Error "no source port"
  else if Array.length (sinks t) = 0 then Error "no sink port"
  else
    match blocked with
    | Some p ->
      Error
        (Printf.sprintf "port cell %s is an obstacle"
           (Coord.cell_to_string (port_cell t p)))
    | None -> (
      let seen = reachable_with_all_open t in
      let orphan = ref None in
      List.iter
        (fun c -> if not seen.(cell_index t c) then orphan := Some c)
        (fluid_cells t);
      match !orphan with
      | Some c ->
        Error
          (Printf.sprintf "fluid cell %s unreachable from any port"
             (Coord.cell_to_string c))
      | None -> Ok ())

let copy t =
  {
    rows = t.rows;
    cols = t.cols;
    cells = Array.copy t.cells;
    east = Array.copy t.east;
    south = Array.copy t.south;
    ports = Vec.copy t.ports;
    valve_cache = None;
    derived_cache = None;
  }
