open Fpva_grid
module Rng = Fpva_util.Rng

type t =
  | Stuck_at_0 of int
  | Stuck_at_1 of int
  | Control_leak of int * int
  | Intermittent of t * float

type fault_class = [ `Stuck_at_0 | `Stuck_at_1 | `Control_leak ]

let class_name = function
  | `Stuck_at_0 -> "sa0"
  | `Stuck_at_1 -> "sa1"
  | `Control_leak -> "leak"

let class_of_name = function
  | "sa0" -> Some `Stuck_at_0
  | "sa1" -> Some `Stuck_at_1
  | "leak" -> Some `Control_leak
  | _ -> None

let equal a b = a = b

let rec pp ppf = function
  | Stuck_at_0 v -> Format.fprintf ppf "SA0(valve %d)" v
  | Stuck_at_1 v -> Format.fprintf ppf "SA1(valve %d)" v
  | Control_leak (a, b) -> Format.fprintf ppf "LEAK(%d->%d)" a b
  | Intermittent (f, p) -> Format.fprintf ppf "INT(%a@@%.2f)" pp f p

let to_string f = Format.asprintf "%a" pp f

let rec valves_involved = function
  | Stuck_at_0 v | Stuck_at_1 v -> [ v ]
  | Control_leak (a, b) -> [ a; b ]
  | Intermittent (f, _) -> valves_involved f

let rec underlying = function
  | Intermittent (f, _) -> underlying f
  | (Stuck_at_0 _ | Stuck_at_1 _ | Control_leak _) as f -> f

let intermittent ~probability f =
  if not (probability >= 0.0 && probability <= 1.0) then
    invalid_arg "Fault.intermittent: probability outside [0,1]";
  Intermittent (f, probability)

(* Only [a]'s two cells can be shared with [b]. *)
let shares_fluid_cell fpva a b =
  let b1, b2 = Coord.edge_endpoints (Fpva.edge_of_valve fpva b) in
  let a1, a2 = Coord.edge_endpoints (Fpva.edge_of_valve fpva a) in
  List.exists
    (fun c -> (c = b1 || c = b2) && Fpva.cell_state fpva c = Fpva.Fluid)
    [ a1; a2 ]

let rec validate fpva f =
  let nv = Fpva.num_valves fpva in
  let ok v = v >= 0 && v < nv in
  match f with
  | (Stuck_at_0 v | Stuck_at_1 v) when not (ok v) ->
    Error
      (Printf.sprintf "%s: valve %d outside [0,%d)" (to_string f) v nv)
  | Stuck_at_0 _ | Stuck_at_1 _ -> Ok ()
  | Control_leak (a, b) when not (ok a && ok b) ->
    Error
      (Printf.sprintf "%s: valve id outside [0,%d)" (to_string f) nv)
  | Control_leak (a, b) when a = b ->
    Error (Printf.sprintf "%s: leak pair must be distinct" (to_string f))
  | Control_leak (a, b) when not (shares_fluid_cell fpva a b) ->
    (* The leak model (and the [adjacent_pairs] table) is defined only
       over control channels meeting at a fluid cell; anything else is a
       physically impossible fault and must be refused, not simulated. *)
    Error
      (Printf.sprintf "%s: valves %d and %d share no fluid cell"
         (to_string f) a b)
  | Control_leak _ -> Ok ()
  | Intermittent (_, p) when not (p >= 0.0 && p <= 1.0) ->
    Error (Printf.sprintf "%s: probability %g outside [0,1]" (to_string f) p)
  | Intermittent (f, _) -> validate fpva f

let is_valid fpva f = Result.is_ok (validate fpva f)

let rec permanent_only = function
  | [] -> true
  | Intermittent _ :: _ -> false
  | (Stuck_at_0 _ | Stuck_at_1 _ | Control_leak _) :: rest ->
    permanent_only rest

let rec resolve_one rng = function
  | Intermittent (f, p) ->
    if p > 0.0 && Rng.float rng 1.0 < p then resolve_one rng f else None
  | (Stuck_at_0 _ | Stuck_at_1 _ | Control_leak _) as f -> Some f

let resolve rng faults =
  (* One activity draw per intermittent wrapper per application; permanent
     faults pass through without consuming randomness so that a fault list
     free of intermittents leaves the stream untouched — and, returned as
     it is, allocates nothing. *)
  if permanent_only faults then faults
  else List.filter_map (resolve_one rng) faults

let random rng fpva =
  let nv = Fpva.num_valves fpva in
  if nv = 0 then invalid_arg "Fault.random: no valves";
  let v = Rng.int rng nv in
  if Rng.bool rng then Stuck_at_0 v else Stuck_at_1 v

(* Control's fluid-adjacency table, cached on the layout's compilation.
   Draws read it back to front: reversed is the order [Rng.pick] has
   always drawn leaks in, so the fault streams are unchanged. *)
let leak_table fpva = Compiled.leak_pairs (Compiled.get fpva)

let adjacent_pairs fpva =
  let pairs = leak_table fpva in
  let n = Array.length pairs in
  Array.init n (fun i -> pairs.(n - 1 - i))

let feasible_classes fpva classes =
  let nv = Fpva.num_valves fpva in
  List.filter
    (function
      | `Stuck_at_0 | `Stuck_at_1 -> nv > 0
      | `Control_leak -> Array.length (leak_table fpva) > 0)
    classes

let random_of_classes rng fpva ~classes =
  match classes with
  | [] -> invalid_arg "Fault.random_of_classes: empty class list"
  | _ :: _ -> (
    (* Draw among the classes this layout can instantiate: substituting a
       different class than requested would silently skew campaign
       statistics (a "Control_leak" draw must never yield a Stuck_at_0). *)
    match feasible_classes fpva classes with
    | [] -> invalid_arg "Fault.random_of_classes: no feasible class"
    | feasible -> (
      let cls = List.nth feasible (Rng.int rng (List.length feasible)) in
      let nv = Fpva.num_valves fpva in
      match cls with
      | `Stuck_at_0 -> Stuck_at_0 (Rng.int rng nv)
      | `Stuck_at_1 -> Stuck_at_1 (Rng.int rng nv)
      | `Control_leak ->
        let pairs = leak_table fpva in
        let n = Array.length pairs in
        let a, b = pairs.(n - 1 - Rng.int rng n) in
        Control_leak (a, b)))

let random_multi rng fpva ~count =
  let nv = Fpva.num_valves fpva in
  if count > nv then invalid_arg "Fault.random_multi: more faults than valves";
  let ids = Rng.sample_without_replacement rng count nv in
  List.map
    (fun v -> if Rng.bool rng then Stuck_at_0 v else Stuck_at_1 v)
    ids
