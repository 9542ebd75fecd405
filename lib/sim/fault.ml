open Fpva_grid
module Rng = Fpva_util.Rng

type t =
  | Stuck_at_0 of int
  | Stuck_at_1 of int
  | Control_leak of int * int
  | Intermittent of t * float

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

(* Valves incident to one fluid cell (the candidate leak neighbourhoods). *)
let incident_valves fpva cell =
  List.filter_map
    (fun d ->
      let e = Coord.edge_towards cell d in
      if Fpva.edge_in_bounds fpva e then Fpva.valve_id_opt fpva e else None)
    Coord.all_dirs

let shares_fluid_cell fpva a b =
  let exception Found in
  try
    for r = 0 to Fpva.rows fpva - 1 do
      for c = 0 to Fpva.cols fpva - 1 do
        let cell = Coord.cell r c in
        if Fpva.cell_state fpva cell = Fpva.Fluid then begin
          let incident = incident_valves fpva cell in
          if List.mem a incident && List.mem b incident then raise Found
        end
      done
    done;
    false
  with Found -> true

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
    (* The leak model (and [adjacent_pairs] generation) is defined only
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

(* Adjacent valve pairs: valves sharing a fluid cell. *)
let adjacent_pairs fpva =
  let out = ref [] in
  for r = 0 to Fpva.rows fpva - 1 do
    for c = 0 to Fpva.cols fpva - 1 do
      let cell = Coord.cell r c in
      if Fpva.cell_state fpva cell = Fpva.Fluid then begin
        let incident = incident_valves fpva cell in
        List.iter
          (fun a ->
            List.iter
              (fun b -> if a <> b then out := (a, b) :: !out)
              incident)
          incident
      end
    done
  done;
  Array.of_list !out

let feasible_classes fpva classes =
  let nv = Fpva.num_valves fpva in
  let has_pairs = lazy (Array.length (adjacent_pairs fpva) > 0) in
  List.filter
    (function
      | `Stuck_at_0 | `Stuck_at_1 -> nv > 0
      | `Control_leak -> Lazy.force has_pairs)
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
        let a, b = Rng.pick rng (adjacent_pairs fpva) in
        Control_leak (a, b)))

let random_multi rng fpva ~count =
  let nv = Fpva.num_valves fpva in
  if count > nv then invalid_arg "Fault.random_multi: more faults than valves";
  let ids = Rng.sample_without_replacement rng count nv in
  List.map
    (fun v -> if Rng.bool rng then Stuck_at_0 v else Stuck_at_1 v)
    ids
