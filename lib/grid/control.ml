type routing = Fluid_adjacency | Row_manifold | Column_manifold

(* Geometry on the doubled grid: a valve site's midpoint has a half-integer
   coordinate; doubling gives integers.  E(r,c) sits at row 2r, column
   2c+1; S(r,c) at row 2r+1, column 2c. *)
let doubled_position fpva v =
  match Fpva.edge_of_valve fpva v with
  | Coord.E c -> ((2 * c.Coord.row), (2 * c.Coord.col) + 1)
  | Coord.S c -> ((2 * c.Coord.row) + 1, (2 * c.Coord.col))

let track fpva routing v =
  match routing with
  | Row_manifold -> fst (doubled_position fpva v)
  | Column_manifold -> snd (doubled_position fpva v)
  | Fluid_adjacency -> invalid_arg "Control.track: Fluid_adjacency"

(* Along-track coordinate: how far from the manifold edge the channel's
   valve sits; the channel occupies the interval [0, extent]. *)
let extent fpva routing v =
  match routing with
  | Row_manifold -> snd (doubled_position fpva v)
  | Column_manifold -> fst (doubled_position fpva v)
  | Fluid_adjacency -> invalid_arg "Control.extent: Fluid_adjacency"

let fluid_pairs fpva =
  let out = ref [] in
  for r = 0 to Fpva.rows fpva - 1 do
    for c = 0 to Fpva.cols fpva - 1 do
      let cell = Coord.cell r c in
      if Fpva.cell_state fpva cell = Fpva.Fluid then begin
        let incident =
          List.filter_map
            (fun d ->
              let e = Coord.edge_towards cell d in
              if Fpva.edge_in_bounds fpva e then Fpva.valve_id_opt fpva e
              else None)
            Coord.all_dirs
        in
        List.iter
          (fun a ->
            List.iter (fun b -> if a <> b then out := (a, b) :: !out) incident)
          incident
      end
    done
  done;
  (* Two distinct valves share at most one cell, so no pair repeats. *)
  List.rev !out

(* Manifold routing: channels in the same or adjacent tracks leak where
   they run side by side — both channels span [0, extent], so two channels
   overlap iff both have positive extent up to the smaller one; with a
   shared manifold edge every pair in neighbouring tracks overlaps near the
   edge.  To keep the model local (and the pair count linear), adjacency is
   limited to channels whose valves are within two doubled units along the
   track: the region where the dedicated segments, not the shared manifold,
   run in parallel. *)
let manifold_pairs fpva routing =
  let nv = Fpva.num_valves fpva in
  let out = ref [] in
  for a = 0 to nv - 1 do
    for b = 0 to nv - 1 do
      if a <> b then begin
        let ta = track fpva routing a and tb = track fpva routing b in
        let ea = extent fpva routing a and eb = extent fpva routing b in
        if abs (ta - tb) <= 1 && abs (ea - eb) <= 2 && min ea eb >= 0 then
          out := (a, b) :: !out
      end
    done
  done;
  List.rev !out

let leak_pairs fpva routing =
  match routing with
  | Fluid_adjacency -> Array.of_list (fluid_pairs fpva)
  | Row_manifold | Column_manifold ->
    Array.of_list (manifold_pairs fpva routing)
