type corner = { ci : int; cj : int }

let corner ci cj = { ci; cj }

let compare_corner a b =
  match compare a.ci b.ci with 0 -> compare a.cj b.cj | n -> n

let corner_in_bounds t c =
  c.ci >= 0 && c.ci <= Fpva.rows t && c.cj >= 0 && c.cj <= Fpva.cols t

let is_boundary_corner t c =
  corner_in_bounds t c
  && (c.ci = 0 || c.ci = Fpva.rows t || c.cj = 0 || c.cj = Fpva.cols t)

(* Segment (i,j)-(i+1,j) is vertical: it crosses the primal edge between
   cells (i,j-1) and (i,j) when 0 < j < cols.  Segment (i,j)-(i,j+1) is
   horizontal: it crosses the edge between cells (i-1,j) and (i,j) when
   0 < i < rows. *)
let crossed_edge t a b =
  let da = b.ci - a.ci and dj = b.cj - a.cj in
  match (da, dj) with
  | (1, 0) | (-1, 0) ->
    let i = min a.ci b.ci and j = a.cj in
    if j > 0 && j < Fpva.cols t then Some (Coord.E (Coord.cell i (j - 1)))
    else None
  | (0, 1) | (0, -1) ->
    let i = a.ci and j = min a.cj b.cj in
    if i > 0 && i < Fpva.rows t then Some (Coord.S (Coord.cell (i - 1) j))
    else None
  | _ -> invalid_arg "Dual.crossed_edge: corners not adjacent"

let steps t c =
  let candidates =
    [ { c with ci = c.ci + 1 }; { c with ci = c.ci - 1 };
      { c with cj = c.cj + 1 }; { c with cj = c.cj - 1 } ]
  in
  List.filter_map
    (fun n ->
      if not (corner_in_bounds t n) then None
      else
        match crossed_edge t c n with
        | None -> None (* outline segment *)
        | Some e -> (
          match Fpva.edge_state t e with
          | Fpva.Valve | Fpva.Wall -> Some (n, e)
          | Fpva.Open_channel -> None))
    candidates

let boundary_corners t =
  let nr = Fpva.rows t and nc = Fpva.cols t in
  let north = List.init (nc + 1) (fun j -> corner 0 j) in
  let east = List.init nr (fun k -> corner (k + 1) nc) in
  let south = List.init nc (fun k -> corner nr (nc - 1 - k)) in
  let west = List.init (nr - 1) (fun k -> corner (nr - 1 - k) 0) in
  north @ east @ south @ west

(* The outline segment between consecutive boundary corners k and k+1 may be
   pierced by a port; classify each segment by the port kind (if any). *)
let outline_ports t =
  let ring = Array.of_list (boundary_corners t) in
  let n = Array.length ring in
  let seg_port = Array.make n None in
  let nr = Fpva.rows t and nc = Fpva.cols t in
  Array.iter
    (fun (p : Fpva.port) ->
      let cell = Fpva.port_cell t p in
      (* The outline segment a port pierces, as its two corner endpoints. *)
      let c1, c2 =
        match p.Fpva.side with
        | Coord.North -> (corner 0 cell.Coord.col, corner 0 (cell.Coord.col + 1))
        | Coord.South ->
          (corner nr cell.Coord.col, corner nr (cell.Coord.col + 1))
        | Coord.West -> (corner cell.Coord.row 0, corner (cell.Coord.row + 1) 0)
        | Coord.East ->
          (corner cell.Coord.row nc, corner (cell.Coord.row + 1) nc)
      in
      for k = 0 to n - 1 do
        let a = ring.(k) and b = ring.((k + 1) mod n) in
        if (a = c1 && b = c2) || (a = c2 && b = c1) then
          seg_port.(k) <- Some p.Fpva.kind
      done)
    (Fpva.ports t);
  (ring, seg_port)

let valid_endpoints t a b =
  if not (is_boundary_corner t a && is_boundary_corner t b) then false
  else if a = b then false
  else begin
    let ring, seg_port = outline_ports t in
    let n = Array.length ring in
    let pos c =
      let rec find k = if ring.(k) = c then k else find (k + 1) in
      find 0
    in
    let pa = pos a and pb = pos b in
    (* Segments strictly between a and b walking clockwise. *)
    let collect from until =
      let rec walk k acc =
        if k = until then acc
        else
          let acc =
            match seg_port.(k) with Some kind -> kind :: acc | None -> acc
          in
          walk ((k + 1) mod n) acc
      in
      walk from []
    in
    let s1 = collect pa pb and s2 = collect pb pa in
    let all kind l = List.for_all (fun k -> k = kind) l in
    s1 <> [] && s2 <> []
    && ((all Fpva.Source s1 && all Fpva.Sink s2)
       || (all Fpva.Sink s1 && all Fpva.Source s2))
  end

let cut_of_corner_path t path =
  let rec walk acc = function
    | [] | [ _ ] -> List.rev acc
    | a :: (b :: _ as rest) -> (
      match crossed_edge t a b with
      | None -> invalid_arg "Dual.cut_of_corner_path: outline segment"
      | Some e -> (
        match Fpva.edge_state t e with
        | Fpva.Valve -> walk (e :: acc) rest
        | Fpva.Wall -> walk acc rest
        | Fpva.Open_channel ->
          invalid_arg "Dual.cut_of_corner_path: crosses an open channel"))
  in
  walk [] path

let is_cut t closed =
  (* Closing a non-valve edge is a no-op in the graph view (only valve
     edges consult the predicate), so stamping the closed valves' ids
     into the scratch loses nothing. *)
  let comp = Compiled.get t in
  Compiled.with_scratch comp (fun s ->
      Compiled.extend_scratch comp s;
      let marks = s.Compiled.marks in
      let g = s.Compiled.mark_gen + 1 in
      s.Compiled.mark_gen <- g;
      List.iter
        (fun e ->
          match Fpva.valve_id_opt t e with
          | Some v -> marks.(v) <- g
          | None -> ())
        closed;
      Graph.separates_c comp s ~closed_valve:(fun v -> marks.(v) = g))
