open Fpva_grid
module Vec = Fpva_util.Vec

type t = {
  valves : Coord.edge list;
  valve_ids : int list;
  corners : Dual.corner list;
}

type mapping = {
  corner_of_node : int -> Dual.corner;
  node_of_corner : Dual.corner -> int;
  crossed : Coord.edge array;  (* per dual edge: the primal edge it crosses *)
}

(* Outline arcs: maximal runs of boundary corners between port openings.
   Walking the clockwise corner ring, a new arc starts after every segment
   pierced by a port. *)
let outline_arcs fpva =
  let ring, seg_port = Dual.outline_ports fpva in
  let n = Array.length ring in
  let pierced k = seg_port.(k) <> None in
  (* Find a pierced segment to anchor the walk; if none, the whole ring is
     one arc (degenerate: no ports). *)
  let anchor = ref (-1) in
  for k = 0 to n - 1 do
    if !anchor < 0 && pierced k then anchor := k
  done;
  if !anchor < 0 then [ Array.to_list ring ]
  else begin
    let arcs = ref [] and current = ref [] in
    for off = 1 to n do
      let k = (!anchor + off) mod n in
      current := ring.(k) :: !current;
      if pierced k then begin
        arcs := List.rev !current :: !arcs;
        current := []
      end
    done;
    if !current <> [] then arcs := List.rev !current :: !arcs;
    List.rev !arcs
  end

let problems ?(anti_masking = true) fpva =
  let nr = Fpva.rows fpva and nc = Fpva.cols fpva in
  let num_nodes = (nr + 1) * (nc + 1) in
  let node_of_corner (c : Dual.corner) = (c.Dual.ci * (nc + 1)) + c.Dual.cj in
  let corner_of_node n = Dual.corner (n / (nc + 1)) (n mod (nc + 1)) in
  (* Dual edges: enumerate interior steps once per unordered pair. *)
  let edges = Vec.create () in
  let crossed = Vec.create () in
  let required = Vec.create () in
  let pairc = Vec.create () in
  for ci = 0 to nr do
    for cj = 0 to nc do
      let c = Dual.corner ci cj in
      List.iter
        (fun (n, e) ->
          if Dual.compare_corner c n < 0 then begin
            Vec.push edges (node_of_corner c, node_of_corner n);
            Vec.push crossed e;
            let is_valve = Fpva.edge_state fpva e = Fpva.Valve in
            Vec.push required is_valve;
            Vec.push pairc (anti_masking && is_valve)
          end)
        (Dual.steps fpva c)
    done
  done;
  let terminal = Array.make num_nodes false in
  List.iter
    (fun c -> terminal.(node_of_corner c) <- true)
    (Dual.boundary_corners fpva);
  let mapping = { corner_of_node; node_of_corner; crossed = Vec.to_array crossed } in
  let arcs = outline_arcs fpva in
  let arc_pairs =
    let indexed = List.mapi (fun i a -> (i, a)) arcs in
    List.concat_map
      (fun (i, a) ->
        List.filter_map
          (fun (j, b) ->
            if j <= i then None
            else
              match (a, b) with
              | ca :: _, cb :: _ ->
                if Dual.valid_endpoints fpva ca cb then Some (a, b) else None
              | _, _ -> None)
          indexed)
      indexed
  in
  List.map
    (fun (arc_a, arc_b) ->
      let starts = Array.of_list (List.map node_of_corner arc_a) in
      let ends = Array.of_list (List.map node_of_corner arc_b) in
      let prob =
        Problem.build ~num_nodes ~edges:(Vec.to_array edges)
          ~required:(Vec.to_array required)
          ~pair_constrained:(Vec.to_array pairc) ~terminal ~starts ~ends ()
      in
      (prob, mapping))
    arc_pairs

let crossed_edge_of_mapping mapping de =
  if de >= 0 && de < Array.length mapping.crossed then Some mapping.crossed.(de)
  else None

let of_problem_path fpva mapping (p : Problem.path) =
  let corners = List.map mapping.corner_of_node p.Problem.nodes in
  let valves =
    List.filter
      (fun e -> Fpva.edge_state fpva e = Fpva.Valve)
      (List.map (fun de -> mapping.crossed.(de)) p.Problem.edges)
  in
  let valve_ids = List.filter_map (Fpva.valve_id_opt fpva) valves in
  { valves; valve_ids; corners }

let is_valid fpva cut = Dual.is_cut fpva cut.valves

(* Greedy one-pass irredundant core.  Dropping is monotone: once removing a
   valve breaks separation it stays broken as the cut shrinks further, so a
   single pass leaves every surviving valve essential. *)
let minimize fpva ~drop_first cut =
  let attempt_order =
    let first, second =
      List.partition (fun v -> drop_first v) cut.valve_ids
    in
    first @ second
  in
  let kept = Hashtbl.create 32 in
  List.iter (fun v -> Hashtbl.replace kept v ()) cut.valve_ids;
  List.iter
    (fun v ->
      Hashtbl.remove kept v;
      let closed =
        Hashtbl.fold (fun x () acc -> Fpva.edge_of_valve fpva x :: acc) kept []
      in
      if not (Dual.is_cut fpva closed) then Hashtbl.replace kept v ())
    attempt_order;
  let valve_ids = List.filter (Hashtbl.mem kept) cut.valve_ids in
  let valves = List.map (Fpva.edge_of_valve fpva) valve_ids in
  { valves; valve_ids; corners = cut.corners }

let generate ?(engine = Cover.default_engine) ?anti_masking
    ?(budget = Budget.unlimited) ?stats fpva =
  let specs = problems ?anti_masking fpva in
  let remaining = Array.make (Fpva.num_valves fpva) true in
  let cuts = ref [] in
  let absorb cut =
    List.iter (fun v -> remaining.(v) <- false) cut.valve_ids;
    cuts := cut :: !cuts
  in
  let weight_for mapping =
    Array.map
      (fun e ->
        match Fpva.valve_id_opt fpva e with
        | Some vid when remaining.(vid) -> 1.0
        | Some _ | None -> 0.0)
      mapping.crossed
  in
  (* The irredundant core of a valid cut: only essential valves detect. *)
  let core mapping path =
    let cut = of_problem_path fpva mapping path in
    if is_valid fpva cut then
      Some (minimize fpva ~drop_first:(fun v -> not remaining.(v)) cut)
    else None
  in
  (* Repeatedly extract the cut whose essential core retires the most
     remaining valves.  The coverage loop tracks the {e minimized} cut, not
     the raw dual-path crossings. *)
  List.iter
    (fun (prob, mapping) ->
      Cover.greedy ~budget ?stats engine prob
        ~pending:(fun () -> Array.exists Fun.id remaining)
        ~weight:(fun () -> weight_for mapping)
        ~absorb:(fun path ->
          match core mapping path with
          | Some cut when List.exists (fun v -> remaining.(v)) cut.valve_ids ->
            absorb cut;
            true
          | Some _ | None -> false))
    specs;
  (* Per-valve targeted pass: weight the leftover valve's dual crossing
     heavily in every arc-pair instance before giving up on it.  The
     instances share one dual graph, hence one mapping. *)
  Array.iteri
    (fun vid needed ->
      match specs with
      | (_, mapping) :: _ when needed ->
        let te = Fpva.edge_of_valve fpva vid in
        let attempt (prob, _) =
          let weight = weight_for mapping in
          Array.iteri
            (fun de e -> if e = te then weight.(de) <- 1000.0)
            mapping.crossed;
          (prob, weight, vid + 104729)
        in
        let accept path =
          match core mapping path with
          | Some cut when List.mem vid cut.valve_ids -> Some cut
          | Some _ | None -> None
        in
        Option.iter absorb
          (Cover.targeted ~budget ?stats engine ~accept
             (List.map attempt specs))
      | _ -> ())
    remaining;
  let uncovered = ref [] in
  for v = Array.length remaining - 1 downto 0 do
    if remaining.(v) then uncovered := v :: !uncovered
  done;
  (List.rev !cuts, !uncovered)

let covers_all_valves fpva cuts =
  let seen = Array.make (Fpva.num_valves fpva) false in
  List.iter (fun c -> List.iter (fun v -> seen.(v) <- true) c.valve_ids) cuts;
  Array.for_all (fun b -> b) seen

let pp ppf cut =
  Format.fprintf ppf "@[<h>cut {";
  List.iter (fun e -> Format.fprintf ppf " %a" Coord.pp_edge e) cut.valves;
  Format.fprintf ppf " }@]"
