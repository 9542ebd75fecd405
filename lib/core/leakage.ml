open Fpva_grid
module Trace = Fpva_util.Trace

let dead_end_c = Trace.counter "leakage.dead_end_pairs"

let on_path_set fpva (path : Flow_path.t) =
  let set = Array.make (Fpva.num_valves fpva) false in
  List.iter (fun v -> set.(v) <- true) path.Flow_path.valve_ids;
  set

(* The victim must not merely sit on the path: its closure must flip the
   observation (tested_valves), otherwise the leak would go unnoticed. *)
let tested_set fpva path =
  let set = Array.make (Fpva.num_valves fpva) false in
  List.iter (fun v -> set.(v) <- true) (Flow_path.tested_valves fpva path);
  set

let exercised_by fpva path (a, b) =
  let on = on_path_set fpva path in
  (not on.(a)) && (tested_set fpva path).(b)

let residual_after fpva pairs paths =
  let remaining = Hashtbl.create 256 in
  Array.iter (fun p -> Hashtbl.replace remaining p ()) pairs;
  List.iter
    (fun path ->
      let on = on_path_set fpva path in
      let tested = tested_set fpva path in
      Array.iter
        (fun (a, b) ->
          if tested.(b) && not on.(a) then Hashtbl.remove remaining (a, b))
        pairs)
    paths;
  List.filter (fun p -> Hashtbl.mem remaining p) (Array.to_list pairs)

let residual_pairs fpva ~existing =
  residual_after fpva (Control.leak_pairs fpva Control.Fluid_adjacency)
    existing

(* The edge of victim [b] in [prob], the flow-path instance with its
   aggressor removed from the graph (held closed), unless no path can
   carry it: [b] has no edge there, or its edge is on a dead end (at a
   corner cell, say, whose only other valve is the aggressor). *)
let victim_edge fpva prob mapping b =
  match Flow_path.edge_id_of_mapping mapping (Fpva.edge_of_valve fpva b) with
  | Some e when not (Problem.dead_end prob e) -> Some e
  | Some _ | None -> None

let dead_end fpva (a, b) =
  let prob, mapping = Flow_path.problem ~forbidden_valves:[ a ] fpva in
  victim_edge fpva prob mapping b = None

(* One attempt: a flow path that must include victim [b] while aggressor [a]
   is held closed.  Unit weights on the other residual victims make a
   single vector retire many pairs.  A pair no path can carry is rejected
   without a search: no path the engine could return exercises it. *)
let attempt ?budget ?stats engine fpva remaining (a, b) =
  let prob, mapping = Flow_path.problem ~forbidden_valves:[ a ] fpva in
  match victim_edge fpva prob mapping b with
  | None ->
    Trace.incr dead_end_c;
    None
  | Some eb -> (
    let weight = Array.make prob.Problem.num_edges 0.0 in
    let edge_id_of_valve vid =
      Flow_path.edge_id_of_mapping mapping (Fpva.edge_of_valve fpva vid)
    in
    List.iter
      (fun (_, vict) ->
        match edge_id_of_valve vict with
        | Some e -> weight.(e) <- max weight.(e) 1.0
        | None -> ())
      remaining;
    weight.(eb) <- 1000.0;
    let found = Cover.find_robust ?budget ?stats engine prob ~weight in
    match found with
    | None -> None
    | Some p ->
      let path = Flow_path.of_problem_path fpva mapping p in
      if (tested_set fpva path).(b) then Some path else None)

let generate ?(engine = Cover.default_engine) ?pairs
    ?(budget = Budget.unlimited) ?stats fpva ~existing =
  let pairs =
    match pairs with
    | Some ps -> ps
    | None -> Control.leak_pairs fpva Control.Fluid_adjacency
  in
  let remaining = ref (residual_after fpva pairs existing) in
  let impossible = ref [] in
  let unattempted = ref [] in
  let added = ref [] in
  let rec loop () =
    match !remaining with
    | [] -> ()
    | _ when Budget.exhausted budget ->
      (* Out of time: the rest of the residual pairs stay unattempted.  They
         are reported alongside the unexercisable ones (after the incidental
         recompute below) — conservatively "not exercised by this suite". *)
      (match stats with
      | Some s -> s.Cover.budget_hits <- s.Cover.budget_hits + 1
      | None -> ());
      unattempted := !remaining;
      remaining := []
    | ((a, b) as pair) :: rest -> (
      match attempt ~budget ?stats engine fpva !remaining pair with
      | None ->
        impossible := pair :: !impossible;
        remaining := rest;
        loop ()
      | Some path ->
        added := path :: !added;
        let on = on_path_set fpva path in
        let tested = tested_set fpva path in
        assert (tested.(b) && not on.(a));
        remaining :=
          List.filter
            (fun (x, y) -> not (tested.(y) && not on.(x)))
            !remaining;
        loop ())
  in
  loop ();
  (* A pair declared impossible earlier may have been exercised incidentally
     by a later path; the final verdict is recomputed over the whole set. *)
  let final_paths = existing @ List.rev !added in
  (* Precompute the per-path sets once: doing it per (pair, path) re-derives
     the observation set thousands of times on large arrays. *)
  let sets =
    List.map (fun p -> (on_path_set fpva p, tested_set fpva p)) final_paths
  in
  let unexercisable =
    List.filter
      (fun (a, b) ->
        not (List.exists (fun (on, tested) -> tested.(b) && not on.(a)) sets))
      (List.rev !impossible @ !unattempted)
  in
  (List.rev !added, unexercisable)
