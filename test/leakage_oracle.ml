(* Reference for [Leakage.generate]: its attempt loop without the up-front
   rejection of pairs no path can carry.  Every residual pair goes to the
   engine, which is asked for a path through the victim while the
   aggressor is held closed; a pair whose best path does not test its
   victim joins the impossible list.  The final verdict is recomputed over
   every path, since a later path may exercise an earlier impossible pair
   incidentally.  Unbudgeted, so no pair is left unattempted. *)

open Fpva_grid
open Fpva_testgen

(* The path's open valves and the valves its vector tests. *)
let sets t (path : Flow_path.t) =
  let nv = Fpva.num_valves t in
  let on = Array.make nv false and tested = Array.make nv false in
  List.iter (fun v -> on.(v) <- true) path.Flow_path.valve_ids;
  List.iter (fun v -> tested.(v) <- true) (Flow_path.tested_valves t path);
  (on, tested)

let exercises (on, tested) (a, b) = tested.(b) && not on.(a)

let attempt engine t remaining (a, b) =
  let prob, mapping = Flow_path.problem ~forbidden_valves:[ a ] t in
  let edge_of v =
    Flow_path.edge_id_of_mapping mapping (Fpva.edge_of_valve t v)
  in
  let weight = Array.make prob.Problem.num_edges 0.0 in
  List.iter
    (fun (_, victim) ->
      match edge_of victim with
      | Some e -> weight.(e) <- Float.max weight.(e) 1.0
      | None -> ())
    remaining;
  (match edge_of b with Some e -> weight.(e) <- 1000.0 | None -> ());
  match Cover.find_robust engine prob ~weight with
  | None -> None
  | Some p ->
    let path = Flow_path.of_problem_path t mapping p in
    if (snd (sets t path)).(b) then Some path else None

let generate ?(engine = Cover.default_engine) t ~existing =
  let pairs = Control.leak_pairs t Control.Fluid_adjacency in
  let exercised_by paths =
    let all = List.map (sets t) paths in
    fun pair -> List.exists (fun s -> exercises s pair) all
  in
  let done_before = exercised_by existing in
  let rec loop remaining impossible added =
    match remaining with
    | [] -> (List.rev added, List.rev impossible)
    | pair :: rest -> (
      match attempt engine t remaining pair with
      | None -> loop rest (pair :: impossible) added
      | Some path ->
        let s = sets t path in
        loop
          (List.filter (fun pr -> not (exercises s pr)) remaining)
          impossible (path :: added))
  in
  let added, impossible =
    loop
      (List.filter (fun pr -> not (done_before pr)) (Array.to_list pairs))
      [] []
  in
  let done_after = exercised_by (existing @ added) in
  (added, List.filter (fun pr -> not (done_after pr)) impossible)
