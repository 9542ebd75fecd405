(* Reference implementation of [Path_search.find]: the list-based search the
   CSR kernel replaced, kept as a test oracle.  It walks [(neighbour, edge)]
   lists rebuilt from [edge_ends] in [Problem.build]'s order (per node,
   descending edge id), builds each depth's candidates as a list of
   [(key, node, edge)] tuples and orders them with [List.sort compare].
   The kernel must make the same draws, in the same order, and spend the
   same steps, so both return structurally equal results.  [find] returns
   the path with the steps and dives it spent, the figures the kernel adds
   to its Trace counters. *)

open Fpva_testgen
module Rng = Fpva_util.Rng

type best = {
  mutable score : float;
  mutable nodes : int list;
  mutable edges : int list;
  mutable found : bool;
}

exception Out_of_budget

exception Abort_dive

let adjacency (p : Problem.t) =
  let adj = Array.make p.num_nodes [] in
  Array.iteri
    (fun e (a, b) ->
      adj.(a) <- (b, e) :: adj.(a);
      adj.(b) <- (a, e) :: adj.(b))
    p.edge_ends;
  adj

let bfs_route (p : Problem.t) adj rng ~src ~is_goal ~blocked =
  let prev = Array.make p.num_nodes (-2) in
  let via = Array.make p.num_nodes (-1) in
  let q = Queue.create () in
  prev.(src) <- -1;
  Queue.add src q;
  let goal = ref None in
  while !goal = None && not (Queue.is_empty q) do
    let x = Queue.pop q in
    if is_goal x then goal := Some x
    else begin
      let neighbors = Array.of_list adj.(x) in
      Rng.shuffle_in_place rng neighbors;
      Array.iter
        (fun (y, e) ->
          if prev.(y) = -2 && (not blocked.(y))
             && ((not p.terminal.(y)) || is_goal y)
          then begin
            prev.(y) <- x;
            via.(y) <- e;
            Queue.add y q
          end)
        neighbors
    end
  done;
  match !goal with
  | None -> None
  | Some g ->
    let rec back nodes edges x =
      if x = src then (x :: nodes, edges)
      else back (x :: nodes) (via.(x) :: edges) prev.(x)
    in
    Some (back [] [] g)

let through (p : Problem.t) adj rng ~edge ~attempts =
  let a, b = p.edge_ends.(edge) in
  let starts = Array.copy p.starts and ends = Array.copy p.ends in
  let try_once () =
    let s = starts.(Rng.int rng (Array.length starts)) in
    let x, y = if Rng.bool rng then (a, b) else (b, a) in
    if p.terminal.(x) || p.terminal.(y) then None
    else begin
      let blocked = Array.make p.num_nodes false in
      blocked.(y) <- true;
      match bfs_route p adj rng ~src:s ~is_goal:(fun n -> n = x) ~blocked with
      | None -> None
      | Some (nodes1, edges1) ->
        let blocked = Array.make p.num_nodes false in
        List.iter (fun n -> blocked.(n) <- true) nodes1;
        let valid_end n = Array.exists (fun t -> t = n) ends in
        (match bfs_route p adj rng ~src:y ~is_goal:valid_end ~blocked with
        | None -> None
        | Some (nodes2, edges2) ->
          let nodes = nodes1 @ nodes2 in
          let edges = edges1 @ (edge :: edges2) in
          let path = { Problem.nodes; edges } in
          (match Problem.path_ok p path with
          | Ok () -> Some path
          | Error _ -> None))
    end
  in
  let rec loop k = if k <= 0 then None else
    match try_once () with Some path -> Some path | None -> loop (k - 1)
  in
  loop attempts

let find ?(params = Path_search.default_params) (p : Problem.t) ~weight =
  let adj = adjacency p in
  let rng = Rng.create params.Path_search.seed in
  let budget = ref params.Path_search.step_budget in
  let dives = ref 0 in
  let best = { score = neg_infinity; nodes = []; edges = []; found = false } in
  let total_weight = Array.fold_left ( +. ) 0.0 weight in
  let perfect = ref false in
  let score_of edges = List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 edges in
  let offer (path : Problem.path) =
    let score = score_of path.Problem.edges in
    if
      score > best.score +. 1e-9
      || (not best.found)
      || (abs_float (score -. best.score) <= 1e-9
         && best.found
         && List.length path.Problem.nodes < List.length best.nodes)
    then begin
      best.score <- score;
      best.nodes <- path.Problem.nodes;
      best.edges <- path.Problem.edges;
      best.found <- true;
      if score >= total_weight -. 1e-9 then perfect := true
    end
  in
  let heavy =
    let idx = Array.init p.num_edges (fun e -> e) in
    Array.sort (fun e f -> compare weight.(f) weight.(e)) idx;
    let out = ref [] in
    Array.iteri (fun k e -> if k < 3 && weight.(e) > 0.0 then out := e :: !out) idx;
    List.rev !out
  in
  List.iter
    (fun e ->
      match through p adj rng ~edge:e ~attempts:12 with
      | Some path -> offer path
      | None -> ())
    heavy;
  let visited = Array.make p.num_nodes false in
  let node_stack = ref [] and edge_stack = ref [] in
  let path_len = ref 0 in
  let backtracks = ref 0 in
  let is_end = Array.make p.num_nodes false in
  Array.iter (fun n -> is_end.(n) <- true) p.ends;
  let masking_ok x f =
    List.for_all
      (fun (y, e) -> (not p.pair_constrained.(e)) || e = f || not visited.(y))
      adj.(x)
  in
  let record final final_edge score =
    if is_end.(final) && (not visited.(final))
       && masking_ok final final_edge
       && (score > best.score +. 1e-9
          || (not best.found)
          || (abs_float (score -. best.score) <= 1e-9
             && best.found
             && !path_len + 1 < List.length best.nodes))
    then begin
      best.score <- score;
      best.nodes <- List.rev (final :: !node_stack);
      best.edges <- List.rev (final_edge :: !edge_stack);
      best.found <- true;
      if score >= total_weight -. 1e-9 then perfect := true
    end
  in
  let unvisited_degree x =
    List.fold_left (fun acc (y, _) -> if visited.(y) then acc else acc + 1) 0 adj.(x)
  in
  let rec explore score =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    let current = List.hd !node_stack in
    List.iter
      (fun (y, e) -> if not !perfect then record y e (score +. weight.(e)))
      adj.(current);
    if not !perfect then begin
      let cands =
        List.filter_map
          (fun (y, e) ->
            if visited.(y) || p.terminal.(y) then None
            else if not (masking_ok y e) then None
            else begin
              let key =
                (-.weight.(e) *. 1024.0)
                +. float_of_int (unvisited_degree y)
                +. Rng.float rng 0.5
              in
              Some (key, y, e)
            end)
          adj.(current)
      in
      let cands = List.sort (fun (a, _, _) (b, _, _) -> compare a b) cands in
      let step (_, y, e) =
        if not !perfect then begin
          visited.(y) <- true;
          node_stack := y :: !node_stack;
          edge_stack := e :: !edge_stack;
          incr path_len;
          explore (score +. weight.(e));
          visited.(y) <- false;
          node_stack := List.tl !node_stack;
          edge_stack := List.tl !edge_stack;
          decr path_len;
          decr backtracks;
          if !backtracks < 0 then raise Abort_dive
        end
      in
      List.iter step cands
    end
  in
  let dive start =
    incr dives;
    Array.fill visited 0 p.num_nodes false;
    visited.(start) <- true;
    node_stack := [ start ];
    edge_stack := [];
    path_len := 1;
    backtracks := 16 + (p.num_nodes / 8);
    try explore 0.0 with Abort_dive -> ()
  in
  (try
     let starts = Array.copy p.starts in
     while not !perfect && !budget > 0 do
       Rng.shuffle_in_place rng starts;
       Array.iter (fun s -> if not !perfect then dive s) starts
     done
   with Out_of_budget -> ());
  let path =
    if best.found then Some { Problem.nodes = best.nodes; edges = best.edges }
    else None
  in
  (path, params.Path_search.step_budget - !budget, !dives)
