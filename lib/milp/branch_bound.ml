module Trace = Fpva_util.Trace
module Timer = Fpva_util.Timer

let solves_c = Trace.counter "bb.solves"
let nodes_c = Trace.counter "bb.nodes"
let prunes_c = Trace.counter "bb.prunes"
let incumbents_c = Trace.counter "bb.incumbents"
let truncations_c = Trace.counter "bb.truncations"

type options = {
  max_nodes : int;
  time_limit : float;
  presolve : bool;
  lp_iteration_limit : int option;
}

let default_options =
  { max_nodes = 200_000; time_limit = infinity; presolve = true;
    lp_iteration_limit = None }

type outcome =
  | Optimal of Simplex.solution
  | Feasible of Simplex.solution
  | Infeasible
  | Unbounded
  | Unknown

(* A value this close to an integer counts as integral. *)
let integrality_eps = 1e-6

type node = { lower : float array; upper : float array; depth : int }

(* Most-fractional branching: the integer variable whose LP value is closest
   to .5 splits the domain most evenly; -1 when every one is integral. *)
let pick_branch_var lp values =
  let best = ref (-1) and best_score = ref 0.0 in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_index lp j in
    if Lp.is_integral_kind (Lp.var_kind lp v) then begin
      let x = values.(j) in
      let frac = x -. Float.round x in
      if abs_float frac > integrality_eps then begin
        let score = abs_float (abs_float frac -. 0.5) in
        if !best < 0 || not (!best_score <= score) then begin
          best := j;
          best_score := score
        end
      end
    end
  done;
  !best

(* Rounding heuristic: snap integer variables to the nearest integer inside
   their node bounds and accept the point if it satisfies the full model. *)
let try_rounding lp node values =
  let x = Array.copy values in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_index lp j in
    if Lp.is_integral_kind (Lp.var_kind lp v) then begin
      let r = Float.round x.(j) in
      let r = max node.lower.(j) (min node.upper.(j) r) in
      x.(j) <- r
    end
  done;
  if Lp.check_feasible lp x then Some x else None

let better sense a b =
  match sense with Lp.Minimize -> a < b -. 1e-9 | Lp.Maximize -> a > b +. 1e-9

let bound_allows_improvement sense lp_obj incumbent_obj =
  match sense with
  | Lp.Minimize -> lp_obj < incumbent_obj -. 1e-9
  | Lp.Maximize -> lp_obj > incumbent_obj +. 1e-9

let solve ?(options = default_options) lp =
  let sense = Lp.sense lp in
  match
    if options.presolve then Presolve.bounds lp
    else
      let lower, upper = Lp.bounds lp in
      Presolve.Tightened { lower; upper; rounds = 0; fixed = 0 }
  with
  | Presolve.Proven_infeasible -> Infeasible
  | Presolve.Tightened { lower = root_lower; upper = root_upper; _ } ->
  let incumbent = ref None in
  let incumbent_obj = ref (match sense with Lp.Minimize -> infinity | Lp.Maximize -> neg_infinity) in
  let accept x =
    let obj = Lp.objective_value lp x in
    if better sense obj !incumbent_obj then begin
      Trace.incr incumbents_c;
      incumbent := Some { Simplex.objective = obj; values = x };
      incumbent_obj := obj
    end
  in
  let stack = ref [ { lower = root_lower; upper = root_upper; depth = 0 } ] in
  let nodes = ref 0 in
  let truncated = ref false in
  let root_unbounded = ref false in
  let deadline =
    if options.time_limit = infinity then infinity
    else Fpva_util.Timer.now () +. options.time_limit
  in
  let relaxation = Simplex.prepare lp in
  let rec loop () =
    match !stack with
    | [] -> ()
    | node :: rest ->
      stack := rest;
      if !nodes >= options.max_nodes || Fpva_util.Timer.now () > deadline then
        truncated := true
      else begin
        incr nodes;
        Trace.incr nodes_c;
        (match
           Simplex.solve_prepared ?max_iters:options.lp_iteration_limit
             ~deadline relaxation ~lower:node.lower ~upper:node.upper
         with
        | Simplex.Infeasible -> ()
        | Simplex.Iteration_limit ->
          (* The pivot cap or the deadline stopped the node LP.  Cannot
             trust the node; treating it as unexplored keeps the result
             sound (we only lose the optimality proof). *)
          truncated := true
        | Simplex.Unbounded ->
          (* With an incumbent-free root this means the MILP itself may be
             unbounded (integrality cannot bound a polyhedral ray built from
             continuous vars alone, and with integers it is still unbounded
             in the cases our models produce). *)
          if node.depth = 0 then root_unbounded := true else truncated := true
        | Simplex.Optimal sol ->
          let prune =
            !incumbent <> None
            && not (bound_allows_improvement sense sol.objective !incumbent_obj)
          in
          if prune then Trace.incr prunes_c
          else begin
            match pick_branch_var lp sol.values with
            | -1 -> accept sol.values
            | j ->
              (match try_rounding lp node sol.values with
              | Some x -> accept x
              | None -> ());
              (* Re-test the prune after a possible new incumbent. *)
              if
                !incumbent = None
                || bound_allows_improvement sense sol.objective !incumbent_obj
              then begin
                let x = sol.values.(j) in
                let fl = floor x and ce = ceil x in
                let down =
                  let upper = Array.copy node.upper in
                  upper.(j) <- fl;
                  { lower = node.lower; upper; depth = node.depth + 1 }
                in
                let up =
                  let lower = Array.copy node.lower in
                  lower.(j) <- ce;
                  { lower; upper = node.upper; depth = node.depth + 1 }
                in
                (* Explore the child nearest the LP value first. *)
                let first, second =
                  if x -. fl <= ce -. x then (down, up) else (up, down)
                in
                stack := first :: second :: !stack
              end
              else Trace.incr prunes_c
          end);
        loop ()
      end
  in
  loop ();
  if !truncated then Trace.incr truncations_c;
  match (!incumbent, !truncated, !root_unbounded) with
  | _, _, true -> Unbounded
  | Some sol, false, _ -> Optimal sol
  | Some sol, true, _ -> Feasible sol
  | None, false, _ -> Infeasible
  | None, true, _ -> Unknown

let outcome_tag = function
  | Optimal _ -> "optimal"
  | Feasible _ -> "feasible"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Unknown -> "unknown"

let solve ?options lp =
  if not (Trace.is_enabled ()) then solve ?options lp
  else begin
    Trace.incr solves_c;
    let t0 = Timer.now () in
    let before = Trace.count nodes_c in
    let outcome = solve ?options lp in
    Trace.emit_span "bb.solve" ~dur:(Timer.elapsed t0)
      ~tags:
        [ ("outcome", outcome_tag outcome);
          ("nodes", string_of_int (Trace.count nodes_c - before)) ];
    outcome
  end
