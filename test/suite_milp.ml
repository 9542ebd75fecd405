(* Tests for the MILP substrate: model builder, simplex, branch & bound. *)

open Helpers
module Lp = Fpva_milp.Lp
module Simplex = Fpva_milp.Simplex
module Bb = Fpva_milp.Branch_bound
module Trace = Fpva_util.Trace
module Timer = Fpva_util.Timer
module Layouts = Fpva_grid.Layouts
open Fpva_testgen

let solve_expect_opt lp =
  match Simplex.solve lp with
  | Simplex.Optimal s -> s
  | Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected: iteration limit"

(* ---------- Lp model builder ---------- *)

let lp_tests =
  [
    case "add_var defaults" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Continuous in
        check (Alcotest.float 0.0) "lower" 0.0 (Lp.var_lower lp x);
        checkb "upper inf" true (Lp.var_upper lp x = infinity);
        let b = Lp.add_var lp Lp.Binary in
        check (Alcotest.float 0.0) "bin upper" 1.0 (Lp.var_upper lp b));
    case "bad bounds raise" (fun () ->
        let lp = Lp.create Lp.Minimize in
        Alcotest.check_raises "l>u"
          (Invalid_argument "Lp.add_var: lower > upper") (fun () ->
            ignore (Lp.add_var lp ~lower:2.0 ~upper:1.0 Lp.Continuous)));
    case "duplicate terms merge" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (2.0, x) ] Lp.Le 5.0;
        match Lp.constr_terms lp 0 with
        | [ (c, v) ] ->
          check (Alcotest.float 0.0) "merged" 3.0 c;
          checki "var" (Lp.var_index x) (Lp.var_index v)
        | other ->
          Alcotest.failf "expected one term, got %d" (List.length other));
    case "zero coefficients dropped" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (-1.0, x) ] Lp.Le 5.0;
        checki "terms" 0 (List.length (Lp.constr_terms lp 0)));
    case "check_feasible catches violations" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp ~upper:2.0 Lp.Integer in
        Lp.add_constr lp [ (1.0, x) ] Lp.Ge 1.0;
        checkb "ok point" true (Lp.check_feasible lp [| 1.0 |]);
        checkb "bound violated" false (Lp.check_feasible lp [| 3.0 |]);
        checkb "constr violated" false (Lp.check_feasible lp [| 0.0 |]);
        checkb "fractional integer" false (Lp.check_feasible lp [| 1.5 |]));
    case "objective_value includes constant" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Continuous in
        Lp.set_objective lp ~constant:10.0 [ (2.0, x) ];
        check (Alcotest.float 1e-12) "value" 16.0
          (Lp.objective_value lp [| 3.0 |]));
  ]

(* ---------- Simplex on known problems ---------- *)

let simplex_tests =
  [
    case "textbook max" (fun () ->
        (* max 3x+2y st x+y<=4, x+3y<=6 -> (4,0), obj 12 *)
        let lp = Lp.create Lp.Maximize in
        let x = Lp.add_var lp Lp.Continuous in
        let y = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (1.0, y) ] Lp.Le 4.0;
        Lp.add_constr lp [ (1.0, x); (3.0, y) ] Lp.Le 6.0;
        Lp.set_objective lp [ (3.0, x); (2.0, y) ];
        let s = solve_expect_opt lp in
        check (Alcotest.float 1e-6) "obj" 12.0 s.Simplex.objective);
    case "phase-1 needed (>= and =)" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Continuous in
        let y = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (1.0, y) ] Lp.Ge 3.0;
        Lp.add_constr lp [ (1.0, x); (-1.0, y) ] Lp.Eq 1.0;
        Lp.set_objective lp [ (1.0, x); (1.0, y) ];
        let s = solve_expect_opt lp in
        check (Alcotest.float 1e-6) "obj" 3.0 s.Simplex.objective;
        check (Alcotest.float 1e-6) "x" 2.0 s.Simplex.values.(0));
    case "degenerate diet problem" (fun () ->
        (* min 0.6a+0.35b st 5a+7b>=8, 4a+2b>=15, 2a+b>=3 *)
        let lp = Lp.create Lp.Minimize in
        let a = Lp.add_var lp Lp.Continuous in
        let b = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (5.0, a); (7.0, b) ] Lp.Ge 8.0;
        Lp.add_constr lp [ (4.0, a); (2.0, b) ] Lp.Ge 15.0;
        Lp.add_constr lp [ (2.0, a); (1.0, b) ] Lp.Ge 3.0;
        Lp.set_objective lp [ (0.6, a); (0.35, b) ];
        let s = solve_expect_opt lp in
        (* optimum at a=3.75, b=0 -> 2.25 *)
        check (Alcotest.float 1e-6) "obj" 2.25 s.Simplex.objective);
    case "infeasible detected" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp ~upper:1.0 Lp.Continuous in
        Lp.add_constr lp [ (1.0, x) ] Lp.Ge 2.0;
        checkb "infeasible" true (Simplex.solve lp = Simplex.Infeasible));
    case "unbounded detected" (fun () ->
        let lp = Lp.create Lp.Maximize in
        let x = Lp.add_var lp Lp.Continuous in
        let y = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (-1.0, y) ] Lp.Le 1.0;
        Lp.set_objective lp [ (1.0, x); (1.0, y) ];
        checkb "unbounded" true (Simplex.solve lp = Simplex.Unbounded));
    case "negative lower bounds" (fun () ->
        (* min x st x >= -5, x free below -> -5 *)
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp ~lower:(-5.0) ~upper:10.0 Lp.Continuous in
        Lp.set_objective lp [ (1.0, x) ];
        let s = solve_expect_opt lp in
        check (Alcotest.float 1e-6) "obj" (-5.0) s.Simplex.objective);
    case "free variable" (fun () ->
        (* min x + y st x + y >= 2, x free, y in [0,1] -> obj 2 *)
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp ~lower:neg_infinity Lp.Continuous in
        let y = Lp.add_var lp ~upper:1.0 Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (1.0, y) ] Lp.Ge 2.0;
        Lp.set_objective lp [ (1.0, x); (1.0, y) ];
        let s = solve_expect_opt lp in
        check (Alcotest.float 1e-6) "obj" 2.0 s.Simplex.objective);
    case "equality-only system" (fun () ->
        (* x + y = 2; x - y = 0 -> x=y=1 *)
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Continuous in
        let y = Lp.add_var lp Lp.Continuous in
        Lp.add_constr lp [ (1.0, x); (1.0, y) ] Lp.Eq 2.0;
        Lp.add_constr lp [ (1.0, x); (-1.0, y) ] Lp.Eq 0.0;
        Lp.set_objective lp [ (1.0, x) ];
        let s = solve_expect_opt lp in
        check (Alcotest.float 1e-6) "x" 1.0 s.Simplex.values.(0);
        check (Alcotest.float 1e-6) "y" 1.0 s.Simplex.values.(1));
    case "bound override shrinks feasible set" (fun () ->
        let lp = Lp.create Lp.Maximize in
        let x = Lp.add_var lp ~upper:10.0 Lp.Continuous in
        Lp.set_objective lp [ (1.0, x) ];
        let s = solve_expect_opt lp in
        check (Alcotest.float 1e-6) "obj" 10.0 s.Simplex.objective;
        (match
           Simplex.solve ~lower_override:[| 0.0 |] ~upper_override:[| 3.0 |] lp
         with
        | Simplex.Optimal s ->
          check (Alcotest.float 1e-6) "tight obj" 3.0 s.Simplex.objective
        | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit ->
          Alcotest.fail "override solve failed"));
    case "empty override domain infeasible" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let _ = Lp.add_var lp Lp.Continuous in
        checkb "infeasible" true
          (Simplex.solve ~lower_override:[| 2.0 |] ~upper_override:[| 1.0 |] lp
          = Simplex.Infeasible));
  ]

(* ---------- Random LP properties ---------- *)

(* Random small LPs with bounded boxes: max c.x st A x <= b, 0<=x<=3.
   Always feasible (origin) and bounded (box).  Property: simplex optimum is
   feasible and dominates a sample of random feasible points. *)
let random_lp_gen =
  QCheck2.Gen.(
    let coeff = map (fun k -> float_of_int (k - 3)) (int_bound 6) in
    let* n = int_range 1 5 in
    let* m = int_range 1 5 in
    let* objective = list_size (return n) coeff in
    let* rows = list_size (return m) (list_size (return n) coeff) in
    let* rhs = list_size (return m) (map float_of_int (int_range 1 10)) in
    return (n, objective, rows, rhs))

let build_random_lp (n, objective, rows, rhs) =
  let lp = Lp.create Lp.Maximize in
  let xs = Array.init n (fun _ -> Lp.add_var lp ~upper:3.0 Lp.Continuous) in
  List.iter2
    (fun row b ->
      Lp.add_constr lp (List.mapi (fun j c -> (c, xs.(j))) row) Lp.Le b)
    rows rhs;
  Lp.set_objective lp (List.mapi (fun j c -> (c, xs.(j))) objective);
  lp

let random_lp_tests =
  [
    qcheck ~count:300 "simplex optimum is feasible" random_lp_gen
      (fun spec ->
        let lp = build_random_lp spec in
        match Simplex.solve lp with
        | Simplex.Optimal s -> Lp.check_feasible ~eps:1e-5 lp s.Simplex.values
        | Simplex.Infeasible | Simplex.Unbounded -> false (* box is feasible & bounded *)
        | Simplex.Iteration_limit -> true (* rare numerical stall: not wrong *));
    qcheck ~count:300 "simplex optimum dominates random feasible points"
      QCheck2.Gen.(pair random_lp_gen (int_bound 10_000))
      (fun (spec, salt) ->
        let lp = build_random_lp spec in
        match Simplex.solve lp with
        | Simplex.Optimal s ->
          let rng = Fpva_util.Rng.create salt in
          let n = Lp.num_vars lp in
          let ok = ref true in
          for _ = 1 to 20 do
            let x =
              Array.init n (fun _ -> Fpva_util.Rng.float rng 3.0)
            in
            if Lp.check_feasible ~eps:1e-9 lp x then
              if Lp.objective_value lp x > s.Simplex.objective +. 1e-5 then
                ok := false
          done;
          !ok
        | Simplex.Infeasible | Simplex.Unbounded -> false
        | Simplex.Iteration_limit -> true);
  ]

(* ---------- Branch & bound ---------- *)

(* Brute force over integer boxes, for exact comparison. *)
let brute_force_best lp bound =
  let n = Lp.num_vars lp in
  let best = ref None in
  let x = Array.make n 0.0 in
  let rec go j =
    if j = n then begin
      if Lp.check_feasible lp x then begin
        let obj = Lp.objective_value lp x in
        match !best with
        | Some b when b >= obj -> ()
        | Some _ | None -> best := Some obj
      end
    end
    else
      for v = 0 to bound do
        x.(j) <- float_of_int v;
        go (j + 1)
      done
  in
  go 0;
  !best

let random_ilp_gen =
  QCheck2.Gen.(
    let coeff = map (fun k -> float_of_int (k - 3)) (int_bound 6) in
    let* n = int_range 1 4 in
    let* m = int_range 1 4 in
    let* objective = list_size (return n) coeff in
    let* rows = list_size (return m) (list_size (return n) coeff) in
    let* rhs = list_size (return m) (map float_of_int (int_range 1 8)) in
    return (n, objective, rows, rhs))

let build_random_ilp (n, objective, rows, rhs) =
  let lp = Lp.create Lp.Maximize in
  let xs = Array.init n (fun _ -> Lp.add_var lp ~upper:3.0 Lp.Integer) in
  List.iter2
    (fun row b ->
      Lp.add_constr lp (List.mapi (fun j c -> (c, xs.(j))) row) Lp.Le b)
    rows rhs;
  Lp.set_objective lp (List.mapi (fun j c -> (c, xs.(j))) objective);
  lp

let bb_tests =
  [
    case "knapsack optimum" (fun () ->
        let lp = Lp.create Lp.Maximize in
        let a = Lp.add_var lp Lp.Binary in
        let b = Lp.add_var lp Lp.Binary in
        let c = Lp.add_var lp Lp.Binary in
        Lp.add_constr lp [ (2.0, a); (3.0, b); (1.0, c) ] Lp.Le 5.0;
        Lp.set_objective lp [ (5.0, a); (4.0, b); (3.0, c) ];
        match Bb.solve lp with
        | Bb.Optimal s -> check (Alcotest.float 1e-6) "obj" 9.0 s.Simplex.objective
        | _ -> Alcotest.fail "expected optimal");
    case "integrality forces rounding down" (fun () ->
        (* max x st 2x <= 3, x integer -> x=1 (LP would give 1.5) *)
        let lp = Lp.create Lp.Maximize in
        let x = Lp.add_var lp Lp.Integer in
        Lp.add_constr lp [ (2.0, x) ] Lp.Le 3.0;
        Lp.set_objective lp [ (1.0, x) ];
        match Bb.solve lp with
        | Bb.Optimal s ->
          check (Alcotest.float 1e-6) "x" 1.0 s.Simplex.values.(0)
        | _ -> Alcotest.fail "expected optimal");
    case "infeasible ILP" (fun () ->
        let lp = Lp.create Lp.Minimize in
        let x = Lp.add_var lp Lp.Binary in
        Lp.add_constr lp [ (2.0, x) ] Lp.Eq 1.0;
        checkb "infeasible" true (Bb.solve lp = Bb.Infeasible));
    case "mixed integer-continuous" (fun () ->
        (* max x + y; x int <= 2.5 -> 2; y cont <= 0.5 -> 0.5 *)
        let lp = Lp.create Lp.Maximize in
        let x = Lp.add_var lp ~upper:2.5 Lp.Integer in
        let y = Lp.add_var lp ~upper:0.5 Lp.Continuous in
        Lp.set_objective lp [ (1.0, x); (1.0, y) ];
        match Bb.solve lp with
        | Bb.Optimal s ->
          check (Alcotest.float 1e-6) "obj" 2.5 s.Simplex.objective
        | _ -> Alcotest.fail "expected optimal");
    case "node budget reports truncation" (fun () ->
        let lp = Lp.create Lp.Maximize in
        let xs = Array.init 12 (fun _ -> Lp.add_var lp Lp.Binary) in
        Lp.add_constr lp
          (Array.to_list (Array.map (fun x -> (3.0, x)) xs))
          Lp.Le 10.0;
        Lp.set_objective lp (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
        let options = { Bb.default_options with Bb.max_nodes = 1 } in
        match Bb.solve ~options lp with
        | Bb.Feasible _ | Bb.Unknown | Bb.Optimal _ -> ()
        | Bb.Infeasible | Bb.Unbounded ->
          Alcotest.fail "budget must not produce infeasible/unbounded");
    qcheck ~count:120 "branch & bound matches brute force" random_ilp_gen
      (fun spec ->
        let lp = build_random_ilp spec in
        let brute = brute_force_best lp 3 in
        match (Bb.solve lp, brute) with
        | Bb.Optimal s, Some best -> abs_float (s.Simplex.objective -. best) < 1e-5
        | Bb.Infeasible, None -> true
        | Bb.Optimal _, None -> false
        | Bb.Infeasible, Some _ -> false
        | (Bb.Feasible _ | Bb.Unknown | Bb.Unbounded), _ -> false);
    qcheck ~count:120 "incumbents are integral and feasible" random_ilp_gen
      (fun spec ->
        let lp = build_random_ilp spec in
        match Bb.solve lp with
        | Bb.Optimal s -> Lp.check_feasible lp s.Simplex.values
        | Bb.Infeasible -> true
        | Bb.Feasible _ | Bb.Unknown | Bb.Unbounded -> false);
    case "zero node budget yields Unknown" (fun () ->
        (* No node may be explored, so there can be no incumbent and no
           proof: the only sound answer is Unknown. *)
        let lp = Lp.create Lp.Maximize in
        let a = Lp.add_var lp Lp.Binary in
        let b = Lp.add_var lp Lp.Binary in
        Lp.add_constr lp [ (2.0, a); (3.0, b) ] Lp.Le 4.0;
        Lp.set_objective lp [ (5.0, a); (4.0, b) ];
        let options =
          { Bb.default_options with Bb.max_nodes = 0; presolve = false }
        in
        checkb "unknown" true (Bb.solve ~options lp = Bb.Unknown));
    case "truncation with incumbent yields Feasible, not Optimal" (fun () ->
        (* max x+y st x+y <= 1.2 over binaries: the root LP is fractional,
           the rounding heuristic lands on the true optimum (1.0), and the
           1-node budget truncates before the children close the proof.
           Claiming Optimal here would be a lie the solver cannot back. *)
        let lp = Lp.create Lp.Maximize in
        let x = Lp.add_var lp Lp.Binary in
        let y = Lp.add_var lp Lp.Binary in
        Lp.add_constr lp [ (1.0, x); (1.0, y) ] Lp.Le 1.2;
        Lp.set_objective lp [ (1.0, x); (1.0, y) ];
        let options = { Bb.default_options with Bb.max_nodes = 1 } in
        (match Bb.solve ~options lp with
        | Bb.Feasible s ->
          checkb "incumbent feasible" true (Lp.check_feasible lp s.Simplex.values);
          check (Alcotest.float 1e-6) "incumbent obj" 1.0 s.Simplex.objective
        | Bb.Optimal _ -> Alcotest.fail "truncated run must not claim Optimal"
        | _ -> Alcotest.fail "expected a truncated incumbent"));
    case "expired time limit never claims Optimal or Infeasible" (fun () ->
        let lp = Lp.create Lp.Maximize in
        let a = Lp.add_var lp Lp.Binary in
        let b = Lp.add_var lp Lp.Binary in
        let c = Lp.add_var lp Lp.Binary in
        Lp.add_constr lp [ (2.0, a); (3.0, b); (1.0, c) ] Lp.Le 5.0;
        Lp.set_objective lp [ (5.0, a); (4.0, b); (3.0, c) ];
        let options = { Bb.default_options with Bb.time_limit = 0.0 } in
        (match Bb.solve ~options lp with
        | Bb.Unknown -> ()
        | Bb.Feasible s ->
          checkb "incumbent feasible" true (Lp.check_feasible lp s.Simplex.values)
        | Bb.Optimal _ -> Alcotest.fail "no time to prove optimality"
        | Bb.Infeasible -> Alcotest.fail "instance is feasible"
        | Bb.Unbounded -> Alcotest.fail "instance is bounded"));
    case "LP pivot cap at the root yields Unknown" (fun () ->
        (* With one simplex pivot allowed the root relaxation cannot finish;
           Iteration_limit must register as truncation, not as a verdict. *)
        let lp = Lp.create Lp.Maximize in
        let xs = Array.init 6 (fun _ -> Lp.add_var lp Lp.Binary) in
        Lp.add_constr lp
          (Array.to_list (Array.map (fun x -> (2.0, x)) xs))
          Lp.Le 7.0;
        Lp.add_constr lp
          (Array.to_list (Array.mapi (fun i x -> (float_of_int (i + 1), x)) xs))
          Lp.Le 9.0;
        Lp.set_objective lp (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
        let options =
          { Bb.default_options with
            Bb.lp_iteration_limit = Some 1;
            presolve = false }
        in
        (match Bb.solve ~options lp with
        | Bb.Unknown -> ()
        | Bb.Feasible _ -> Alcotest.fail "no node can produce an incumbent"
        | Bb.Optimal _ -> Alcotest.fail "pivot-capped run must not claim Optimal"
        | Bb.Infeasible -> Alcotest.fail "instance is feasible"
        | Bb.Unbounded -> Alcotest.fail "instance is bounded"));
    qcheck ~count:120 "pivot-capped solves stay sound" random_ilp_gen
      (fun spec ->
        (* A tight per-node pivot cap makes Iteration_limit fire at
           arbitrary tree depths; whatever the outcome, it must never
           contradict brute force. *)
        let lp = build_random_ilp spec in
        let options =
          { Bb.default_options with Bb.lp_iteration_limit = Some 3 }
        in
        let brute = brute_force_best lp 3 in
        match (Bb.solve ~options lp, brute) with
        | Bb.Optimal s, Some best ->
          abs_float (s.Simplex.objective -. best) < 1e-5
        | Bb.Optimal _, None -> false
        | Bb.Feasible s, Some best ->
          Lp.check_feasible lp s.Simplex.values
          && s.Simplex.objective <= best +. 1e-5
        | Bb.Feasible _, None -> false
        | Bb.Infeasible, None -> true
        | Bb.Infeasible, Some _ -> false
        | Bb.Unknown, _ -> true
        | Bb.Unbounded, _ -> false);
  ]

(* ---------- One workspace per solve, and deadlines inside node LPs ---------- *)

(* The exact engine's single-path model on a full 4x4, unit weight on the
   required edges: 618 pivots over 5 nodes. *)
let full_4x4_lp () =
  let prob, _ = Flow_path.problem (Layouts.full ~rows:4 ~cols:4) in
  let weight =
    Array.map (fun r -> if r then 1.0 else 0.0) prob.Problem.required
  in
  Path_ilp.single_path_lp prob ~weight

let workspace_tests =
  [
    case "a branch-and-bound solve allocates at most 100 words per pivot"
      (fun () ->
        let lp = full_4x4_lp () in
        Trace.reset ();
        Trace.enable ();
        let traced =
          Fun.protect ~finally:Trace.disable (fun () -> Bb.solve lp)
        in
        let pivots = Trace.count (Trace.counter "simplex.pivots") in
        checki "pivots" 618 pivots;
        checki "nodes" 5 (Trace.count (Trace.counter "bb.nodes"));
        (match traced with
        | Bb.Optimal s ->
          check (Alcotest.float 1e-5) "objective" 14.99937 s.Simplex.objective
        | _ -> Alcotest.fail "expected optimal");
        (* Only native code keeps the pivot arithmetic unboxed. *)
        if Sys.backend_type = Sys.Native then begin
          let before = Gc.minor_words () in
          ignore (Sys.opaque_identity (Bb.solve lp));
          let w = (Gc.minor_words () -. before) /. float_of_int pivots in
          checkb (Printf.sprintf "%.1f words per pivot" w) true (w <= 100.0)
        end);
    qcheck ~count:200 "a reused workspace solves like a fresh one"
      QCheck2.Gen.(
        pair random_lp_gen (list_size (int_range 1 6) (int_bound 10_000)))
      (fun (spec, salts) ->
        (* Boxes inside [0, 3], one in six with an empty domain, and pivot
           caps that stop some solves midway, so each solve starts from
           whatever the last one left. *)
        let module Rng = Fpva_util.Rng in
        let lp = build_random_lp spec in
        let n = Lp.num_vars lp in
        let prepared = Simplex.prepare lp in
        List.for_all
          (fun salt ->
            let rng = Rng.create salt in
            let lower = Array.init n (fun _ -> float_of_int (Rng.int rng 2)) in
            let upper =
              Array.init n (fun _ -> float_of_int (2 + Rng.int rng 2))
            in
            if Rng.int rng 6 = 0 then upper.(Rng.int rng n) <- -1.0;
            let max_iters =
              if Rng.bool rng then None else Some (1 + Rng.int rng 4)
            in
            compare
              (Simplex.solve_prepared ?max_iters prepared ~lower ~upper)
              (Simplex.solve ?max_iters ~lower_override:lower
                 ~upper_override:upper lp)
            = 0)
          salts);
    case "time_limit stops a long root LP" (fun () ->
        (* The joint model of a paper 5x5 with 4 slots spends seconds in its
           root relaxation; the deadline must reach inside it. *)
        let prob, _ = Flow_path.problem (Layouts.paper_array 5) in
        let bb_options = { Bb.default_options with Bb.time_limit = 0.05 } in
        let t0 = Timer.now () in
        let cover = Path_ilp.minimum_cover ~bb_options prob ~max_paths:4 in
        let dt = Timer.elapsed t0 in
        checkb "no cover" true (cover = None);
        checkb (Printf.sprintf "returned after %.2f s" dt) true (dt < 1.0));
  ]

let tests =
  lp_tests @ simplex_tests @ random_lp_tests @ bb_tests @ workspace_tests
