(* Bounded-variable revised simplex.
 *
 * Standard computational form: every constraint row r gets a slack variable
 * s_r with bounds encoding its relation (Le: [0,inf), Ge: (-inf,0], Eq:
 * [0,0]), turning all rows into equalities  A x + s = b.  Nonbasic variables
 * rest on one of their finite bounds; the m basic variables are determined by
 * x_B = B^{-1} (b - A_N x_N).  We maintain B^{-1} densely and update it by
 * elementary row operations at each pivot.
 *
 * Phase 1 minimises the total bound violation of the basic variables using
 * the composite-objective technique: the phase-1 cost of a basic variable is
 * -1 below its lower bound, +1 above its upper bound, 0 otherwise, and is
 * recomputed every iteration.  An infeasible basic variable only blocks the
 * ratio test at the bound it is approaching from outside, which is exactly
 * what makes the composite phase 1 converge.
 *
 * The computational form is built once per model ([prepare]); each solve
 * resets the workspace it carries in place.  Pricing and the ratio test
 * hand their results back through the workspace, so a pivot allocates
 * nothing.
 *)

module Trace = Fpva_util.Trace
module Timer = Fpva_util.Timer

let solves_c = Trace.counter "simplex.solves"
let iterations_c = Trace.counter "simplex.iterations"
let pivots_c = Trace.counter "simplex.pivots"
let degenerate_c = Trace.counter "simplex.degenerate_steps"

type solution = { objective : float; values : float array }

type status = Optimal of solution | Infeasible | Unbounded | Iteration_limit

let feas_eps = 1e-7
let cost_eps = 1e-9
let pivot_eps = 1e-9

(* Iterations between two reads of the clock when a deadline is set. *)
let deadline_stride = 16

type nb_position = At_lower | At_upper

(* The float results of a step.  A record of floats only is stored flat,
   so writing a field boxes nothing. *)
type scalars = {
  mutable dir : float;  (* +1. when the entering variable increases *)
  mutable score : float;  (* |reduced cost| of the entering candidate *)
  mutable step : float;  (* ratio-test step length *)
  mutable infeas : float;  (* total bound violation of the basis *)
  mutable bound : float;  (* the bound the leaving variable stops at *)
  mutable metric : float;  (* last infeasibility or objective, for stalls *)
  mutable deadline : float;
}

type prepared = {
  lp : Lp.t;
  n : int;  (* structural variables *)
  m : int;  (* rows = basic count *)
  total : int;  (* n + m; the slack of row r is variable n + r *)
  (* The frozen model.  Column j's entries are at [col_off.(j)] ..
     [col_off.(j + 1) - 1], in row order; a slack's column is its unit row. *)
  col_off : int array;
  col_row : int array;
  col_coef : float array;
  cost : float array;  (* phase-2 cost, minimisation sense, length total *)
  rhs : float array;
  slack_lower : float array;
  slack_upper : float array;
  (* The workspace, reset by every solve. *)
  lower : float array;  (* bounds for all [total] variables *)
  upper : float array;
  basis : int array;  (* variable basic in each row *)
  row_of : int array;  (* inverse of [basis]; -1 when nonbasic *)
  position : nb_position array;  (* meaningful for nonbasic variables *)
  binv : float array;  (* m x m basis inverse, row-major *)
  xb : float array;  (* values of basic variables, by row *)
  w : float array;  (* ftran result *)
  y : float array;  (* btran result *)
  cb : float array;  (* costs of the basic variables, by row *)
  s : scalars;
  mutable entering : int;  (* pricing's choice, -1 for none *)
  mutable leaving : int;  (* the ratio test's row, -1 for a bound flip *)
  mutable iters : int;
  mutable limit : int;
  mutable stalls : int;
}

let prepare lp =
  let n = Lp.num_vars lp in
  let m = Lp.num_constrs lp in
  let total = n + m in
  let rows = Lp.rows lp in
  (* CSC offsets: a cumulative sum over the column counts. *)
  let col_off = Array.make (total + 1) 0 in
  Array.iter (fun j -> col_off.(j + 1) <- col_off.(j + 1) + 1) rows.Lp.col;
  for r = 0 to m - 1 do
    col_off.(n + r + 1) <- 1
  done;
  for j = 0 to total - 1 do
    col_off.(j + 1) <- col_off.(j + 1) + col_off.(j)
  done;
  let col_row = Array.make col_off.(total) 0 in
  let col_coef = Array.make col_off.(total) 0.0 in
  let fill = Array.sub col_off 0 total in
  let put j r c =
    col_row.(fill.(j)) <- r;
    col_coef.(fill.(j)) <- c;
    fill.(j) <- fill.(j) + 1
  in
  let slack_lower = Array.make m 0.0 and slack_upper = Array.make m 0.0 in
  for r = 0 to m - 1 do
    for k = rows.Lp.off.(r) to rows.Lp.off.(r + 1) - 1 do
      put rows.Lp.col.(k) r rows.Lp.coef.(k)
    done;
    put (n + r) r 1.0;
    match rows.Lp.rel.(r) with
    | Lp.Le -> slack_upper.(r) <- infinity
    | Lp.Ge -> slack_lower.(r) <- neg_infinity
    | Lp.Eq -> ()
  done;
  let sign = match Lp.sense lp with Lp.Minimize -> 1.0 | Lp.Maximize -> -1.0 in
  let cost = Array.make total 0.0 in
  List.iter
    (fun (c, v) -> cost.(Lp.var_index v) <- cost.(Lp.var_index v) +. (sign *. c))
    (Lp.objective_terms lp);
  { lp; n; m; total; col_off; col_row; col_coef; cost; rhs = rows.Lp.rhs;
    slack_lower; slack_upper;
    lower = Array.make total 0.0;
    upper = Array.make total 0.0;
    basis = Array.make m 0;
    row_of = Array.make total (-1);
    position = Array.make total At_lower;
    binv = Array.make (m * m) 0.0;
    xb = Array.make m 0.0;
    w = Array.make m 0.0;
    y = Array.make m 0.0;
    cb = Array.make m 0.0;
    s = { dir = 0.0; score = 0.0; step = 0.0; infeas = 0.0; bound = 0.0;
          metric = 0.0; deadline = infinity };
    entering = -1; leaving = -1; iters = 0; limit = 0; stalls = 0 }

let[@inline] nonbasic_value p j =
  match p.position.(j) with
  | At_lower ->
    if p.lower.(j) > neg_infinity then p.lower.(j)
    else if p.upper.(j) < infinity then p.upper.(j)
    else 0.0
  | At_upper ->
    if p.upper.(j) < infinity then p.upper.(j)
    else if p.lower.(j) > neg_infinity then p.lower.(j)
    else 0.0

(* Load the bounds, the slack basis B = I and xb = b - A_N x_N. *)
let reset p ~lower ~upper =
  let n = p.n and m = p.m in
  Array.blit lower 0 p.lower 0 n;
  Array.blit upper 0 p.upper 0 n;
  Array.blit p.slack_lower 0 p.lower n m;
  Array.blit p.slack_upper 0 p.upper n m;
  Array.fill p.row_of 0 n (-1);
  for r = 0 to m - 1 do
    p.basis.(r) <- n + r;
    p.row_of.(n + r) <- r
  done;
  for j = 0 to p.total - 1 do
    p.position.(j) <-
      (if p.lower.(j) = neg_infinity && p.upper.(j) < infinity then At_upper
       else At_lower)
  done;
  Array.fill p.binv 0 (m * m) 0.0;
  for i = 0 to m - 1 do
    p.binv.((i * m) + i) <- 1.0
  done;
  Array.blit p.rhs 0 p.xb 0 m;
  for j = 0 to n - 1 do
    let v = nonbasic_value p j in
    if v <> 0.0 then
      for k = p.col_off.(j) to p.col_off.(j + 1) - 1 do
        let r = p.col_row.(k) in
        p.xb.(r) <- p.xb.(r) -. (p.col_coef.(k) *. v)
      done
  done

(* w = B^{-1} a_j. *)
let ftran p j =
  let m = p.m in
  Array.fill p.w 0 m 0.0;
  for k = p.col_off.(j) to p.col_off.(j + 1) - 1 do
    let r = p.col_row.(k) and c = p.col_coef.(k) in
    if c <> 0.0 then
      for i = 0 to m - 1 do
        p.w.(i) <- p.w.(i) +. (p.binv.((i * m) + r) *. c)
      done
  done

(* y = cb^T B^{-1}. *)
let btran p =
  let m = p.m in
  Array.fill p.y 0 m 0.0;
  for i = 0 to m - 1 do
    let ci = p.cb.(i) in
    if ci <> 0.0 then
      for r = 0 to m - 1 do
        p.y.(r) <- p.y.(r) +. (ci *. p.binv.((i * m) + r))
      done
  done

(* Infeasibility classification of the basic variable in row i. *)
type feas = Below | Above | Within

let basic_feas p i =
  let j = p.basis.(i) in
  let x = p.xb.(i) in
  if x < p.lower.(j) -. feas_eps then Below
  else if x > p.upper.(j) +. feas_eps then Above
  else Within

(* The total bound violation, into [s.infeas]. *)
let total_infeasibility p =
  let s = ref 0.0 in
  for i = 0 to p.m - 1 do
    let j = p.basis.(i) in
    if p.xb.(i) < p.lower.(j) -. feas_eps then
      s := !s +. (p.lower.(j) -. p.xb.(i))
    else if p.xb.(i) > p.upper.(j) +. feas_eps then
      s := !s +. (p.xb.(i) -. p.upper.(j))
  done;
  p.s.infeas <- !s

(* Pricing of nonbasic [j] against [y]: phase 1 prices the structurals at
   cost zero (only the composite basic costs matter), phase 2 at the real
   objective.  [j] replaces the candidate in [entering] when it is eligible
   and, outside Bland's rule, has a larger |reduced cost|. *)
let consider p ~phase1 ~bland j =
  if p.row_of.(j) < 0 && p.upper.(j) -. p.lower.(j) > feas_eps then begin
    let d = ref (if phase1 then 0.0 else p.cost.(j)) in
    for k = p.col_off.(j) to p.col_off.(j + 1) - 1 do
      d := !d -. (p.y.(p.col_row.(k)) *. p.col_coef.(k))
    done;
    let d = !d in
    (* A variable resting on -inf..finite-upper is stored At_upper, so
       At_lower here implies a finite lower bound or a free variable: it may
       increase; a free variable may also decrease.  0. means ineligible. *)
    let dir =
      match p.position.(j) with
      | At_lower ->
        if d < -.cost_eps then 1.0
        else if
          p.lower.(j) = neg_infinity && p.upper.(j) = infinity && d > cost_eps
        then -1.0
        else 0.0
      | At_upper -> if d > cost_eps then -1.0 else 0.0
    in
    if dir <> 0.0 then begin
      let score = abs_float d in
      if p.entering < 0 || ((not bland) && not (p.s.score >= score)) then begin
        p.entering <- j;
        p.s.dir <- dir;
        p.s.score <- score
      end
    end
  end

(* Entering-variable scan into [entering] and [s.dir].  Under Bland's rule
   the first eligible index wins, so the scan stops at the first hit. *)
let choose_entering p ~phase1 ~bland =
  p.entering <- -1;
  let j = ref 0 in
  while !j < p.total && not (bland && p.entering >= 0) do
    consider p ~phase1 ~bland !j;
    incr j
  done

(* Row [i] blocks the step at [bound]: it becomes the leaving row when its
   step is shorter than the best so far in [s.step], or ties it with a
   larger pivot. *)
let[@inline] block p i wi rate bound =
  let t = (bound -. p.xb.(i)) /. rate in
  (* [max t 0.0]: a NaN step becomes 0. *)
  let t = if t >= 0.0 then t else 0.0 in
  if t < p.s.step -. 1e-12
     || t < p.s.step +. 1e-12
        && p.leaving >= 0
        && abs_float wi > abs_float p.w.(p.leaving)
  then begin
    p.s.step <- t;
    p.leaving <- i;
    p.s.bound <- bound
  end

(* Ratio test.  Moving entering variable j by t*dir changes basic i by
   -dir*t*w_i.  In phase 1, a basic variable outside its bounds only blocks
   at the violated bound it is moving toward; a feasible basic blocks at
   whichever bound it approaches.  Leaves the step in [s.step], and the
   blocking row in [leaving] with its bound in [s.bound] (-1 for a bound
   flip of the entering variable itself). *)
let ratio_test p ~phase1 j =
  let dir = p.s.dir in
  p.s.step <- infinity;
  p.leaving <- -1;
  let own_range = p.upper.(j) -. p.lower.(j) in
  if own_range < infinity then p.s.step <- own_range;
  for i = 0 to p.m - 1 do
    let wi = p.w.(i) in
    if abs_float wi > pivot_eps then begin
      let rate = -.dir *. wi in
      (* dx_basic/dt *)
      let jb = p.basis.(i) in
      let lo = p.lower.(jb) and up = p.upper.(jb) in
      match if phase1 then basic_feas p i else Within with
      | Below -> if rate > 0.0 then block p i wi rate lo
      | Above -> if rate < 0.0 then block p i wi rate up
      | Within ->
        if rate > 0.0 then begin
          if up < infinity then block p i wi rate up
        end
        else if lo > neg_infinity then block p i wi rate lo
    end
  done

(* Apply a pivot: entering j moves by dir*t; the leaving row's variable
   exits to its bound.  Updates binv, xb, basis bookkeeping. *)
let pivot p j =
  let m = p.m and dir = p.s.dir and t = p.s.step in
  if p.leaving < 0 then begin
    for i = 0 to m - 1 do
      p.xb.(i) <- p.xb.(i) -. (dir *. t *. p.w.(i))
    done;
    p.position.(j) <-
      (match p.position.(j) with At_lower -> At_upper | At_upper -> At_lower)
  end
  else begin
    let r = p.leaving and bound = p.s.bound in
    let leaving = p.basis.(r) in
    let enter_value = nonbasic_value p j +. (dir *. t) in
    for i = 0 to m - 1 do
      p.xb.(i) <- p.xb.(i) -. (dir *. t *. p.w.(i))
    done;
    (* Basis inverse update: row r scaled by 1/w_r, eliminated elsewhere. *)
    let wr = p.w.(r) in
    let br = r * m in
    for k = 0 to m - 1 do
      p.binv.(br + k) <- p.binv.(br + k) /. wr
    done;
    for i = 0 to m - 1 do
      if i <> r && abs_float p.w.(i) > 0.0 then begin
        let f = p.w.(i) in
        let bi = i * m in
        for k = 0 to m - 1 do
          p.binv.(bi + k) <- p.binv.(bi + k) -. (f *. p.binv.(br + k))
        done
      end
    done;
    p.basis.(r) <- j;
    p.row_of.(j) <- r;
    p.row_of.(leaving) <- -1;
    p.position.(leaving) <-
      (if bound = p.lower.(leaving) then At_lower else At_upper);
    p.xb.(r) <- enter_value
  end

exception Stop of status

(* Counts one iteration, or stops the solve at the iteration cap or, checked
   every [deadline_stride] iterations, past the deadline. *)
let next_iteration p =
  if
    p.iters >= p.limit
    || p.s.deadline < infinity
       && p.iters mod deadline_stride = 0
       && Timer.now () > p.s.deadline
  then raise (Stop Iteration_limit);
  p.iters <- p.iters + 1;
  Trace.incr iterations_c

(* A pivot after pricing chose [entering]; an unblocked step raises
   [unblocked]. *)
let step p ~phase1 ~unblocked =
  let j = p.entering in
  ftran p j;
  ratio_test p ~phase1 j;
  if p.s.step = infinity then raise (Stop unblocked);
  Trace.incr pivots_c;
  if p.s.step = 0.0 then Trace.incr degenerate_c;
  pivot p j

let rec phase1_loop p =
  total_infeasibility p;
  let infeas = p.s.infeas in
  if not (infeas <= feas_eps) then begin
    next_iteration p;
    if infeas < p.s.metric -. 1e-10 then begin
      p.s.metric <- infeas;
      p.stalls <- 0
    end
    else p.stalls <- p.stalls + 1;
    for i = 0 to p.m - 1 do
      p.cb.(i) <-
        (match basic_feas p i with Below -> -1.0 | Above -> 1.0 | Within -> 0.0)
    done;
    btran p;
    choose_entering p ~phase1:true ~bland:(p.stalls > 200);
    if p.entering < 0 then raise (Stop Infeasible);
    (* The composite objective is bounded below by 0, so an unblocked ray
       cannot happen with exact arithmetic; treat it as numerical
       failure. *)
    step p ~phase1:true ~unblocked:Iteration_limit;
    phase1_loop p
  end

let rec phase2_loop p =
  next_iteration p;
  for i = 0 to p.m - 1 do
    p.cb.(i) <- p.cost.(p.basis.(i))
  done;
  btran p;
  let obj = ref 0.0 in
  for i = 0 to p.m - 1 do
    obj := !obj +. (p.cb.(i) *. p.xb.(i))
  done;
  if !obj < p.s.metric -. 1e-10 then begin
    p.s.metric <- !obj;
    p.stalls <- 0
  end
  else p.stalls <- p.stalls + 1;
  choose_entering p ~phase1:false ~bland:(p.stalls > 200);
  if p.entering >= 0 then begin
    step p ~phase1:false ~unblocked:Unbounded;
    (* Phase-2 pivots can drift a basic variable slightly out of bounds;
       large violations mean we must repair via phase 1. *)
    total_infeasibility p;
    if p.s.infeas > 1e-5 then begin
      phase1_loop p;
      p.s.metric <- infinity
    end;
    phase2_loop p
  end

let extract p =
  let values = Array.make p.n 0.0 in
  for j = 0 to p.n - 1 do
    let r = p.row_of.(j) in
    values.(j) <- (if r >= 0 then p.xb.(r) else nonbasic_value p j)
  done;
  (* Clamp tiny bound violations left by floating-point noise. *)
  for j = 0 to p.n - 1 do
    if values.(j) < p.lower.(j) then values.(j) <- p.lower.(j);
    if values.(j) > p.upper.(j) then values.(j) <- p.upper.(j)
  done;
  { objective = Lp.objective_value p.lp values; values }

let status_tag = function
  | Optimal _ -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iteration_limit -> "iteration_limit"

let run ?max_iters ~deadline p ~lower ~upper =
  reset p ~lower ~upper;
  (* A variable with lower > upper (empty branch-and-bound domain) makes the
     whole problem trivially infeasible. *)
  let empty = ref false in
  for j = 0 to p.n - 1 do
    if p.lower.(j) > p.upper.(j) then empty := true
  done;
  if !empty then Infeasible
  else begin
    p.limit <-
      (match max_iters with
      | Some k -> k
      | None -> 20_000 + (50 * (p.n + p.m)));
    p.iters <- 0;
    p.stalls <- 0;
    p.s.metric <- infinity;
    p.s.deadline <- deadline;
    try
      phase1_loop p;
      p.s.metric <- infinity;
      p.stalls <- 0;
      phase2_loop p;
      Optimal (extract p)
    with Stop status -> status
  end

let solve_prepared ?max_iters ?(deadline = infinity) p ~lower ~upper =
  if not (Trace.is_enabled ()) then run ?max_iters ~deadline p ~lower ~upper
  else begin
    Trace.incr solves_c;
    let t0 = Timer.now () in
    let status = run ?max_iters ~deadline p ~lower ~upper in
    Trace.emit_span "simplex.solve" ~dur:(Timer.elapsed t0)
      ~tags:[ ("status", status_tag status) ];
    status
  end

let solve ?max_iters ?lower_override ?upper_override lp =
  let lower, upper = Lp.bounds lp in
  solve_prepared ?max_iters (prepare lp)
    ~lower:(Option.value lower_override ~default:lower)
    ~upper:(Option.value upper_override ~default:upper)
