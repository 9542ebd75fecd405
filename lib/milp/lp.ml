module Vec = Fpva_util.Vec

type sense = Minimize | Maximize

type kind = Continuous | Integer | Binary

type relation = Le | Ge | Eq

type var = int

type term = float * var

type rows = {
  off : int array;
  col : int array;
  coef : float array;
  rel : relation array;
  rhs : float array;
}

(* Rows are stored as growing CSR: row i's terms sit at [off.(i)] ..
   [off.(i + 1) - 1] of [col]/[coef].  [rows] trims them into fixed
   arrays once and keeps that copy until the next constraint. *)
type t = {
  model_sense : sense;
  lower : float Vec.t;
  upper : float Vec.t;
  kinds : kind Vec.t;
  slot : int Vec.t;
      (* by variable: its position in the row being merged, -1 outside a
         merge *)
  off : int Vec.t;
  col : int Vec.t;
  coef : float Vec.t;
  rel : relation Vec.t;
  rhs : float Vec.t;
  mutable frozen : rows option;
  mutable obj_col : int array;
  mutable obj_coef : float array;
  mutable obj_constant : float;
}

let create sense =
  {
    model_sense = sense;
    lower = Vec.create ();
    upper = Vec.create ();
    kinds = Vec.create ();
    slot = Vec.create ();
    off = Vec.of_list [ 0 ];
    col = Vec.create ();
    coef = Vec.create ();
    rel = Vec.create ();
    rhs = Vec.create ();
    frozen = None;
    obj_col = [||];
    obj_coef = [||];
    obj_constant = 0.0;
  }

let sense t = t.model_sense

let num_vars t = Vec.length t.kinds

let num_constrs t = Vec.length t.rel

let add_var t ?lower ?upper kind =
  let default_lower, default_upper =
    match kind with
    | Binary -> (0.0, 1.0)
    | Continuous | Integer -> (0.0, infinity)
  in
  let v_lower = Option.value lower ~default:default_lower in
  let v_upper = Option.value upper ~default:default_upper in
  if v_lower > v_upper then invalid_arg "Lp.add_var: lower > upper";
  let idx = num_vars t in
  Vec.push t.lower v_lower;
  Vec.push t.upper v_upper;
  Vec.push t.kinds kind;
  Vec.push t.slot (-1);
  idx

let check_var t v fn = if v < 0 || v >= num_vars t then invalid_arg fn

(* Appends [terms] to [col]/[coef] so that each variable appears at most
   once: a repeated variable's coefficient is summed into its first
   occurrence, and a sum of zero is dropped. *)
let merge_into t col coef terms =
  let start = Vec.length col in
  List.iter
    (fun (c, v) ->
      let p = Vec.get t.slot v in
      if p < 0 then begin
        Vec.set t.slot v (Vec.length col);
        Vec.push col v;
        Vec.push coef c
      end
      else Vec.set coef p (Vec.get coef p +. c))
    terms;
  let kept = ref start in
  for p = start to Vec.length col - 1 do
    let v = Vec.get col p and c = Vec.get coef p in
    Vec.set t.slot v (-1);
    if c <> 0.0 then begin
      Vec.set col !kept v;
      Vec.set coef !kept c;
      incr kept
    end
  done;
  while Vec.length col > !kept do
    ignore (Vec.pop col);
    ignore (Vec.pop coef)
  done

let add_constr t terms rel rhs =
  List.iter (fun (_, v) -> check_var t v "Lp.add_constr: foreign variable") terms;
  merge_into t t.col t.coef terms;
  Vec.push t.off (Vec.length t.col);
  Vec.push t.rel rel;
  Vec.push t.rhs rhs;
  t.frozen <- None

let set_objective t ?(constant = 0.0) terms =
  List.iter (fun (_, v) -> check_var t v "Lp.set_objective: foreign variable") terms;
  let col = Vec.create () and coef = Vec.create () in
  merge_into t col coef terms;
  t.obj_col <- Vec.to_array col;
  t.obj_coef <- Vec.to_array coef;
  t.obj_constant <- constant

let rows t =
  match t.frozen with
  | Some r -> r
  | None ->
    let r =
      { off = Vec.to_array t.off;
        col = Vec.to_array t.col;
        coef = Vec.to_array t.coef;
        rel = Vec.to_array t.rel;
        rhs = Vec.to_array t.rhs }
    in
    t.frozen <- Some r;
    r

let var_index (v : var) = v

let var_of_index t i =
  check_var t i "Lp.var_of_index";
  i

let var_lower t v =
  check_var t v "Lp.var_info";
  Vec.get t.lower v

let var_upper t v =
  check_var t v "Lp.var_info";
  Vec.get t.upper v

let var_kind t v =
  check_var t v "Lp.var_info";
  Vec.get t.kinds v

let bounds t = (Vec.to_array t.lower, Vec.to_array t.upper)

let is_integral_kind = function
  | Integer | Binary -> true
  | Continuous -> false

let objective_terms t =
  List.init (Array.length t.obj_col) (fun k -> (t.obj_coef.(k), t.obj_col.(k)))

let check_row t i =
  if i < 0 || i >= num_constrs t then invalid_arg "Lp.constr"

let constr_terms t i =
  check_row t i;
  let lo = Vec.get t.off i in
  List.init
    (Vec.get t.off (i + 1) - lo)
    (fun k -> (Vec.get t.coef (lo + k), Vec.get t.col (lo + k)))

let objective_value t x =
  let acc = ref t.obj_constant in
  for k = 0 to Array.length t.obj_col - 1 do
    acc := !acc +. (t.obj_coef.(k) *. x.(t.obj_col.(k)))
  done;
  !acc

let check_feasible ?(eps = 1e-6) t x =
  if Array.length x <> num_vars t then invalid_arg "Lp.check_feasible: arity";
  let ok = ref true in
  for j = 0 to num_vars t - 1 do
    let v = x.(j) in
    if v < Vec.get t.lower j -. eps || v > Vec.get t.upper j +. eps then
      ok := false;
    if
      is_integral_kind (Vec.get t.kinds j)
      && abs_float (v -. Float.round v) > eps
    then ok := false
  done;
  let r = rows t in
  for i = 0 to num_constrs t - 1 do
    let lhs = ref 0.0 in
    for k = r.off.(i) to r.off.(i + 1) - 1 do
      lhs := !lhs +. (r.coef.(k) *. x.(r.col.(k)))
    done;
    let lhs = !lhs and b = r.rhs.(i) in
    let row_ok =
      match r.rel.(i) with
      | Le -> lhs <= b +. eps
      | Ge -> lhs >= b -. eps
      | Eq -> abs_float (lhs -. b) <= eps
    in
    if not row_ok then ok := false
  done;
  !ok
