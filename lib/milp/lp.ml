module Vec = Fpva_util.Vec

type sense = Minimize | Maximize

type kind = Continuous | Integer | Binary

type relation = Le | Ge | Eq

type var = int

type term = float * var

type var_info = {
  v_lower : float;
  v_upper : float;
  v_kind : kind;
}

type constr = {
  c_terms : term array;
  c_rel : relation;
  c_rhs : float;
}

type t = {
  model_sense : sense;
  vars : var_info Vec.t;
  constrs : constr Vec.t;
  mutable obj : term array;
  mutable obj_constant : float;
}

let create sense =
  {
    model_sense = sense;
    vars = Vec.create ();
    constrs = Vec.create ();
    obj = [||];
    obj_constant = 0.0;
  }

let sense t = t.model_sense

let add_var t ?lower ?upper kind =
  let default_lower, default_upper =
    match kind with
    | Binary -> (0.0, 1.0)
    | Continuous | Integer -> (0.0, infinity)
  in
  let v_lower = Option.value lower ~default:default_lower in
  let v_upper = Option.value upper ~default:default_upper in
  if v_lower > v_upper then invalid_arg "Lp.add_var: lower > upper";
  let idx = Vec.length t.vars in
  Vec.push t.vars { v_lower; v_upper; v_kind = kind };
  idx

(* Merge duplicate variables so downstream code can assume each variable
   appears at most once per row. *)
let merge_terms terms =
  let tbl = Hashtbl.create 16 in
  let order = Vec.create () in
  let add (coeff, v) =
    match Hashtbl.find_opt tbl v with
    | Some c -> Hashtbl.replace tbl v (c +. coeff)
    | None ->
      Hashtbl.add tbl v coeff;
      Vec.push order v
  in
  List.iter add terms;
  let out = Vec.create () in
  Vec.iter
    (fun v ->
      let c = Hashtbl.find tbl v in
      if c <> 0.0 then Vec.push out (c, v))
    order;
  Vec.to_array out

let check_var t v fn =
  if v < 0 || v >= Vec.length t.vars then invalid_arg fn

let add_constr t terms rel rhs =
  List.iter (fun (_, v) -> check_var t v "Lp.add_constr: foreign variable") terms;
  Vec.push t.constrs { c_terms = merge_terms terms; c_rel = rel; c_rhs = rhs }

let set_objective t ?(constant = 0.0) terms =
  List.iter (fun (_, v) -> check_var t v "Lp.set_objective: foreign variable") terms;
  t.obj <- merge_terms terms;
  t.obj_constant <- constant

let var_index (v : var) = v

let num_vars t = Vec.length t.vars

let num_constrs t = Vec.length t.constrs

let var_info t v =
  check_var t v "Lp.var_info";
  Vec.get t.vars v

let var_of_index t i =
  check_var t i "Lp.var_of_index";
  i

let var_lower t v = (var_info t v).v_lower

let var_upper t v = (var_info t v).v_upper

let var_kind t v = (var_info t v).v_kind

let is_integral_kind = function
  | Integer | Binary -> true
  | Continuous -> false

let objective_terms t = Array.to_list t.obj

let constr t i =
  if i < 0 || i >= Vec.length t.constrs then invalid_arg "Lp.constr";
  Vec.get t.constrs i

let constr_terms t i = Array.to_list (constr t i).c_terms

let constr_relation t i = (constr t i).c_rel

let constr_rhs t i = (constr t i).c_rhs

let objective_value t x =
  Array.fold_left (fun acc (c, v) -> acc +. (c *. x.(v))) t.obj_constant t.obj

let check_feasible ?(eps = 1e-6) t x =
  if Array.length x <> num_vars t then invalid_arg "Lp.check_feasible: arity";
  let bounds_ok = ref true in
  Vec.iteri
    (fun i info ->
      let v = x.(i) in
      if v < info.v_lower -. eps || v > info.v_upper +. eps then
        bounds_ok := false;
      if is_integral_kind info.v_kind && abs_float (v -. Float.round v) > eps
      then bounds_ok := false)
    t.vars;
  let constrs_ok = ref true in
  Vec.iter
    (fun c ->
      let lhs =
        Array.fold_left (fun acc (k, v) -> acc +. (k *. x.(v))) 0.0 c.c_terms
      in
      let ok =
        match c.c_rel with
        | Le -> lhs <= c.c_rhs +. eps
        | Ge -> lhs >= c.c_rhs -. eps
        | Eq -> abs_float (lhs -. c.c_rhs) <= eps
      in
      if not ok then constrs_ok := false)
    t.constrs;
  !bounds_ok && !constrs_ok
