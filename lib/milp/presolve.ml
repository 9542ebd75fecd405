type result =
  | Tightened of {
      lower : float array;
      upper : float array;
      rounds : int;
      fixed : int;
    }
  | Proven_infeasible

let eps = 1e-9

exception Infeasible

(* One directional pass over row [i] of [rows], read as [sum a_j x_j <= b],
   or as [sum -a_j x_j <= -b] when [neg]: tighten using minimum
   activities.  Returns true if some bound moved. *)
let propagate_le lower upper integral (rows : Lp.rows) i ~neg =
  let b = if neg then -.rows.rhs.(i) else rows.rhs.(i) in
  let first = rows.off.(i) and last = rows.off.(i + 1) - 1 in
  (* minimum activity and whether it is finite *)
  let min_act = ref 0.0 in
  let inf_terms = ref 0 in
  for k = first to last do
    let a = if neg then -.rows.coef.(k) else rows.coef.(k) in
    let j = rows.col.(k) in
    let contrib = if a > 0.0 then a *. lower.(j) else a *. upper.(j) in
    if Float.is_finite contrib then min_act := !min_act +. contrib
    else incr inf_terms
  done;
  if !inf_terms = 0 && !min_act > b +. 1e-7 then raise Infeasible;
  let changed = ref false in
  for k = first to last do
    let a = if neg then -.rows.coef.(k) else rows.coef.(k) in
    let j = rows.col.(k) in
    if a <> 0.0 then begin
      let own = if a > 0.0 then a *. lower.(j) else a *. upper.(j) in
      let rest_finite =
        if Float.is_finite own then !inf_terms = 0 else !inf_terms = 1
      in
      if rest_finite then begin
        let rest = if Float.is_finite own then !min_act -. own else !min_act in
        let limit = (b -. rest) /. a in
        if a > 0.0 then begin
          (* x_j <= limit *)
          let limit = if integral.(j) then floor (limit +. 1e-7) else limit in
          if limit < upper.(j) -. eps then begin
            upper.(j) <- limit;
            changed := true
          end
        end
        else begin
          (* x_j >= limit *)
          let limit = if integral.(j) then ceil (limit -. 1e-7) else limit in
          if limit > lower.(j) +. eps then begin
            lower.(j) <- limit;
            changed := true
          end
        end;
        if lower.(j) > upper.(j) +. 1e-7 then raise Infeasible
      end
    end
  done;
  !changed

(* Both directions of an equality run, whatever the first one returns. *)
let tighten_row lower upper integral (rows : Lp.rows) i =
  match rows.rel.(i) with
  | Lp.Le -> propagate_le lower upper integral rows i ~neg:false
  | Lp.Ge -> propagate_le lower upper integral rows i ~neg:true
  | Lp.Eq ->
    let le = propagate_le lower upper integral rows i ~neg:false in
    let ge = propagate_le lower upper integral rows i ~neg:true in
    le || ge

let bounds ?(max_rounds = 20) lp =
  let n = Lp.num_vars lp in
  let lower, upper = Lp.bounds lp in
  let integral =
    Array.init n (fun j ->
        Lp.is_integral_kind (Lp.var_kind lp (Lp.var_of_index lp j)))
  in
  (* Integral bounds can be rounded inward immediately. *)
  for j = 0 to n - 1 do
    if integral.(j) then begin
      if Float.is_finite lower.(j) then lower.(j) <- ceil (lower.(j) -. 1e-7);
      if Float.is_finite upper.(j) then upper.(j) <- floor (upper.(j) +. 1e-7)
    end
  done;
  let rows = Lp.rows lp in
  try
    for j = 0 to n - 1 do
      if lower.(j) > upper.(j) +. 1e-7 then raise Infeasible
    done;
    let rounds = ref 0 in
    let changed = ref true in
    while !changed && !rounds < max_rounds do
      incr rounds;
      changed := false;
      for i = 0 to Lp.num_constrs lp - 1 do
        if tighten_row lower upper integral rows i then changed := true
      done
    done;
    let fixed = ref 0 in
    for j = 0 to n - 1 do
      if upper.(j) -. lower.(j) < eps then incr fixed
    done;
    Tightened { lower; upper; rounds = !rounds; fixed = !fixed }
  with Infeasible -> Proven_infeasible
