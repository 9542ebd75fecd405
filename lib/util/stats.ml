type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let mean a =
  if Array.length a = 0 then invalid_arg "Stats.mean";
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let summarize a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.summarize";
  (* Same contract as [percentile]: a NaN placeholder poisons every field
     (mean, stddev, min/max comparisons) instead of failing loudly. *)
  if Array.exists Float.is_nan a then invalid_arg "Stats.summarize: NaN input";
  let m = mean a in
  let sq =
    Array.fold_left
      (fun acc x ->
        let d = x -. m in
        acc +. (d *. d))
      0.0 a
  in
  let stddev = if n > 1 then sqrt (sq /. float_of_int (n - 1)) else 0.0 in
  let mn = Array.fold_left min a.(0) a in
  let mx = Array.fold_left max a.(0) a in
  { n; mean = m; stddev; min = mn; max = mx }

let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile";
  (* A NaN placeholder (e.g. an undetected row's latency) sorts to an
     arbitrary rank and silently poisons the interpolation; refuse it. *)
  if Array.exists Float.is_nan a then
    invalid_arg "Stats.percentile: NaN input";
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))
  end

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
