open Fpva_grid
module Rng = Fpva_util.Rng
module Tv = Fpva_testgen.Test_vector

type t = {
  false_pass : float array;
  false_fail : float array;
}

let check_rate fn r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg
      (Printf.sprintf "Measurement.%s: rate %g outside [0,1]" fn r)

let uniform fpva ~false_pass ~false_fail =
  check_rate "uniform" false_pass;
  check_rate "uniform" false_fail;
  let n = Array.length (Fpva.ports fpva) in
  { false_pass = Array.make n false_pass;
    false_fail = Array.make n false_fail }

let ideal fpva = uniform fpva ~false_pass:0.0 ~false_fail:0.0

let num_meters m = Array.length m.false_pass

let is_ideal m =
  Array.for_all (fun r -> r = 0.0) m.false_pass
  && Array.for_all (fun r -> r = 0.0) m.false_fail

let observe m rng ~golden ~actual =
  let n = Array.length actual in
  if n <> num_meters m || Array.length golden <> n then
    invalid_arg "Measurement.observe: meter count mismatch";
  Array.init n (fun i ->
      let a = actual.(i) in
      if a = golden.(i) then
        (* An agreeing meter misfires with the false-fail rate, creating a
           spurious discrepancy.  Zero-rate meters draw nothing, so an
           ideal model leaves the random stream untouched. *)
        if m.false_fail.(i) > 0.0 && Rng.float rng 1.0 < m.false_fail.(i)
        then not a
        else a
      else if m.false_pass.(i) > 0.0 && Rng.float rng 1.0 < m.false_pass.(i)
      then golden.(i)
      else a)

let apply_vector_h m rng h ~faults v =
  let faults = Fault.resolve rng faults in
  let actual = Simulator.apply_vector_h h ~faults v in
  observe m rng ~golden:v.Tv.golden ~actual

let detects_h m rng h ~faults v =
  apply_vector_h m rng h ~faults v <> v.Tv.golden

let apply_vector m rng fpva ~faults v =
  apply_vector_h m rng (Simulator.make fpva) ~faults v

let detects m rng fpva ~faults v =
  apply_vector m rng fpva ~faults v <> v.Tv.golden

let vector_false_fail m =
  1.0
  -. Array.fold_left (fun acc ff -> acc *. (1.0 -. ff)) 1.0 m.false_fail

let vector_false_pass m =
  let n = num_meters m in
  if n = 0 then 0.0
  else
    let mean_fp =
      Array.fold_left ( +. ) 0.0 m.false_pass /. float_of_int n
    in
    mean_fp
    *. Array.fold_left (fun acc ff -> acc *. (1.0 -. ff)) 1.0 m.false_fail
