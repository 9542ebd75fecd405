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

(* One meter's reading of a port: an agreeing meter misfires with the
   false-fail rate, creating a spurious discrepancy; a discrepant one reads
   back golden with the false-pass rate — either way the reading flips.  A
   zero-rate meter draws nothing, so an ideal model leaves the random
   stream untouched.  The draw is [Rng.float rng 1.0] formed from
   [Rng.bits53] here, so no float is boxed. *)
let read_meter m rng i ~golden ~actual =
  let rates = if actual = golden then m.false_fail else m.false_pass in
  if rates.(i) > 0.0
     && float_of_int (Rng.bits53 rng) /. 9007199254740992.0 < rates.(i)
  then not actual
  else actual

let check_meters m ~golden ~actual =
  let n = Array.length actual in
  if n <> num_meters m || Array.length golden <> n then
    invalid_arg "Measurement.observe: meter count mismatch"

let observe m rng ~golden ~actual =
  check_meters m ~golden ~actual;
  Array.init (Array.length actual) (fun i ->
      read_meter m rng i ~golden:golden.(i) ~actual:actual.(i))

let apply_vector_h m rng h ~faults v =
  let actual = Simulator.response_h h ~faults:(Fault.resolve rng faults) v in
  observe m rng ~golden:v.Tv.golden ~actual

(* [observe] compared against golden, meter by meter over the borrowed
   response.  Every meter is read, even after one has failed, so the
   stream advances exactly as under [apply_vector_h]. *)
let detects_h m rng h ~faults v =
  let golden = v.Tv.golden in
  let actual = Simulator.response_h h ~faults:(Fault.resolve rng faults) v in
  check_meters m ~golden ~actual;
  let failed = ref false in
  for i = 0 to Array.length actual - 1 do
    let g = golden.(i) in
    if read_meter m rng i ~golden:g ~actual:actual.(i) <> g then failed := true
  done;
  !failed

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
