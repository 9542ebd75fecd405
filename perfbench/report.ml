(* Reporting rules shared by every workload of the benchmark: how a set of
   timings becomes a median plus a tail percentile, how each workload
   counts failed operations against attempted ones, and how the result
   line is written through [Fpva_serve.Json] and read back before it is
   printed. *)

module Json = Fpva_serve.Json
module Campaign = Fpva_sim.Campaign

(* {1 Tail percentile} *)

(* Candidate tail percentiles, in tenths of a percent, highest first. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

(* Samples strictly above the [p10]/10 percentile rank of [n] samples. *)
let samples_beyond ~n p10 = n - (((n * p10) + 999) / 1000)

(* With fewer than 20 samples no percentile leaves ten beyond it; the
   tail then falls back to the median, since the maximum of a handful of
   samples measures the noisiest one rather than a tail. *)
let tail_percentile n =
  match List.find_opt (fun p10 -> samples_beyond ~n p10 >= 10) ladder with
  | Some p10 -> float_of_int p10 /. 10.0
  | None -> 50.0

type timing = {
  median : float;
  tail : float;
  tail_pct : float;
  samples : int;
}

(* The tail percentile is fixed by the workload's [planned] minimum sample
   count, not by how many samples a run happened to take, so one metric
   means the same percentile on every run. *)
let timing ~planned xs =
  let n = Array.length xs in
  if n = 0 || n < planned then
    invalid_arg
      (Printf.sprintf "Report.timing: %d samples, %d planned" n planned);
  let tail_pct = tail_percentile planned in
  { median = Fpva_util.Stats.percentile xs 50.0;
    tail = Fpva_util.Stats.percentile xs tail_pct;
    tail_pct;
    samples = n }

(* {1 Failed operations} *)

type counts = { attempted : int; failed : int }

let zero = { attempted = 0; failed = 0 }
let add a b = { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let failed_ratio c =
  if c.attempted = 0 then 1.0
  else float_of_int c.failed /. float_of_int c.attempted

(* One operation per outcome, failed when false: tablei_generate has one
   per generated suite (false when a check of the suite fails),
   field_diagnose one per diagnosis session (false when it eliminates
   every candidate) and serve_inproc one per request (false when it is
   answered with an error or with a frame unlike its array's first). *)
let of_outcomes oks =
  { attempted = List.length oks; failed = List.length (List.filter not oks) }

(* fault_campaign: one operation per trial; a trial fails when its faults
   escaped the suite or when its row was dropped by a budget. *)
let of_campaign ~(config : Campaign.config) (r : Campaign.result) =
  let scored, escaped =
    List.fold_left
      (fun (s, e) (row : Campaign.row) ->
        (s + row.Campaign.trials, e + List.length row.Campaign.escapes))
      (0, 0) r.Campaign.rows
  in
  let truncated = List.length r.Campaign.truncated * config.Campaign.trials in
  { attempted = scored + truncated; failed = escaped + truncated }

(* {1 Result line} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let render ~correct ~counts metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int counts.attempted);
         ("failed", Json.Int counts.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Json.Obj
                      [ ("value", Json.Float m.value);
                        ("unit", Json.String m.unit_) ] ))
                metrics) ) ])

let number = function
  | Json.Int n -> Some (float_of_int n)
  | Json.Float f -> Some f
  | _ -> None

(* Read a rendered line back and check it has exactly the result
   line's shape: the four keys, and one finite numeric value with a unit for
   every expected metric name and no other. *)
let check_line ~expected line =
  let ( let* ) = Result.bind in
  let* json = Json.parse line in
  let* keys =
    match json with
    | Json.Obj kvs -> Ok (List.map fst kvs)
    | _ -> Error "result is not an object"
  in
  let* () =
    if List.sort compare keys = [ "attempted"; "correct"; "failed"; "metrics" ]
    then Ok ()
    else Error ("unexpected keys: " ^ String.concat "," keys)
  in
  let* attempted =
    Option.to_result ~none:"attempted is not an int" (Json.get_int "attempted" json)
  in
  let* () = if attempted >= 1 then Ok () else Error "attempted < 1" in
  let* () =
    match (Json.get_int "failed" json, Json.get_bool "correct" json) with
    | Some f, Some _ when f >= 0 -> Ok ()
    | _ -> Error "failed/correct malformed"
  in
  let* metrics =
    match Json.member "metrics" json with
    | Some (Json.Obj kvs) -> Ok kvs
    | _ -> Error "metrics is not an object"
  in
  let names = List.map fst metrics in
  let* () =
    if List.sort compare names = List.sort_uniq compare expected then Ok ()
    else Error ("metric names differ from the declared set: " ^ String.concat "," names)
  in
  List.fold_left
    (fun acc (name, m) ->
      let* () = acc in
      match (Option.bind (Json.member "value" m) number, Json.get_string "unit" m) with
      | Some v, Some _ when Float.is_finite v -> Ok ()
      | _ -> Error (Printf.sprintf "metric %s has no finite value and unit" name))
    (Ok ()) metrics

let result_line ~expected ~correct ~counts metrics =
  let line = render ~correct ~counts metrics in
  Result.map (fun () -> line) (check_line ~expected line)
