(* Reference implementation of the ideal campaign, kept only to check
   [Campaign.run] against: a plain loop over every trial, one at a time,
   with no Pool, no shards and no bit-parallel lanes.  Trial [g] (row-major
   over the fault counts) draws from [Rng.derive seed g] and is scored by
   scanning the suite with [detects] until the first vector that detects
   it.  [detects] defaults to the compiled [Simulator.detects_h]; pass
   [Graph_oracle.detects] to score with the reference BFS instead. *)

open Fpva_sim

let row ~detects fpva ~vectors (config : Campaign.config) ~row_index
    ~fault_count =
  let detected = ref 0 and latency_sum = ref 0 and escapes = ref [] in
  let short_draws = ref 0 and void_draws = ref 0 in
  for i = 0 to config.Campaign.trials - 1 do
    let g = (row_index * config.Campaign.trials) + i in
    let faults =
      Campaign.draw_faults
        (Fpva_util.Rng.derive config.Campaign.seed g)
        fpva ~classes:config.Campaign.classes ~count:fault_count
    in
    if List.length faults < fault_count then incr short_draws;
    if faults = [] then incr void_draws
    else begin
      let rec first k = function
        | [] -> None
        | v :: rest ->
          if detects ~faults v then Some k else first (k + 1) rest
      in
      match first 1 vectors with
      | Some k ->
        incr detected;
        latency_sum := !latency_sum + k
      | None -> escapes := faults :: !escapes
    end
  done;
  { Campaign.fault_count;
    trials = config.Campaign.trials;
    detected = !detected;
    escapes = List.rev !escapes;
    short_draws = !short_draws;
    void_draws = !void_draws;
    mean_latency =
      (if !detected = 0 then nan
       else float_of_int !latency_sum /. float_of_int !detected) }

let rows ?detects fpva ~vectors (config : Campaign.config) =
  let detects =
    match detects with
    | Some d -> d
    | None -> Simulator.detects_h (Simulator.make fpva)
  in
  List.mapi
    (fun row_index fault_count ->
      row ~detects fpva ~vectors config ~row_index ~fault_count)
    config.Campaign.fault_counts
