(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload from a seed, checks its outputs, prints each metric
   by name with its unit, and ends with one JSON line:
   {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
   With --trace 0 the metrics are the end-to-end ones, measured untraced;
   with --trace 1 they are the per-layer ones, from a separate traced pass
   that repeats the same work.  Every workload reports every metric of the
   requested set: a layer the workload does not exercise reads 0.
   METRICS.md maps each metric onto each workload. *)

module R = Perfbench_report.Report

let end_to_end =
  [ ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("pass_ratio", "ratio");
    ("primary_per_s", "1/s");
    ("secondary_per_s", "1/s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("vectors_per_op", "count") ]

let per_layer =
  [ ("pipeline.flow_s", "s");
    ("pipeline.cut_s", "s");
    ("pipeline.leak_s", "s");
    ("hierarchy.s", "s");
    ("cut_set.s", "s");
    ("leakage.s", "s");
    ("cover.attempts", "count");
    ("cover.useful_ratio", "ratio");
    ("path_search.call_ms", "ms");
    ("hierarchy.fallback_paths", "count");
    ("simplex.pivots", "count");
    ("simplex.pivots_per_solve", "count");
    ("bb.nodes", "count");
    ("simplex.solve_s", "s");
    ("bb.solve_s", "s");
    ("campaign.fault_draw_us", "us");
    ("campaign.mask_fill_us", "us");
    ("campaign.sweep_us", "us");
    ("campaign.sweeps_per_batch", "count");
    ("pool.busy_ratio", "ratio");
    ("campaign.batch_occupancy", "ratio");
    ("journal.records", "count");
    ("journal.bytes_fsynced", "B");
    ("checkpoint.shards_recorded", "count");
    ("journal.s", "s");
    ("retest.reads_per_vector", "ratio");
    ("simulator.read_us", "us");
    ("simulator.reads", "count");
    ("diagnosis.build_s", "s");
    ("diagnosis.select_s", "s");
    ("serve.resolve_us", "us");
    ("protocol.result_us", "us");
    ("json.parse_us_per_kb", "us/KB");
    ("json.print_us_per_kb", "us/KB");
    ("cache.suite_hit_ratio", "ratio");
    ("campaign.run_ms", "ms");
    ("trace_overhead_pct", "%");
    ("op_samples", "count");
    ("op_tail_pct", "%") ]

let workloads =
  [ ("tablei_generate", W_tablei.run);
    ("fault_campaign", W_campaign.run);
    ("field_diagnose", W_field.run);
    ("serve_inproc", W_serve.run) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: tablei_generate fault_campaign field_diagnose serve_inproc";
  exit 2

let main ~workload ~seed ~seconds ~trace =
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None -> usage ()
  in
  let o = run ~seed ~seconds ~trace in
  let declared = if trace then per_layer else end_to_end in
  let unknown =
    List.filter (fun (k, _) -> not (List.mem_assoc k declared)) o.Common.values
  in
  if unknown <> [] then
    failwith ("undeclared metrics: " ^ String.concat "," (List.map fst unknown));
  (* A layer this workload does not exercise reads 0. *)
  let metrics =
    List.map
      (fun (name, unit_) ->
        R.metric name unit_
          (Option.value ~default:0.0 (List.assoc_opt name o.Common.values)))
      declared
  in
  List.iter
    (fun (name, ok) -> Common.log "check %s: %s" (if ok then "pass" else "FAIL") name)
    o.Common.checks;
  List.iter
    (fun m -> Common.log "metric %s %s = %.17g %s" workload m.R.name m.R.value m.R.unit_)
    metrics;
  let correct = List.for_all snd o.Common.checks in
  match
    R.result_line ~expected:(List.map fst declared) ~correct ~counts:o.Common.counts
      metrics
  with
  | Ok line -> print_endline line
  | Error msg ->
    prerr_endline ("bench: malformed result: " ^ msg);
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: args ->
    let rec parse acc = function
      | [] -> acc
      | flag :: value :: rest
        when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
        parse ((flag, value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get flag conv =
      match Option.bind (List.assoc_opt flag opts) conv with
      | Some v -> v
      | None -> usage ()
    in
    main ~workload:(get "--workload" Option.some) ~seed:(get "--seed" int_of_string_opt)
      ~seconds:(get "--seconds" float_of_string_opt)
      ~trace:(get "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None))
  | [] -> usage ()
