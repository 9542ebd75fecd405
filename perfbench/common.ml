(* Helpers shared by the workloads: clocks, time-boxed loops, process
   memory, scratch files, and reading the Trace events and counters the
   libraries already emit. *)

module Trace = Fpva_util.Trace
module Timer = Fpva_util.Timer
module Stats = Fpva_util.Stats

let now = Timer.now
let time = Timer.time

(* Every pooled call of the benchmark runs at this many domains; the
   benchmark machine has two cores. *)
let jobs = 2

let log fmt = Printf.ksprintf (fun s -> print_endline s) fmt

let median xs = Stats.percentile (Array.of_list xs) 50.0
let sum xs = List.fold_left ( +. ) 0.0 xs
let sum_int xs = List.fold_left ( + ) 0 xs

(* Run [f i] for i = 0, 1, ... until [seconds] have passed and at least
   [min_ops] calls were made; returns the number of calls. *)
let time_boxed ~seconds ~min_ops f =
  let t0 = now () in
  let rec go i =
    if i >= min_ops && Timer.elapsed t0 >= seconds then i
    else begin
      f i;
      go (i + 1)
    end
  in
  go 0

(* Set-up time: [f] run at least three times and for at least six
   seconds, the median reported with the first result.  A short set-up is
   repeated more often: a few samples of an interval under a second spread
   by a third between runs on a shared machine.  The heap is compacted
   after, so the timed work does not start from however much garbage that
   many repetitions left. *)
let setup_median f =
  let first, s = time f in
  let t0 = now () -. s in
  let rec more acc n =
    if n >= 3 && Timer.elapsed t0 >= 6.0 then acc
    else more (snd (time f) :: acc) (n + 1)
  in
  let samples = more [ s ] 1 in
  Gc.compact ();
  (first, median samples)

(* Peak resident set of a process, from /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      scan ())

(* Scratch files live under the checkout, in a directory git and dune
   ignore. *)
let scratch_root = "_perfbench_tmp"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_scratch_dir f =
  (try Sys.mkdir scratch_root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      remove_tree dir;
      try Sys.rmdir scratch_root with Sys_error _ -> ())
    (fun () -> f dir)

(* {1 Production trace data} *)

(* Run [f] with tracing on and an in-memory sink; counters are zeroed
   first.  Returns the result, the events and the wall time.  Counters
   keep their values after, for {!counter}. *)
let traced f =
  let sink, events = Trace.collector () in
  Trace.reset ();
  Trace.enable ~sinks:[ sink ] ();
  let result, wall =
    Fun.protect ~finally:Trace.disable (fun () -> time f)
  in
  (result, events (), wall)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Trace.counters ()))

let gauge name = Option.value ~default:0.0 (List.assoc_opt name (Trace.gauges ()))

let spans ?tag events name =
  List.filter_map
    (fun (e : Trace.event) ->
      if
        e.Trace.name = name
        && match tag with
           | None -> true
           | Some kv -> List.mem kv e.Trace.tags
      then Some e.Trace.dur
      else None)
    events

let span_total ?tag events name = sum (spans ?tag events name)

(* Share of the pooled wall time the pool's workers were busy: the
   [pool.worker] spans over [jobs] x the spans of the calls that ran a
   pool. *)
let pool_busy_ratio ~jobs events =
  let pooled =
    span_total events "campaign.run"
    +. span_total events "campaign.run_noisy"
    +. span_total events "diagnosis.build"
  in
  if pooled <= 0.0 then 0.0
  else span_total events "pool.worker" /. (float_of_int jobs *. pooled)

let overhead_pct ~untraced ~traced = 100.0 *. ((traced /. untraced) -. 1.0)

(* The per-layer metrics every in-process workload reads straight from
   the production counters, gauges and spans of its traced pass. *)
let production_layers events =
  let solves = counter "simplex.solves" in
  [ ("simplex.pivots", float_of_int (counter "simplex.pivots"));
    ( "simplex.pivots_per_solve",
      if solves = 0 then 0.0
      else float_of_int (counter "simplex.pivots") /. float_of_int solves );
    ("bb.nodes", float_of_int (counter "bb.nodes"));
    ("simplex.solve_s", span_total events "simplex.solve");
    ("bb.solve_s", span_total events "bb.solve");
    ("pool.busy_ratio", pool_busy_ratio ~jobs events);
    ("campaign.batch_occupancy", gauge "campaign.batch_occupancy");
    ("journal.records", float_of_int (counter "journal.records"));
    ("journal.bytes_fsynced", float_of_int (counter "journal.bytes_fsynced"));
    ( "checkpoint.shards_recorded",
      float_of_int (counter "checkpoint.shards_recorded") );
    ("diagnosis.build_s", span_total events "diagnosis.build");
    ( "campaign.run_ms",
      match spans events "campaign.run" with
      | [] -> 0.0
      | ds -> 1000.0 *. median ds ) ]

(* What one workload run hands back to [Bench.main]. *)
type outcome = {
  counts : Perfbench_report.Report.counts;
  checks : (string * bool) list;  (** output and faithfulness checks *)
  values : (string * float) list;  (** metric name -> value *)
}
