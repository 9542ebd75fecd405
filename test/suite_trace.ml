(* Tests for the Trace observability layer: the disabled no-op contract,
   counter/gauge semantics, sink behaviour, and the instrumentation threaded
   through the solver, pipeline and campaign layers. *)

open Helpers
module Trace = Fpva_util.Trace
module Lp = Fpva_milp.Lp
module Bb = Fpva_milp.Branch_bound
open Fpva_grid
open Fpva_testgen

(* Every test must leave tracing off for its neighbours: the trace state is
   process-global. *)
let with_tracing ?sinks f =
  Trace.reset ();
  Trace.enable ?sinks ();
  Fun.protect ~finally:Trace.disable f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let count_of name =
  match List.assoc_opt name (Trace.counters ()) with
  | Some n -> n
  | None -> Alcotest.failf "counter %s not registered" name

let gauge_of name =
  match List.assoc_opt name (Trace.gauges ()) with
  | Some v -> v
  | None -> Alcotest.failf "gauge %s not registered" name

let names_of events = List.map (fun e -> e.Trace.name) events

(* ---------- counters, gauges, lifecycle ---------- *)

let core_tests =
  [
    case "counters are inert while disabled" (fun () ->
        let c = Trace.counter "test.inert" in
        Trace.reset ();
        Trace.incr c;
        Trace.add c 41;
        checki "still zero" 0 (Trace.count c));
    case "counters accumulate while enabled" (fun () ->
        let c = Trace.counter "test.accum" in
        with_tracing (fun () ->
            Trace.incr c;
            Trace.add c 41);
        checki "42" 42 (Trace.count c));
    case "counter registration is idempotent" (fun () ->
        let a = Trace.counter "test.same" in
        let b = Trace.counter "test.same" in
        with_tracing (fun () -> Trace.incr a);
        checki "one cell" 1 (Trace.count b));
    case "gauges record only while enabled" (fun () ->
        let g = Trace.gauge "test.gauge" in
        Trace.reset ();
        Trace.set_gauge g 7.5;
        checkb "disabled set ignored" true
          (List.assoc "test.gauge" (Trace.gauges ()) = 0.0);
        with_tracing (fun () -> Trace.set_gauge g 7.5);
        checkb "enabled set lands" true
          (List.assoc "test.gauge" (Trace.gauges ()) = 7.5));
    case "reset zeroes counters and gauges" (fun () ->
        let c = Trace.counter "test.reset" in
        let g = Trace.gauge "test.reset_g" in
        with_tracing (fun () ->
            Trace.add c 5;
            Trace.set_gauge g 1.0);
        Trace.reset ();
        checki "counter" 0 (Trace.count c);
        checkb "gauge" true (List.assoc "test.reset_g" (Trace.gauges ()) = 0.0));
    case "metrics_nonempty and summary" (fun () ->
        Trace.reset ();
        checkb "empty after reset" false (Trace.metrics_nonempty ());
        checkb "placeholder" true
          (Trace.metrics_summary () = "metrics: nothing recorded\n");
        let c = Trace.counter "test.metrics" in
        with_tracing (fun () -> Trace.incr c);
        checkb "nonempty" true (Trace.metrics_nonempty ());
        let s = Trace.metrics_summary () in
        checkb "names the counter" true (contains s "test.metrics"));
    case "with_span is transparent and times the body" (fun () ->
        checki "disabled passthrough" 7 (Trace.with_span "t" (fun () -> 7));
        let sink, events = Trace.collector () in
        let r =
          with_tracing ~sinks:[ sink ] (fun () ->
              Trace.with_span "test.span" (fun () -> 13))
        in
        checki "enabled passthrough" 13 r;
        match events () with
        | [ ev ] ->
          check Alcotest.string "name" "test.span" ev.Trace.name;
          checkb "nonnegative duration" true (ev.Trace.dur >= 0.0);
          checkb "nonnegative start" true (ev.Trace.ts >= 0.0)
        | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
    case "with_span emits on exception" (fun () ->
        let sink, events = Trace.collector () in
        (try
           with_tracing ~sinks:[ sink ] (fun () ->
               Trace.with_span "test.raise" (fun () -> failwith "boom"))
         with Failure _ -> ());
        checkb "span emitted" true
          (List.mem "test.raise" (names_of (events ()))));
    case "emit_span backdates the start by the duration" (fun () ->
        let sink, events = Trace.collector () in
        with_tracing ~sinks:[ sink ] (fun () ->
            Trace.emit_span "test.back" ~dur:0.25);
        match events () with
        | [ ev ] ->
          checkb "dur kept" true (ev.Trace.dur = 0.25);
          checkb "ts clamped at 0" true (ev.Trace.ts >= 0.0)
        | _ -> Alcotest.fail "expected one event");
  ]

(* ---------- sinks ---------- *)

let json_of_events emit_all =
  let path = Filename.temp_file "fpva_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.reset ();
      Trace.enable ~sinks:[ Trace.json_sink oc ] ();
      Fun.protect ~finally:Trace.disable emit_all;
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let sink_tests =
  [
    case "json sink writes one object per line" (fun () ->
        let text =
          json_of_events (fun () ->
              Trace.instant "a";
              Trace.instant ~tags:[ ("k", "v") ] "b")
        in
        let lines =
          String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
        in
        checki "two lines" 2 (List.length lines);
        List.iter
          (fun l ->
            checkb "object shape" true
              (String.length l > 1 && l.[0] = '{'
              && l.[String.length l - 1] = '}'))
          lines;
        checkb "tag present" true (contains text "\"k\":\"v\""));
    case "json sink escapes quotes, backslashes and control chars" (fun () ->
        let text =
          json_of_events (fun () ->
              Trace.instant
                ~tags:[ ("msg", "say \"hi\"\\there\nnewline\ttab") ]
                "test.escape \x01")
        in
        checkb "escaped quote" true (contains text "say \\\"hi\\\"");
        checkb "escaped backslash" true (contains text "\\\\there");
        checkb "escaped newline" true (contains text "\\nnewline");
        checkb "escaped tab" true (contains text "\\ttab");
        checkb "escaped control" true (contains text "\\u0001");
        checkb "no raw newline inside a record" true
          (not (contains text "newline\n")));
    case "collector returns events in emission order" (fun () ->
        let sink, events = Trace.collector () in
        with_tracing ~sinks:[ sink ] (fun () ->
            Trace.instant "first";
            Trace.instant "second");
        check
          (Alcotest.list Alcotest.string)
          "order" [ "first"; "second" ]
          (names_of (events ())));
    case "summary sink aggregates per span name" (fun () ->
        let out = Buffer.create 256 in
        with_tracing ~sinks:[ Trace.summary_sink (Buffer.add_string out) ]
          (fun () ->
            Trace.emit_span "stage" ~dur:0.1;
            Trace.emit_span "stage" ~dur:0.3);
        let rendered = Buffer.contents out in
        checkb "has the span row" true (contains rendered "stage");
        checkb "summed total" true (contains rendered "0.400"));
    case "null sink keeps metrics-only mode alive" (fun () ->
        let c = Trace.counter "test.nullsink" in
        with_tracing ~sinks:[ Trace.null_sink ] (fun () ->
            Trace.incr c;
            Trace.instant "swallowed");
        checki "counter counted" 1 (Trace.count c));
  ]

(* ---------- instrumentation coverage ---------- *)

let knapsack_lp () =
  let lp = Lp.create Lp.Maximize in
  let xs = Array.init 8 (fun _ -> Lp.add_var lp Lp.Binary) in
  Lp.add_constr lp
    (Array.to_list (Array.mapi (fun i x -> (float_of_int ((i mod 4) + 1), x)) xs))
    Lp.Le 7.0;
  Lp.set_objective lp
    (Array.to_list (Array.mapi (fun i x -> (float_of_int (i + 1), x)) xs));
  lp

let coverage_tests =
  [
    case "branch-and-bound emits solver spans and counters" (fun () ->
        let sink, events = Trace.collector () in
        let outcome =
          with_tracing ~sinks:[ sink ] (fun () -> Bb.solve (knapsack_lp ()))
        in
        (match outcome with
        | Bb.Optimal _ -> ()
        | _ -> Alcotest.fail "knapsack should solve to optimality");
        let names = names_of (events ()) in
        checkb "bb.solve span" true (List.mem "bb.solve" names);
        checkb "simplex.solve spans" true (List.mem "simplex.solve" names);
        checkb "bb nodes counted" true (count_of "bb.nodes" > 0);
        checkb "simplex solves counted" true (count_of "simplex.solves" > 0);
        checkb "simplex iterations counted" true
          (count_of "simplex.iterations" > 0);
        let bb_span =
          List.find (fun e -> e.Trace.name = "bb.solve") (events ())
        in
        checkb "outcome tag" true
          (List.assoc_opt "outcome" bb_span.Trace.tags = Some "optimal"));
    case "pipeline emits one span per stage plus a run span" (fun () ->
        let sink, events = Trace.collector () in
        let t = Layouts.paper_array 4 in
        ignore
          (with_tracing ~sinks:[ sink ] (fun () -> Pipeline.run_exn t));
        let evs = events () in
        let stages =
          List.filter (fun e -> e.Trace.name = "pipeline.stage") evs
        in
        checki "three stages" 3 (List.length stages);
        let stage_tags =
          List.filter_map (fun e -> List.assoc_opt "stage" e.Trace.tags) stages
        in
        check
          (Alcotest.list Alcotest.string)
          "stage names" [ "flow"; "cut"; "leak" ] stage_tags;
        checkb "run span" true (List.mem "pipeline.run" (names_of evs));
        checkb "statuses tagged" true
          (List.for_all
             (fun e -> List.mem_assoc "status" e.Trace.tags)
             stages));
    case "path_search counters repeat and leave the suite unchanged" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite r = Suite_io.to_string t r.Pipeline.vectors in
        let untraced = suite (Pipeline.run_exn t) in
        let traced () =
          with_tracing (fun () ->
              let r = Pipeline.run_exn t in
              ( suite r,
                List.map count_of
                  [ "path_search.calls"; "path_search.steps"; "path_search.dives" ] ))
        in
        let suite1, counts1 = traced () in
        let _, counts2 = traced () in
        check Alcotest.(list int) "equal counts" counts1 counts2;
        checkb "nonzero" true (List.for_all (fun c -> c > 0) counts1);
        check Alcotest.string "traced suite = untraced" untraced suite1);
    case "traced sharded campaign matches its untraced twin" (fun () ->
        let t = Layouts.paper_array 5 in
        let suite = Pipeline.run_exn t in
        let vectors = suite.Pipeline.vectors in
        let config =
          { Fpva_sim.Campaign.default_config with
            Fpva_sim.Campaign.trials = 40;
            fault_counts = [ 1; 2 ];
            seed = 11 }
        in
        let off = Fpva_sim.Campaign.run ~config ~jobs:2 t ~vectors in
        let sink, events = Trace.collector () in
        let on =
          with_tracing ~sinks:[ sink ] (fun () ->
              Fpva_sim.Campaign.run ~config ~jobs:2 t ~vectors)
        in
        (* Polymorphic compare treats nan = nan, so rows with no detections
           (mean_latency = nan) still compare equal. *)
        checkb "rows identical" true
          (compare off.Fpva_sim.Campaign.rows on.Fpva_sim.Campaign.rows = 0);
        let names = names_of (events ()) in
        checkb "campaign.run span" true (List.mem "campaign.run" names);
        checkb "pool.worker spans" true (List.mem "pool.worker" names);
        checkb "trials counted" true (count_of "campaign.trials" = 80);
        (* The batch is the pool's work item: 40 trials fit one 63-wide
           batch, so each row is one item with 40 of its 63 lanes used. *)
        check (Alcotest.float 1e-12) "batch occupancy" (40.0 /. 63.0)
          (gauge_of "campaign.batch_occupancy");
        let workers =
          List.filter (fun e -> e.Trace.name = "pool.worker") (events ())
        in
        let claimed =
          List.fold_left
            (fun acc e ->
              match List.assoc_opt "items" e.Trace.tags with
              | Some s -> acc + int_of_string s
              | None -> acc)
            0 workers
        in
        checki "worker items cover every batch" 2 claimed);
    case "budget-skipped trials are not counted" (fun () ->
        let t = Layouts.paper_array 5 in
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let base =
          { Fpva_sim.Campaign.default_config with
            Fpva_sim.Campaign.trials = 40;
            fault_counts = [ 1; 2 ] }
        in
        let noisy =
          { Fpva_sim.Campaign.base; noise_levels = [ 0.02 ]; repeats = 2 }
        in
        let budget = Budget.of_seconds 0.0 in
        let r, nr =
          with_tracing (fun () ->
              ( Fpva_sim.Campaign.run ~config:base ~budget t ~vectors,
                Fpva_sim.Campaign.run_noisy ~config:noisy ~budget t ~vectors ))
        in
        checkb "every row truncated" true
          (r.Fpva_sim.Campaign.rows = []
          && nr.Fpva_sim.Campaign.noise_rows = []);
        checki "no trials" 0 (count_of "campaign.trials");
        checki "no noisy trials" 0 (count_of "campaign.noisy_trials");
        check (Alcotest.float 0.0) "no rate" 0.0
          (gauge_of "campaign.trials_per_sec");
        check (Alcotest.float 0.0) "no noisy rate" 0.0
          (gauge_of "campaign.noisy_trials_per_sec");
        check (Alcotest.float 0.0) "no occupancy" 0.0
          (gauge_of "campaign.batch_occupancy"));
    case "journal-replayed trials are not counted" (fun () ->
        let module Checkpoint = Fpva_sim.Checkpoint in
        let t = Layouts.paper_array 5 in
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let config =
          { Fpva_sim.Campaign.default_config with
            Fpva_sim.Campaign.trials = 300;
            fault_counts = [ 1; 2 ] }
        in
        let key = Fpva_sim.Campaign.checkpoint_key config t ~vectors in
        let path = Filename.temp_file "fpva-trace" ".ckpt" in
        let run ~resume =
          match Checkpoint.open_ ~path ~resume ~key () with
          | Error e -> Alcotest.fail (Checkpoint.open_error_to_string e)
          | Ok ck ->
            Fun.protect
              ~finally:(fun () -> Checkpoint.close ck)
              (fun () ->
                Fpva_sim.Campaign.run ~config ~jobs:2 ~checkpoint:ck t
                  ~vectors)
        in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let cold = run ~resume:false in
            let resumed = with_tracing (fun () -> run ~resume:true) in
            checkb "rows replayed" true
              (compare cold.Fpva_sim.Campaign.rows
                 resumed.Fpva_sim.Campaign.rows
              = 0);
            checkb "shards replayed" true
              (count_of "checkpoint.shards_skipped" > 0);
            checki "no trials" 0 (count_of "campaign.trials")));
    case "diagnosis.build is spanned" (fun () ->
        let t = Layouts.paper_array 4 in
        let suite = Pipeline.run_exn t in
        let sink, events = Trace.collector () in
        ignore
          (with_tracing ~sinks:[ sink ] (fun () ->
               Fpva_sim.Diagnosis.build t ~vectors:suite.Pipeline.vectors
                 ~faults:(Fpva_sim.Diagnosis.single_faults t)));
        checkb "diagnosis span" true
          (List.mem "diagnosis.build" (names_of (events ()))));
  ]

let tests = core_tests @ sink_tests @ coverage_tests
