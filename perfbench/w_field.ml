(* field_diagnose: the 10x10 suite in the field, read through noisy meters.
   A screening phase runs Campaign.run_noisy (noise 0.02, up to 3 reads per
   vector, 1..5 faults) at two domains; a diagnosis phase runs two adaptive
   Diagnosis.Sequential sessions for each single stuck-at fault, in a
   seeded order, each read through Measurement.uniform 0.02 and
   Retest.policy 3 at confidence 0.95, as `fpva diagnose --sequential
   --noise` does.  This
   is the workload that uses fpva_sim one scalar read at a time. *)

open Fpva_grid
open Common
module R = Perfbench_report.Report
module Sim = Fpva_sim
module Seq = Sim.Diagnosis.Sequential
module Rng = Fpva_util.Rng

let noise = 0.02
let repeats = 3
let screen_trials = 200

(* Passes of diagnosis sessions over the single-fault universe. *)
let passes = 2

(* Screening campaigns guaranteed per run. *)
let min_screens = 5

let screen_config ~seed i =
  { Sim.Campaign.base =
      { Sim.Campaign.default_config with
        Sim.Campaign.trials = screen_trials;
        seed = Rng.mix seed i };
    noise_levels = [ noise ];
    repeats }

type session = {
  fault : Sim.Fault.t;
  outcome : Seq.outcome;
  seconds : float;
  read_s : float;  (** spent inside the meter reads *)
  reads : int;  (** meter reads, retests included *)
}

type env = {
  fpva : Fpva.t;
  vectors : Fpva_testgen.Test_vector.t list;
  meter : Sim.Measurement.t;
  handle : Sim.Simulator.handle;
  config : Seq.config;
}

(* Session i's chip carries fault [order.(i mod n)]: the single stuck-at
   universe in a seeded order, so a run visits most of it and the mix of
   easy and hard faults varies little between seeds. *)
let session env ~seed ~order dict i =
  let fault = order.(i mod Array.length order) in
  let rng = Rng.derive (seed lxor 0x2545f491) i in
  let policy = Fpva_testgen.Retest.policy repeats in
  let read_s = ref 0.0 and reads = ref 0 in
  let read _ v =
    (Fpva_testgen.Retest.apply policy ~read:(fun _ ->
         let t = now () in
         let d = Sim.Measurement.detects_h env.meter rng env.handle ~faults:[ fault ] v in
         read_s := !read_s +. Timer.elapsed t;
         incr reads;
         d))
      .Fpva_testgen.Retest.failed
  in
  let outcome, seconds = time (fun () -> Seq.run ~config:env.config dict ~read) in
  { fault; outcome; seconds; read_s = !read_s; reads = !reads }

let hit s = List.exists (Sim.Fault.equal s.fault) s.outcome.Seq.isolated

let screen env ~seed i =
  time (fun () ->
      Sim.Campaign.run_noisy ~config:(screen_config ~seed i) ~jobs env.fpva
        ~vectors:env.vectors)

let build env =
  Sim.Diagnosis.build ~jobs env.fpva ~vectors:env.vectors
    ~faults:(Sim.Diagnosis.single_faults env.fpva)

let run ~seed ~seconds ~trace =
  let (env, dict), setup_s =
    setup_median (fun () ->
        let fpva = Layouts.paper_array 10 in
        let suite = Fpva_testgen.Pipeline.run_exn fpva in
        let meter = Sim.Measurement.uniform fpva ~false_pass:noise ~false_fail:noise in
        let env =
          { fpva;
            vectors = suite.Fpva_testgen.Pipeline.vectors;
            meter;
            handle = Sim.Simulator.make fpva;
            config =
              { Seq.false_pass = Sim.Measurement.vector_false_pass meter;
                false_fail = Sim.Measurement.vector_false_fail meter;
                confidence = 0.95;
                max_reads = None } }
        in
        (env, build env))
  in
  let order = Array.of_list (Sim.Diagnosis.single_faults env.fpva) in
  Rng.shuffle_in_place (Rng.create seed) order;
  let screens = ref [] in
  let n_screens =
    time_boxed ~seconds:(seconds /. 2.0) ~min_ops:min_screens (fun i ->
        screens := screen env ~seed i :: !screens)
  in
  let screens = List.rev !screens in
  (* Two sessions per single stuck-at fault, in a seeded order: every run
     diagnoses the same faults, so the spread of session times does not
     hang on which faults a run had time for; one pass over the faults
     (about 10 s) spread 0.24 over ten seeds. *)
  let sessions =
    List.init (passes * Array.length order) (session env ~seed ~order dict)
  in
  let n_sessions = List.length sessions in
  let hits = List.map hit sessions in
  let misses = List.length (List.filter not hits) in
  let stopped k = List.length (List.filter (fun s -> s.outcome.Seq.stop = k) sessions) in
  (* A session fails outright when every candidate is eliminated, which
     needs a meter rate of 0; at noise 0.02 none is, so none fails.  One
     that stops on a wrong class is a miss of the statistical stop: it
     lowers pass_ratio, and the check below bounds how often it happens.
     Running out of informative vectors below the confidence (Exhausted)
     is the usual end for faults the suite cannot tell apart. *)
  let counts =
    R.of_outcomes (List.map (fun s -> s.outcome.Seq.isolated <> []) sessions)
  in
  let sweep = Seq.sweep dict in
  let checks =
    [ ("zero-noise sequential sweep agrees with diagnose", sweep.Seq.all_agree);
      ( "sessions stopping on a wrong class are at most 1 - confidence",
        float_of_int misses <= (1.0 -. env.config.Seq.confidence) *. float_of_int n_sessions ) ]
  in
  log "field_diagnose: stops isolated %d, confident %d, exhausted %d; %d misses"
    (stopped Seq.Isolated) (stopped Seq.Confident) (stopped Seq.Exhausted) misses;
  let trials (r : Sim.Campaign.noise_result) =
    List.fold_left
      (fun a row -> a + row.Sim.Campaign.n_trials)
      0 r.Sim.Campaign.noise_rows
  in
  let tps = List.map (fun (r, s) -> float_of_int (trials r) /. s) screens in
  let session_s = List.map (fun s -> s.seconds) sessions in
  let sessions_per_s = float_of_int n_sessions /. sum session_s in
  let reads_mean =
    float_of_int (List.fold_left (fun a s -> a + s.outcome.Seq.reads) 0 sessions)
    /. float_of_int n_sessions
  in
  log "field_diagnose: %d screening campaigns, %d sessions (%d isolate the fault)"
    n_screens n_sessions (List.length (List.filter Fun.id hits));
  log "screen_trials_per_s = %.1f 1/s, diagnose_sessions_per_s = %.2f 1/s, \
       diagnose_reads_mean = %.2f"
    (median tps) sessions_per_s reads_mean;
  let t = R.timing ~planned:n_sessions (Array.of_list session_s) in
  if not trace then
    { counts;
      checks;
      values =
        [ ("setup_s", setup_s);
          ("peak_rss_mb", peak_rss_mb ());
          ("pass_ratio", 1.0 -. R.failed_ratio (R.of_outcomes hits));
          ("primary_per_s", median tps);
          ("secondary_per_s", sessions_per_s);
          ("op_p50_ms", 1000.0 *. t.R.median);
          ("op_tail_ms", 1000.0 *. t.R.tail);
          ("vectors_per_op", reads_mean) ] }
  else begin
    let (traced_dict, traced_screens, traced_sessions), events, _ =
      traced (fun () ->
          let d = build env in
          let sc = List.init n_screens (screen env ~seed) in
          (d, sc, List.init n_sessions (session env ~seed ~order d)))
    in
    (* Medians, so a drift of the machine during one pass does not read
       as tracing cost. *)
    let wall sc ss =
      (float_of_int n_screens *. median (List.map snd sc))
      +. (float_of_int n_sessions *. median (List.map (fun s -> s.seconds) ss))
    in
    let untraced = wall screens sessions in
    let traced_wall = wall traced_screens traced_sessions in
    let rows (r, _) = r.Sim.Campaign.noise_rows in
    let same_session a b =
      a.outcome.Seq.reads = b.outcome.Seq.reads
      && List.equal Sim.Fault.equal a.outcome.Seq.isolated b.outcome.Seq.isolated
    in
    let isum f l = List.fold_left (fun a x -> a + f x) 0 l in
    let all_rows = List.concat_map rows screens in
    { counts;
      checks =
        checks
        @ [ ( "traced outputs equal untraced outputs",
              Sim.Diagnosis.equivalence_classes traced_dict
              = Sim.Diagnosis.equivalence_classes dict
              && List.for_all2 (fun a b -> rows a = rows b) screens traced_screens
              && List.for_all2 same_session sessions traced_sessions ) ];
      values =
        Common.production_layers events
        @ [ ( "retest.reads_per_vector",
              float_of_int (isum (fun r -> r.Sim.Campaign.total_reads) all_rows)
              /. float_of_int (isum (fun r -> r.Sim.Campaign.vector_slots) all_rows) );
            ( "simulator.read_us",
              1e6 *. sum (List.map (fun s -> s.read_s) sessions)
              /. float_of_int (isum (fun s -> s.reads) sessions) );
            ("simulator.reads", float_of_int (isum (fun s -> s.reads) sessions));
            ( "diagnosis.select_s",
              sum (List.map (fun s -> s.seconds -. s.read_s) sessions)
              /. float_of_int n_sessions );
            ("trace_overhead_pct", overhead_pct ~untraced ~traced:traced_wall);
            ("op_samples", float_of_int t.R.samples);
            ("op_tail_pct", t.R.tail_pct) ] }
  end
