(* Measurement-noise model, adaptive retesting, likelihood-ranked
   diagnosis, and the noisy campaign sweep. *)

open Helpers
open Fpva_grid
open Fpva_testgen
open Fpva_sim
module Rng = Fpva_util.Rng

let sample_layout () = Layouts.paper_array 5

(* The robustness acceptance checks run on an 8x8 array; generate its suite
   once and share it. *)
let eight =
  lazy
    (let t = Layouts.paper_array 8 in
     let r = Pipeline.run_exn t in
     (t, r.Pipeline.vectors))

let measurement_tests =
  [
    case "ideal measurement equals the plain simulator" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let m = Measurement.ideal t in
        let rng = Rng.create 11 and h = Simulator.make t in
        checkb "ideal" true (Measurement.is_ideal m);
        List.iter
          (fun v ->
            List.iter
              (fun faults ->
                check
                  Alcotest.(array bool)
                  "same response"
                  (Simulator.apply_vector t ~faults v)
                  (Measurement.apply_vector_h m rng h ~faults v))
              [ []; [ Fault.Stuck_at_0 0 ]; [ Fault.Stuck_at_1 3 ] ])
          r.Pipeline.vectors);
    case "ideal measurement consumes no randomness" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let m = Measurement.ideal t in
        let rng_a = Rng.create 5 and rng_b = Rng.create 5 in
        let h = Simulator.make t in
        List.iter
          (fun v -> ignore (Measurement.apply_vector_h m rng_a h ~faults:[] v))
          r.Pipeline.vectors;
        checki "stream untouched" (Rng.int rng_b 1_000_000)
          (Rng.int rng_a 1_000_000));
    case "rates outside [0,1] are rejected" (fun () ->
        let t = sample_layout () in
        Alcotest.check_raises "negative"
          (Invalid_argument "Measurement.uniform: rate -0.1 outside [0,1]")
          (fun () ->
            ignore (Measurement.uniform t ~false_pass:(-0.1) ~false_fail:0.0));
        Alcotest.check_raises "too large"
          (Invalid_argument "Measurement.uniform: rate 1.5 outside [0,1]")
          (fun () ->
            ignore (Measurement.uniform t ~false_pass:0.0 ~false_fail:1.5)));
    case "noisy observation is seed-reproducible" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let m = Measurement.uniform t ~false_pass:0.2 ~false_fail:0.2 in
        let h = Simulator.make t in
        let readout seed =
          let rng = Rng.create seed in
          List.map
            (fun v ->
              Array.to_list (Measurement.apply_vector_h m rng h ~faults:[] v))
            r.Pipeline.vectors
        in
        checkb "equal seeds, equal readings" true (readout 9 = readout 9);
        (* with 20%-noisy meters the stream must actually perturb readings *)
        let ideal =
          List.map
            (fun v -> Array.to_list v.Test_vector.golden)
            r.Pipeline.vectors
        in
        checkb "noise fired somewhere" true (readout 9 <> ideal));
    case "false-fail only corrupts agreeing meters" (fun () ->
        (* false_pass alone can never invent a discrepancy on a healthy
           chip: observations stay golden. *)
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let m = Measurement.uniform t ~false_pass:0.9 ~false_fail:0.0 in
        let rng = Rng.create 3 and h = Simulator.make t in
        List.iter
          (fun v ->
            checkb "no phantom failure" false
              (Measurement.detects_h m rng h ~faults:[] v))
          r.Pipeline.vectors);
    case "vector-level flip probabilities" (fun () ->
        let t = sample_layout () in
        let m = Measurement.uniform t ~false_pass:0.1 ~false_fail:0.0 in
        check (Alcotest.float 1e-9) "no false fail" 0.0
          (Measurement.vector_false_fail m);
        check (Alcotest.float 1e-9) "false pass is the meter rate" 0.1
          (Measurement.vector_false_pass m);
        let ideal = Measurement.ideal t in
        check (Alcotest.float 1e-9) "ideal fp" 0.0
          (Measurement.vector_false_pass ideal));
  ]

let intermittent_tests =
  [
    case "ideal simulator treats intermittent as active" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let f = Fault.intermittent ~probability:0.5 (Fault.Stuck_at_0 0) in
        checkb "worst case detected" true
          (Simulator.detected_by_suite t ~faults:[ f ] r.Pipeline.vectors));
    case "resolve honours the activation probability" (fun () ->
        let rng = Rng.create 17 in
        let base = Fault.Stuck_at_0 4 in
        checkb "p=0 never active" true
          (Fault.resolve rng [ Fault.intermittent ~probability:0.0 base ] = []);
        checkb "p=1 always active" true
          (Fault.resolve rng [ Fault.intermittent ~probability:1.0 base ]
          = [ base ]);
        let permanent = [ base; Fault.Stuck_at_1 2 ] in
        checkb "a permanent list comes back as it is" true
          (Fault.resolve rng permanent == permanent);
        let hits = ref 0 in
        for _ = 1 to 1000 do
          match
            Fault.resolve rng [ Fault.intermittent ~probability:0.3 base ]
          with
          | [ f ] ->
            checkb "resolves to the wrapped fault" true (Fault.equal f base);
            incr hits
          | [] -> ()
          | _ -> Alcotest.fail "resolve invented faults"
        done;
        checkb "activity rate near 0.3" true (!hits > 200 && !hits < 400));
    case "intermittent validity and formatting" (fun () ->
        let t = sample_layout () in
        checkb "valid" true
          (Fault.is_valid t
             (Fault.intermittent ~probability:0.25 (Fault.Stuck_at_1 1)));
        checkb "bad probability" false
          (Fault.is_valid t (Fault.Intermittent (Fault.Stuck_at_1 1, 1.5)));
        Alcotest.check_raises "constructor validates"
          (Invalid_argument "Fault.intermittent: probability outside [0,1]")
          (fun () ->
            ignore (Fault.intermittent ~probability:2.0 (Fault.Stuck_at_0 0)));
        check Alcotest.string "pp" "INT(SA0(valve 3)@0.25)"
          (Fault.to_string
             (Fault.intermittent ~probability:0.25 (Fault.Stuck_at_0 3)));
        check
          (Alcotest.list Alcotest.int)
          "valves involved" [ 1; 2 ]
          (Fault.valves_involved
             (Fault.intermittent ~probability:0.5 (Fault.Control_leak (1, 2)))));
    case "noisy path re-draws intermittent activity per application"
      (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let f = Fault.intermittent ~probability:0.5 (Fault.Stuck_at_0 0) in
        (* a vector the underlying permanent fault certainly fails *)
        let v =
          match
            Simulator.first_detecting t
              ~faults:[ Fault.Stuck_at_0 0 ]
              r.Pipeline.vectors
          with
          | Some v -> v
          | None -> Alcotest.fail "SA0(0) undetected by the suite"
        in
        let m = Measurement.ideal t in
        let rng = Rng.create 23 and h = Simulator.make t in
        let fired = ref 0 in
        for _ = 1 to 200 do
          if Measurement.detects_h m rng h ~faults:[ f ] v then incr fired
        done;
        checkb "sporadic, not permanent" true (!fired > 50 && !fired < 150));
  ]

let retest_tests =
  [
    case "single-read policy is one read" (fun () ->
        let v = Retest.apply (Retest.policy 1) ~read:(fun _ -> true) in
        checkb "failed" true v.Retest.failed;
        checki "reads" 1 v.Retest.reads;
        checkb "unanimous" true (Retest.unanimous v));
    case "agreeing reads stop at the confirmation read" (fun () ->
        let v = Retest.apply (Retest.policy 5) ~read:(fun _ -> false) in
        checkb "passed" false v.Retest.failed;
        checki "two reads only" 2 v.Retest.reads);
    case "a single flaky read is outvoted" (fun () ->
        (* flip the first read of a passing vector: the scheduler escalates
           and the majority recovers the truth *)
        let read = Chaos.flaky_read ~flips:[ 0 ] (fun _ -> false) in
        let v = Retest.apply (Retest.policy 3) ~read in
        checkb "recovered" false v.Retest.failed;
        checki "escalated to the full budget" 3 v.Retest.reads;
        checkb "split vote" false (Retest.unanimous v));
    case "majority stops as soon as it is decided" (fun () ->
        (* fail, pass, fail: with k=5 the fourth read can still be needed,
           but a third fail at attempt 3 settles it in 4 reads *)
        let read = Chaos.flaky_read ~flips:[ 1 ] (fun _ -> true) in
        let v = Retest.apply (Retest.policy 5) ~read in
        checkb "failed" true v.Retest.failed;
        checki "stopped at majority" 4 v.Retest.reads;
        checki "fail votes" 3 v.Retest.fail_votes);
    case "ties resolve to failed" (fun () ->
        let read = Chaos.flaky_read ~flips:[ 0 ] (fun _ -> false) in
        let v = Retest.apply (Retest.policy 2) ~read in
        checkb "conservative" true v.Retest.failed;
        checki "both reads" 2 v.Retest.reads);
    case "policy validates its budget" (fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Retest.policy: max_reads must be >= 1")
          (fun () -> ignore (Retest.policy 0)));
    case "session accounting" (fun () ->
        let items = [ `Clean; `Flaky; `Bad ] in
        let read item attempt =
          match item with
          | `Clean -> false
          | `Bad -> true
          | `Flaky -> attempt = 0 (* one spurious fail, then clean *)
        in
        let s = Retest.run (Retest.policy 3) ~read items in
        checki "total reads (2 + 3 + 2)" 7 s.Retest.total_reads;
        checki "escalated" 1 s.Retest.escalated;
        checki "flagged" 1 s.Retest.flagged;
        check (Alcotest.float 1e-9) "mean reads" (7.0 /. 3.0)
          (Retest.mean_reads s);
        let summary = Report.retest_summary s in
        checkb "summary mentions totals" true
          (String.length summary > 0
          && String.index_opt summary '7' <> None));
  ]

let identity_tests =
  [
    case "noise 0 + repeats 1 reproduces the ideal campaign bit-for-bit"
      (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let base =
          { Campaign.default_config with Campaign.trials = 300 }
        in
        let ideal = Campaign.run ~config:base t ~vectors:r.Pipeline.vectors in
        let noisy =
          Campaign.run_noisy
            ~config:
              { Campaign.base; noise_levels = [ 0.0 ]; repeats = 1 }
            t ~vectors:r.Pipeline.vectors
        in
        checki "row count" (List.length ideal.Campaign.rows)
          (List.length noisy.Campaign.noise_rows);
        List.iter2
          (fun (row : Campaign.row) (nrow : Campaign.noise_row) ->
            checki "fault count" row.Campaign.fault_count
              nrow.Campaign.n_fault_count;
            checki "same detections" row.Campaign.detected
              nrow.Campaign.n_detected;
            checki "same short draws" row.Campaign.short_draws
              nrow.Campaign.n_short_draws;
            checki "same void draws" row.Campaign.void_draws
              nrow.Campaign.n_void_draws;
            checki "no false alarms" 0 nrow.Campaign.false_alarms;
            check (Alcotest.float 1e-9) "single read per vector" 1.0
              (Campaign.mean_reads nrow))
          ideal.Campaign.rows noisy.Campaign.noise_rows);
    case "rank with zero noise equals exact diagnosis" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let faults = Diagnosis.single_faults t in
        let dict = Diagnosis.build t ~vectors:r.Pipeline.vectors ~faults in
        List.iter
          (fun injected ->
            let observed =
              Diagnosis.syndrome_of t ~vectors:r.Pipeline.vectors
                ~faults:[ injected ]
            in
            let exact = Diagnosis.diagnose dict observed in
            let ranked = Diagnosis.rank dict observed in
            checki "same candidate set"
              (List.length exact) (List.length ranked);
            List.iter
              (fun (rk : Diagnosis.ranked) ->
                checkb "ranked is an exact match" true
                  (List.exists (Fault.equal rk.Diagnosis.fault) exact);
                checki "hamming zero" 0 rk.Diagnosis.hamming;
                check (Alcotest.float 1e-9) "uniform confidence"
                  (1.0 /. float_of_int (List.length exact))
                  rk.Diagnosis.confidence)
              ranked)
          [ Fault.Stuck_at_0 2; Fault.Stuck_at_1 7; Fault.Stuck_at_0 20 ]);
    case "rank rejects degenerate rates" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let dict =
          Diagnosis.build t ~vectors:r.Pipeline.vectors
            ~faults:[ Fault.Stuck_at_0 0 ]
        in
        let observed =
          Diagnosis.syndrome_of t ~vectors:r.Pipeline.vectors
            ~faults:[ Fault.Stuck_at_0 0 ]
        in
        Alcotest.check_raises "rate 1 is not a measurement"
          (Invalid_argument "Diagnosis.rank: rate 1 outside [0,1)")
          (fun () ->
            ignore (Diagnosis.rank ~false_pass:1.0 dict observed)));
  ]

let robustness_tests =
  [
    slow_case "majority-vote retest restores 8x8 detection under 3% noise"
      (fun () ->
        let t, vectors = Lazy.force eight in
        let base =
          { Campaign.default_config with
            Campaign.trials = 200;
            fault_counts = [ 1; 2 ] }
        in
        let ideal = Campaign.run ~config:base t ~vectors in
        let noisy =
          Campaign.run_noisy
            ~config:
              { Campaign.base; noise_levels = [ 0.03 ]; repeats = 5 }
            t ~vectors
        in
        List.iter2
          (fun (row : Campaign.row) (nrow : Campaign.noise_row) ->
            let ideal_rate = Campaign.detection_rate row in
            let noisy_rate = Campaign.noisy_detection_rate nrow in
            checkb
              (Printf.sprintf
                 "within 1 point at %d fault(s): ideal %.4f noisy %.4f"
                 row.Campaign.fault_count ideal_rate noisy_rate)
              true
              (noisy_rate >= ideal_rate -. 0.01))
          ideal.Campaign.rows noisy.Campaign.noise_rows);
    slow_case "single-read application degrades; retest wins it back"
      (fun () ->
        let t, vectors = Lazy.force eight in
        let base =
          { Campaign.default_config with
            Campaign.trials = 150;
            fault_counts = [ 1 ] }
        in
        let sweep repeats =
          match
            (Campaign.run_noisy
               ~config:
                 { Campaign.base; noise_levels = [ 0.05 ]; repeats }
               t ~vectors)
              .Campaign.noise_rows
          with
          | [ row ] -> row
          | _ -> Alcotest.fail "expected one row"
        in
        let single = sweep 1 and voted = sweep 5 in
        checkb "retest reduces false alarms" true
          (voted.Campaign.false_alarms <= single.Campaign.false_alarms);
        checkb "retest pays extra reads" true
          (Campaign.mean_reads voted > Campaign.mean_reads single));
    slow_case "rank places the injected fault in the top class under noise"
      (fun () ->
        (* the acceptance scenario: apply the suite through 3%-noisy meters
           with majority-vote retesting, then rank the resulting syndrome *)
        let t, vectors = Lazy.force eight in
        let faults = Diagnosis.single_faults t in
        let dict = Diagnosis.build t ~vectors ~faults in
        let m = Measurement.uniform t ~false_pass:0.03 ~false_fail:0.03 in
        let h = Simulator.make t in
        List.iter
          (fun injected ->
            let rng = Rng.create 41 in
            let session =
              Retest.run (Retest.policy 5)
                ~read:(fun v _ ->
                  Measurement.detects_h m rng h ~faults:[ injected ] v)
                vectors
            in
            let observed =
              Array.of_list
                (List.map
                   (fun o -> o.Retest.verdict.Retest.failed)
                   session.Retest.outcomes)
            in
            let ranked =
              Diagnosis.rank
                ~false_pass:(Measurement.vector_false_pass m)
                ~false_fail:(Measurement.vector_false_fail m)
                dict observed
            in
            checkb "non-empty ranking" true (ranked <> []);
            checkb
              (Printf.sprintf "%s in the maximum-likelihood class"
                 (Fault.to_string injected))
              true
              (List.exists
                 (fun (r : Diagnosis.ranked) ->
                   Fault.equal r.Diagnosis.fault injected)
                 (Diagnosis.top_class ranked)))
          [ Fault.Stuck_at_0 17; Fault.Stuck_at_1 30 ]);
    slow_case "rank survives a masked failure that defeats exact diagnosis"
      (fun () ->
        let t, vectors = Lazy.force eight in
        let faults = Diagnosis.single_faults t in
        let dict = Diagnosis.build t ~vectors ~faults in
        let injected = Fault.Stuck_at_0 17 in
        let observed = Diagnosis.syndrome_of t ~vectors ~faults:[ injected ] in
        let corrupted = Array.copy observed in
        (match
           Array.to_seqi corrupted |> Seq.find (fun (_, failed) -> failed)
         with
        | Some (i, _) -> corrupted.(i) <- false (* false pass *)
        | None -> Alcotest.fail "injected fault produced an all-pass syndrome");
        let ranked =
          Diagnosis.rank ~false_pass:0.05 ~false_fail:0.02 dict corrupted
        in
        checkb "non-empty ranking" true (ranked <> []);
        checkb "injected fault ranked despite the masked bit" true
          (List.exists
             (fun (r : Diagnosis.ranked) ->
               Fault.equal r.Diagnosis.fault injected)
             (Diagnosis.top_class ranked)));
  ]

let reproducibility_tests =
  [
    case "noisy campaign rows are byte-reproducible per seed" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let config =
          { Campaign.base =
              { Campaign.trials = 50; fault_counts = [ 1; 2 ]; seed = 7;
                classes = [ `Stuck_at_0; `Stuck_at_1 ] };
            noise_levels = [ 0.05 ];
            repeats = 3 }
        in
        let render res =
          Format.asprintf "%a" Campaign.pp_noise_result
            { res with Campaign.n_wall_seconds = 0.0 }
        in
        let a = Campaign.run_noisy ~config t ~vectors:r.Pipeline.vectors in
        let b = Campaign.run_noisy ~config t ~vectors:r.Pipeline.vectors in
        check Alcotest.string "identical renderings" (render a) (render b);
        checkb "identical rows" true
          (a.Campaign.noise_rows = b.Campaign.noise_rows));
    case "pinned noisy row, sharded stream (seed 7, 5x5, noise 0.05)"
      (fun () ->
        (* Regression pin: any change to the fault stream, the meter
           stream, or the retest policy shows up here.  The contract makes
           this literal independent of the jobs value, so it is checked at
           jobs 1 and 4.  Update the literal deliberately, never casually. *)
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let config =
          { Campaign.base =
              { Campaign.trials = 50; fault_counts = [ 1 ]; seed = 7;
                classes = [ `Stuck_at_0; `Stuck_at_1 ] };
            noise_levels = [ 0.05 ];
            repeats = 3 }
        in
        List.iter
          (fun jobs ->
            let res =
              Campaign.run_noisy ~config ~jobs t ~vectors:r.Pipeline.vectors
            in
            match res.Campaign.noise_rows with
            | [ row ] ->
              check Alcotest.string
                (Printf.sprintf "pinned row at jobs=%d" jobs)
                "noise=0.050 faults=1 detected=50/50 (1.0000), false alarms \
                 20/50 (0.4000), mean reads/vector 2.16"
                (Format.asprintf "%a" Campaign.pp_noise_row row)
            | _ -> Alcotest.fail "expected exactly one row")
          [ 1; 4 ]);
    case "pp_result prints '-' instead of nan for undetected rows" (fun () ->
        let t = sample_layout () in
        let config = { Campaign.default_config with Campaign.trials = 20 } in
        (* an empty suite detects nothing, so every row has nan latency *)
        let res = Campaign.run ~config t ~vectors:[] in
        let text = Format.asprintf "%a" Campaign.pp_result res in
        checkb "no nan in output" false
          (let lower = String.lowercase_ascii text in
           let has_nan = ref false in
           String.iteri
             (fun i c ->
               if c = 'n' && i + 2 < String.length lower
                  && lower.[i + 1] = 'a' && lower.[i + 2] = 'n'
               then has_nan := true)
             lower;
           !has_nan);
        List.iter
          (fun row ->
            check Alcotest.string "dash" "-"
              (Campaign.mean_latency_string row))
          res.Campaign.rows);
  ]

(* The scalar read returns the golden response, borrowed, when no fault
   moves a valve off its commanded state, and [Measurement.detects_h]
   reads the meters in place over it; these pin that the shortcut changes
   neither a verdict nor a draw. *)
let scalar_read_tests =
  [
    case "detects_h draws and decides as apply_vector_h does" (fun () ->
        let t = sample_layout () in
        let r = Pipeline.run_exn t in
        let a, b = (Fault.adjacent_pairs t).(0) in
        let int p f = Fault.intermittent ~probability:p f in
        let permanent =
          [ []; [ Fault.Stuck_at_0 0 ]; [ Fault.Stuck_at_1 3 ];
            [ Fault.Control_leak (a, b) ];
            [ Fault.Stuck_at_1 7; Fault.Stuck_at_0 2;
              Fault.Control_leak (b, a) ] ]
        and intermittent =
          [ [ int 0.5 (Fault.Stuck_at_0 0) ];
            [ int 0.3 (Fault.Control_leak (a, b)); Fault.Stuck_at_1 3 ];
            [ int 0.7 (int 0.6 (Fault.Stuck_at_1 5));
              int 1.0 (Fault.Stuck_at_0 9) ] ]
        in
        List.iter
          (fun rate ->
            let m = Measurement.uniform t ~false_pass:rate ~false_fail:rate in
            List.iter
              (fun faults ->
                let rng_d = Rng.create 21 and rng_a = Rng.create 21 in
                let h_d = Simulator.make t and h_a = Simulator.make t in
                List.iter
                  (fun v ->
                    for _ = 1 to 3 do
                      let d = Measurement.detects_h m rng_d h_d ~faults v in
                      let obs =
                        Measurement.apply_vector_h m rng_a h_a ~faults v
                      in
                      checkb
                        (Printf.sprintf "rate %g: same verdict" rate)
                        (obs <> v.Test_vector.golden) d;
                      checki
                        (Printf.sprintf "rate %g: streams stay equal" rate)
                        (Rng.bits53 rng_a) (Rng.bits53 rng_d)
                    done)
                  r.Pipeline.vectors)
              (permanent @ intermittent))
          [ 0.0; 0.02; 1.0 ]);
    case "a non-deviating noisy read allocates nothing" (fun () ->
        (* Only native code keeps the draws and the state unboxed. *)
        if Sys.backend_type = Sys.Native then begin
          let t = sample_layout () in
          let r = Pipeline.run_exn t in
          let v = List.hd r.Pipeline.vectors in
          let ov = v.Test_vector.open_valves in
          let first state =
            let rec go i = if ov.(i) = state then i else go (i + 1) in
            go 0
          in
          (* Stuck open on an open valve, stuck closed on a closed one: every
             valve keeps its commanded state. *)
          let faults =
            [ Fault.Stuck_at_1 (first true); Fault.Stuck_at_0 (first false) ]
          in
          checkb "faults keep the commanded states" true
            (Simulator.effective_states t ~faults ~open_valves:ov = ov);
          let m = Measurement.uniform t ~false_pass:0.02 ~false_fail:0.02 in
          let rng = Rng.create 3 and h = Simulator.make t in
          let before = Gc.minor_words () in
          for _ = 1 to 10_000 do
            ignore
              (Sys.opaque_identity (Measurement.detects_h m rng h ~faults v))
          done;
          let w = (Gc.minor_words () -. before) /. 10_000.0 in
          checkb (Printf.sprintf "%.2f words per read" w) true (w < 1.0)
        end);
    case "pinned noisy rows at the field screening shape (10x10, noise 0.02)"
      (fun () ->
        (* The shape of the benchmark's screening phase — every fault class,
           1..5 faults, 3 reads — where most reads deviate nowhere and take
           the golden shortcut.  The digest covers every row's rendering;
           update it deliberately, never casually. *)
        let t = Layouts.paper_array 10 in
        let r = Pipeline.run_exn t in
        let config =
          { Campaign.base =
              { Campaign.trials = 300; fault_counts = [ 1; 2; 3; 4; 5 ];
                seed = 5;
                classes = [ `Stuck_at_0; `Stuck_at_1; `Control_leak ] };
            noise_levels = [ 0.02 ];
            repeats = 3 }
        in
        List.iter
          (fun jobs ->
            let res =
              Campaign.run_noisy ~config ~jobs t ~vectors:r.Pipeline.vectors
            in
            let text =
              String.concat "\n"
                (List.map
                   (Format.asprintf "%a" Campaign.pp_noise_row)
                   res.Campaign.noise_rows)
            in
            check Alcotest.string
              (Printf.sprintf "rows digest at jobs=%d" jobs)
              "131dda024a1769e2b6fe9198a9b1be89"
              (Digest.to_hex (Digest.string text)))
          [ 1; 2 ]);
  ]

let tests =
  measurement_tests @ intermittent_tests @ retest_tests @ identity_tests
  @ robustness_tests @ reproducibility_tests @ scalar_read_tests
