(* The parallel campaign engine: per-trial RNG determinism across jobs
   values, the bit-parallel batches against a plain per-trial oracle, and
   the Pool-backed dictionary build. *)

open Helpers
open Fpva_grid
open Fpva_testgen
open Fpva_sim

(* One suite, shared across the cases: the jobs-parity properties run the
   same campaign several times over. *)
let five =
  lazy
    (let t = Layouts.paper_array 5 in
     let r = Pipeline.run_exn t in
     (t, r.Pipeline.vectors))

let row_eq (a : Campaign.row) (b : Campaign.row) =
  a.Campaign.fault_count = b.Campaign.fault_count
  && a.Campaign.trials = b.Campaign.trials
  && a.Campaign.detected = b.Campaign.detected
  && a.Campaign.escapes = b.Campaign.escapes
  && a.Campaign.short_draws = b.Campaign.short_draws
  && a.Campaign.void_draws = b.Campaign.void_draws
  (* Float.compare, not (=): two nan latencies are the same row *)
  && Float.compare a.Campaign.mean_latency b.Campaign.mean_latency = 0

let rows_eq a b = List.length a = List.length b && List.for_all2 row_eq a b

let render_noise res =
  Format.asprintf "%a" Campaign.pp_noise_result
    { res with Campaign.n_wall_seconds = 0.0 }

let jobs_parity_tests =
  [
    qcheck ~count:8 "run rows are identical for jobs 1, 2 and 4"
      QCheck2.Gen.(int_bound 1_000)
      (fun seed ->
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.default_config with
            Campaign.trials = 40;
            fault_counts = [ 1; 2 ];
            seed }
        in
        let rows jobs =
          (Campaign.run ~config ~jobs t ~vectors).Campaign.rows
        in
        let r1 = rows 1 in
        rows_eq r1 (rows 2) && rows_eq r1 (rows 4));
    case "run_noisy rows are identical for jobs 1, 2 and 4" (fun () ->
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.base =
              { Campaign.default_config with
                Campaign.trials = 40;
                fault_counts = [ 1; 2 ];
                seed = 13 };
            noise_levels = [ 0.0; 0.05 ];
            repeats = 3 }
        in
        let render jobs =
          render_noise (Campaign.run_noisy ~config ~jobs t ~vectors)
        in
        let r1 = render 1 in
        check Alcotest.string "jobs 2" r1 (render 2);
        check Alcotest.string "jobs 4" r1 (render 4));
    case "oversubscribed jobs still match" (fun () ->
        (* more domains than trials: every worker gets at most one chunk *)
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.default_config with
            Campaign.trials = 3;
            fault_counts = [ 1 ] }
        in
        let rows jobs =
          (Campaign.run ~config ~jobs t ~vectors).Campaign.rows
        in
        checkb "jobs 8 = jobs 1" true (rows_eq (rows 1) (rows 8)));
    case "pinned ideal rows (seed 7, 5x5, sa0/sa1/leak)" (fun () ->
        (* Regression pin on the rendered rows: any change to the fault
           stream, the batch scoring or the row fold shows up here.  Fault
           count 0 voids every trial; 100 trials leave a ragged second
           batch per row.  Update the literal deliberately, never
           casually. *)
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.trials = 100; fault_counts = [ 0; 1; 2; 3 ]; seed = 7;
            classes = [ `Stuck_at_0; `Stuck_at_1; `Control_leak ] }
        in
        List.iter
          (fun jobs ->
            let r = Campaign.run ~config ~jobs t ~vectors in
            check Alcotest.string
              (Printf.sprintf "pinned rows at jobs=%d" jobs)
              "faults=0 detected=0/0 (0.0000), mean first-detect vector -\n\
               faults=1 detected=99/100 (0.9900), mean first-detect vector \
               5.3\n\
               faults=2 detected=100/100 (1.0000), mean first-detect vector \
               2.6\n\
               faults=3 detected=100/100 (1.0000), mean first-detect vector \
               2.0\n\
               wall=0.0s\n"
              (Format.asprintf "%a" Campaign.pp_result
                 { r with Campaign.wall_seconds = 0.0 }))
          [ 1; 4 ]);
  ]

let validation_tests =
  [
    case "jobs must be positive" (fun () ->
        let t, vectors = Lazy.force five in
        Alcotest.check_raises "zero"
          (Invalid_argument "Campaign.run: jobs must be >= 1") (fun () ->
            ignore (Campaign.run ~jobs:0 t ~vectors)));
    case "negative trials or fault counts are rejected" (fun () ->
        let t, vectors = Lazy.force five in
        let trials = { Campaign.default_config with Campaign.trials = -1 } in
        let counts =
          { Campaign.default_config with Campaign.fault_counts = [ 1; -1 ] }
        in
        let noisy base =
          { Campaign.default_noise_config with Campaign.base }
        in
        Alcotest.check_raises "run trials"
          (Invalid_argument "Campaign.run: trials must be >= 0") (fun () ->
            ignore (Campaign.run ~config:trials t ~vectors));
        Alcotest.check_raises "run fault counts"
          (Invalid_argument "Campaign.run: fault counts must be >= 0")
          (fun () -> ignore (Campaign.run ~config:counts t ~vectors));
        Alcotest.check_raises "run_noisy trials"
          (Invalid_argument "Campaign.run_noisy: trials must be >= 0")
          (fun () ->
            ignore (Campaign.run_noisy ~config:(noisy trials) t ~vectors));
        Alcotest.check_raises "run_noisy fault counts"
          (Invalid_argument "Campaign.run_noisy: fault counts must be >= 0")
          (fun () ->
            ignore (Campaign.run_noisy ~config:(noisy counts) t ~vectors)));
  ]

let diagnosis_tests =
  [
    case "dictionary build is identical for jobs 1 and 4" (fun () ->
        let t, vectors = Lazy.force five in
        let faults = Diagnosis.single_faults t in
        let build jobs = Diagnosis.build ~jobs t ~vectors ~faults in
        let seq = build 1 and par = build 4 in
        (* identical syndromes -> identical classes, resolution and
           diagnoses for every observation *)
        check (Alcotest.float 0.0) "resolution" (Diagnosis.resolution seq)
          (Diagnosis.resolution par);
        checki "classes"
          (List.length (Diagnosis.equivalence_classes seq))
          (List.length (Diagnosis.equivalence_classes par));
        List.iter
          (fun injected ->
            let observed =
              Diagnosis.syndrome_of t ~vectors ~faults:[ injected ]
            in
            checkb "same diagnosis" true
              (List.equal Fault.equal
                 (Diagnosis.diagnose seq observed)
                 (Diagnosis.diagnose par observed)))
          [ Fault.Stuck_at_0 0; Fault.Stuck_at_1 12; Fault.Stuck_at_0 20 ]);
  ]

(* Worker-failure aggregation: one failure re-raises untouched, several
   surface as Multi_failure carrying all of them. *)
let pool_failure_tests =
  let module Pool = Fpva_util.Pool in
  [
    case "a single worker failure is re-raised as-is" (fun () ->
        Alcotest.check_raises "original exception" (Failure "lone")
          (fun () ->
            ignore
              (Pool.run ~jobs:4 ~n:64
                 ~init:(fun () -> ())
                 ~body:(fun () i -> if i = 0 then failwith "lone" else i))));
    case "concurrent failures aggregate into Multi_failure" (fun () ->
        (* Every worker's [init] raises, so all four fail deterministically
           no matter how chunks are scheduled. *)
        match
          Pool.run ~jobs:4 ~n:64
            ~init:(fun () -> failwith "boom")
            ~body:(fun () i -> i)
        with
        | _ -> Alcotest.fail "expected Multi_failure"
        | exception Pool.Multi_failure (first, rest) ->
          checkb "first is the lowest worker's exception" true
            (first = Failure "boom");
          checki "other three workers reported" 3 (List.length rest);
          List.iter
            (fun (wid, msg) ->
              checkb "worker id in range" true (wid >= 1 && wid <= 3);
              checkb "rendered message" true
                (String.length msg > 0
                && String.sub msg 0 7 = "Failure"))
            rest);
    case "Multi_failure has a registered printer" (fun () ->
        let rendered =
          Printexc.to_string
            (Fpva_util.Pool.Multi_failure
               (Failure "first", [ (2, "Failure(\"second\")") ]))
        in
        checkb "mentions both failures" true
          (let has needle =
             let n = String.length needle and l = String.length rendered in
             let rec go i =
               i + n <= l && (String.sub rendered i n = needle || go (i + 1))
             in
             go 0
           in
           has "first" && has "worker 2" && has "second"));
  ]

(* Budgeted campaigns: whatever the wall clock does, the surviving rows
   must be a prefix of — and bit-identical to — the unbudgeted run, with
   the dropped fault counts reported as the matching suffix. *)
let budget_tests =
  let prefix_ok (full : Campaign.result) (part : Campaign.result) counts =
    let n = List.length part.Campaign.rows in
    n <= List.length full.Campaign.rows
    && rows_eq part.Campaign.rows (List.filteri (fun i _ -> i < n) full.Campaign.rows)
    && part.Campaign.truncated = List.filteri (fun i _ -> i >= n) counts
  in
  [
    case "zero budget truncates every row" (fun () ->
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.default_config with
            Campaign.trials = 30;
            fault_counts = [ 1; 2; 3 ] }
        in
        let r =
          Campaign.run ~config ~budget:(Budget.of_seconds 0.0) t ~vectors
        in
        checkb "no rows" true (r.Campaign.rows = []);
        checkb "all counts truncated" true (r.Campaign.truncated = [ 1; 2; 3 ]));
    case "unlimited budget truncates nothing" (fun () ->
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.default_config with
            Campaign.trials = 30;
            fault_counts = [ 1; 2 ] }
        in
        let r = Campaign.run ~config t ~vectors in
        checkb "no truncation" true (r.Campaign.truncated = []);
        checki "both rows" 2 (List.length r.Campaign.rows));
    qcheck ~count:12 "budgeted rows are a bit-identical prefix of the full run"
      QCheck2.Gen.(pair (int_bound 1_000) (int_bound 20))
      (fun (seed, millis) ->
        let t, vectors = Lazy.force five in
        let counts = [ 1; 2; 3; 4 ] in
        let config =
          { Campaign.default_config with
            Campaign.trials = 60;
            fault_counts = counts;
            seed }
        in
        let full = Campaign.run ~config ~jobs:2 t ~vectors in
        let part =
          Campaign.run ~config ~jobs:2
            ~budget:(Budget.of_seconds (float_of_int millis /. 1000.0))
            t ~vectors
        in
        prefix_ok full part counts);
    case "run_noisy budget truncation is a suffix of the row keys" (fun () ->
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.base =
              { Campaign.default_config with
                Campaign.trials = 20;
                fault_counts = [ 1; 2 ] };
            noise_levels = [ 0.0; 0.02 ];
            repeats = 2 }
        in
        let r =
          Campaign.run_noisy ~config ~budget:(Budget.of_seconds 0.0) t
            ~vectors
        in
        checkb "no rows" true (r.Campaign.noise_rows = []);
        checkb "all keys truncated" true
          (r.Campaign.n_truncated
          = [ (0.0, 1); (0.0, 2); (0.02, 1); (0.02, 2) ]));
  ]

(* The bit-parallel batches against the plain per-trial oracle: rows must
   be bit-identical for trial counts that exercise every batch shape — a
   single width-1 batch, one exactly-full batch, a full batch plus a
   width-1 remainder, and multi-batch rows — at several jobs values, and
   for fault counts including 0 (every lane void). *)
let oracle_tests =
  [
    qcheck ~count:5 "batched rows are bit-identical to scalar rows"
      QCheck2.Gen.(int_bound 1_000)
      (fun seed ->
        let t, vectors = Lazy.force five in
        List.for_all
          (fun trials ->
            let config =
              { Campaign.default_config with
                Campaign.trials;
                fault_counts = [ 1; 2 ];
                seed }
            in
            let reference = Campaign_oracle.rows t ~vectors config in
            List.for_all
              (fun jobs ->
                rows_eq reference
                  (Campaign.run ~config ~jobs t ~vectors).Campaign.rows)
              [ 1; 2; 4 ])
          [ 1; 40; 63; 64; 127 ]);
    case "fault count 0 voids every lane, identically" (fun () ->
        let t, vectors = Lazy.force five in
        let config =
          { Campaign.default_config with
            Campaign.trials = 70;
            fault_counts = [ 0; 1 ] }
        in
        let b = (Campaign.run ~config t ~vectors).Campaign.rows in
        checkb "batched = oracle" true
          (rows_eq (Campaign_oracle.rows t ~vectors config) b);
        let zero = List.hd b in
        checki "all trials void" 70 zero.Campaign.void_draws;
        checki "nothing detected" 0 zero.Campaign.detected);
    qcheck ~count:8
      "a budget exhausted mid-batch still yields a bit-identical prefix"
      QCheck2.Gen.(pair (int_bound 1_000) (int_bound 20))
      (fun (seed, millis) ->
        (* Same prefix property as the budget tests above, but against the
           unbudgeted per-trial oracle: whole batches are the unit of
           budget-skipping and whole rows the unit of truncation, so the
           surviving rows' bits never depend on where the budget ran
           out. *)
        let t, vectors = Lazy.force five in
        let counts = [ 1; 2; 3; 4 ] in
        let config =
          { Campaign.default_config with
            Campaign.trials = 65;  (* forces a width-2 final batch *)
            fault_counts = counts;
            seed }
        in
        let full = Campaign_oracle.rows t ~vectors config in
        let part =
          Campaign.run ~config ~jobs:2
            ~budget:(Budget.of_seconds (float_of_int millis /. 1000.0))
            t ~vectors
        in
        let n = List.length part.Campaign.rows in
        n <= List.length full
        && rows_eq part.Campaign.rows (List.filteri (fun i _ -> i < n) full)
        && part.Campaign.truncated = List.filteri (fun i _ -> i >= n) counts);
  ]

(* The compiled campaign against the node-by-node reference walk: the
   per-trial oracle scoring each vector with [Graph_oracle.detects] (the
   simulator's effective states, reference BFS) must reproduce whole rows,
   escapes and latencies included, of the batched run on the 8x8. *)
let reference_bfs_tests =
  [
    case "8x8 rows match the reference-BFS oracle at jobs 1 and 2" (fun () ->
        let t = Layouts.paper_array 8 in
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let config = { Campaign.default_config with Campaign.trials = 50 } in
        let reference =
          Campaign_oracle.rows ~detects:(Graph_oracle.detects t) t ~vectors
            config
        in
        List.iter
          (fun jobs ->
            checkb
              (Printf.sprintf "jobs=%d" jobs)
              true
              (rows_eq reference
                 (Campaign.run ~config ~jobs t ~vectors).Campaign.rows))
          [ 1; 2 ]);
  ]

(* [Pipeline.suite_ok] traverses through the layout's shared compilation
   ([Dual.is_cut], [Test_vector.golden_response], the [Graph] wrappers), as
   the serve daemon's workers do on every generate reply.  Two domains
   checking one suite at once must each get their own BFS buffers.  A call
   takes about 0.1 ms, so each domain makes 1000 of them, starting together
   once both run: with one shared scratch this failed 6-13 of the 2000
   calls in each of ten runs. *)
let concurrency_tests =
  [
    case "two domains run suite_ok on one 10x10 result" (fun () ->
        let r = Pipeline.run_exn (Layouts.paper_array 10) in
        checkb "sequential" true (Pipeline.suite_ok r);
        let ready = Atomic.make 0 in
        let worker () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do Domain.cpu_relax () done;
          let failed = ref 0 in
          for _ = 1 to 1000 do
            match Pipeline.suite_ok r with
            | true -> ()
            | false | (exception _) -> incr failed
          done;
          !failed
        in
        let other = Domain.spawn worker in
        let here = worker () in
        checki "failed calls" 0 (here + Domain.join other));
  ]

(* Whole rows, escapes included, digested at jobs 1 and 2.  Update a
   pinned digest deliberately, never casually. *)
let check_rows_digest ~config t ~vectors digest =
  let render (row : Campaign.row) =
    Printf.sprintf "%d %d %d %d %d %h %s" row.Campaign.fault_count
      row.Campaign.trials row.Campaign.detected row.Campaign.short_draws
      row.Campaign.void_draws row.Campaign.mean_latency
      (String.concat ";"
         (List.map
            (fun fs -> String.concat "," (List.map Fault.to_string fs))
            row.Campaign.escapes))
  in
  List.iter
    (fun jobs ->
      let r = Campaign.run ~config ~jobs t ~vectors in
      check Alcotest.string
        (Printf.sprintf "rows digest at jobs=%d" jobs)
        digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n" (List.map render r.Campaign.rows)))))
    [ 1; 2 ]

let pinned_row_tests =
  [
    case "pinned leak-class rows (8x8, 200 trials, sa0/sa1/leak)" (fun () ->
        (* The ideal campaign with control leaks in the draw: pins the
           order in which leak draws read the pair table. *)
        let t = Layouts.paper_array 8 in
        let vectors = (Pipeline.run_exn t).Pipeline.vectors in
        let config =
          { Campaign.default_config with
            Campaign.trials = 200;
            classes = [ `Stuck_at_0; `Stuck_at_1; `Control_leak ] }
        in
        check_rows_digest ~config t ~vectors
          "1c969ca959f4790114a97f122d2114db");
    case "pinned ideal rows (20x20, sa0/sa1, counts 1-5)" (fun () ->
        (* The fault study's layout and suite, where most sweeps carry
           only lanes whose faults open valves and start from the
           vector's region. *)
        let t, vectors = Lazy.force paper20 in
        let config =
          { Campaign.default_config with Campaign.trials = 2000; seed = 7 }
        in
        check_rows_digest ~config t ~vectors
          "a1bd9743c8775be2aebd0c7918b7f4c9");
  ]

(* [Simulator.batch_detects] is allocation-free, as simulator.mli says:
   the fault study calls it once per vector per 63 trials.  Its sweep once
   boxed the worklist cursors (19 minor words a call) and its leak closure
   a closure per pass. *)
let allocation_tests =
  [
    case "1 000 batch_detects calls allocate nothing (20x20)" (fun () ->
        if Sys.backend_type = Sys.Native then begin
          let t, vectors = Lazy.force paper20 in
          let vs = Array.of_list vectors in
          let nv = Fpva.num_valves t and pairs = Fault.adjacent_pairs t in
          let alive = (1 lsl Simulator.batch_width) - 1 in
          (* SA1 lanes grow from the vector's region and SA0 lanes flood
             from the sources; with leak lanes every lane floods. *)
          let words fault =
            let b = Simulator.make_batch t in
            for lane = 0 to Simulator.batch_width - 1 do
              Simulator.batch_set_lane b lane ~faults:[ fault lane ]
            done;
            let call i =
              ignore
                (Sys.opaque_identity
                   (Simulator.batch_detects b ~alive
                      vs.(i mod Array.length vs)))
            in
            call 0;
            let before = Gc.minor_words () in
            for i = 1 to 1_000 do
              call i
            done;
            int_of_float (Gc.minor_words () -. before)
          in
          let stuck lane =
            let v = lane * 37 mod nv in
            if lane mod 2 = 0 then Fault.Stuck_at_1 v else Fault.Stuck_at_0 v
          in
          checki "stuck-at lanes" 0 (words stuck);
          checki "with leak lanes" 0
            (words (fun lane ->
                 if lane mod 3 = 2 then
                   let a, v = pairs.(lane * 101 mod Array.length pairs) in
                   Fault.Control_leak (a, v)
                 else stuck lane))
        end);
  ]

let tests =
  jobs_parity_tests @ validation_tests @ diagnosis_tests @ pool_failure_tests
  @ budget_tests @ oracle_tests @ reference_bfs_tests @ concurrency_tests
  @ pinned_row_tests @ allocation_tests
