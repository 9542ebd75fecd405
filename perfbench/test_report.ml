(* Tests of the benchmark's reporting rules: the tail-percentile choice,
   each workload's failed-operation denominator, and the result line. *)

module R = Perfbench_report.Report
module Campaign = Fpva_sim.Campaign
module Fault = Fpva_sim.Fault

let check_pct n expected () =
  Alcotest.(check (float 0.0))
    (Printf.sprintf "percentile for %d samples" n)
    expected (R.tail_percentile n)

let samples_qualify n =
  List.exists (fun q -> R.samples_beyond ~n q >= 10) R.ladder

(* The chosen percentile always leaves at least ten samples beyond it, and
   the next ladder step up would not; without a qualifying step it is the
   median. *)
let percentile_is_highest () =
  for n = 1 to 5000 do
    let p = R.tail_percentile n in
    if samples_qualify n then begin
      let p10 = int_of_float (Float.round (p *. 10.0)) in
      if R.samples_beyond ~n p10 < 10 then
        Alcotest.failf "n=%d: p%.1f leaves fewer than ten samples" n p;
      List.iter
        (fun q ->
          if q > p10 && R.samples_beyond ~n q >= 10 then
            Alcotest.failf "n=%d: p%.1f qualifies above p%.1f" n
              (float_of_int q /. 10.0) p)
        R.ladder
    end
    else if p <> 50.0 then
      Alcotest.failf "n=%d: p%.1f chosen with no qualifying step" n p
  done

let timing_uses_planned_count () =
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let t = R.timing ~planned:1000 xs in
  Alcotest.(check (float 0.0)) "p99 of 1000" 99.0 t.R.tail_pct;
  Alcotest.(check (float 1e-9)) "median" 500.5 t.R.median;
  Alcotest.(check int) "samples" 1000 t.R.samples;
  let t = R.timing ~planned:20 xs in
  Alcotest.(check (float 0.0)) "planned 20 gives p50" 50.0 t.R.tail_pct;
  let t = R.timing ~planned:6 (Array.sub xs 0 6) in
  Alcotest.(check (float 0.0)) "six samples give the median" 3.5 t.R.tail;
  Alcotest.check_raises "fewer samples than planned"
    (Invalid_argument "Report.timing: 5 samples, 6 planned") (fun () ->
      ignore (R.timing ~planned:6 (Array.sub xs 0 5)))

let counts = Alcotest.(pair int int)
let pair (c : R.counts) = (c.R.attempted, c.R.failed)

let outcomes_denominator () =
  Alcotest.check counts "tablei_generate: one per suite" (4, 1)
    (pair (R.of_outcomes [ true; false; true; true ]));
  Alcotest.check counts "field_diagnose: one per session" (3, 2)
    (pair (R.of_outcomes [ false; true; false ]));
  Alcotest.check counts "serve_inproc: one per request" (5, 0)
    (pair (R.of_outcomes [ true; true; true; true; true ]))

let row ~fault_count ~trials ~detected escapes =
  { Campaign.fault_count; trials; detected; escapes; short_draws = 0;
    void_draws = trials - detected - List.length escapes;
    mean_latency = 1.0 }

let campaign_denominator () =
  let config = { Campaign.default_config with Campaign.trials = 100 } in
  let r =
    { Campaign.rows =
        [ row ~fault_count:1 ~trials:100 ~detected:100 [];
          row ~fault_count:2 ~trials:100 ~detected:97
            [ [ Fault.Stuck_at_0 1 ]; [ Fault.Stuck_at_1 2 ] ] ];
      truncated = [ 3 ];
      wall_seconds = 1.0 }
  in
  (* 200 scored trials plus a dropped row of 100; two escapes plus the
     100 dropped trials fail.  The void draw is attempted, not failed. *)
  Alcotest.check counts "one per trial" (300, 102)
    (pair (R.of_campaign ~config r))

let failed_ratio () =
  Alcotest.(check (float 1e-12)) "ratio" 0.25
    (R.failed_ratio { R.attempted = 4; failed = 1 });
  Alcotest.(check (float 0.0)) "nothing attempted counts as failed" 1.0
    (R.failed_ratio R.zero)

let result_line () =
  let m = [ R.metric "a_s" "s" 0.123456789012; R.metric "b" "count" 17.0 ] in
  let counts = { R.attempted = 5; failed = 0 } in
  (match R.result_line ~expected:[ "b"; "a_s" ] ~correct:true ~counts m with
  | Ok line -> (
    match Fpva_serve.Json.parse line with
    | Ok j ->
      let v =
        Option.bind (Fpva_serve.Json.member "metrics" j) (fun ms ->
            Option.bind (Fpva_serve.Json.member "a_s" ms)
              (Fpva_serve.Json.get_float "value"))
      in
      Alcotest.(check (option (float 0.0))) "all digits kept"
        (Some 0.123456789012) v
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  let rejected expected metrics =
    Result.is_error (R.result_line ~expected ~correct:true ~counts metrics)
  in
  Alcotest.(check bool) "missing metric" true (rejected [ "a_s"; "b"; "c" ] m);
  Alcotest.(check bool) "extra metric" true (rejected [ "a_s" ] m);
  Alcotest.(check bool) "nan value" true
    (rejected [ "x" ] [ R.metric "x" "s" Float.nan ]);
  Alcotest.(check bool) "nothing attempted" true
    (Result.is_error
       (R.result_line ~expected:[ "b"; "a_s" ] ~correct:true ~counts:R.zero m))

let () =
  Alcotest.run "perfbench"
    [ ( "percentile",
        [ Alcotest.test_case "six samples fall back to the median" `Quick
            (check_pct 6 50.0);
          Alcotest.test_case "twenty samples use p50" `Quick (check_pct 20 50.0);
          Alcotest.test_case "ninety-nine samples use p75" `Quick (check_pct 99 75.0);
          Alcotest.test_case "hundred samples use p90" `Quick (check_pct 100 90.0);
          Alcotest.test_case "999 samples use p95" `Quick (check_pct 999 95.0);
          Alcotest.test_case "1000 samples use p99" `Quick (check_pct 1000 99.0);
          Alcotest.test_case "10000 samples use p99.9" `Quick (check_pct 10000 99.9);
          Alcotest.test_case "choice is the highest qualifying" `Quick
            percentile_is_highest;
          Alcotest.test_case "timing uses the planned count" `Quick
            timing_uses_planned_count ] );
      ( "denominators",
        [ Alcotest.test_case "suites, sessions and requests" `Quick outcomes_denominator;
          Alcotest.test_case "fault_campaign trials" `Quick campaign_denominator;
          Alcotest.test_case "failed ratio" `Quick failed_ratio ] );
      ("result", [ Alcotest.test_case "line round trip" `Quick result_line ]) ]
