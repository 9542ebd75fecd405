(* Tests for test-vector construction and the end-to-end pipeline. *)

open Helpers
open Fpva_grid
open Fpva_testgen

let vector_tests =
  [
    case "flow vector opens exactly the path" (fun () ->
        let t = Layouts.paper_array 5 in
        let paths, _ = Flow_path.generate t in
        List.iter
          (fun p ->
            let v = Test_vector.of_flow_path t p in
            checkb "well formed" true (Test_vector.well_formed t v = Ok ());
            checki "open count"
              (List.length p.Flow_path.valve_ids)
              (Test_vector.open_count v))
          paths);
    case "cut vector closes exactly the cut" (fun () ->
        let t = Layouts.paper_array 5 in
        let cuts, _ = Cut_set.generate t in
        List.iter
          (fun c ->
            let v = Test_vector.of_cut_set t c in
            checkb "well formed" true (Test_vector.well_formed t v = Ok ());
            checki "open count"
              (Fpva.num_valves t - List.length c.Cut_set.valve_ids)
              (Test_vector.open_count v))
          cuts);
    case "pierced vector closes one path valve" (fun () ->
        let t = small_full_layout 4 4 in
        let paths, _ = Flow_path.generate t in
        match paths with
        | p :: _ ->
          List.iter
            (fun target ->
              let v = Test_vector.of_pierced_path t p target in
              checkb "well formed" true (Test_vector.well_formed t v = Ok ());
              checkb "target closed" false
                v.Test_vector.open_valves.(target))
            p.Flow_path.valve_ids
        | [] -> Alcotest.fail "no path");
    case "pierced with foreign valve raises" (fun () ->
        let t = small_full_layout 4 4 in
        let paths, _ = Flow_path.generate t in
        match paths with
        | p :: _ ->
          let off =
            List.find
              (fun v -> not (List.mem v p.Flow_path.valve_ids))
              (List.init (Fpva.num_valves t) (fun i -> i))
          in
          Alcotest.check_raises "foreign"
            (Invalid_argument "Test_vector.of_pierced_path: valve not on path")
            (fun () -> ignore (Test_vector.of_pierced_path t p off))
        | [] -> Alcotest.fail "no path");
    case "golden response: all closed means dark sinks" (fun () ->
        let t = small_full_layout 3 3 in
        let golden =
          Test_vector.golden_response t
            ~open_valves:(Array.make (Fpva.num_valves t) false)
        in
        Array.iteri
          (fun i p ->
            if p.Fpva.kind = Fpva.Sink then checkb "dark" false golden.(i))
          (Fpva.ports t));
    case "golden response: all open means lit sinks" (fun () ->
        let t = small_full_layout 3 3 in
        let golden =
          Test_vector.golden_response t
            ~open_valves:(Array.make (Fpva.num_valves t) true)
        in
        Array.iteri
          (fun i p ->
            if p.Fpva.kind = Fpva.Sink then checkb "lit" true golden.(i))
          (Fpva.ports t));
  ]

let pipeline_tests =
  [
    case "pipeline suite_ok on the paper arrays (5, 10)" (fun () ->
        List.iter
          (fun n ->
            let t = Layouts.paper_array n in
            let r = Pipeline.run_exn t in
            checkb (Printf.sprintf "ok %d" n) true (Pipeline.suite_ok r);
            checki "totals add up" r.Pipeline.total
              (r.Pipeline.np + r.Pipeline.ncut + r.Pipeline.nl))
          [ 5; 10 ]);
    case "direct config works" (fun () ->
        let t = Layouts.paper_array 5 in
        let r = Pipeline.run_exn ~config:Pipeline.direct_config t in
        checkb "ok" true (Pipeline.suite_ok r));
    case "leakage can be disabled" (fun () ->
        let t = Layouts.paper_array 5 in
        let config =
          { Pipeline.default_config with Pipeline.include_leakage = false }
        in
        let r = Pipeline.run_exn ~config t in
        checki "no leak vectors" 0 r.Pipeline.nl;
        checkb "ok" true (Pipeline.suite_ok r));
    case "vector count N is about 2 sqrt(nv) for the paper arrays"
      (fun () ->
        (* shape check from Table I: N ≈ 2*sqrt(nv), allow a generous
           multiplicative band (x0.5 .. x4) *)
        List.iter
          (fun n ->
            let t = Layouts.paper_array n in
            let r = Pipeline.run_exn t in
            let expectation = 2.0 *. sqrt (float_of_int (Fpva.num_valves t)) in
            let ratio = float_of_int r.Pipeline.total /. expectation in
            checkb
              (Printf.sprintf "N in band for %d (ratio %.2f)" n ratio)
              true
              (ratio > 0.5 && ratio < 4.0))
          [ 5; 10 ]);
    case "pipeline rejects invalid layouts" (fun () ->
        let t = Fpva.create ~rows:3 ~cols:3 in
        checkb "raises" true
          (try
             ignore (Pipeline.run_exn t);
             false
           with Invalid_argument _ -> true));
    case "report renders a Table-I row" (fun () ->
        let t = Layouts.paper_array 5 in
        let r = Pipeline.run_exn t in
        let table = Fpva_util.Table.create [ ("Dimension", Fpva_util.Table.Left) ] in
        ignore table;
        let table = Report.table1_header in
        Report.table1_row table ~label:"5 x 5" ~top:"1 x 1" ~subblock:"5 x 5" r;
        let s = Fpva_util.Table.render table in
        checkb "mentions valve count" true
          (let nv = string_of_int (Fpva.num_valves t) in
           let n = String.length s and m = String.length nv in
           let rec scan i = i + m <= n && (String.sub s i m = nv || scan (i + 1)) in
           scan 0));
    case "render_flow_paths marks every path" (fun () ->
        let t = Layouts.paper_array 5 in
        let r = Pipeline.run_exn t in
        let s = Report.render_flow_paths t r.Pipeline.flow in
        List.iteri
          (fun i _ ->
            let digit = Char.chr (Char.code '0' + ((i + 1) mod 10)) in
            checkb
              (Printf.sprintf "digit %c present" digit)
              true (String.contains s digit))
          r.Pipeline.flow);
  ]

let baseline_tests =
  [
    case "vector_count is 2nv" (fun () ->
        let t = Layouts.paper_array 5 in
        checki "2nv" (2 * Fpva.num_valves t) (Baseline.vector_count t));
    case "baseline much larger than pipeline suite" (fun () ->
        let t = Layouts.paper_array 5 in
        let r = Pipeline.run_exn t in
        checkb "smaller" true (r.Pipeline.total * 2 < Baseline.vector_count t));
  ]

let tests = vector_tests @ pipeline_tests @ baseline_tests
