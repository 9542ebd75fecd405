(* Resilience layer: Budget, Cover fallbacks, chaos-injected solver faults,
   pipeline degradation reports, campaign shortfall accounting. *)

open Helpers
open Fpva_grid
open Fpva_testgen
module Bb = Fpva_milp.Branch_bound
module Fault = Fpva_sim.Fault
module Campaign = Fpva_sim.Campaign

(* ---------- Budget ---------- *)

let budget_tests =
  [
    case "unlimited budget" (fun () ->
        let b = Budget.unlimited in
        checkb "is_unlimited" true (Budget.is_unlimited b);
        checkb "never exhausted" false (Budget.exhausted b);
        checkb "infinite remaining" true (Budget.remaining b = infinity);
        checkb "share is identity" true
          (Budget.is_unlimited (Budget.share b 0.1)));
    case "timed budget counts down" (fun () ->
        let b = Budget.of_seconds 5.0 in
        checkb "not unlimited" false (Budget.is_unlimited b);
        checkb "not exhausted yet" false (Budget.exhausted b);
        let r = Budget.remaining b in
        checkb "remaining within allotment" true (r > 4.0 && r <= 5.0);
        check (Alcotest.float 1e-9) "allotted" 5.0 (Budget.allotted b));
    case "zero budget is exhausted immediately" (fun () ->
        let b = Budget.of_seconds 0.0 in
        checkb "exhausted" true (Budget.exhausted b);
        check (Alcotest.float 1e-9) "remaining" 0.0 (Budget.remaining b));
    case "share slices the remaining time" (fun () ->
        let b = Budget.of_seconds 10.0 in
        let half = Budget.share b 0.5 in
        checkb "allotted about half" true
          (Budget.allotted half <= 5.0 +. 1e-6 && Budget.allotted half > 4.0);
        checkb "child never outlives parent" true
          (Budget.remaining half <= Budget.remaining b +. 1e-6);
        (* degenerate fractions clamp instead of exploding *)
        checkb "f > 1 clamps" true
          (Budget.allotted (Budget.share b 2.0) <= Budget.remaining b +. 1e-6);
        checkb "f < 0 clamps to empty" true
          (Budget.exhausted (Budget.share b (-1.0))));
    case "clamp_bb caps solver options" (fun () ->
        let o = Bb.default_options in
        checkb "unlimited budget leaves options alone" true
          (Budget.clamp_bb Budget.unlimited o = o);
        let timed = Budget.of_seconds 1.0 in
        let o' = Budget.clamp_bb timed o in
        checkb "time clamped" true (o'.Bb.time_limit <= 1.0);
        checki "nodes kept" o.Bb.max_nodes o'.Bb.max_nodes;
        let noded = Budget.create ~nodes:7 () in
        let o'' = Budget.clamp_bb noded o in
        checki "nodes clamped" 7 o''.Bb.max_nodes;
        checkb "time kept" true (o''.Bb.time_limit = o.Bb.time_limit));
  ]

(* ---------- Cover resilience ---------- *)

let cover_tests =
  [
    case "find_robust audits garbage and falls back" (fun () ->
        let t = small_full_layout 3 3 in
        let prob, _ = Flow_path.problem t in
        let weight = Array.make prob.Problem.num_edges 1.0 in
        let garbage =
          Cover.Custom
            {
              Cover.cname = "garbage";
              find = (fun _ ~weight:_ -> Some { Problem.nodes = []; edges = [] });
            }
        in
        let stats = Cover.fresh_stats () in
        (match Cover.find_robust ~stats garbage prob ~weight with
        | None -> Alcotest.fail "fallback should recover a path"
        | Some p -> checkb "valid path" true (Problem.path_ok prob p = Ok ()));
        checkb "garbage rejected" true (stats.Cover.rejected > 0);
        checkb "failure recorded" true (stats.Cover.failures > 0);
        checkb "fallback recorded" true (stats.Cover.fallbacks > 0));
    case "find_robust contains engine exceptions" (fun () ->
        let t = small_full_layout 3 3 in
        let prob, _ = Flow_path.problem t in
        let weight = Array.make prob.Problem.num_edges 1.0 in
        let crasher =
          Cover.Custom
            { Cover.cname = "crasher";
              find = (fun _ ~weight:_ -> failwith "backend crashed") }
        in
        let stats = Cover.fresh_stats () in
        (match Cover.find_robust ~stats crasher prob ~weight with
        | None -> Alcotest.fail "fallback should recover a path"
        | Some p -> checkb "valid path" true (Problem.path_ok prob p = Ok ()));
        checkb "failure recorded" true (stats.Cover.failures > 0));
    case "exhausted budget short-circuits the engine" (fun () ->
        let t = small_full_layout 3 3 in
        let prob, _ = Flow_path.problem t in
        let weight = Array.make prob.Problem.num_edges 1.0 in
        let called = ref false in
        let spy =
          Cover.Custom
            { Cover.cname = "spy";
              find =
                (fun _ ~weight:_ ->
                  called := true;
                  None) }
        in
        let stats = Cover.fresh_stats () in
        let none =
          Cover.find_robust ~budget:(Budget.of_seconds 0.0) ~stats spy prob
            ~weight
        in
        checkb "no path" true (none = None);
        checkb "engine never invoked" false !called;
        checkb "budget hit recorded" true (stats.Cover.budget_hits > 0));
  ]

(* ---------- Chaos faults through the full pipeline ---------- *)

(* Every valve must be accounted for: flow-tested or listed uncovered, and
   cut/pierced-covered or listed uncovered; every vector well-formed. *)
let assert_sound_result t (r : Pipeline.t) =
  let nv = Fpva.num_valves t in
  List.iter
    (fun v ->
      match Test_vector.well_formed t v with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "ill-formed vector: %s" msg)
    r.Pipeline.vectors;
  let flow_tested = Array.make nv false in
  List.iter
    (fun p ->
      List.iter (fun v -> flow_tested.(v) <- true) (Flow_path.tested_valves t p))
    r.Pipeline.flow;
  for v = 0 to nv - 1 do
    checkb
      (Printf.sprintf "valve %d flow-covered or reported uncovered" v)
      true
      (flow_tested.(v) || List.mem v r.Pipeline.uncovered_flow)
  done;
  let cut_covered = Array.make nv false in
  List.iter
    (fun c -> List.iter (fun v -> cut_covered.(v) <- true) c.Cut_set.valve_ids)
    r.Pipeline.cuts;
  List.iter (fun (_, v) -> cut_covered.(v) <- true) r.Pipeline.pierced;
  for v = 0 to nv - 1 do
    checkb
      (Printf.sprintf "valve %d cut-covered or reported uncovered" v)
      true
      (cut_covered.(v) || List.mem v r.Pipeline.uncovered_cut)
  done

let chaos_case name ?(config = Pipeline.default_config) fault =
  case name (fun () ->
      let mon = Chaos.monitor () in
      let engine = Chaos.wrap ~monitor:mon fault Cover.default_engine in
      let config = { config with Pipeline.engine } in
      let t = small_full_layout 5 5 in
      match Pipeline.run ~config t with
      | Error msg -> Alcotest.failf "pipeline rejected valid layout: %s" msg
      | Ok r ->
        checkb "fault fired" true (mon.Chaos.injected > 0);
        assert_sound_result t r;
        checkb "suite still passes self-checks" true (Pipeline.suite_ok r);
        checkb "degradation reported" true (Pipeline.degraded r);
        let flow_report =
          List.find
            (fun s -> s.Pipeline.stage = "flow")
            r.Pipeline.degradation
        in
        checkb "flow stage names the fallback" true
          (flow_report.Pipeline.status = Pipeline.Fell_back_to_search);
        checkb "fallbacks counted" true (flow_report.Pipeline.fallbacks > 0))

let chaos_tests =
  [
    chaos_case "deadline exhaustion: fallback covers everything"
      Chaos.Deadline_exhaustion;
    chaos_case "spurious infeasible every call"
      (Chaos.Spurious_infeasible 1);
    chaos_case "spurious infeasible every 3rd call, direct model"
      ~config:Pipeline.direct_config (Chaos.Spurious_infeasible 3);
    chaos_case "garbage incumbents are audited away" Chaos.Garbage_incumbent;
    chaos_case "transient failures heal" (Chaos.Transient_failure 5);
    case "zero budget: everything partial, accounting still accurate"
      (fun () ->
        let t = small_full_layout 5 5 in
        match Pipeline.run ~budget:(Budget.of_seconds 0.0) t with
        | Error msg -> Alcotest.failf "pipeline rejected valid layout: %s" msg
        | Ok r ->
          assert_sound_result t r;
          checkb "degraded" true (Pipeline.degraded r);
          List.iter
            (fun s ->
              match s.Pipeline.status with
              | Pipeline.Partial _ -> ()
              | _ ->
                Alcotest.failf "stage %s should be Partial" s.Pipeline.stage)
            r.Pipeline.degradation;
          checki "every valve reported flow-uncovered" (Fpva.num_valves t)
            (List.length r.Pipeline.uncovered_flow);
          checki "every valve reported cut-uncovered" (Fpva.num_valves t)
            (List.length r.Pipeline.uncovered_cut));
    case "invalid layout: Error from run, Invalid_argument from run_exn"
      (fun () ->
        let port_on_obstacle = Layouts.full ~rows:4 ~cols:4 in
        Fpva.set_obstacle port_on_obstacle
          (Fpva.port_cell port_on_obstacle (Fpva.ports port_on_obstacle).(0));
        List.iter
          (fun (name, t) ->
            (match Pipeline.run t with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "expected Error on %s" name);
            match Pipeline.run_exn t with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.failf "run_exn must raise Invalid_argument on %s" name)
          [ ("a port-less layout", Fpva.create ~rows:3 ~cols:3);
            ("a port cell made an obstacle", port_on_obstacle) ]);
    case "unlimited budget and no chaos: identical to the default run"
      (fun () ->
        let t = Layouts.paper_array 8 in
        let r1 = Pipeline.run_exn t in
        let r2 = Pipeline.run_exn ~budget:Budget.unlimited t in
        checkb "same vectors" true (r1.Pipeline.vectors = r2.Pipeline.vectors);
        checki "same np" r1.Pipeline.np r2.Pipeline.np;
        checki "same ncut" r1.Pipeline.ncut r2.Pipeline.ncut;
        checki "same nl" r1.Pipeline.nl r2.Pipeline.nl;
        checkb "same uncovered flow" true
          (r1.Pipeline.uncovered_flow = r2.Pipeline.uncovered_flow);
        checkb "same uncovered cut" true
          (r1.Pipeline.uncovered_cut = r2.Pipeline.uncovered_cut);
        checkb "suite ok" true (Pipeline.suite_ok r1);
        checkb "nothing degraded" false (Pipeline.degraded r2);
        List.iter
          (fun s ->
            checkb
              (Printf.sprintf "stage %s exact" s.Pipeline.stage)
              true
              (s.Pipeline.status = Pipeline.Exact))
          r2.Pipeline.degradation);
  ]

(* ---------- Fault classes and campaign shortfall ---------- *)

let fault_tests =
  [
    case "infeasible fault class is excluded, not substituted" (fun () ->
        (* a 1x2 grid has a single valve and hence no adjacent pair *)
        let t = small_full_layout 1 2 in
        checki "one valve" 1 (Fpva.num_valves t);
        checkb "leak class infeasible" true
          (Fault.feasible_classes t [ `Control_leak ] = []);
        let rng = Fpva_util.Rng.create 7 in
        Alcotest.check_raises "no feasible class"
          (Invalid_argument "Fault.random_of_classes: no feasible class")
          (fun () ->
            ignore (Fault.random_of_classes rng t ~classes:[ `Control_leak ]));
        for _ = 1 to 25 do
          match
            Fault.random_of_classes rng t
              ~classes:[ `Control_leak; `Stuck_at_1 ]
          with
          | Fault.Stuck_at_1 _ -> ()
          | f ->
            Alcotest.failf "drew %s from an infeasible class"
              (Fault.to_string f)
        done);
    case "campaign records shortfall instead of phantom faults" (fun () ->
        let t = small_full_layout 1 2 in
        let r = Pipeline.run_exn ~config:Pipeline.direct_config t in
        let config =
          { Campaign.default_config with
            Campaign.trials = 20;
            fault_counts = [ 3 ];
            classes = [ `Stuck_at_0; `Control_leak ] }
        in
        (* only one disjoint stuck-at fault fits on one valve, whether the
           class list is mixed or stuck-at only *)
        List.iter
          (fun classes ->
            let config = { config with Campaign.classes } in
            let res = Campaign.run ~config t ~vectors:r.Pipeline.vectors in
            match res.Campaign.rows with
            | [ row ] ->
              checki "short draws" 20 row.Campaign.short_draws;
              checki "no void draws" 0 row.Campaign.void_draws;
              checki "effective trials" 20 (Campaign.effective_trials row);
              checki "every trial accounted" 20
                (row.Campaign.detected + List.length row.Campaign.escapes)
            | rows ->
              Alcotest.failf "expected one row, got %d" (List.length rows))
          [ config.Campaign.classes; [ `Stuck_at_0; `Stuck_at_1 ] ];
        (* a campaign that can draw nothing scores nothing *)
        let config0 = { config with Campaign.classes = [ `Control_leak ] } in
        let res0 = Campaign.run ~config:config0 t ~vectors:r.Pipeline.vectors in
        match res0.Campaign.rows with
        | [ row ] ->
          checki "all draws void" 20 row.Campaign.void_draws;
          checki "no effective trials" 0 (Campaign.effective_trials row);
          checki "no detections" 0 row.Campaign.detected;
          checkb "no escapes" true (row.Campaign.escapes = []);
          check (Alcotest.float 0.0) "rate defined as zero" 0.0
            (Campaign.detection_rate row)
        | rows -> Alcotest.failf "expected one row, got %d" (List.length rows));
  ]

let tests = budget_tests @ cover_tests @ chaos_tests @ fault_tests
