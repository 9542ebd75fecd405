(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section IV) plus the ablations called out in DESIGN.md, and
   gates the campaign, checkpoint, serve and diagnosis engines.

   Usage:
     dune exec bench/main.exe                 # everything, moderate trials
     dune exec bench/main.exe -- table1       # Table I only
     dune exec bench/main.exe -- fig8
     dune exec bench/main.exe -- fig9
     dune exec bench/main.exe -- faults [trials]
     dune exec bench/main.exe -- ablation
     dune exec bench/main.exe -- noise *)

open Fpva_grid
open Fpva_testgen
module Table = Fpva_util.Table

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n%!" title bar

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

(* The paper's own numbers, for side-by-side shape comparison. *)
let paper_table1 =
  [ ("5 x 5", 39, 5, 0.3, 8, 0.2, 4, 2.0, 17, 2.5);
    ("10 x 10", 176, 4, 4.0, 18, 5.0, 4, 10.0, 26, 19.0);
    ("15 x 15", 411, 8, 17.0, 28, 26.0, 8, 127.0, 44, 170.0);
    ("20 x 20", 744, 16, 35.0, 38, 41.0, 16, 742.0, 70, 818.0);
    ("30 x 30", 1704, 20, 255.0, 58, 171.0, 20, 1492.0, 98, 1918.0) ]

let table1 () =
  heading "Table I: test-vector generation (this implementation)";
  let table = Report.table1_header in
  let results =
    List.map
      (fun (label, fpva) ->
        let n = Fpva.rows fpva in
        let r = Pipeline.run_exn fpva in
        Report.table1_row table
          ~label:(Printf.sprintf "%d x %d" n n)
          ~top:(Printf.sprintf "%d x %d" (n / 5) (n / 5))
          ~subblock:"5 x 5" r;
        if not (Pipeline.suite_ok r) then
          Printf.printf "WARNING: %s failed suite self-checks\n" label;
        (label, r))
      Layouts.paper_suite
  in
  Table.print table;
  heading "Table I: the paper's reported numbers (reference)";
  let ref_table =
    Table.create
      [ ("Dimension", Table.Left); ("nv", Table.Right); ("np", Table.Right);
        ("tp(s)", Table.Right); ("nc", Table.Right); ("tc(s)", Table.Right);
        ("nl", Table.Right); ("tl(s)", Table.Right); ("N", Table.Right);
        ("T(s)", Table.Right) ]
  in
  List.iter
    (fun (dim, nv, np, tp, nc, tc, nl, tl, n, t) ->
      Table.add_row ref_table
        [ dim; string_of_int nv; string_of_int np; Printf.sprintf "%.1f" tp;
          string_of_int nc; Printf.sprintf "%.1f" tc; string_of_int nl;
          Printf.sprintf "%.1f" tl; string_of_int n; Printf.sprintf "%.1f" t ])
    paper_table1;
  Table.print ref_table;
  print_newline ();
  List.iter
    (fun ((label, r), (_, nv, _, _, _, _, _, _, n_paper, _)) ->
      let ratio =
        float_of_int r.Pipeline.total /. (2.0 *. sqrt (float_of_int nv))
      in
      Printf.printf
        "%s: N=%d (paper %d), N/(2*sqrt(nv))=%.2f, baseline 2nv=%d\n" label
        r.Pipeline.total n_paper ratio (2 * nv))
    (List.combine results paper_table1);
  results

(* ------------------------------------------------------------------ *)
(* Fig. 8: direct vs hierarchical on a full 10x10                      *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  heading "Fig. 8: direct vs hierarchical flow paths, full 10x10 array";
  let fpva = Layouts.figure8 () in
  let direct, uncovered = Flow_path.generate fpva in
  Printf.printf
    "\n(a) direct model: %d flow paths (paper: 2), uncovered=%d\n\n"
    (List.length direct) (List.length uncovered);
  print_endline (Report.render_flow_paths fpva direct);
  let hier = Hierarchy.generate fpva in
  Printf.printf
    "\n(b) hierarchical (5x5 subblocks): %d flow paths (paper: 4)\n\n"
    (List.length hier.Hierarchy.paths);
  print_endline (Report.render_flow_paths fpva hier.Hierarchy.paths);
  Printf.printf
    "\nshape check: hierarchical (%d) > direct (%d); both cover all %d \
     valves: %b\n"
    (List.length hier.Hierarchy.paths)
    (List.length direct) (Fpva.num_valves fpva)
    (Flow_path.covers_all_valves fpva direct
    && Flow_path.covers_all_valves fpva hier.Hierarchy.paths)

(* ------------------------------------------------------------------ *)
(* Fig. 9: 20x20 with channels and obstacles                           *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  heading "Fig. 9: flow paths on the 20x20 array with channels and obstacles";
  let fpva = Layouts.figure9 () in
  let paths, uncovered = Flow_path.generate fpva in
  Printf.printf
    "\n%d valves (paper layout: 744 — exact channel/obstacle placement \
     unpublished), %d flow paths (paper: 16), uncovered=%d\n\n"
    (Fpva.num_valves fpva) (List.length paths) (List.length uncovered);
  print_endline (Report.render_flow_paths fpva paths)

(* ------------------------------------------------------------------ *)
(* Fault-injection study                                               *)
(* ------------------------------------------------------------------ *)

let faults ~trials () =
  heading
    (Printf.sprintf
       "Fault injection: 1-5 random stuck-at faults, %d trials each (paper: \
        10 000 trials, all faults detected)"
       trials);
  let table =
    Table.create
      [ ("Array", Table.Left); ("N", Table.Right); ("faults=1", Table.Right);
        ("faults=2", Table.Right); ("faults=3", Table.Right);
        ("faults=4", Table.Right); ("faults=5", Table.Right);
        ("latency@1", Table.Right); ("sim(s)", Table.Right) ]
  in
  List.iter
    (fun (label, fpva) ->
      let suite = Pipeline.run_exn fpva in
      let config =
        { Fpva_sim.Campaign.default_config with Fpva_sim.Campaign.trials }
      in
      let result =
        Fpva_sim.Campaign.run ~config fpva ~vectors:suite.Pipeline.vectors
      in
      let cell row =
        Printf.sprintf "%d/%d" row.Fpva_sim.Campaign.detected
          row.Fpva_sim.Campaign.trials
      in
      match result.Fpva_sim.Campaign.rows with
      | [ r1; r2; r3; r4; r5 ] ->
        Table.add_row table
          [ label; string_of_int suite.Pipeline.total; cell r1; cell r2;
            cell r3; cell r4; cell r5;
            Fpva_sim.Campaign.mean_latency_string r1;
            Printf.sprintf "%.1f" result.Fpva_sim.Campaign.wall_seconds ]
      | _ ->
        Table.add_row table [ label; "?"; "?"; "?"; "?"; "?"; "?"; "?"; "?" ])
    Layouts.paper_suite;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_loop_exclusion () =
  heading "Ablation (a): ILP loop-exclusion constraints (paper eqs. 3-5)";
  let fpva = Helpers_bench.ring_layout () in
  let prob, _ = Flow_path.problem fpva in
  let weight =
    Array.map (fun r -> if r then 1.0 else 0.0) prob.Problem.required
  in
  let score = function
    | Fpva_milp.Branch_bound.Optimal s | Fpva_milp.Branch_bound.Feasible s ->
      let total = ref 0.0 in
      Array.iteri
        (fun e w ->
          if e < prob.Problem.num_edges
             && s.Fpva_milp.Simplex.values.(e) > 0.5
          then total := !total +. w)
        weight;
      Some !total
    | Fpva_milp.Branch_bound.Infeasible | Fpva_milp.Branch_bound.Unbounded
    | Fpva_milp.Branch_bound.Unknown -> None
  in
  let with_lp =
    Fpva_milp.Branch_bound.solve (Path_ilp.single_path_lp prob ~weight)
  in
  let without_lp =
    Fpva_milp.Branch_bound.solve
      (Path_ilp.single_path_lp ~loop_exclusion:false prob ~weight)
  in
  let actual_coverage found =
    match found with
    | Some (path : Problem.path) ->
      List.fold_left
        (fun acc e -> acc +. weight.(e))
        0.0 path.Problem.edges
    | None -> nan
  in
  let with_path = Path_ilp.find prob ~weight in
  let without_path = Path_ilp.find ~loop_exclusion:false prob ~weight in
  (* The bench layout pins both ports to the same corner cell: the only
     simple path covers no valve at all, so any "coverage" the
     unconstrained model reports comes entirely from disjoint loops — the
     false counting of Fig. 6(c). *)
  Printf.printf "\nwith eqs. 3-5   : model claims %s covered, decoded path \
                 actually covers %.0f\n"
    (match score with_lp with Some s -> Printf.sprintf "%.0f" s | None -> "-")
    (actual_coverage with_path);
  Printf.printf "without eqs. 3-5: model claims %s covered, decoded path \
                 actually covers %.0f\n"
    (match score without_lp with Some s -> Printf.sprintf "%.0f" s | None -> "-")
    (actual_coverage without_path);
  Printf.printf
    "the unconstrained model books valves sitting on a disjoint loop as \
     covered although no pressure can ever reach them (paper Fig. 6(c)).\n"

let ablation_anti_masking () =
  heading "Ablation (b): anti-masking constraint (paper eq. 9)";
  let fpva = Layouts.paper_array 10 in
  print_newline ();
  let report label anti_masking =
    let flow, _ = Flow_path.generate fpva in
    let cuts, leftover = Cut_set.generate ~anti_masking fpva in
    let vectors =
      List.map (Test_vector.of_flow_path fpva) flow
      @ List.map (Test_vector.of_cut_set fpva) cuts
    in
    let rng = Fpva_util.Rng.create 2024 in
    let nv = Fpva.num_valves fpva in
    let trials = 20_000 in
    let escapes = ref 0 in
    for _ = 1 to trials do
      let a = Fpva_util.Rng.int rng nv in
      let b = Fpva_util.Rng.int rng nv in
      if a <> b then begin
        let faults =
          [ Fpva_sim.Fault.Stuck_at_0 a; Fpva_sim.Fault.Stuck_at_1 b ]
        in
        if not (Fpva_sim.Simulator.detected_by_suite fpva ~faults vectors)
        then incr escapes
      end
    done;
    Printf.printf "%-22s: nc=%d (+%d pierced targets), SA0+SA1 escapes %d/%d\n"
      label (List.length cuts) (List.length leftover) !escapes trials
  in
  report "with eq. 9" true;
  report "without eq. 9" false

let ablation_block_size () =
  heading "Ablation (c): subblock size sweep, 20x20 array";
  let fpva = Layouts.paper_array 20 in
  let table =
    Table.create
      [ ("block", Table.Left); ("np", Table.Right); ("stitched", Table.Right);
        ("fallback", Table.Right); ("time(s)", Table.Right) ]
  in
  List.iter
    (fun b ->
      let options =
        { Hierarchy.default_options with
          Hierarchy.block_rows = b;
          block_cols = b }
      in
      let r, dt =
        Fpva_util.Timer.time (fun () -> Hierarchy.generate ~options fpva)
      in
      Table.add_row table
        [ Printf.sprintf "%dx%d" b b;
          string_of_int (List.length r.Hierarchy.paths);
          string_of_int r.Hierarchy.stitched;
          string_of_int r.Hierarchy.fallback; Printf.sprintf "%.1f" dt ])
    [ 2; 3; 4; 5; 7; 10 ];
  let direct, dt = Fpva_util.Timer.time (fun () -> Flow_path.generate fpva) in
  Table.add_row table
    [ "direct"; string_of_int (List.length (fst direct)); "-"; "-";
      Printf.sprintf "%.1f" dt ];
  Table.print table

let ablation_engine () =
  heading
    "Ablation (d): combinatorial search vs exact ILP engine (tiny arrays)";
  let table =
    Table.create
      [ ("array", Table.Left); ("engine", Table.Left); ("np", Table.Right);
        ("time(s)", Table.Right) ]
  in
  List.iter
    (fun (rows, cols) ->
      let bb =
        { Fpva_milp.Branch_bound.default_options with
          Fpva_milp.Branch_bound.max_nodes = 50_000;
          time_limit = 60.0 }
      in
      List.iter
        (fun (name, engine) ->
          let fpva = Helpers_bench.small_layout rows cols in
          let (paths, _), dt =
            Fpva_util.Timer.time (fun () -> Flow_path.generate ~engine fpva)
          in
          Table.add_row table
            [ Printf.sprintf "%dx%d" rows cols; name;
              string_of_int (List.length paths); Printf.sprintf "%.2f" dt ])
        [ ("search", Cover.Search Path_search.default_params);
          ("ilp", Cover.Ilp bb) ])
    [ (2, 2); (2, 3); (3, 3) ];
  Table.print table

let ablation_noise () =
  heading
    "Ablation (e): measurement noise vs adaptive majority-vote retesting \
     (10x10 array)";
  let fpva = Layouts.paper_array 10 in
  let suite = Pipeline.run_exn fpva in
  let table =
    Table.create
      [ ("noise", Table.Right); ("repeats", Table.Right);
        ("detect@1", Table.Right); ("false-alarm", Table.Right);
        ("reads/vec", Table.Right) ]
  in
  List.iter
    (fun repeats ->
      List.iter
        (fun noise ->
          let config =
            { Fpva_sim.Campaign.base =
                { Fpva_sim.Campaign.default_config with
                  Fpva_sim.Campaign.trials = 500;
                  fault_counts = [ 1 ] };
              noise_levels = [ noise ];
              repeats }
          in
          let r =
            Fpva_sim.Campaign.run_noisy ~config fpva
              ~vectors:suite.Pipeline.vectors
          in
          List.iter
            (fun row ->
              Table.add_row table
                [ Printf.sprintf "%.3f" row.Fpva_sim.Campaign.noise;
                  string_of_int repeats;
                  Printf.sprintf "%.4f"
                    (Fpva_sim.Campaign.noisy_detection_rate row);
                  Printf.sprintf "%.4f"
                    (Fpva_sim.Campaign.false_alarm_rate row);
                  Printf.sprintf "%.2f" (Fpva_sim.Campaign.mean_reads row) ])
            r.Fpva_sim.Campaign.noise_rows)
        [ 0.0; 0.01; 0.02; 0.05 ])
    [ 1; 3; 5 ];
  Table.print table;
  Printf.printf
    "\nsingle-read application loses detections and raises false alarms as \
     meter noise grows; the adaptive majority vote buys both back for a \
     modest read overhead concentrated on disagreeing vectors.\n"

let ablation () =
  ablation_loop_exclusion ();
  ablation_anti_masking ();
  ablation_block_size ();
  ablation_engine ();
  ablation_noise ()

(* ------------------------------------------------------------------ *)
(* Extensions: diagnosis resolution and test-application sequencing    *)
(* ------------------------------------------------------------------ *)

let extensions () =
  heading
    "Extensions: diagnostic resolution and switching-cost sequencing";
  let table =
    Table.create
      [ ("Array", Table.Left); ("N", Table.Right); ("classes", Table.Right);
        ("resolution", Table.Right); ("switch before", Table.Right);
        ("switch after", Table.Right); ("saved", Table.Right) ]
  in
  List.iter
    (fun (label, fpva) ->
      let suite = Pipeline.run_exn fpva in
      let faults = Fpva_sim.Diagnosis.single_faults fpva in
      let dict =
        Fpva_sim.Diagnosis.build fpva ~vectors:suite.Pipeline.vectors ~faults
      in
      let classes =
        List.length (Fpva_sim.Diagnosis.equivalence_classes dict)
      in
      let before, after =
        Sequencer.improvement fpva suite.Pipeline.vectors
      in
      Table.add_row table
        [ label; string_of_int suite.Pipeline.total; string_of_int classes;
          Printf.sprintf "%.2f" (Fpva_sim.Diagnosis.resolution dict);
          string_of_int before; string_of_int after;
          Printf.sprintf "%.0f%%"
            (100.0
            *. float_of_int (before - after)
            /. float_of_int (max before 1)) ])
    [ List.nth Layouts.paper_suite 0; List.nth Layouts.paper_suite 1;
      List.nth Layouts.paper_suite 2 ];
  Table.print table;
  Printf.printf
    "\nresolution = distinguishable fault classes / single-fault universe \
     (1.0 = full diagnosability); switching cost counts valve actuations \
     over the whole test session.\n"

(* ------------------------------------------------------------------ *)
(* Campaign throughput: compiled core vs the per-call reference path   *)
(* ------------------------------------------------------------------ *)

module Campaign = Fpva_sim.Campaign
module Simulator = Fpva_sim.Simulator

(* The per-trial engine the bit-parallel batches replaced, kept as the
   speedup baseline: one trial per simulation, run through
   [Checkpoint.Shards.run] like [Campaign.run] but with one trial per unit
   instead of a 63-lane batch, so a timed pair differs only in the
   kernel.  Trial [g] draws
   from [Rng.derive seed g], exactly as in [Campaign.run], and is scored
   by [detects], built once per worker. *)
type trial_outcome = Detected of int | Escaped of Fpva_sim.Fault.t list | Void

let row_of_outcomes ~fault_count outcomes =
  let detected = ref 0 and latency_sum = ref 0 and escapes = ref [] in
  let short_draws = ref 0 and void_draws = ref 0 in
  Array.iter
    (fun (short, outcome) ->
      if short then incr short_draws;
      match outcome with
      | Void -> incr void_draws
      | Detected ix ->
        incr detected;
        latency_sum := !latency_sum + ix
      | Escaped faults -> escapes := faults :: !escapes)
    outcomes;
  { Campaign.fault_count; trials = Array.length outcomes;
    detected = !detected; escapes = List.rev !escapes;
    short_draws = !short_draws; void_draws = !void_draws;
    mean_latency =
      (if !detected = 0 then nan
       else float_of_int !latency_sum /. float_of_int !detected) }

let scalar_campaign_run ~detects (config : Campaign.config) fpva ~vectors =
  let t0 = Fpva_util.Timer.now () in
  let counts = Array.of_list config.Campaign.fault_counts in
  let trials = config.Campaign.trials in
  let trial detects g =
    let fault_count = counts.(g / trials) in
    let faults =
      Campaign.draw_faults
        (Fpva_util.Rng.derive config.Campaign.seed g)
        fpva ~classes:config.Campaign.classes ~count:fault_count
    in
    let short = List.length faults < fault_count in
    let rec scan i = function
      | [] -> Escaped faults
      | v :: rest -> if detects ~faults v then Detected i else scan (i + 1) rest
    in
    (short, if faults = [] then Void else scan 1 vectors)
  in
  let grid =
    Fpva_sim.Checkpoint.Shards.run ~jobs:1 ~rows:(Array.length counts) ~trials
      ~unit:1 ~empty:(false, Void) ~init:detects
      ~body:(fun detects ~lo ~width:_ -> [| trial detects lo |])
      ()
  in
  let rows =
    List.mapi
      (fun r fault_count ->
        row_of_outcomes ~fault_count
          (Option.get grid.Fpva_sim.Checkpoint.Shards.rows.(r)))
      config.Campaign.fault_counts
  in
  { Campaign.rows; truncated = [];
    wall_seconds = Fpva_util.Timer.elapsed t0 }

let compiled_detects fpva () = Simulator.detects_h (Simulator.make fpva)

(* Artifact self-check: read a BENCH file back and refuse missing or
   vacuous fields.  This is what makes a bench the single writer of every
   number it reports — a stale or hand-edited artifact cannot pass.
   [pos_ints] and [pos_floats] must be present and positive, [bools]
   present, [trues] present and true, and [present] merely present. *)
let self_check file ?(pos_ints = []) ?(pos_floats = []) ?(bools = [])
    ?(trues = []) ?(present = []) () =
  let module Json = Fpva_serve.Json in
  match Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error msg ->
    Printf.printf "ERROR: %s does not parse: %s\n" file msg;
    false
  | Ok json ->
    let positive get is_positive f =
      match get f json with
      | Some v when is_positive v -> None
      | Some _ -> Some "is vacuous"
      | None -> Some "missing"
    in
    let missing found f = if found f then None else Some "missing" in
    let problems =
      List.concat_map
        (fun (fields, verdict) ->
          List.filter_map
            (fun f -> Option.map (fun p -> f ^ " " ^ p) (verdict f))
            fields)
        [ (pos_ints, positive Json.get_int (fun v -> v > 0));
          (pos_floats, positive Json.get_float (fun v -> v > 0.0));
          (bools, missing (fun f -> Json.get_bool f json <> None));
          ( trues,
            fun f ->
              match Json.get_bool f json with
              | Some true -> None
              | Some false -> Some "is false"
              | None -> Some "missing" );
          (present, missing (fun f -> Json.member f json <> None)) ]
    in
    List.iter (fun p -> Printf.printf "ERROR: %s: %s\n" file p) problems;
    if problems = [] then Printf.printf "%s self-check passed\n" file;
    problems = []

(* Every field of BENCH_campaign.json is computed by this function, this
   run — nothing is copied forward from a previous artifact.  After
   writing, the file is read back, parsed, and hard-checked for missing
   or vacuous fields, so a stale or truncated artifact fails the bench
   instead of silently passing CI. *)
let campaign_bench ~trials () =
  heading
    (Printf.sprintf
       "Campaign throughput: 8x8 array, %d trials per fault count" trials);
  let fpva = Layouts.paper_array 8 in
  let suite = Pipeline.run_exn fpva in
  let vectors = suite.Pipeline.vectors in
  let config =
    { Fpva_sim.Campaign.default_config with Fpva_sim.Campaign.trials }
  in
  let total_trials = trials * List.length config.Fpva_sim.Campaign.fault_counts in
  let rate n wall = float_of_int n /. Float.max wall 1e-9 in
  (* Compiled path, ideal meters. *)
  let ideal = Campaign.run ~config fpva ~vectors in
  let ideal_tps = rate total_trials ideal.Fpva_sim.Campaign.wall_seconds in
  (* A jobs sweep: rows must be bit-identical for every jobs value;
     throughput should scale with available cores. *)
  let row_eq (a : Fpva_sim.Campaign.row) (b : Fpva_sim.Campaign.row) =
    a.Fpva_sim.Campaign.fault_count = b.Fpva_sim.Campaign.fault_count
    && a.Fpva_sim.Campaign.trials = b.Fpva_sim.Campaign.trials
    && a.Fpva_sim.Campaign.detected = b.Fpva_sim.Campaign.detected
    && a.Fpva_sim.Campaign.escapes = b.Fpva_sim.Campaign.escapes
    && a.Fpva_sim.Campaign.short_draws = b.Fpva_sim.Campaign.short_draws
    && a.Fpva_sim.Campaign.void_draws = b.Fpva_sim.Campaign.void_draws
    && Float.compare a.Fpva_sim.Campaign.mean_latency
         b.Fpva_sim.Campaign.mean_latency
       = 0
  in
  let sweep =
    List.map
      (fun jobs ->
        let r = Fpva_sim.Campaign.run ~config ~jobs fpva ~vectors in
        ( jobs,
          r.Fpva_sim.Campaign.rows,
          rate total_trials r.Fpva_sim.Campaign.wall_seconds ))
      [ 1; 2; 4 ]
  in
  let j1_rows, j1_tps =
    match sweep with (1, rows, tps) :: _ -> (rows, tps) | _ -> assert false
  in
  let rows_identical =
    List.for_all
      (fun (_, rows, _) ->
        List.length rows = List.length j1_rows
        && List.for_all2 row_eq rows j1_rows)
      sweep
  in
  let tps_of j =
    List.assoc j (List.map (fun (j, _, tps) -> (j, tps)) sweep)
  in
  (* Bit-parallel kernel vs its scalar reference, single-threaded.  A
     dedicated pair of runs with a floor on the trial count: at the tiny
     CI trial counts a few-hundred-trial scalar run finishes in fractions of a
     millisecond and the ratio would be timer noise. *)
  let kernel_trials = max trials 1000 in
  let kernel_config =
    { config with Fpva_sim.Campaign.trials = kernel_trials }
  in
  let kernel_total =
    kernel_trials * List.length config.Fpva_sim.Campaign.fault_counts
  in
  (* The two kernels are timed back to back inside each round and the
     speedup is the best per-round ratio: a load spike on a shared
     runner then slows both sides of a ratio instead of whichever
     kernel happened to be running, which is what made a
     separately-timed comparison flake. *)
  let scalar_run = ref None and batched_run = ref None in
  let scalar_best = ref infinity and batched_best = ref infinity in
  let speedup_best = ref 0.0 in
  for _ = 1 to 5 do
    let s =
      scalar_campaign_run ~detects:(compiled_detects fpva) kernel_config fpva
        ~vectors
    in
    let b = Campaign.run ~config:kernel_config ~jobs:1 fpva ~vectors in
    scalar_best := Float.min !scalar_best s.Fpva_sim.Campaign.wall_seconds;
    batched_best := Float.min !batched_best b.Fpva_sim.Campaign.wall_seconds;
    speedup_best :=
      Float.max !speedup_best
        (s.Fpva_sim.Campaign.wall_seconds
        /. Float.max b.Fpva_sim.Campaign.wall_seconds 1e-9);
    scalar_run := Some s;
    batched_run := Some b
  done;
  let scalar_run = Option.get !scalar_run in
  let batched_run = Option.get !batched_run in
  let scalar_tps = rate kernel_total !scalar_best in
  let batched_tps = rate kernel_total !batched_best in
  let batched_speedup = !speedup_best in
  let batched_rows_identical =
    List.length batched_run.Fpva_sim.Campaign.rows
    = List.length scalar_run.Fpva_sim.Campaign.rows
    && List.for_all2 row_eq batched_run.Fpva_sim.Campaign.rows
         scalar_run.Fpva_sim.Campaign.rows
  in
  (* Compiled path, noisy meters with adaptive retesting. *)
  let noise_config =
    { Fpva_sim.Campaign.base = config;
      noise_levels = [ 0.02 ];
      repeats = 3 }
  in
  let noisy = Fpva_sim.Campaign.run_noisy ~config:noise_config fpva ~vectors in
  let noisy_tps = rate total_trials noisy.Fpva_sim.Campaign.n_wall_seconds in
  Printf.printf "vectors=%d, fault counts %s\n" suite.Pipeline.total
    (String.concat ","
       (List.map string_of_int config.Fpva_sim.Campaign.fault_counts));
  Printf.printf "ideal (compiled) : %d trials in %.3fs  (%.0f trials/s)\n"
    total_trials ideal.Fpva_sim.Campaign.wall_seconds ideal_tps;
  Printf.printf "noisy (compiled) : %d trials in %.3fs  (%.0f trials/s)\n"
    total_trials noisy.Fpva_sim.Campaign.n_wall_seconds noisy_tps;
  (* Bit-parallel kernel vs scalar reference. *)
  Printf.printf
    "scalar kernel    : %d trials at %.0f trials/s (best of 5, jobs=1)\n"
    kernel_total scalar_tps;
  Printf.printf
    "batched kernel   : %d trials at %.0f trials/s (best of 5, jobs=1)\n"
    kernel_total batched_tps;
  Printf.printf
    "batched speedup vs scalar: %.1fx (best paired round, gate: >= 4)\n"
    batched_speedup;
  let batched_gate = batched_speedup >= 4.0 in
  if not batched_gate then
    Printf.printf
      "ERROR: the bit-parallel kernel is less than 4x the scalar kernel\n";
  Printf.printf "batched rows identical to scalar rows: %b\n"
    batched_rows_identical;
  if not batched_rows_identical then
    Printf.printf "ERROR: the kernels disagree on campaign rows\n";
  (* Parallel scaling across jobs values. *)
  List.iter
    (fun (jobs, _, tps) ->
      Printf.printf
        "sharded jobs=%d  : %d trials in %.3fs  (%.0f trials/s, efficiency \
         %.2f)\n"
        jobs total_trials
        (float_of_int total_trials /. Float.max tps 1e-9)
        tps
        (tps /. (float_of_int jobs *. Float.max j1_tps 1e-9)))
    sweep;
  Printf.printf "sharded rows identical across jobs {1,2,4}: %b\n"
    rows_identical;
  if not rows_identical then
    Printf.printf "ERROR: sharded campaign rows differ across jobs values\n";
  let jobs2_not_slower = tps_of 2 >= j1_tps in
  if not jobs2_not_slower then
    Printf.printf
      "WARNING: jobs=2 slower than jobs=1 (%.0f vs %.0f trials/s) — expected \
       on a single-core runner, a regression on multi-core hardware\n"
      (tps_of 2) j1_tps;
  let parallel_speedup = tps_of 4 /. Float.max j1_tps 1e-9 in
  (* The jobs=4 gate only means something when the hardware has 4 cores to
     give: enforce on multi-core, warn on constrained runners. *)
  let multicore = Domain.recommended_domain_count () >= 4 in
  let parallel_gate = (not multicore) || parallel_speedup >= 2.0 in
  Printf.printf
    "parallel speedup jobs=4 vs jobs=1: %.2fx (gate: >= 2.0 on multi-core; \
     %s)\n"
    parallel_speedup
    (if multicore then "enforced" else "advisory on this runner");
  if not parallel_gate then
    Printf.printf
      "ERROR: jobs=4 is less than 2x jobs=1 on a multi-core runner\n"
  else if (not multicore) && parallel_speedup < 2.0 then
    Printf.printf
      "WARNING: jobs=4 speedup %.2fx below 2.0 — runner reports < 4 cores, \
       not treating as a regression\n"
      parallel_speedup;
  (* Traced twin: the same sharded run with tracing on must reproduce the
     jobs=1 rows bit-for-bit (tracing reads only clocks and counters, never
     an RNG stream), and per-batch aggregation must keep its overhead
     small. *)
  let module Trace = Fpva_util.Trace in
  Trace.reset ();
  Trace.enable ();
  let traced = Fpva_sim.Campaign.run ~config ~jobs:2 fpva ~vectors in
  Trace.disable ();
  let traced_rows_identical =
    List.length traced.Fpva_sim.Campaign.rows = List.length j1_rows
    && List.for_all2 row_eq traced.Fpva_sim.Campaign.rows j1_rows
  in
  Printf.printf "traced jobs=2 rows identical to untraced jobs=1: %b\n"
    traced_rows_identical;
  if not traced_rows_identical then
    Printf.printf "ERROR: tracing changed the campaign rows\n";
  let untraced_j2_wall = float_of_int total_trials /. Float.max (tps_of 2) 1e-9 in
  let trace_overhead_pct =
    100.0
    *. ((traced.Fpva_sim.Campaign.wall_seconds /. Float.max untraced_j2_wall 1e-9)
       -. 1.0)
  in
  Printf.printf "traced jobs=2 overhead vs untraced: %.1f%%\n"
    trace_overhead_pct;
  let metrics_json =
    let entries =
      List.filter_map
        (fun (name, v) ->
          if v = 0 then None
          else Some (Printf.sprintf "\"%s\": %d" name v))
        (Trace.counters ())
      @ List.filter_map
          (fun (name, v) ->
            if v = 0.0 then None
            else Some (Printf.sprintf "\"%s\": %.1f" name v))
          (Trace.gauges ())
    in
    String.concat ", " entries
  in
  let oc = open_out "BENCH_campaign.json" in
  Printf.fprintf oc
    "{\n\
    \  \"layout\": \"paper_array_8x8\",\n\
    \  \"vectors\": %d,\n\
    \  \"trials_per_fault_count\": %d,\n\
    \  \"total_trials\": %d,\n\
    \  \"ideal_trials_per_sec\": %.1f,\n\
    \  \"noisy_trials_per_sec\": %.1f,\n\
    \  \"kernel_trials_per_fault_count\": %d,\n\
    \  \"scalar_trials_per_sec\": %.1f,\n\
    \  \"batched_trials_per_sec\": %.1f,\n\
    \  \"batched_speedup_vs_scalar\": %.2f,\n\
    \  \"batched_rows_identical\": %b,\n\
    \  \"recommended_domains\": %d,\n\
    \  \"sharded_j1_trials_per_sec\": %.1f,\n\
    \  \"sharded_j2_trials_per_sec\": %.1f,\n\
    \  \"sharded_j4_trials_per_sec\": %.1f,\n\
    \  \"parallel_speedup_j4_vs_j1\": %.2f,\n\
    \  \"parallel_gate_enforced\": %b,\n\
    \  \"scaling_efficiency_j4\": %.2f,\n\
    \  \"sharded_rows_identical_across_jobs\": %b,\n\
    \  \"jobs2_not_slower\": %b,\n\
    \  \"traced_rows_identical\": %b,\n\
    \  \"trace_overhead_pct\": %.1f,\n\
    \  \"metrics\": {%s}\n\
     }\n"
    suite.Pipeline.total trials total_trials ideal_tps noisy_tps kernel_trials
    scalar_tps batched_tps batched_speedup batched_rows_identical
    (Domain.recommended_domain_count ())
    j1_tps (tps_of 2) (tps_of 4) parallel_speedup multicore
    (tps_of 4 /. (4.0 *. Float.max j1_tps 1e-9))
    rows_identical jobs2_not_slower traced_rows_identical trace_overhead_pct
    metrics_json;
  close_out oc;
  Printf.printf "wrote BENCH_campaign.json\n";
  let artifact_ok =
    self_check "BENCH_campaign.json"
      ~pos_ints:
        [ "vectors"; "trials_per_fault_count"; "total_trials";
          "kernel_trials_per_fault_count"; "recommended_domains" ]
      ~pos_floats:
        [ "ideal_trials_per_sec"; "noisy_trials_per_sec";
          "scalar_trials_per_sec"; "batched_trials_per_sec";
          "batched_speedup_vs_scalar"; "sharded_j1_trials_per_sec";
          "sharded_j2_trials_per_sec"; "sharded_j4_trials_per_sec";
          "parallel_speedup_j4_vs_j1"; "scaling_efficiency_j4" ]
      ~bools:
        [ "batched_rows_identical"; "parallel_gate_enforced";
          "sharded_rows_identical_across_jobs"; "jobs2_not_slower";
          "traced_rows_identical" ]
      ~present:[ "trace_overhead_pct"; "metrics" ]
      ()
  in
  rows_identical && traced_rows_identical && batched_rows_identical
  && batched_gate && parallel_gate && artifact_ok

(* ------------------------------------------------------------------ *)
(* Checkpoint overhead: journaled vs plain campaign throughput         *)
(* ------------------------------------------------------------------ *)

(* The acceptance gate for crash-safe campaigns: journaling every shard
   to a write-ahead log (with periodic fsync) must cost less than 10% of
   campaign throughput on the default 8x8 array, and a resume from a
   truncated journal must reproduce the plain run's rows byte for byte.
   Best-of-3 timing damps runner noise; the first pair of runs also warms
   the compiled-simulator cache so neither side pays it alone. *)
let checkpoint_bench ~trials () =
  heading
    (Printf.sprintf
       "Checkpoint overhead: 8x8 array, %d trials per fault count" trials);
  let module Campaign = Fpva_sim.Campaign in
  let module Checkpoint = Fpva_sim.Checkpoint in
  let fpva = Layouts.paper_array 8 in
  let suite = Pipeline.run_exn fpva in
  let vectors = suite.Pipeline.vectors in
  let config =
    { Fpva_sim.Campaign.default_config with Fpva_sim.Campaign.trials }
  in
  let total_trials =
    trials * List.length config.Fpva_sim.Campaign.fault_counts
  in
  let rate n wall = float_of_int n /. Float.max wall 1e-9 in
  let rendered = Fpva_serve.Protocol.rendered_rows in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpva-bench-ckpt-%d.bin" (Unix.getpid ()))
  in
  let key = Campaign.checkpoint_key config fpva ~vectors in
  let open_ck ~resume =
    match Checkpoint.open_ ~path ~resume ~key () with
    | Ok ck -> ck
    | Error e ->
      failwith ("checkpoint bench: " ^ Checkpoint.open_error_to_string e)
  in
  let best_of n f =
    let best = ref infinity and last = ref None in
    for _ = 1 to n do
      let r = f () in
      best := Float.min !best r.Fpva_sim.Campaign.wall_seconds;
      last := Some r
    done;
    (Option.get !last, !best)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let plain, plain_wall =
        best_of 3 (fun () -> Campaign.run ~config fpva ~vectors)
      in
      let journaled, journaled_wall =
        best_of 3 (fun () ->
            (try Sys.remove path with Sys_error _ -> ());
            let ck = open_ck ~resume:false in
            let r = Campaign.run ~config ~checkpoint:ck fpva ~vectors in
            if Checkpoint.failure ck <> None then
              failwith "checkpoint bench: journal write failed";
            Checkpoint.close ck;
            r)
      in
      let journal_bytes = (Unix.stat path).Unix.st_size in
      let rows_identical = rendered journaled = rendered plain in
      (* Interrupt: drop the final third of the journal (possibly tearing
         a record), resume, and demand the same rows with real replay. *)
      let cut = journal_bytes * 2 / 3 in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd cut;
      Unix.close fd;
      let ck = open_ck ~resume:true in
      let resumed = Campaign.run ~config ~checkpoint:ck fpva ~vectors in
      let resumed_shards = Checkpoint.resumed_shards ck in
      let recomputed_shards = Checkpoint.recorded_shards ck in
      Checkpoint.close ck;
      let resume_rows_identical = rendered resumed = rendered plain in
      let resume_exercised = resumed_shards > 0 && recomputed_shards > 0 in
      let plain_tps = rate total_trials plain_wall in
      let journaled_tps = rate total_trials journaled_wall in
      let overhead = (journaled_wall /. Float.max plain_wall 1e-9) -. 1.0 in
      let overhead_ok = overhead < 0.10 in
      Printf.printf "plain      : %d trials in %.3fs  (%.0f trials/s)\n"
        total_trials plain_wall plain_tps;
      Printf.printf
        "journaled  : %d trials in %.3fs  (%.0f trials/s, journal %d bytes)\n"
        total_trials journaled_wall journaled_tps journal_bytes;
      Printf.printf "overhead   : %.1f%% (gate: < 10%%)\n" (100.0 *. overhead);
      Printf.printf
        "resume     : truncated to %d bytes, replayed %d shards, recomputed \
         %d\n"
        cut resumed_shards recomputed_shards;
      if not overhead_ok then
        Printf.printf "ERROR: checkpointing costs more than 10%% throughput\n";
      if not rows_identical then
        Printf.printf "ERROR: journaled rows differ from plain rows\n";
      if not resume_rows_identical then
        Printf.printf "ERROR: resumed rows differ from plain rows\n";
      if not resume_exercised then
        Printf.printf
          "ERROR: resume was vacuous (nothing replayed or nothing \
           recomputed)\n";
      let oc = open_out "BENCH_checkpoint.json" in
      Printf.fprintf oc
        "{\n\
        \  \"layout\": \"paper_array_8x8\",\n\
        \  \"vectors\": %d,\n\
        \  \"trials_per_fault_count\": %d,\n\
        \  \"total_trials\": %d,\n\
        \  \"plain_trials_per_sec\": %.1f,\n\
        \  \"journaled_trials_per_sec\": %.1f,\n\
        \  \"overhead_pct\": %.2f,\n\
        \  \"overhead_under_10pct\": %b,\n\
        \  \"journal_bytes\": %d,\n\
        \  \"rows_identical\": %b,\n\
        \  \"resumed_shards\": %d,\n\
        \  \"recomputed_shards\": %d,\n\
        \  \"resume_rows_identical\": %b\n\
         }\n"
        suite.Pipeline.total trials total_trials plain_tps journaled_tps
        (100.0 *. overhead) overhead_ok journal_bytes rows_identical
        resumed_shards recomputed_shards resume_rows_identical;
      close_out oc;
      Printf.printf "wrote BENCH_checkpoint.json\n";
      overhead_ok && rows_identical && resume_rows_identical
      && resume_exercised)

(* ------------------------------------------------------------------ *)
(* Persistent service: cold vs warm request latency                    *)
(* ------------------------------------------------------------------ *)

(* The cache-hit claim of the serve daemon, measured over the real wire:
   the first generate request pays parse + validate + simulator warm-up +
   the full pipeline; repeats of the same (layout, config) must be served
   from the suite cache and come back measurably faster.  Also times the
   idempotent byte-replay path, which skips even the cache lookup work. *)
let serve_bench () =
  heading "Persistent service (fpva serve): cold vs warm latency";
  let module Serve = Fpva_serve.Server in
  let module Client = Fpva_serve.Client in
  let module Protocol = Fpva_serve.Protocol in
  let module Json = Fpva_serve.Json in
  let module Timer = Fpva_util.Timer in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fpva-bench-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { (Serve.default_config (Protocol.Unix_sock path)) with
      Serve.log = ignore }
  in
  let server =
    match Serve.create cfg with
    | Ok s -> s
    | Error msg -> failwith ("serve bench: " ^ msg)
  in
  let th = Thread.create Serve.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      try Unix.unlink path with _ -> ())
    (fun () ->
      let client = { (Client.default_config (Protocol.Unix_sock path)) with
                     Client.retries = 0 } in
      let layout = Render.plain (Layouts.paper_array 8) in
      let call ?key () =
        let envelope =
          { Protocol.id = None;
            deadline_ms = None;
            idempotency_key = key;
            request =
              Protocol.Generate
                { layout; gen = Protocol.default_gen_options } }
        in
        match Client.call client envelope with
        | Ok json when Protocol.response_ok json -> json
        | Ok _ -> failwith "serve bench: request failed"
        | Error msg -> failwith ("serve bench: " ^ msg)
      in
      let json, cold = Timer.time (fun () -> call ()) in
      let cached_flag j =
        match Protocol.response_result j with
        | Some r -> Json.get_bool "cached" r
        | None -> None
      in
      let cold_was_cold = cached_flag json = Some false in
      let warm_runs = 20 in
      let warm = Array.make warm_runs 0.0 in
      let all_warm = ref true in
      for i = 0 to warm_runs - 1 do
        let j, s = Timer.time (fun () -> call ()) in
        warm.(i) <- s;
        if cached_flag j <> Some true then all_warm := false
      done;
      let warm_mean =
        Array.fold_left ( +. ) 0.0 warm /. float_of_int warm_runs
      in
      let warm_min = Array.fold_left Float.min warm.(0) warm in
      (* Idempotent replay: same key twice, time the replayed call. *)
      ignore (call ~key:"bench-replay" ());
      let _, replay = Timer.time (fun () -> call ~key:"bench-replay" ()) in
      let speedup = cold /. Float.max warm_mean 1e-9 in
      let warm_faster = warm_mean < cold in
      Printf.printf
        "cold: %.1f ms   warm mean: %.2f ms (min %.2f)   replay: %.2f ms   \
         speedup: %.0fx\n"
        (1000.0 *. cold) (1000.0 *. warm_mean) (1000.0 *. warm_min)
        (1000.0 *. replay) speedup;
      if not cold_was_cold then
        Printf.printf "ERROR: first request was already cached\n";
      if not !all_warm then
        Printf.printf "ERROR: a repeat request missed the suite cache\n";
      if not warm_faster then
        Printf.printf
          "ERROR: warm cache-hit requests are not faster than the cold one\n";
      let oc = open_out "BENCH_serve.json" in
      Printf.fprintf oc
        "{\n\
        \  \"layout\": \"paper_array_8x8\",\n\
        \  \"cold_ms\": %.3f,\n\
        \  \"warm_mean_ms\": %.3f,\n\
        \  \"warm_min_ms\": %.3f,\n\
        \  \"replay_ms\": %.3f,\n\
        \  \"warm_runs\": %d,\n\
        \  \"speedup_cold_vs_warm\": %.2f,\n\
        \  \"cold_was_cold\": %b,\n\
        \  \"all_repeats_cache_hit\": %b,\n\
        \  \"warm_faster\": %b\n\
         }\n"
        (1000.0 *. cold) (1000.0 *. warm_mean) (1000.0 *. warm_min)
        (1000.0 *. replay) warm_runs speedup cold_was_cold !all_warm
        warm_faster;
      close_out oc;
      Printf.printf "wrote BENCH_serve.json\n";
      cold_was_cold && !all_warm && warm_faster)

(* ------------------------------------------------------------------ *)
(* Adaptive sequential diagnosis vs fixed-suite replay                 *)
(* ------------------------------------------------------------------ *)

(* The acceptance gate for adaptive diagnosis: replaying every dictionary
   entry through the entropy-driven sequential session must (a) isolate
   the same outcome class as the full-suite [diagnose] for every fault —
   bit-identical at zero noise — and (b) need strictly fewer reads on
   average than applying the fixed suite.  Same artifact discipline as
   the campaign bench: every field is computed this run, written to
   BENCH_diagnosis.json, read back and hard-checked. *)
let diagnosis_bench () =
  heading "Sequential diagnosis: adaptive reads vs fixed-suite replay (8x8)";
  let module Diagnosis = Fpva_sim.Diagnosis in
  let fpva = Layouts.paper_array 8 in
  let suite = Pipeline.run_exn fpva in
  let faults = Diagnosis.single_faults fpva in
  let dict = Diagnosis.build fpva ~vectors:suite.Pipeline.vectors ~faults in
  let classes = List.length (Diagnosis.equivalence_classes dict) in
  let resolution = Diagnosis.resolution dict in
  let sw, wall =
    Fpva_util.Timer.time (fun () -> Diagnosis.Sequential.sweep dict)
  in
  let mean = sw.Diagnosis.Sequential.mean_reads in
  let fixed = sw.Diagnosis.Sequential.fixed_reads in
  let ratio = mean /. Float.max (float_of_int fixed) 1e-9 in
  let agree = sw.Diagnosis.Sequential.all_agree in
  let saved = mean < float_of_int fixed in
  (* One session per single fault, read the way `fpva diagnose
     --sequential --noise 0.02` reads a chip: a uniform 0.02 meter behind
     a 3-read majority, stopping at confidence 0.95. *)
  let noisy_sessions_per_s =
    let module Measurement = Fpva_sim.Measurement in
    let meter = Measurement.uniform fpva ~false_pass:0.02 ~false_fail:0.02 in
    let config =
      { Diagnosis.Sequential.false_pass = Measurement.vector_false_pass meter;
        false_fail = Measurement.vector_false_fail meter;
        confidence = 0.95;
        max_reads = None }
    in
    let h = Fpva_sim.Simulator.make fpva in
    let rng = Fpva_util.Rng.create 7 in
    let policy = Retest.policy 3 in
    let (), seconds =
      Fpva_util.Timer.time (fun () ->
          List.iter
            (fun fault ->
              ignore
                (Diagnosis.Sequential.run ~config dict ~read:(fun _ v ->
                     (Retest.apply policy ~read:(fun _ ->
                          Measurement.detects_h meter rng h ~faults:[ fault ] v))
                       .Retest.failed)))
            faults)
    in
    float_of_int (List.length faults) /. seconds
  in
  Printf.printf "dictionary       : %d faults, %d vectors, %d classes \
                 (resolution %.2f)\n"
    (List.length faults) suite.Pipeline.total classes resolution;
  Printf.printf
    "sequential       : %d sessions, mean %.2f reads (p95 %.1f, max %d) in \
     %.2fs\n"
    sw.Diagnosis.Sequential.sessions mean sw.Diagnosis.Sequential.p95_reads
    sw.Diagnosis.Sequential.max_session_reads wall;
  Printf.printf "noisy sessions   : %.1f sessions/s (noise 0.02, 3-read \
                 majority, confidence 0.95)\n"
    noisy_sessions_per_s;
  Printf.printf "fixed suite      : %d reads per session\n" fixed;
  Printf.printf
    "reads ratio      : %.2f (gate: < 1.0), outcome classes bit-identical \
     to diagnose: %b (gate: true)\n"
    ratio agree;
  if not agree then
    Printf.printf
      "ERROR: a sequential session isolated a different outcome class than \
       diagnose\n";
  if not saved then
    Printf.printf
      "ERROR: sequential mean reads %.2f not below the fixed suite's %d\n"
      mean fixed;
  let oc = open_out "BENCH_diagnosis.json" in
  Printf.fprintf oc
    "{\n\
    \  \"layout\": \"paper_array_8x8\",\n\
    \  \"vectors\": %d,\n\
    \  \"faults\": %d,\n\
    \  \"equivalence_classes\": %d,\n\
    \  \"resolution\": %.4f,\n\
    \  \"sessions\": %d,\n\
    \  \"sequential_mean_reads\": %.4f,\n\
    \  \"sequential_p95_reads\": %.1f,\n\
    \  \"sequential_max_reads\": %d,\n\
    \  \"fixed_suite_reads\": %d,\n\
    \  \"reads_ratio\": %.4f,\n\
    \  \"sweep_wall_s\": %.6f,\n\
    \  \"noisy_sessions_per_s\": %.1f,\n\
    \  \"mean_reads_below_fixed\": %b,\n\
    \  \"outcome_classes_match\": %b\n\
     }\n"
    suite.Pipeline.total (List.length faults) classes resolution
    sw.Diagnosis.Sequential.sessions mean sw.Diagnosis.Sequential.p95_reads
    sw.Diagnosis.Sequential.max_session_reads fixed ratio wall
    noisy_sessions_per_s saved agree;
  close_out oc;
  Printf.printf "wrote BENCH_diagnosis.json\n";
  let artifact_ok =
    self_check "BENCH_diagnosis.json"
      ~pos_ints:
        [ "vectors"; "faults"; "equivalence_classes"; "sessions";
          "sequential_max_reads"; "fixed_suite_reads" ]
      ~pos_floats:
        [ "resolution"; "sequential_mean_reads"; "sequential_p95_reads";
          "reads_ratio"; "sweep_wall_s"; "noisy_sessions_per_s" ]
      ~trues:[ "mean_reads_below_fixed"; "outcome_classes_match" ]
      ()
  in
  agree && saved && artifact_ok

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "table1" :: _ -> ignore (table1 ())
  | _ :: "fig8" :: _ -> fig8 ()
  | _ :: "fig9" :: _ -> fig9 ()
  | _ :: "faults" :: rest ->
    let trials = match rest with t :: _ -> int_of_string t | [] -> 10_000 in
    faults ~trials ()
  | _ :: "ablation" :: _ -> ablation ()
  | _ :: "noise" :: _ -> ablation_noise ()
  | _ :: "extensions" :: _ -> extensions ()
  | _ :: "campaign" :: rest ->
    let trials = match rest with t :: _ -> int_of_string t | [] -> 10_000 in
    if not (campaign_bench ~trials ()) then exit 1
  | _ :: "checkpoint" :: rest ->
    let trials = match rest with t :: _ -> int_of_string t | [] -> 10_000 in
    if not (checkpoint_bench ~trials ()) then exit 1
  | _ :: "serve" :: _ -> if not (serve_bench ()) then exit 1
  | _ :: "diagnosis" :: _ -> if not (diagnosis_bench ()) then exit 1
  | _ :: unknown :: _ ->
    Printf.eprintf
      "unknown experiment %S (try table1 | fig8 | fig9 | faults | ablation | \
       noise | extensions | campaign | checkpoint | serve | diagnosis)\n"
      unknown;
    exit 2
  | [ _ ] | [] ->
    ignore (table1 ());
    fig8 ();
    fig9 ();
    faults ~trials:2_000 ();
    ablation ();
    extensions ();
    ignore (campaign_bench ~trials:2_000 ());
    ignore (checkpoint_bench ~trials:2_000 ());
    ignore (serve_bench ());
    ignore (diagnosis_bench ())
