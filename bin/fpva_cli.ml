(* fpva — command-line front end for FPVA test generation.

   Subcommands:
     show      render a layout
     generate  build the full test suite for a layout, optionally rendering
               the flow paths / cut-sets
     campaign  generate a suite and run a random fault-injection campaign
     diagnose  build a diagnostic dictionary / diagnose an injected fault
               (fixed-suite replay, or adaptively with --sequential)
     lifetime  field a fleet of aging chips with periodic in-field retests
     serve     run the persistent test service daemon
     client    send one request to a running daemon

   Exit codes (stable; scripts and CI depend on them):
     0  success
     1  internal error (unexpected exception — a bug, not bad input)
     2  invalid input (bad flag value, malformed layout, unknown class)
     3  degraded result rejected under --strict (budget ran out or the
        suite failed self-checks)
   Cmdliner additionally uses 124 (CLI parse error) and 125. *)

open Cmdliner
open Fpva_grid
open Fpva_testgen

let exit_internal = 1
let exit_invalid = 2
let exit_strict = 3

(* Invalid input discovered mid-run (e.g. a checkpoint file that refuses
   to resume this campaign), raised so enclosing cleanups — notably the
   trace flush in [with_observability] — still run before the exit-2. *)
exception Invalid_input of string

let invalid_input fmt =
  Printf.ksprintf (fun msg -> raise (Invalid_input msg)) fmt

(* Anything [run] throws past argument validation is a bug in the tool,
   not a usage error: report it on one line and exit 1, distinguishable
   from both invalid input (2) and strict degradation (3). *)
let guard_internal run =
  try run () with
  | Invalid_input msg ->
    prerr_endline ("error: " ^ msg);
    exit exit_invalid
  | e ->
    prerr_endline ("internal error: " ^ Printexc.to_string e);
    exit exit_internal

(* ---------- layout selection ---------- *)

let make_layout name rows cols =
  match name with
  | ("full" | "paper") when rows < 1 || cols < 1 ->
    Error "--rows and --cols must be >= 1"
  | "full" -> Ok (Layouts.full ~rows ~cols)
  | "paper" ->
    if rows <> cols then Error "paper layout requires a square array"
    else Ok (Layouts.paper_array rows)
  | "figure8" -> Ok (Layouts.figure8 ())
  | "figure9" -> Ok (Layouts.figure9 ())
  | other -> Error (Printf.sprintf "unknown layout %S" other)

let load_layout_file path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Parse.parse text with
  | Ok fpva -> (
    match Fpva.validate fpva with
    | Ok () -> Ok fpva
    | Error msg -> Error (Printf.sprintf "%s: invalid layout: %s" path msg))
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

let layout_t =
  let doc = "Layout family: full | paper | figure8 | figure9." in
  Arg.(value & opt string "paper" & info [ "layout" ] ~docv:"NAME" ~doc)

let rows_t =
  let doc = "Number of rows (and columns unless --cols is given)." in
  Arg.(value & opt int 10 & info [ "n"; "rows" ] ~docv:"N" ~doc)

let cols_t =
  let doc = "Number of columns (defaults to --rows)." in
  Arg.(value & opt (some int) None & info [ "cols" ] ~docv:"N" ~doc)

let file_t =
  let doc = "Read the layout from an ASCII file (same format as `show` \
             prints) instead of generating one." in
  Arg.(value & opt (some file) None & info [ "layout-file" ] ~docv:"FILE" ~doc)

let resolve_layout ~file name rows cols =
  let result =
    match file with
    | Some path -> load_layout_file path
    | None ->
      let cols = Option.value cols ~default:rows in
      make_layout name rows cols
  in
  match result with
  | Ok fpva -> fpva
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    exit 2

(* ---------- show ---------- *)

let show_cmd =
  let run name rows cols file =
    guard_internal @@ fun () ->
    let fpva = resolve_layout ~file name rows cols in
    Printf.printf "%dx%d array, %d valves, %d ports\n\n" (Fpva.rows fpva)
      (Fpva.cols fpva) (Fpva.num_valves fpva)
      (Array.length (Fpva.ports fpva));
    print_endline (Render.plain fpva)
  in
  let term = Term.(const run $ layout_t $ rows_t $ cols_t $ file_t) in
  Cmd.v (Cmd.info "show" ~doc:"Render an FPVA layout as ASCII art.") term

(* ---------- generate ---------- *)

let direct_t =
  let doc = "Use the direct (non-hierarchical) flow-path model." in
  Arg.(value & flag & info [ "direct" ] ~doc)

let block_t =
  let doc = "Subblock dimension for the hierarchical model." in
  Arg.(value & opt int 5 & info [ "block" ] ~docv:"B" ~doc)

let no_leak_t =
  let doc = "Skip control-leakage vector generation." in
  Arg.(value & flag & info [ "no-leakage" ] ~doc)

let routing_t =
  let doc =
    "Control-layer routing for leakage pairs: fluid | row | column."
  in
  Arg.(value & opt string "fluid" & info [ "routing" ] ~docv:"R" ~doc)

let routing_of = function
  | "fluid" -> Control.Fluid_adjacency
  | "row" -> Control.Row_manifold
  | "column" | "col" -> Control.Column_manifold
  | other ->
    prerr_endline (Printf.sprintf "error: unknown routing %S" other);
    exit 2

let render_t =
  let doc = "Render the flow paths (and each cut-set) after generating." in
  Arg.(value & flag & info [ "render" ] ~doc)

let config_of ?(routing = "fluid") ~direct ~block ~no_leak () =
  if block < 1 then begin
    prerr_endline "error: --block must be >= 1";
    exit 2
  end;
  { Pipeline.default_config with
    Pipeline.hierarchical = not direct;
    block_rows = block;
    block_cols = block;
    include_leakage = not no_leak;
    leak_routing = routing_of routing }

let output_t =
  let doc = "Write the generated suite to FILE (fpva-suite format)." in
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)

let sequence_t =
  let doc = "Reorder the vectors to minimise valve switching and report \
             the saving." in
  Arg.(value & flag & info [ "sequence" ] ~doc)

let time_limit_t =
  let doc = "Wall-clock budget in seconds for the whole pipeline.  Stages \
             share it (flow half, cut-sets 60% of the rest, leakage the \
             remainder); on exhaustion generation stops early and the \
             partial suite is reported with its degradation." in
  Arg.(
    value & opt (some float) None & info [ "time-limit" ] ~docv:"SECONDS" ~doc)

let budget_of = function
  | None -> Budget.unlimited
  | Some s when Float.is_nan s ->
    prerr_endline "error: --time-limit must be a number";
    exit 2
  | Some s -> Budget.of_seconds s

let strict_t =
  let doc = "Exit with status 3 when the result degraded: generation fell \
             back or stopped early, the suite fails self-checks, or (for \
             campaign) budget exhaustion truncated rows.  Without this \
             flag a degraded-but-well-formed result exits 0." in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* ---------- observability ---------- *)

let trace_t =
  let doc =
    "Write line-delimited JSON trace events (pipeline stages, solver \
     spans, campaign shards) to FILE."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_t =
  let doc =
    "Print the collected counters and gauges (simplex pivots, B&B nodes, \
     campaign throughput, ...) after the run."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Enable tracing around [f] when asked; otherwise [f] runs with tracing
   off, i.e. with zero overhead and bit-identical results.  Call this only
   after argument validation — [exit] inside [f] would skip the flush. *)
let with_observability ~trace ~metrics f =
  if trace = None && not metrics then f ()
  else begin
    let oc = Option.map open_out trace in
    let sinks =
      match oc with
      | Some oc -> [ Fpva_util.Trace.json_sink oc ]
      | None -> []
    in
    Fpva_util.Trace.enable ~sinks ();
    Fun.protect
      ~finally:(fun () ->
        Fpva_util.Trace.disable ();
        Option.iter close_out oc;
        if metrics then print_string (Fpva_util.Trace.metrics_summary ()))
      f
  end

let generate_cmd =
  let run name rows cols file direct block no_leak routing render sequence
      output time_limit strict trace metrics =
    guard_internal @@ fun () ->
    let fpva = resolve_layout ~file name rows cols in
    let config = config_of ~routing ~direct ~block ~no_leak () in
    let budget = budget_of time_limit in
    let strict_failure =
      with_observability ~trace ~metrics (fun () ->
          let result =
            match Pipeline.run ~config ~budget fpva with
            | Ok result -> result
            | Error msg ->
              prerr_endline ("error: invalid layout: " ^ msg);
              exit 2
          in
          print_endline (Report.summary result);
          print_endline (Report.degradation_summary result);
          let ok = Pipeline.suite_ok result in
          if not ok then print_endline "WARNING: suite failed self-checks";
          if Pipeline.degraded result then
            print_endline "WARNING: generation degraded (see per-stage report)";
          if sequence then begin
            let before, after =
              Sequencer.improvement fpva result.Pipeline.vectors
            in
            Printf.printf
              "switching cost: %d actuations in generation order, %d after \
               reordering (%.0f%% saved)\n"
              before after
              (100.0
              *. float_of_int (before - after)
              /. float_of_int (max before 1))
          end;
          (match output with
          | Some path ->
            Suite_io.write_file path fpva result.Pipeline.vectors;
            Printf.printf "suite written to %s\n" path
          | None -> ());
          if render then begin
            print_endline "\nFlow paths (digit = 1-based path index mod 10):";
            print_endline (Report.render_flow_paths fpva result.Pipeline.flow);
            List.iteri
              (fun i cut ->
                Printf.printf "\nCut-set %d:\n" (i + 1);
                print_endline (Report.render_cut fpva cut))
              result.Pipeline.cuts
          end;
          strict && (Pipeline.degraded result || not ok))
    in
    if strict_failure then exit exit_strict
  in
  let term =
    Term.(
      const run $ layout_t $ rows_t $ cols_t $ file_t $ direct_t $ block_t
      $ no_leak_t $ routing_t $ render_t $ sequence_t $ output_t
      $ time_limit_t $ strict_t $ trace_t $ metrics_t)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate the complete test-vector suite.")
    term

(* ---------- campaign ---------- *)

let trials_t =
  let doc = "Trials per fault count." in
  Arg.(value & opt int 10_000 & info [ "trials" ] ~docv:"K" ~doc)

let seed_t =
  let doc = "Campaign RNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc)

let max_faults_t =
  let doc = "Inject 1..M simultaneous faults." in
  Arg.(value & opt int 5 & info [ "max-faults" ] ~docv:"M" ~doc)

let classes_t =
  let doc =
    "Fault classes to draw from, comma-separated: sa0, sa1, leak."
  in
  Arg.(value & opt string "sa0,sa1" & info [ "classes" ] ~docv:"LIST" ~doc)

let parse_classes spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty class list"
  else
    List.fold_left
      (fun acc name ->
        match (acc, Fpva_sim.Fault.class_of_name name) with
        | Error _, _ -> acc
        | Ok cs, Some c -> Ok (cs @ [ c ])
        | Ok _, None ->
          Error (Printf.sprintf "unknown fault class %S (want sa0|sa1|leak)" name))
      (Ok []) parts

let noise_t =
  let doc =
    "Per-meter error rate (false-pass and false-fail) for noisy test \
     application."
  in
  Arg.(value & opt float 0.0 & info [ "noise" ] ~docv:"RATE" ~doc)

let repeats_t =
  let doc =
    "Per-vector read budget for adaptive majority-vote retesting (1 = \
     single read, the paper's ideal-observation behaviour)."
  in
  Arg.(value & opt int 1 & info [ "repeats" ] ~docv:"K" ~doc)

let jobs_t =
  let doc =
    "Domains to shard trials across (results are identical for every \
     value).  0 picks min(available cores, 8)."
  in
  Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let resolve_jobs jobs =
  if jobs < 0 then begin
    prerr_endline "error: --jobs must be >= 0";
    exit 2
  end
  else if jobs = 0 then Fpva_util.Pool.default_jobs ()
  else jobs

(* ---------- checkpoint/resume ---------- *)

let checkpoint_t =
  let doc =
    "Journal completed work shards to FILE (crash-safe: length-prefixed \
     CRC-checked records, torn tails recovered).  With --resume an \
     existing FILE's shards are replayed instead of recomputed; the \
     results are bit-identical either way."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let resume_t =
  let doc =
    "Resume from --checkpoint FILE if it exists (a file recorded by a \
     different layout/config/seed/suite is refused).  Without this flag \
     an existing FILE is overwritten."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* Open the checkpoint once the run's key is computable (the key digests
   the generated suite, so this happens after generation).  Open failures
   are the user's input being unusable, not a bug: exit 2. *)
let open_checkpoint ~checkpoint ~resume ~key =
  match checkpoint with
  | None ->
    if resume then invalid_input "--resume requires --checkpoint FILE";
    None
  | Some path -> (
    match Fpva_sim.Checkpoint.open_ ~path ~resume ~key () with
    | Ok ck -> Some ck
    | Error e ->
      invalid_input "%s" (Fpva_sim.Checkpoint.open_error_to_string e))

(* The resumed/computed split, printed after every checkpointed run — CI
   greps it to prove a resumed run actually skipped work (and actually
   had work left to do). *)
let finish_checkpoint = function
  | None -> ()
  | Some ck ->
    Printf.printf "checkpoint: resumed %d shards, computed %d\n"
      (Fpva_sim.Checkpoint.resumed_shards ck)
      (Fpva_sim.Checkpoint.recorded_shards ck);
    (match Fpva_sim.Checkpoint.failure ck with
    | Some msg ->
      Printf.eprintf
        "warning: checkpointing disabled mid-run (%s); results are \
         complete but the journal is not\n"
        msg
    | None -> ());
    Fpva_sim.Checkpoint.close ck

let campaign_cmd =
  let run name rows cols direct block no_leak trials seed max_faults classes
      noise repeats jobs time_limit checkpoint resume strict trace metrics =
    guard_internal @@ fun () ->
    let fpva = resolve_layout ~file:None name rows cols in
    let config = config_of ~direct ~block ~no_leak () in
    let classes =
      match parse_classes classes with
      | Ok cs -> cs
      | Error msg ->
        prerr_endline ("error: " ^ msg);
        exit 2
    in
    if trials < 1 then begin
      prerr_endline "error: --trials must be >= 1";
      exit 2
    end;
    if max_faults < 1 then begin
      prerr_endline "error: --max-faults must be >= 1";
      exit 2
    end;
    if not (noise >= 0.0 && noise <= 1.0) then begin
      prerr_endline "error: --noise must be in [0,1]";
      exit 2
    end;
    if repeats < 1 then begin
      prerr_endline "error: --repeats must be >= 1";
      exit 2
    end;
    if resume && checkpoint = None then begin
      prerr_endline "error: --resume requires --checkpoint FILE";
      exit exit_invalid
    end;
    let jobs = resolve_jobs jobs in
    let budget = budget_of time_limit in
    let truncated =
      with_observability ~trace ~metrics (fun () ->
          let result = Pipeline.run_exn ~config fpva in
          print_endline (Report.summary result);
          let campaign_config =
            { Fpva_sim.Campaign.trials;
              seed;
              classes;
              fault_counts = List.init max_faults (fun i -> i + 1) }
          in
          if noise > 0.0 || repeats > 1 then begin
            let noise_config =
              { Fpva_sim.Campaign.base = campaign_config;
                noise_levels = [ noise ];
                repeats }
            in
            let ck =
              open_checkpoint ~checkpoint ~resume
                ~key:
                  (Fpva_sim.Campaign.noisy_checkpoint_key noise_config fpva
                     ~vectors:result.Pipeline.vectors)
            in
            let r =
              Fpva_sim.Campaign.run_noisy ~config:noise_config ~jobs ~budget
                ?checkpoint:ck fpva ~vectors:result.Pipeline.vectors
            in
            Format.printf "%a@?" Fpva_sim.Campaign.pp_noise_result r;
            finish_checkpoint ck;
            r.Fpva_sim.Campaign.n_truncated <> []
          end
          else begin
            let ck =
              open_checkpoint ~checkpoint ~resume
                ~key:
                  (Fpva_sim.Campaign.checkpoint_key campaign_config fpva
                     ~vectors:result.Pipeline.vectors)
            in
            let r =
              Fpva_sim.Campaign.run ~config:campaign_config ~jobs ~budget
                ?checkpoint:ck fpva ~vectors:result.Pipeline.vectors
            in
            Format.printf "%a@?" Fpva_sim.Campaign.pp_result r;
            finish_checkpoint ck;
            r.Fpva_sim.Campaign.truncated <> []
          end)
    in
    if strict && truncated then exit exit_strict
  in
  let term =
    Term.(
      const run $ layout_t $ rows_t $ cols_t $ direct_t $ block_t $ no_leak_t
      $ trials_t $ seed_t $ max_faults_t $ classes_t $ noise_t $ repeats_t
      $ jobs_t $ time_limit_t $ checkpoint_t $ resume_t $ strict_t $ trace_t
      $ metrics_t)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Generate a suite and run a random fault-injection campaign, \
          optionally under measurement noise with majority-vote retesting.")
    term

(* ---------- diagnose ---------- *)

let inject_t =
  let doc =
    "Fault to inject and diagnose: sa0:ID, sa1:ID, leak:A,B, or \
     int:P:FAULT for an intermittent fault active with probability P."
  in
  Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"FAULT" ~doc)

let rec parse_fault spec =
  match String.split_on_char ':' spec with
  | [ "sa0"; v ] -> Ok (Fpva_sim.Fault.Stuck_at_0 (int_of_string v))
  | [ "sa1"; v ] -> Ok (Fpva_sim.Fault.Stuck_at_1 (int_of_string v))
  | [ "leak"; ab ] -> (
    match String.split_on_char ',' ab with
    | [ a; b ] ->
      Ok (Fpva_sim.Fault.Control_leak (int_of_string a, int_of_string b))
    | _ -> Error "leak takes A,B")
  | "int" :: p :: rest -> (
    let p = float_of_string p in
    if p < 0.0 || p > 1.0 then Error "intermittent probability outside [0,1]"
    else
      match parse_fault (String.concat ":" rest) with
      | Ok f -> Ok (Fpva_sim.Fault.Intermittent (f, p))
      | Error _ as e -> e)
  | _ -> Error "expected sa0:ID, sa1:ID, leak:A,B or int:P:FAULT"

let confidence_t =
  let doc =
    "Minimum posterior confidence for a ranked candidate to be listed; \
     with --sequential, the posterior mass at which the adaptive session \
     stops (default 0.95 under noise).  Must be in [0,1]."
  in
  Arg.(value & opt float 0.0 & info [ "confidence" ] ~docv:"C" ~doc)

let sequential_t =
  let doc =
    "Adaptive sequential diagnosis: read one vector at a time, each \
     chosen to maximize expected information about the surviving \
     candidates, instead of replaying the whole suite.  Without --inject, \
     sweeps every dictionary entry and reports mean reads-to-isolation \
     vs. the fixed suite."
  in
  Arg.(value & flag & info [ "sequential" ] ~doc)

let diagnose_cmd =
  let run name rows cols file direct block no_leak inject sequential noise
      repeats confidence seed jobs checkpoint resume trace metrics =
    guard_internal @@ fun () ->
    let fpva = resolve_layout ~file name rows cols in
    let config = config_of ~direct ~block ~no_leak () in
    if not (noise >= 0.0 && noise < 1.0) then begin
      prerr_endline "error: --noise must be in [0,1)";
      exit 2
    end;
    if repeats < 1 then begin
      prerr_endline "error: --repeats must be >= 1";
      exit 2
    end;
    (* 0 is the unset default; NaN fails both comparisons. *)
    if not (confidence >= 0.0 && confidence <= 1.0) then begin
      prerr_endline "error: --confidence must be in [0,1]";
      exit 2
    end;
    if resume && checkpoint = None then begin
      prerr_endline "error: --resume requires --checkpoint FILE";
      exit exit_invalid
    end;
    let jobs = resolve_jobs jobs in
    let injected =
      match inject with
      | None -> None
      | Some spec -> (
        match parse_fault spec with
        | Ok fault -> (
          (* A well-formed spec can still name a physically impossible
             fault (out-of-range valve, non-adjacent leak pair); refuse
             it rather than silently simulating nonsense. *)
          match Fpva_sim.Fault.validate fpva fault with
          | Ok () -> Some fault
          | Error msg ->
            prerr_endline ("error: invalid fault: " ^ msg);
            exit 2)
        | Error msg ->
          prerr_endline ("error: " ^ msg);
          exit 2)
    in
    with_observability ~trace ~metrics @@ fun () ->
    let result = Pipeline.run_exn ~config fpva in
    print_endline (Report.summary result);
    let faults = Fpva_sim.Diagnosis.single_faults fpva in
    let ck =
      open_checkpoint ~checkpoint ~resume
        ~key:
          (Fpva_sim.Diagnosis.checkpoint_key fpva
             ~vectors:result.Pipeline.vectors ~faults)
    in
    let dict =
      Fpva_sim.Diagnosis.build ~jobs ?checkpoint:ck fpva
        ~vectors:result.Pipeline.vectors ~faults
    in
    finish_checkpoint ck;
    let classes = Fpva_sim.Diagnosis.equivalence_classes dict in
    Printf.printf
      "diagnostic dictionary: %d single faults, %d distinguishable classes \
       (resolution %.2f)\n"
      (List.length faults) (List.length classes)
      (Fpva_sim.Diagnosis.resolution dict);
    let meter =
      Fpva_sim.Measurement.uniform fpva ~false_pass:noise ~false_fail:noise
    in
    if sequential then begin
      let module Seq = Fpva_sim.Diagnosis.Sequential in
      let noisy = noise > 0.0 in
      let config =
        if noisy then
          { Seq.false_pass = Fpva_sim.Measurement.vector_false_pass meter;
            false_fail = Fpva_sim.Measurement.vector_false_fail meter;
            confidence = (if confidence > 0.0 then confidence else 0.95);
            max_reads = None }
        else if confidence > 0.0 then { Seq.ideal with Seq.confidence }
        else Seq.ideal
      in
      let pp_stop = function
        | Seq.Isolated -> "isolated"
        | Seq.Confident -> "confident"
        | Seq.Exhausted -> "exhausted"
      in
      match injected with
      | None ->
        (* No chip under test: replay every dictionary entry against its
           own stored syndrome and report the adaptive-vs-fixed economics. *)
        let sw = Seq.sweep ~config dict in
        Printf.printf
          "sequential sweep: %d sessions, mean reads %.2f (p95 %.1f, max \
           %d) vs %d fixed; outcome classes agree: %b\n"
          sw.Seq.sessions sw.Seq.mean_reads sw.Seq.p95_reads
          sw.Seq.max_session_reads sw.Seq.fixed_reads sw.Seq.all_agree
      | Some fault ->
        let h = Fpva_sim.Simulator.make fpva in
        let read =
          if noisy || repeats > 1 then begin
            let rng = Fpva_util.Rng.create seed in
            let policy = Retest.policy repeats in
            fun _ v ->
              (Retest.apply policy ~read:(fun _ ->
                   Fpva_sim.Measurement.detects_h meter rng h
                     ~faults:[ fault ] v))
                .Retest.failed
          end
          else fun _ v -> Fpva_sim.Simulator.detects_h h ~faults:[ fault ] v
        in
        let o = Seq.run ~config dict ~read in
        List.iter
          (fun (s : Seq.step) ->
            Printf.printf "  read vector %d -> %s (%d candidates left)\n"
              s.Seq.vector
              (if s.Seq.failed then "fail" else "pass")
              s.Seq.survivors)
          o.Seq.steps;
        Printf.printf
          "sequential session for %s: %d reads (fixed suite %d), stop=%s, \
           class confidence %.3f\n"
          (Fpva_sim.Fault.to_string fault)
          o.Seq.reads
          (List.length result.Pipeline.vectors)
          (pp_stop o.Seq.stop) o.Seq.class_confidence;
        if o.Seq.isolated = [] then
          print_endline
            "no candidate survives (multi-fault or out of model)"
        else begin
          Printf.printf "isolated class:";
          List.iter
            (fun f -> Printf.printf " %s" (Fpva_sim.Fault.to_string f))
            o.Seq.isolated;
          print_newline ()
        end
    end
    else
    match injected with
    | None -> ()
    | Some fault -> (
        let noisy = noise > 0.0 || repeats > 1 in
        let observed =
          if noisy then begin
            (* Apply the suite through the noise model with adaptive
               retesting; the per-vector majority verdicts form the
               observed syndrome. *)
            let h = Fpva_sim.Simulator.make fpva in
            let rng = Fpva_util.Rng.create seed in
            let session =
              Retest.run (Retest.policy repeats)
                ~read:(fun v _ ->
                  Fpva_sim.Measurement.detects_h meter rng h
                    ~faults:[ fault ] v)
                result.Pipeline.vectors
            in
            print_endline (Report.retest_summary session);
            Array.of_list
              (List.map
                 (fun o -> o.Retest.verdict.Retest.failed)
                 session.Retest.outcomes)
          end
          else
            Fpva_sim.Diagnosis.syndrome_of fpva
              ~vectors:result.Pipeline.vectors ~faults:[ fault ]
        in
        let failing =
          Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 observed
        in
        Printf.printf "injected %s: %d/%d vectors fail\n"
          (Fpva_sim.Fault.to_string fault)
          failing (List.length result.Pipeline.vectors);
        if noisy then begin
          let ranked =
            Fpva_sim.Diagnosis.rank
              ~false_pass:(Fpva_sim.Measurement.vector_false_pass meter)
              ~false_fail:(Fpva_sim.Measurement.vector_false_fail meter)
              ~limit:10 dict observed
            |> List.filter (fun r ->
                   r.Fpva_sim.Diagnosis.confidence >= confidence)
          in
          if ranked = [] then
            print_endline "no candidate clears the confidence threshold"
          else begin
            print_endline "ranked candidates:";
            List.iter
              (fun r ->
                Printf.printf "  %-18s confidence %.3f (hamming %d)\n"
                  (Fpva_sim.Fault.to_string r.Fpva_sim.Diagnosis.fault)
                  r.Fpva_sim.Diagnosis.confidence
                  r.Fpva_sim.Diagnosis.hamming)
              ranked
          end
        end
        else begin
          let candidates = Fpva_sim.Diagnosis.diagnose dict observed in
          if candidates = [] then
            print_endline
              "no single-fault candidate matches (multi-fault or out of model)"
          else begin
            Printf.printf "candidates:";
            List.iter
              (fun f -> Printf.printf " %s" (Fpva_sim.Fault.to_string f))
              candidates;
            print_newline ()
          end
        end)
  in
  let term =
    Term.(
      const run $ layout_t $ rows_t $ cols_t $ file_t $ direct_t $ block_t
      $ no_leak_t $ inject_t $ sequential_t $ noise_t $ repeats_t
      $ confidence_t $ seed_t $ jobs_t $ checkpoint_t $ resume_t $ trace_t
      $ metrics_t)
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:
         "Build a diagnostic dictionary for the suite; optionally inject a \
          fault (exactly, or through a noisy retested application) and \
          list the consistent or likelihood-ranked candidates.")
    term

(* ---------- lifetime ---------- *)

let chips_t =
  let doc = "Fleet size: number of chips fielded." in
  Arg.(value & opt int 100 & info [ "chips" ] ~docv:"N" ~doc)

let wear_steps_t =
  let doc = "Wear (aging) steps each chip lives through." in
  Arg.(value & opt int 20 & info [ "steps" ] ~docv:"N" ~doc)

let retest_every_t =
  let doc = "Wear steps between in-field retests." in
  Arg.(value & opt int 5 & info [ "retest-every" ] ~docv:"N" ~doc)

let latent_t =
  let doc =
    "Latent faults per chip (0 fields a healthy fleet, a noise-floor \
     control)."
  in
  Arg.(value & opt int 1 & info [ "faults" ] ~docv:"N" ~doc)

let p0_t =
  let doc = "Latent-fault activation probability after one wear step." in
  Arg.(value & opt float 0.01 & info [ "p0" ] ~docv:"P" ~doc)

let growth_t =
  let doc =
    "Multiplicative wear factor per step: activation follows min(1, p0 * \
     growth^t)."
  in
  Arg.(value & opt float 1.6 & info [ "growth" ] ~docv:"G" ~doc)

let lifetime_cmd =
  let run name rows cols file direct block no_leak chips steps retest_every
      latent classes p0 growth noise repeats seed jobs trace metrics =
    guard_internal @@ fun () ->
    let fpva = resolve_layout ~file name rows cols in
    let config = config_of ~direct ~block ~no_leak () in
    let classes =
      match parse_classes classes with
      | Ok cs -> cs
      | Error msg ->
        prerr_endline ("error: " ^ msg);
        exit 2
    in
    let lifetime_config =
      { Fpva_sim.Lifetime.chips; wear_steps = steps; retest_every;
        fault_count = latent; classes; p0; growth; noise; repeats; seed }
    in
    let jobs = resolve_jobs jobs in
    with_observability ~trace ~metrics @@ fun () ->
    let result = Pipeline.run_exn ~config fpva in
    print_endline (Report.summary result);
    let r =
      try
        Fpva_sim.Lifetime.run ~jobs ~config:lifetime_config fpva
          ~vectors:result.Pipeline.vectors
      with Invalid_argument msg -> invalid_input "%s" msg
    in
    Format.printf "%a@?" Fpva_sim.Lifetime.pp_result r
  in
  let term =
    Term.(
      const run $ layout_t $ rows_t $ cols_t $ file_t $ direct_t $ block_t
      $ no_leak_t $ chips_t $ wear_steps_t $ retest_every_t $ latent_t
      $ classes_t $ p0_t $ growth_t $ noise_t $ repeats_t $ seed_t $ jobs_t
      $ trace_t $ metrics_t)
  in
  Cmd.v
    (Cmd.info "lifetime"
       ~doc:
         "Field a fleet of chips whose latent faults age across wear \
          cycles, retest them periodically through the noisy measurement \
          path, and aggregate per-epoch fleet rows.")
    term

(* ---------- serve / client ---------- *)

module Serve = Fpva_serve.Server
module Serve_client = Fpva_serve.Client
module Protocol = Fpva_serve.Protocol
module Json = Fpva_serve.Json

let socket_t =
  let doc = "Listen on (serve) or dial (client) this unix socket PATH." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_t =
  let doc =
    "Listen on (serve) or dial (client) TCP 127.0.0.1:PORT instead of a \
     unix socket; 0 lets serve pick a free port (printed on startup)."
  in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let resolve_addr ~socket ~port =
  match (socket, port) with
  | Some _, Some _ ->
    prerr_endline "error: --socket and --port are mutually exclusive";
    exit exit_invalid
  | Some path, None -> Protocol.Unix_sock path
  | None, Some port ->
    if port < 0 || port > 65535 then begin
      prerr_endline "error: --port must be in [0, 65535]";
      exit exit_invalid
    end;
    Protocol.Tcp ("127.0.0.1", port)
  | None, None -> Protocol.Unix_sock "fpva-serve.sock"

let serve_cmd =
  let workers_t =
    let doc = "Request-handling threads (max concurrent connections)." in
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let max_queue_t =
    let doc =
      "Accepted connections allowed to wait for a worker; beyond this the \
       daemon sheds load with a retryable `overloaded' response."
    in
    Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let idle_timeout_t =
    let doc = "Seconds a connection may sit silent before it is closed." in
    Arg.(value & opt float 30.0 & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let drain_timeout_t =
    let doc =
      "Seconds granted to in-flight requests after SIGTERM/SIGINT before \
       the daemon exits."
    in
    Arg.(value & opt float 5.0 & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_deadline_t =
    let doc =
      "Clamp per-request deadlines to at most SECONDS (also applied to \
       requests that ask for no deadline)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "max-deadline" ] ~docv:"SECONDS" ~doc)
  in
  let checkpoint_dir_t =
    let doc =
      "Checkpoint campaign requests under DIR (created if missing): a \
       daemon killed mid-campaign and restarted on the same DIR resumes \
       the request's completed shards instead of recomputing them."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)
  in
  let chaos_ops_t =
    let doc = "Accept the test-only `crash' op (chaos harnesses only)." in
    Arg.(value & flag & info [ "chaos-ops" ] ~doc)
  in
  let run socket port workers max_queue idle_timeout drain_timeout max_deadline
      checkpoint_dir chaos_ops trace metrics =
    let addr = resolve_addr ~socket ~port in
    if workers < 1 then begin
      prerr_endline "error: --workers must be >= 1";
      exit exit_invalid
    end;
    if max_queue < 0 then begin
      prerr_endline "error: --max-queue must be >= 0";
      exit exit_invalid
    end;
    guard_internal @@ fun () ->
    let config =
      { (Serve.default_config addr) with
        Serve.workers;
        max_queue;
        idle_timeout;
        drain_timeout;
        max_deadline;
        checkpoint_dir;
        chaos_ops }
    in
    match Serve.create config with
    | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit exit_invalid
    | Ok server ->
      Serve.install_signal_handlers server;
      with_observability ~trace ~metrics (fun () ->
          (* Print the resolved address on stdout so scripts dialing a
             --port 0 daemon can learn the port. *)
          Printf.printf "listening %s\n%!"
            (Protocol.addr_to_string (Serve.bound_addr server));
          Serve.run server)
  in
  let term =
    Term.(
      const run $ socket_t $ port_t $ workers_t $ max_queue_t $ idle_timeout_t
      $ drain_timeout_t $ max_deadline_t $ checkpoint_dir_t $ chaos_ops_t
      $ trace_t $ metrics_t)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent test service: line-delimited JSON requests \
          over a unix or TCP socket, with layout caching, per-request \
          deadlines, backpressure and graceful drain.")
    term

let client_cmd =
  let op_t =
    let doc = "Operation: ping | stats | generate | campaign | crash." in
    Arg.(value & pos 0 string "ping" & info [] ~docv:"OP" ~doc)
  in
  let deadline_t =
    let doc =
      "Per-request deadline in milliseconds (the server degrades the \
       result rather than exceeding it)."
    in
    Arg.(
      value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let retries_t =
    let doc =
      "Extra attempts after the first on retryable failures (connection \
       refused/reset, overloaded, shutting down)."
    in
    Arg.(value & opt int 4 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let max_attempts_t =
    let doc =
      "Hard cap on total attempts (first + retries); overrides --retries. \
       Exhaustion exits 1 with the last failure."
    in
    Arg.(
      value & opt (some int) None & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let retry_budget_t =
    let doc =
      "Wall-clock cap in milliseconds across all attempts of the request: \
       per-attempt timeouts are clamped to what remains and a backoff \
       that would overrun it gives up — so a dead server costs at most \
       about this long.  Exhaustion exits 1 with the last failure."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-budget-ms" ] ~docv:"MS" ~doc)
  in
  let timeout_t =
    let doc = "Seconds to wait for the complete response." in
    Arg.(value & opt float 120.0 & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let idempotency_key_t =
    let doc =
      "Idempotency key for retried requests (default: a fresh unique key \
       whenever retries are enabled)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "idempotency-key" ] ~docv:"KEY" ~doc)
  in
  let raw_t =
    let doc = "Print the raw response frame instead of the rendered rows \
               or suite." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let run op socket port name rows cols file direct block no_leak trials seed
      max_faults classes jobs deadline_ms retries max_attempts retry_budget_ms
      timeout idempotency_key raw =
    let addr = resolve_addr ~socket ~port in
    let gen =
      { Protocol.direct; block; no_leakage = no_leak }
    in
    let request =
      match op with
      | "ping" -> Protocol.Ping
      | "stats" -> Protocol.Stats
      | "crash" -> Protocol.Crash
      | "generate" ->
        let fpva = resolve_layout ~file name rows cols in
        Protocol.Generate { layout = Render.plain fpva; gen }
      | "campaign" ->
        let fpva = resolve_layout ~file name rows cols in
        let classes =
          match parse_classes classes with
          | Ok cs -> cs
          | Error msg ->
            prerr_endline ("error: " ^ msg);
            exit exit_invalid
        in
        let jobs = resolve_jobs jobs in
        Protocol.Campaign
          { layout = Render.plain fpva;
            gen;
            campaign = { Protocol.trials; seed; max_faults; classes; jobs } }
      | other ->
        prerr_endline
          (Printf.sprintf
             "error: unknown op %S (want ping|stats|generate|campaign|crash)"
             other);
        exit exit_invalid
    in
    if retries < 0 then begin
      prerr_endline "error: --retries must be >= 0";
      exit exit_invalid
    end;
    let retries =
      match max_attempts with
      | None -> retries
      | Some n when n >= 1 -> n - 1
      | Some _ ->
        prerr_endline "error: --max-attempts must be >= 1";
        exit exit_invalid
    in
    let retry_budget =
      match retry_budget_ms with
      | None -> None
      | Some ms when ms >= 1 -> Some (float_of_int ms /. 1000.0)
      | Some _ ->
        prerr_endline "error: --retry-budget-ms must be >= 1";
        exit exit_invalid
    in
    guard_internal @@ fun () ->
    let cfg =
      { (Serve_client.default_config addr) with
        Serve_client.retries;
        retry_budget;
        read_timeout = timeout;
        log = prerr_endline }
    in
    let envelope =
      { Protocol.id = None; deadline_ms; idempotency_key; request }
    in
    match Serve_client.call cfg envelope with
    | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit exit_internal
    | Ok json when raw || not (Protocol.response_ok json) ->
      print_endline (Json.to_string json);
      if not (Protocol.response_ok json) then exit exit_invalid
    | Ok json -> (
      (* Render the interesting part of the payload the way the direct CLI
         would, so serve-vs-cold outputs diff cleanly. *)
      match Protocol.response_result json with
      | None -> print_endline (Json.to_string json)
      | Some result -> (
        match
          ( Json.get_string "rendered" result,
            Json.get_string "suite" result )
        with
        | Some rendered, _ -> print_string rendered
        | None, Some suite -> print_string suite
        | None, None -> print_endline (Json.to_string result)))
  in
  let term =
    Term.(
      const run $ op_t $ socket_t $ port_t $ layout_t $ rows_t $ cols_t
      $ file_t $ direct_t $ block_t $ no_leak_t $ trials_t $ seed_t
      $ max_faults_t $ classes_t $ jobs_t $ deadline_t $ retries_t
      $ max_attempts_t $ retry_budget_t $ timeout_t $ idempotency_key_t
      $ raw_t)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send one request to a running fpva serve daemon, with retry, \
          backoff and idempotent replay.")
    term

let () =
  let info =
    Cmd.info "fpva" ~version:"1.0.0"
      ~doc:"Test generation for microfluidic fully programmable valve arrays."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ show_cmd; generate_cmd; campaign_cmd; diagnose_cmd; lifetime_cmd;
            serve_cmd; client_cmd ]))
