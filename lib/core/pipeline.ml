open Fpva_grid
module Timer = Fpva_util.Timer
module Trace = Fpva_util.Trace

let runs_c = Trace.counter "pipeline.runs"
let vectors_c = Trace.counter "pipeline.vectors"

type config = {
  engine : Cover.engine;
  hierarchical : bool;
  block_rows : int;
  block_cols : int;
  anti_masking : bool;
  include_leakage : bool;
  leak_routing : Control.routing;
}

let default_config =
  {
    engine = Cover.default_engine;
    hierarchical = true;
    block_rows = 5;
    block_cols = 5;
    anti_masking = true;
    include_leakage = true;
    leak_routing = Control.Fluid_adjacency;
  }

let direct_config = { default_config with hierarchical = false }

type stage_status = Exact | Fell_back_to_search | Partial of string

type stage_report = {
  stage : string;
  status : stage_status;
  seconds : float;
  allotted : float;
  fallbacks : int;
  failures : int;
}

type t = {
  fpva : Fpva.t;
  flow : Flow_path.t list;
  cuts : Cut_set.t list;
  pierced : (Flow_path.t * int) list;
  leak : Flow_path.t list;
  vectors : Test_vector.t list;
  np : int;
  ncut : int;
  nl : int;
  total : int;
  tp : float;
  tc : float;
  tl : float;
  total_time : float;
  uncovered_flow : int list;
  uncovered_cut : int list;
  untestable_pairs : (int * int) list;
  degradation : stage_report list;
}

(* Per-stage verdict from the Cover telemetry.  [trusted_engine] is true for
   the randomized search: its "no path" answers on leftover items are the
   normal outcome for genuinely untestable valves/pairs, not a degradation.
   An ILP/custom engine that failed while items stayed uncovered is flagged
   Partial — its failures may hide testable items. *)
let stage_report ~trusted_engine name stage_budget (stats : Cover.stats)
    seconds leftover =
  let status =
    if
      leftover > 0
      && (Budget.exhausted stage_budget || stats.Cover.budget_hits > 0)
    then
      Partial
        (Printf.sprintf "budget exhausted with %d item(s) left uncovered"
           leftover)
    else if stats.Cover.fallbacks > 0 then Fell_back_to_search
    else if leftover > 0 && (not trusted_engine) && stats.Cover.failures > 0
    then
      Partial
        (Printf.sprintf
           "engine failed %d time(s) with %d item(s) left uncovered"
           stats.Cover.failures leftover)
    else Exact
  in
  {
    stage = name;
    status;
    seconds;
    allotted = Budget.allotted stage_budget;
    fallbacks = stats.Cover.fallbacks;
    failures = stats.Cover.failures;
  }

(* Stage spans reuse the duration already measured for the report, so the
   trace agrees with the degradation summary to the digit. *)
let trace_stage r =
  if Trace.is_enabled () then begin
    let status, extra =
      match r.status with
      | Exact -> ("exact", [])
      | Fell_back_to_search -> ("fell_back", [])
      | Partial reason -> ("partial", [ ("reason", reason) ])
    in
    Trace.emit_span "pipeline.stage" ~dur:r.seconds
      ~tags:(("stage", r.stage) :: ("status", status) :: extra)
  end

let rec run ?(config = default_config) ?(budget = Budget.unlimited) fpva =
  match Fpva.validate fpva with
  | Error msg -> Error msg
  | Ok () -> Ok (run_validated config budget fpva)

and run_validated config budget fpva =
  let trusted_engine =
    match config.engine with
    | Cover.Search _ -> true
    | Cover.Ilp _ | Cover.Custom _ -> false
  in
  (* Stage shares of the remaining wall clock: flow paths get half, cut-sets
     (with their pierced probes) 60% of the rest, leakage the remainder.
     Earlier stages finishing early automatically roll their slack forward
     because shares are taken from the remaining time at stage start. *)
  let flow_budget = Budget.share budget 0.5 in
  let flow_stats = Cover.fresh_stats () in
  let (flow, uncovered_flow), tp =
    Timer.time (fun () ->
        if config.hierarchical then begin
          let options =
            { Hierarchy.default_options with
              Hierarchy.block_rows = config.block_rows;
              block_cols = config.block_cols;
              engine = config.engine }
          in
          let r =
            Hierarchy.generate ~options ~budget:flow_budget ~stats:flow_stats
              fpva
          in
          (r.Hierarchy.paths, r.Hierarchy.uncovered)
        end
        else
          Flow_path.generate ~engine:config.engine ~budget:flow_budget
            ~stats:flow_stats fpva)
  in
  let flow_report =
    stage_report ~trusted_engine "flow" flow_budget flow_stats tp
      (List.length uncovered_flow)
  in
  let cut_budget = Budget.share budget 0.6 in
  let cut_stats = Cover.fresh_stats () in
  let (cuts, pierced, uncovered_cut), tc =
    Timer.time (fun () ->
        let cuts, leftover =
          Cut_set.generate ~engine:config.engine
            ~anti_masking:config.anti_masking ~budget:cut_budget
            ~stats:cut_stats fpva
        in
        (* Valves essential in no cut get a targeted pierced-path probe.
           The probe is only sound if closing the valve actually darkens the
           path's sink — with several sources a path can be re-fed
           mid-route — so candidate paths are audited before adoption and a
           fresh targeted path is generated when no existing one works. *)
        let usable v p =
          match
            Test_vector.well_formed fpva (Test_vector.of_pierced_path fpva p v)
          with
          | Ok () -> true
          | Error _ -> false
        in
        let instance = lazy (Flow_path.problem fpva) in
        let probe v =
          let prob, mapping = Lazy.force instance in
          match
            Flow_path.edge_id_of_mapping mapping (Fpva.edge_of_valve fpva v)
          with
          | None -> None
          | Some e ->
            let weight = Array.make prob.Problem.num_edges 0.0 in
            weight.(e) <- 1000.0;
            let accept p =
              let path = Flow_path.of_problem_path fpva mapping p in
              if List.mem v path.Flow_path.valve_ids && usable v path then
                Some path
              else None
            in
            Cover.targeted ~budget:cut_budget ~stats:cut_stats config.engine
              ~accept
              (List.map (fun salt -> (prob, weight, salt)) Cover.default_salts)
        in
        let pierced, still =
          List.partition_map
            (fun v ->
              let existing =
                List.find_opt
                  (fun p -> List.mem v p.Flow_path.valve_ids && usable v p)
                  flow
              in
              match existing with
              | Some p -> Either.Left (p, v)
              | None -> (
                match probe v with
                | Some p -> Either.Left (p, v)
                | None -> Either.Right v))
            leftover
        in
        (cuts, pierced, still))
  in
  let cut_report =
    stage_report ~trusted_engine "cut" cut_budget cut_stats tc
      (List.length uncovered_cut)
  in
  let leak_budget = Budget.share budget 1.0 in
  let leak_stats = Cover.fresh_stats () in
  let (leak, untestable_pairs), tl =
    Timer.time (fun () ->
        if config.include_leakage then
          Leakage.generate ~engine:config.engine
            ~pairs:(Control.leak_pairs fpva config.leak_routing)
            ~budget:leak_budget ~stats:leak_stats fpva ~existing:flow
        else ([], []))
  in
  let leak_report =
    stage_report ~trusted_engine "leak" leak_budget leak_stats tl
      (List.length untestable_pairs)
  in
  let vectors =
    List.mapi
      (fun i p ->
        Test_vector.of_flow_path ~label:(Printf.sprintf "flow-%d" i) fpva p)
      flow
    @ List.mapi
        (fun i c ->
          Test_vector.of_cut_set ~label:(Printf.sprintf "cut-%d" i) fpva c)
        cuts
    @ List.map
        (fun (p, v) ->
          Test_vector.of_pierced_path
            ~label:(Printf.sprintf "pierced-%d" v)
            fpva p v)
        pierced
    @ List.mapi
        (fun i p ->
          Test_vector.of_leak_path ~label:(Printf.sprintf "leak-%d" i) fpva p)
        leak
  in
  let np = List.length flow in
  let ncut = List.length cuts + List.length pierced in
  let nl = List.length leak in
  if Trace.is_enabled () then begin
    Trace.incr runs_c;
    Trace.add vectors_c (List.length vectors);
    List.iter trace_stage [ flow_report; cut_report; leak_report ];
    Trace.emit_span "pipeline.run" ~dur:(tp +. tc +. tl)
      ~tags:[ ("vectors", string_of_int (List.length vectors)) ]
  end;
  {
    fpva;
    flow;
    cuts;
    pierced;
    leak;
    vectors;
    np;
    ncut;
    nl;
    total = np + ncut + nl;
    tp;
    tc;
    tl;
    total_time = tp +. tc +. tl;
    uncovered_flow;
    uncovered_cut;
    untestable_pairs;
    degradation = [ flow_report; cut_report; leak_report ];
  }

let run_exn ?config ?budget fpva =
  match run ?config ?budget fpva with
  | Ok t -> t
  | Error msg -> invalid_arg ("Pipeline.run: " ^ msg)

let degraded t =
  List.exists (fun r -> r.status <> Exact) t.degradation

let stuck_at_1_covered t =
  let seen = Array.make (Fpva.num_valves t.fpva) false in
  List.iter
    (fun c -> List.iter (fun v -> seen.(v) <- true) c.Cut_set.valve_ids)
    t.cuts;
  List.iter (fun (_, v) -> seen.(v) <- true) t.pierced;
  Array.for_all (fun b -> b) seen

let suite_ok t =
  Flow_path.covers_all_valves t.fpva t.flow
  && stuck_at_1_covered t
  && List.for_all (Cut_set.is_valid t.fpva) t.cuts
  && List.for_all
       (fun v ->
         match Test_vector.well_formed t.fpva v with
         | Ok () -> true
         | Error _ -> false)
       t.vectors
