(* fault_campaign: the paper's Section IV protocol on the 20x20 Table I
   suite, generated in set-up.  Each operation is one Campaign.run of
   10 000 trials with k random stuck-at faults (k cycles through 1..5) on
   the default batched kernel at two domains, run once plain and once
   journaled through a Checkpoint store.  The bit-parallel kernel, Pool and
   Journal do the work; fpva_testgen runs only in set-up. *)

open Fpva_grid
open Common
module R = Perfbench_report.Report
module Sim = Fpva_sim
module Campaign = Sim.Campaign
module Simulator = Sim.Simulator
module Rng = Fpva_util.Rng

let trials = 10_000

(* Plain campaigns guaranteed per run; fixes the tail at p90. *)
let planned = 100

(* The first operations, whose mean detection latency is reported: a
   fixed prefix, so the count is exact for a seed. *)
let latency_ops = 10

let config ~seed i =
  { Campaign.default_config with
    Campaign.trials;
    fault_counts = [ (i mod 5) + 1 ];
    seed = Rng.mix seed i }

let rendered = Fpva_serve.Protocol.rendered_rows

let journaled ~dir ~config ~fpva ~vectors i =
  let path = Filename.concat dir (Printf.sprintf "campaign-%d.ckpt" i) in
  let result, s =
    time (fun () ->
        let key = Campaign.checkpoint_key config fpva ~vectors in
        match Sim.Checkpoint.open_ ~path ~resume:false ~key () with
        | Error e -> failwith (Sim.Checkpoint.open_error_to_string e)
        | Ok ck ->
          Fun.protect
            ~finally:(fun () -> Sim.Checkpoint.close ck)
            (fun () -> Campaign.run ~config ~jobs ~checkpoint:ck fpva ~vectors))
  in
  Sys.remove path;
  (result, s)

type op = {
  cfg : Campaign.config;
  plain : Campaign.result;
  plain_s : float;
  ckpt : Campaign.result;
  ckpt_s : float;
}

let op ~dir ~seed ~fpva ~vectors i =
  let cfg = config ~seed i in
  let plain, plain_s = time (fun () -> Campaign.run ~config:cfg ~jobs fpva ~vectors) in
  let ckpt, ckpt_s = journaled ~dir ~config:cfg ~fpva ~vectors i in
  { cfg; plain; plain_s; ckpt; ckpt_s }

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* {1 Per-layer recomposition}

   The batched kernel's trial loop, rebuilt on one domain from public
   calls: trial g draws from [Rng.derive seed g], 63 trials share one
   batch, and each vector is one masked sweep over the surviving lanes. *)

type recomposed = {
  detected : int;
  draw_s : float;
  fill_s : float;
  sweep_s : float;
  sweeps : int;
  batches : int;
}

let recompose fpva vectors (cfg : Campaign.config) =
  let count = List.hd cfg.Campaign.fault_counts in
  let b = Simulator.make_batch fpva in
  let draw = ref 0.0 and fill = ref 0.0 and sweep = ref 0.0 in
  let sweeps = ref 0 and batches = ref 0 and detected = ref 0 in
  let lo = ref 0 in
  while !lo < cfg.Campaign.trials do
    let width = min Simulator.batch_width (cfg.Campaign.trials - !lo) in
    let t = now () in
    Simulator.batch_reset b;
    fill := !fill +. Timer.elapsed t;
    let lanes = ref 0 in
    for i = 0 to width - 1 do
      let t0 = now () in
      let faults =
        Campaign.draw_faults
          (Rng.derive cfg.Campaign.seed (!lo + i))
          fpva ~classes:cfg.Campaign.classes ~count
      in
      let t1 = now () in
      if faults <> [] then begin
        Simulator.batch_set_lane b i ~faults;
        lanes := !lanes lor (1 lsl i)
      end;
      draw := !draw +. (t1 -. t0);
      fill := !fill +. Timer.elapsed t1
    done;
    let alive = ref !lanes in
    List.iter
      (fun v ->
        if !alive <> 0 then begin
          let t = now () in
          let diff = Simulator.batch_detects b ~alive:!alive v in
          sweep := !sweep +. Timer.elapsed t;
          incr sweeps;
          alive := !alive land lnot diff
        end)
      vectors;
    detected := !detected + popcount (!lanes land lnot !alive);
    incr batches;
    lo := !lo + width
  done;
  { detected = !detected; draw_s = !draw; fill_s = !fill; sweep_s = !sweep;
    sweeps = !sweeps; batches = !batches }

let detected (r : Campaign.result) =
  List.fold_left (fun a row -> a + row.Campaign.detected) 0 r.Campaign.rows

let run ~seed ~seconds ~trace =
  let (fpva, suite), setup_s =
    setup_median (fun () ->
        let fpva = Layouts.paper_array 20 in
        (fpva, Fpva_testgen.Pipeline.run_exn fpva))
  in
  let vectors = suite.Fpva_testgen.Pipeline.vectors in
  with_scratch_dir @@ fun dir ->
  let ops = ref [] in
  let n =
    time_boxed ~seconds ~min_ops:planned (fun i ->
        ops := op ~dir ~seed ~fpva ~vectors i :: !ops)
  in
  let ops = List.rev !ops in
  let counts =
    List.fold_left
      (fun acc o ->
        R.add acc
          (R.add
             (R.of_campaign ~config:o.cfg o.plain)
             (R.of_campaign ~config:o.cfg o.ckpt)))
      R.zero ops
  in
  let checks =
    [ ("20x20 suite passes its self-check", Fpva_testgen.Pipeline.suite_ok suite);
      ("zero escapes and no truncated row", counts.R.failed = 0);
      ( "journaled rows byte-identical to plain rows",
        List.for_all (fun o -> rendered o.plain = rendered o.ckpt) ops ) ]
  in
  let tps s = float_of_int trials /. s in
  let plain_s = List.map (fun o -> o.plain_s) ops in
  let ckpt_s = List.map (fun o -> o.ckpt_s) ops in
  log "fault_campaign: %d operations of %d trials at %d domains" n trials jobs;
  log "campaign_trials_per_s = %.1f 1/s, campaign_ckpt_trials_per_s = %.1f 1/s"
    (median (List.map tps plain_s)) (median (List.map tps ckpt_s));
  let t = R.timing ~planned (Array.of_list plain_s) in
  if not trace then begin
    (* Mean 1-based index of the first detecting vector. *)
    let prefix = List.filteri (fun i _ -> i < latency_ops) ops in
    let rows = List.concat_map (fun o -> o.plain.Campaign.rows) prefix in
    let det = List.fold_left (fun a r -> a + r.Campaign.detected) 0 rows in
    let lat =
      List.fold_left
        (fun a r ->
          if r.Campaign.detected = 0 then a
          else a +. (r.Campaign.mean_latency *. float_of_int r.Campaign.detected))
        0.0 rows
    in
    { counts;
      checks;
      values =
        [ ("setup_s", setup_s);
          ("peak_rss_mb", peak_rss_mb ());
          ("pass_ratio", 1.0 -. R.failed_ratio counts);
          ("primary_per_s", median (List.map tps plain_s));
          ("secondary_per_s", median (List.map tps ckpt_s));
          ("op_p50_ms", 1000.0 *. t.R.median);
          ("op_tail_ms", 1000.0 *. t.R.tail);
          ("vectors_per_op", lat /. float_of_int det) ] }
  end
  else begin
    let traced_ops, events, _ =
      traced (fun () -> List.init n (op ~dir ~seed ~fpva ~vectors))
    in
    (* Medians, so a drift of the machine during one pass does not read
       as tracing cost. *)
    let wall ops = median (List.map (fun o -> o.plain_s +. o.ckpt_s) ops) in
    let untraced = wall ops and traced_wall = wall traced_ops in
    let recs =
      List.filteri (fun i _ -> i < 5) ops
      |> List.map (fun o -> (o, recompose fpva vectors o.cfg))
    in
    let rsum f = List.fold_left (fun a (_, r) -> a +. f r) 0.0 recs in
    let isum f = List.fold_left (fun a (_, r) -> a + f r) 0 recs in
    let batches = float_of_int (isum (fun r -> r.batches)) in
    let sweeps = isum (fun r -> r.sweeps) in
    { counts;
      checks =
        checks
        @ [ ( "traced rows equal untraced rows",
              List.for_all2
                (fun a b ->
                  rendered a.plain = rendered b.plain
                  && rendered a.ckpt = rendered b.ckpt)
                ops traced_ops );
            ( "recomposed detection counts equal Campaign.run rows",
              List.for_all (fun (o, r) -> r.detected = detected o.plain) recs ) ];
      values =
        Common.production_layers events
        @ [ ( "campaign.fault_draw_us",
              1e6 *. rsum (fun r -> r.draw_s)
              /. float_of_int (List.length recs * trials) );
            ("campaign.mask_fill_us", 1e6 *. rsum (fun r -> r.fill_s) /. batches);
            ( "campaign.sweep_us",
              1e6 *. rsum (fun r -> r.sweep_s) /. float_of_int sweeps );
            ("campaign.sweeps_per_batch", float_of_int sweeps /. batches);
            ("journal.s", median ckpt_s -. median plain_s);
            ("trace_overhead_pct", overhead_pct ~untraced ~traced:traced_wall);
            ("op_samples", float_of_int t.R.samples);
            ("op_tail_pct", t.R.tail_pct) ] }
  end
