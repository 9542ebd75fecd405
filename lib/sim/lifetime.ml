module Rng = Fpva_util.Rng
module Pool = Fpva_util.Pool
module Timer = Fpva_util.Timer
module Trace = Fpva_util.Trace
module Retest = Fpva_testgen.Retest

let chips_c = Trace.counter "lifetime.chips"
let retests_c = Trace.counter "lifetime.retests"
let reads_c = Trace.counter "lifetime.reads"

type config = {
  chips : int;
  wear_steps : int;
  retest_every : int;
  fault_count : int;
  classes : Fault.fault_class list;
  p0 : float;
  growth : float;
  noise : float;
  repeats : int;
  seed : int;
}

let default_config =
  { chips = 100; wear_steps = 20; retest_every = 5; fault_count = 1;
    classes = [ `Stuck_at_0; `Stuck_at_1 ]; p0 = 0.01; growth = 1.6;
    noise = 0.0; repeats = 1; seed = 42 }

type chip = {
  id : int;
  latent : Fault.t list;
  detected_at : int option;
  reads_per_epoch : int array;
}

type epoch_row = {
  epoch : int;
  wear_step : int;
  activation : float;
  fleet : int;
  flagged : int;
  cumulative : int;
  mean_reads : float;
}

type result = {
  rows : epoch_row list;
  chips : chip list;
  epochs : int;
  faulty : int;
  detected : int;
  escapes : int;
  false_alarms : int;
  mean_epochs_to_detection : float;
  total_reads : int;
  wall_seconds : float;
}

(* Distinct from Campaign's meter salt: a lifetime run at some seed must
   not replay a campaign's meter stream at the same seed. *)
let meter_salt = 0x1b873593

let wear ~p0 ~growth t =
  let p = ref p0 in
  for _ = 1 to t do
    p := !p *. growth
  done;
  Float.min 1.0 !p

let check_config (c : config) =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if c.chips < 1 then fail "Lifetime.run: chips %d must be >= 1" c.chips;
  if c.wear_steps < 1 then
    fail "Lifetime.run: wear_steps %d must be >= 1" c.wear_steps;
  if c.retest_every < 1 then
    fail "Lifetime.run: retest_every %d must be >= 1" c.retest_every;
  if c.wear_steps / c.retest_every < 1 then
    fail "Lifetime.run: no retest fits in %d wear steps every %d"
      c.wear_steps c.retest_every;
  if c.fault_count < 0 then
    fail "Lifetime.run: fault_count %d must be >= 0" c.fault_count;
  if not (c.p0 >= 0.0 && c.p0 <= 1.0) then
    fail "Lifetime.run: p0 %g outside [0,1]" c.p0;
  if not (c.growth >= 0.0) then
    fail "Lifetime.run: growth %g must be >= 0" c.growth;
  if not (c.noise >= 0.0 && c.noise < 1.0) then
    fail "Lifetime.run: noise %g outside [0,1)" c.noise;
  if c.repeats < 1 then
    fail "Lifetime.run: repeats %d must be >= 1" c.repeats

let run ?(jobs = 1) ?(config = default_config) fpva ~vectors =
  check_config config;
  if jobs < 1 then invalid_arg "Lifetime.run: jobs must be >= 1";
  let epochs = config.wear_steps / config.retest_every in
  let activation =
    Array.init epochs (fun e ->
        wear ~p0:config.p0 ~growth:config.growth
          ((e + 1) * config.retest_every))
  in
  let tags =
    if Trace.is_enabled () then
      [ ("chips", string_of_int config.chips);
        ("epochs", string_of_int epochs);
        ("jobs", string_of_int jobs) ]
    else []
  in
  Trace.with_span "lifetime.run" ~tags (fun () ->
      let t0 = Timer.now () in
      (* Warm the grid's shared caches before any domain spawns (the same
         discipline as Campaign/Diagnosis pool bodies). *)
      ignore (Simulator.make fpva);
      ignore (Fault.feasible_classes fpva config.classes);
      let meter =
        Measurement.uniform fpva ~false_pass:config.noise
          ~false_fail:config.noise
      in
      let policy = Retest.policy config.repeats in
      (* One chip per pool item: its latent faults and every meter draw
         come from counter-derived streams keyed by the chip id, so rows
         are bit-identical for every [jobs] value. *)
      let body h id =
        let fault_rng = Rng.derive config.seed id in
        let meter_rng = Rng.derive (config.seed lxor meter_salt) id in
        let latent =
          if config.fault_count = 0 then []
          else
            Campaign.draw_faults fault_rng fpva ~classes:config.classes
              ~count:config.fault_count
        in
        let reads_per_epoch = Array.make epochs 0 in
        let detected_at = ref None in
        let e = ref 0 in
        while !detected_at = None && !e < epochs do
          let p = activation.(!e) in
          let active =
            List.map (fun f -> Fault.intermittent ~probability:p f) latent
          in
          let reads = ref 0 in
          let flagged = ref false in
          (* In-field retest session: walk the suite in order, majority-vote
             each vector, stop at the first failed verdict (the chip is
             pulled for repair; remaining vectors are not applied). *)
          let rec session = function
            | [] -> ()
            | v :: rest ->
              let verdict =
                Retest.apply policy ~read:(fun _ ->
                    Measurement.detects_h meter meter_rng h ~faults:active v)
              in
              reads := !reads + verdict.Retest.reads;
              if verdict.Retest.failed then flagged := true else session rest
          in
          session vectors;
          reads_per_epoch.(!e) <- !reads;
          if !flagged then detected_at := Some (!e + 1);
          incr e
        done;
        { id; latent; detected_at = !detected_at;
          reads_per_epoch = Array.sub reads_per_epoch 0 !e }
      in
      let chips =
        Pool.run ~jobs ~n:config.chips
          ~init:(fun () -> Simulator.make fpva)
          ~body
        |> Array.to_list
      in
      let epochs_run c = Array.length c.reads_per_epoch in
      let rows =
        List.init epochs (fun i ->
            let e = i + 1 in
            let tested = List.filter (fun c -> epochs_run c >= e) chips in
            let fleet = List.length tested in
            let flagged =
              List.length
                (List.filter (fun c -> c.detected_at = Some e) chips)
            in
            let cumulative =
              List.length
                (List.filter
                   (fun c ->
                     match c.detected_at with
                     | Some d -> d <= e
                     | None -> false)
                   chips)
            in
            let reads =
              List.fold_left
                (fun acc c -> acc + c.reads_per_epoch.(i))
                0 tested
            in
            { epoch = e; wear_step = e * config.retest_every;
              activation = activation.(i); fleet; flagged; cumulative;
              mean_reads =
                (if fleet = 0 then 0.0
                 else float_of_int reads /. float_of_int fleet) })
      in
      let faulty = List.length (List.filter (fun c -> c.latent <> []) chips) in
      let detected_epochs =
        List.filter_map
          (fun c -> if c.latent <> [] then c.detected_at else None)
          chips
      in
      let detected = List.length detected_epochs in
      let false_alarms =
        List.length
          (List.filter
             (fun c -> c.latent = [] && c.detected_at <> None)
             chips)
      in
      let escapes = faulty - detected in
      let mean_epochs_to_detection =
        if detected = 0 then 0.0
        else
          Fpva_util.Stats.mean
            (Array.of_list (List.map float_of_int detected_epochs))
      in
      let total_reads =
        List.fold_left
          (fun acc c -> Array.fold_left ( + ) acc c.reads_per_epoch)
          0 chips
      in
      let retests =
        List.fold_left (fun acc c -> acc + epochs_run c) 0 chips
      in
      Trace.add chips_c config.chips;
      Trace.add retests_c retests;
      Trace.add reads_c total_reads;
      { rows; chips; epochs; faulty; detected; escapes; false_alarms;
        mean_epochs_to_detection; total_reads;
        wall_seconds = Timer.elapsed t0 })

let detection_rate r = Fpva_util.Stats.ratio r.detected r.faulty

let pp_row ppf (r : epoch_row) =
  Format.fprintf ppf
    "epoch=%d step=%d p=%.4g fleet=%d flagged=%d cumulative=%d mean_reads=%.1f"
    r.epoch r.wear_step r.activation r.fleet r.flagged r.cumulative
    r.mean_reads

let pp_result ppf r =
  List.iter (fun row -> Format.fprintf ppf "%a@." pp_row row) r.rows;
  Format.fprintf ppf
    "lifetime: chips=%d faulty=%d detected=%d escapes=%d false_alarms=%d \
     epochs=%d mean_epochs_to_detection=%.2f total_reads=%d (%.2fs)@."
    (List.length r.chips) r.faulty r.detected r.escapes r.false_alarms
    r.epochs r.mean_epochs_to_detection r.total_reads r.wall_seconds
