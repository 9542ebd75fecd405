module Rng = Fpva_util.Rng
module Timer = Fpva_util.Timer
module Trace = Fpva_util.Trace
module Shards = Checkpoint.Shards

let trials_c = Trace.counter "campaign.trials"
let noisy_trials_c = Trace.counter "campaign.noisy_trials"
let tps_g = Trace.gauge "campaign.trials_per_sec"
let noisy_tps_g = Trace.gauge "campaign.noisy_trials_per_sec"
let batch_occ_g = Trace.gauge "campaign.batch_occupancy"

type config = {
  trials : int;
  fault_counts : int list;
  seed : int;
  classes : Fault.fault_class list;
}

let default_config =
  { trials = 10_000; fault_counts = [ 1; 2; 3; 4; 5 ]; seed = 42;
    classes = [ `Stuck_at_0; `Stuck_at_1 ] }

type row = {
  fault_count : int;
  trials : int;
  detected : int;
  escapes : Fault.t list list;
  short_draws : int;
  void_draws : int;
  mean_latency : float;
}

type result = { rows : row list; truncated : int list; wall_seconds : float }

(* Distinct faults for one trial.  Stuck-at-only campaigns reuse the paper's
   distinct-valve draw, capped at one fault per valve; mixed campaigns draw
   class-first and reject duplicate valve usage so faults do not trivially
   collide. *)
let draw_faults rng fpva ~classes ~count =
  let stuck_only =
    List.for_all (function `Stuck_at_0 | `Stuck_at_1 -> true | `Control_leak -> false) classes
  in
  if stuck_only then
    Fault.random_multi rng fpva
      ~count:(min count (Fpva_grid.Fpva.num_valves fpva))
  else if Fault.feasible_classes fpva classes = [] then []
  else begin
    let used = Hashtbl.create 8 in
    let rec draw acc k guard =
      if k = 0 || guard = 0 then acc
      else begin
        let f = Fault.random_of_classes rng fpva ~classes in
        let vs = Fault.valves_involved f in
        if List.exists (Hashtbl.mem used) vs then draw acc k (guard - 1)
        else begin
          List.iter (fun v -> Hashtbl.replace used v ()) vs;
          draw (f :: acc) (k - 1) (guard - 1)
        end
      end
    in
    draw [] count (100 * count)
  end

let check fn ~jobs (config : config) =
  let fail what = invalid_arg (Printf.sprintf "Campaign.%s: %s" fn what) in
  if jobs < 1 then fail "jobs must be >= 1";
  if config.trials < 0 then fail "trials must be >= 0";
  if List.exists (fun c -> c < 0) config.fault_counts then
    fail "fault counts must be >= 0"

(* One ideal-observation trial.  [Short] accounting is orthogonal to the
   scoring outcome, so it rides alongside. *)
type trial_outcome =
  | Detected of int  (* 1-based first-detecting vector *)
  | Escaped of Fault.t list
  | Void

let rec lowest_lane_from i m =
  if m land 1 = 1 then i else lowest_lane_from (i + 1) (m lsr 1)

(* One bit-parallel batch, scored into [outs.(0 .. width - 1)]: trial
   [glo + i] rides lane [i] and draws from its own stream
   [Rng.derive seed (glo + i)].  The vector scan records the 1-based
   index of the first vector that detects each lane, so a lane's outcome
   is exactly that of a plain per-trial scan — the whole-suite escape
   scan just costs one CSR sweep per vector for all surviving lanes
   instead of one per (trial, vector).

   The rejection sampler can come up short (or empty) when the layout
   cannot host [fault_count] disjoint faults.  The shortfall is recorded
   instead of scoring phantom faults: an empty draw is neither a
   detection nor an escape, and the reported rates say how many trials
   were affected. *)
let run_batch bh outs vectors ~classes ~seed ~fault_count ~glo ~width =
  Simulator.batch_reset bh;
  let fpva = Simulator.batch_fpva bh in
  let lanes = ref 0 in
  for i = 0 to width - 1 do
    let rng = Rng.derive seed (glo + i) in
    let faults = draw_faults rng fpva ~classes ~count:fault_count in
    let short = List.length faults < fault_count in
    if faults = [] then outs.(i) <- (short, Void)
    else begin
      (* Escaped until a vector proves otherwise. *)
      outs.(i) <- (short, Escaped faults);
      Simulator.batch_set_lane bh i ~faults;
      lanes := !lanes lor (1 lsl i)
    end
  done;
  let alive = ref !lanes in
  let idx = ref 0 in
  List.iter
    (fun v ->
      if !alive <> 0 then begin
        incr idx;
        let diff = Simulator.batch_detects bh ~alive:!alive v in
        let d = ref diff in
        while !d <> 0 do
          let l = lowest_lane_from 0 !d in
          d := !d land (!d - 1);
          outs.(l) <- (fst outs.(l), Detected !idx)
        done;
        alive := !alive land lnot diff
      end)
    vectors

(* Fold one row's trial outcomes, in trial order. *)
let row_of_outcomes ~fault_count outcomes =
  let detected = ref 0 in
  let escapes = ref [] in
  let latency_sum = ref 0 in
  let short_draws = ref 0 in
  let void_draws = ref 0 in
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
  let mean_latency =
    if !detected = 0 then nan
    else float_of_int !latency_sum /. float_of_int !detected
  in
  { fault_count; trials = Array.length outcomes; detected = !detected;
    escapes = List.rev !escapes; short_draws = !short_draws;
    void_draws = !void_draws; mean_latency }

(* Split a grid's rows, keyed in run order, into the completed prefix and
   the truncated tail: a row the budget cut short (a partially-scored row
   would not be bit-identical to the same row of an unbudgeted run) is
   dropped whole, and every later row with it, so the surviving rows are
   always a prefix of the full run's rows. *)
let rows_and_truncated keys grid ~row_of =
  let rec build r = function
    | [] -> ([], [])
    | key :: rest as tail -> (
      match grid.(r) with
      | None -> ([], tail)
      | Some outcomes ->
        let rows, truncated = build (r + 1) rest in
        (row_of key outcomes :: rows, truncated))
  in
  build 0 keys

(* ---------- checkpoint plumbing ---------- *)

module Enc = Fpva_util.Journal.Enc
module Dec = Fpva_util.Journal.Dec

let classes_tag classes = String.concat "," (List.map Fault.class_name classes)

(* The key pins everything the rows depend on — canonical layout, suite
   text, trial counts, seed, classes — and deliberately NOT [jobs]: rows
   are jobs-invariant, so a run may be resumed with a different worker
   count. *)
let checkpoint_key (config : config) fpva ~vectors =
  let layout, suite = Fpva_testgen.Suite_io.digest fpva vectors in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "campaign/v1\nlayout=%s\nsuite=%s\ntrials=%d\nseed=%d\ncounts=%s\nclasses=%s\n"
    layout suite config.trials config.seed
    (String.concat "," (List.map string_of_int config.fault_counts))
    (classes_tag config.classes);
  Buffer.contents b

let rec enc_fault buf = function
  | Fault.Stuck_at_0 v ->
    Enc.u8 buf 0;
    Enc.u32 buf v
  | Fault.Stuck_at_1 v ->
    Enc.u8 buf 1;
    Enc.u32 buf v
  | Fault.Control_leak (a, b) ->
    Enc.u8 buf 2;
    Enc.u32 buf a;
    Enc.u32 buf b
  | Fault.Intermittent (f, p) ->
    Enc.u8 buf 3;
    enc_fault buf f;
    Enc.float buf p

let rec dec_fault src =
  match Dec.u8 src with
  | 0 -> Fault.Stuck_at_0 (Dec.u32 src)
  | 1 -> Fault.Stuck_at_1 (Dec.u32 src)
  | 2 ->
    let a = Dec.u32 src in
    let b = Dec.u32 src in
    Fault.Control_leak (a, b)
  | 3 ->
    let f = dec_fault src in
    Fault.Intermittent (f, Dec.float src)
  | t -> raise (Dec.Malformed (Printf.sprintf "unknown fault tag %d" t))

let enc_trial buf (short, outcome) =
  Enc.u8 buf (if short then 1 else 0);
  match outcome with
  | Void -> Enc.u8 buf 0
  | Detected i ->
    Enc.u8 buf 1;
    Enc.u32 buf i
  | Escaped faults ->
    Enc.u8 buf 2;
    Enc.u32 buf (List.length faults);
    List.iter (enc_fault buf) faults

let dec_trial src =
  let short = Dec.u8 src = 1 in
  match Dec.u8 src with
  | 0 -> (short, Void)
  | 1 -> (short, Detected (Dec.u32 src))
  | 2 ->
    let n = Dec.u32 src in
    (short, Escaped (List.init n (fun _ -> dec_fault src)))
  | t -> raise (Dec.Malformed (Printf.sprintf "unknown outcome tag %d" t))

(* Trials per journal shard.  Durability granularity: a crash loses at
   most the in-flight shards (recomputed on resume); smaller shards mean
   finer resume but more journal records and fsync batches.  Must be a
   multiple of [Simulator.batch_width] so a bit-parallel batch never
   straddles a shard boundary.  Old journals written at the previous size
   (256) self-reject: each payload frames its own (lo, count) range, so a
   mismatched record is dropped and recomputed rather than replayed into
   the wrong slice. *)
let shard_trials = 4 * Simulator.batch_width (* 252 *)

let journal ~enc ~dec store = { Shards.store; shard = shard_trials; enc; dec }

let run ?(config = default_config) ?(jobs = 1) ?budget ?checkpoint fpva
    ~vectors =
  check "run" ~jobs config;
  let t0 = Timer.now () in
  (* Force the layout's compiled form (and valve tables, and the leak-pair
     table when leaks are drawn) before any domain spawns: workers only
     ever read the caches.  One compiled handle per worker serves every
     trial it runs; re-deriving adjacency per application was the
     dominating cost of the paper's 10 000-trial experiment. *)
  ignore (Simulator.make fpva);
  ignore (Fault.feasible_classes fpva config.classes);
  let counts = Array.of_list config.fault_counts in
  let trials = config.trials in
  (* Trial [i] of row [r] is item [g = r * trials + i] and draws from
     [Rng.derive seed g]: the injected fault set is a pure function of
     (seed, g), so the rows are bit-identical for every [jobs] value.  The
     batch — up to [batch_width] consecutive trials of one row packed into
     the bits of an [int] — is the unit of simulation, scheduling and
     budget checks; affected rows are dropped whole. *)
  let grid =
    Shards.run ?budget
      ?checkpoint:
        (Option.map (journal ~enc:enc_trial ~dec:dec_trial) checkpoint)
      ~jobs ~rows:(Array.length counts) ~trials ~unit:Simulator.batch_width
      ~empty:(false, Void)
      ~init:(fun () ->
        ( Simulator.make_batch fpva,
          Array.make Simulator.batch_width (false, Void) ))
      ~body:(fun (bh, outs) ~lo ~width ->
        run_batch bh outs vectors ~classes:config.classes ~seed:config.seed
          ~fault_count:counts.(lo / trials) ~glo:lo ~width;
        outs)
      ()
  in
  let rows, truncated =
    rows_and_truncated config.fault_counts grid.Shards.rows
      ~row_of:(fun fault_count -> row_of_outcomes ~fault_count)
  in
  let wall = Timer.elapsed t0 in
  if Trace.is_enabled () then begin
    let scored = grid.Shards.scored in
    Trace.add trials_c scored;
    if scored > 0 && wall > 0.0 then
      Trace.set_gauge tps_g (float_of_int scored /. wall);
    (* Mean lane occupancy of the scored batches: 1.0 when every batch is
       full-width, lower when the trial count leaves a ragged final batch
       per row. *)
    if grid.Shards.scored_units > 0 then
      Trace.set_gauge batch_occ_g
        (float_of_int scored
        /. float_of_int (grid.Shards.scored_units * Simulator.batch_width));
    Trace.emit_span "campaign.run" ~dur:wall
      ~tags:[ ("trials", string_of_int scored); ("jobs", string_of_int jobs) ]
  end;
  { rows; truncated; wall_seconds = wall }

let effective_trials row = row.trials - row.void_draws

let detection_rate row =
  Fpva_util.Stats.ratio row.detected (effective_trials row)

let mean_latency_string row =
  (* A row with zero detections has no latency to average; never let the
     placeholder nan leak into reports. *)
  if Float.is_nan row.mean_latency then "-"
  else Printf.sprintf "%.1f" row.mean_latency

let pp_result ppf r =
  List.iter
    (fun row ->
      Format.fprintf ppf
        "faults=%d detected=%d/%d (%.4f), mean first-detect vector %s"
        row.fault_count row.detected (effective_trials row)
        (detection_rate row) (mean_latency_string row);
      if row.short_draws > 0 then
        Format.fprintf ppf " [%d short draw(s), %d empty]" row.short_draws
          row.void_draws;
      Format.fprintf ppf "@.")
    r.rows;
  if r.truncated <> [] then
    Format.fprintf ppf "truncated: fault count(s) %s not run (budget exhausted)@."
      (String.concat "," (List.map string_of_int r.truncated));
  Format.fprintf ppf "wall=%.1fs@." r.wall_seconds

(* ---------- noise sweep ---------- *)

module Retest = Fpva_testgen.Retest

type noise_config = {
  base : config;
  noise_levels : float list;
  repeats : int;
}

let default_noise_config =
  { base = { default_config with trials = 1_000 };
    noise_levels = [ 0.0; 0.01; 0.02; 0.05 ];
    repeats = 3 }

type noise_row = {
  noise : float;
  n_fault_count : int;
  n_trials : int;
  n_detected : int;
  false_alarms : int;
  n_short_draws : int;
  n_void_draws : int;
  total_reads : int;
  vector_slots : int;
}

type noise_result = {
  noise_rows : noise_row list;
  n_truncated : (float * int) list;
  repeats : int;
  n_wall_seconds : float;
}

let noisy_effective_trials row = row.n_trials - row.n_void_draws

let noisy_detection_rate row =
  Fpva_util.Stats.ratio row.n_detected (noisy_effective_trials row)

let false_alarm_rate row =
  (* Same denominator as the detection rate: a voided trial runs no
     control session (no faults were injected, so there is nothing to
     compare a healthy chip against), hence it can produce neither a
     detection nor a false alarm. *)
  Fpva_util.Stats.ratio row.false_alarms (noisy_effective_trials row)

let mean_reads row =
  if row.vector_slots = 0 then 0.0
  else float_of_int row.total_reads /. float_of_int row.vector_slots

(* The independent meter stream's salt (see run_noisy doc). *)
let meter_salt = 0x5f3759df

(* Apply the whole suite through [meter] with adaptive retesting; returns
   whether any vector's verdict failed plus the read accounting. *)
let noisy_session policy meter meter_rng h vectors ~faults =
  let slots = ref 0 and reads = ref 0 in
  let rec scan = function
    | [] -> false
    | v :: rest ->
      incr slots;
      let verdict =
        Retest.apply policy ~read:(fun _ ->
            Measurement.detects_h meter meter_rng h ~faults v)
      in
      reads := !reads + verdict.Retest.reads;
      if verdict.Retest.failed then true else scan rest
  in
  let failed = scan vectors in
  (failed, !slots, !reads)

type noisy_outcome =
  | N_void
  | N_run of { nd : bool; alarm : bool; slots : int; reads : int }

let noisy_checkpoint_key (config : noise_config) fpva ~vectors =
  let base = config.base in
  let layout, suite = Fpva_testgen.Suite_io.digest fpva vectors in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "campaign-noisy/v1\nlayout=%s\nsuite=%s\ntrials=%d\nseed=%d\ncounts=%s\nclasses=%s\nlevels=%s\nrepeats=%d\n"
    layout suite base.trials base.seed
    (String.concat "," (List.map string_of_int base.fault_counts))
    (classes_tag base.classes)
    (* exact IEEE bits: a level printed with %g could collide *)
    (String.concat ","
       (List.map
          (fun l -> Printf.sprintf "%Lx" (Int64.bits_of_float l))
          config.noise_levels))
    config.repeats;
  Buffer.contents b

let enc_noisy_trial buf (short, outcome) =
  Enc.u8 buf (if short then 1 else 0);
  match outcome with
  | N_void -> Enc.u8 buf 0
  | N_run { nd; alarm; slots; reads } ->
    Enc.u8 buf 1;
    Enc.u8 buf (if nd then 1 else 0);
    Enc.u8 buf (if alarm then 1 else 0);
    Enc.u32 buf slots;
    Enc.u32 buf reads

let dec_noisy_trial src =
  let short = Dec.u8 src = 1 in
  match Dec.u8 src with
  | 0 -> (short, N_void)
  | 1 ->
    let nd = Dec.u8 src = 1 in
    let alarm = Dec.u8 src = 1 in
    let slots = Dec.u32 src in
    let reads = Dec.u32 src in
    (short, N_run { nd; alarm; slots; reads })
  | t -> raise (Dec.Malformed (Printf.sprintf "unknown noisy tag %d" t))

let run_noisy_trial policy meter h vectors ~classes ~fault_count fault_rng
    meter_rng =
  let fpva = Simulator.handle_fpva h in
  let faults = draw_faults fault_rng fpva ~classes ~count:fault_count in
  let short = List.length faults < fault_count in
  if faults = [] then (short, N_void)
  else begin
    let nd, s1, r1 = noisy_session policy meter meter_rng h vectors ~faults in
    (* Healthy-chip control session: any flagged vector here is a false
       alarm (it can only come from meter noise).  Runs only for trials
       that actually injected something — a voided trial contributes to
       neither rate's numerator nor denominator. *)
    let alarm, s2, r2 =
      noisy_session policy meter meter_rng h vectors ~faults:[]
    in
    (short, N_run { nd; alarm; slots = s1 + s2; reads = r1 + r2 })
  end

let noise_row_of_outcomes ~noise ~fault_count outcomes =
  let detected = ref 0 and false_alarms = ref 0 in
  let short_draws = ref 0 and void_draws = ref 0 in
  let total_reads = ref 0 and vector_slots = ref 0 in
  Array.iter
    (fun (short, outcome) ->
      if short then incr short_draws;
      match outcome with
      | N_void -> incr void_draws
      | N_run { nd; alarm; slots; reads } ->
        if nd then incr detected;
        if alarm then incr false_alarms;
        vector_slots := !vector_slots + slots;
        total_reads := !total_reads + reads)
    outcomes;
  { noise; n_fault_count = fault_count; n_trials = Array.length outcomes;
    n_detected = !detected; false_alarms = !false_alarms;
    n_short_draws = !short_draws; n_void_draws = !void_draws;
    total_reads = !total_reads; vector_slots = !vector_slots }

let run_noisy ?(config = default_noise_config) ?(jobs = 1) ?budget
    ?checkpoint fpva ~vectors =
  let base = config.base in
  check "run_noisy" ~jobs base;
  let t0 = Timer.now () in
  let policy = Retest.policy config.repeats in
  (* Validate every level (and warm the caches) before any worker starts. *)
  let meters_of () =
    Array.of_list
      (List.map
         (fun noise ->
           Measurement.uniform fpva ~false_pass:noise ~false_fail:noise)
         config.noise_levels)
  in
  ignore (meters_of ());
  ignore (Simulator.make fpva);
  ignore (Fault.feasible_classes fpva base.classes);
  (* Row keys in run order: the outer sweep is by noise level, inner by
     fault count, so item [g = (level * counts + fc) * trials + i]. *)
  let row_keys =
    List.concat_map
      (fun noise -> List.map (fun fc -> (noise, fc)) base.fault_counts)
      config.noise_levels
  in
  let counts = Array.of_list base.fault_counts in
  let trials = base.trials in
  let per_level = Array.length counts * trials in
  (* Fault draws are keyed by the (fault count, trial) pair alone — [rem]
     below — so every noise level (and the ideal [run]) scores identical
     injected fault sets; meter noise is keyed by the same pair under a
     salted seed, giving an independent stream that is also shared across
     levels (common random numbers).  Meter noise is per read, so lanes
     would diverge: the unit is one trial. *)
  let grid =
    Shards.run ?budget
      ?checkpoint:
        (Option.map (journal ~enc:enc_noisy_trial ~dec:dec_noisy_trial)
           checkpoint)
      ~jobs ~rows:(List.length row_keys) ~trials ~unit:1 ~empty:(false, N_void)
      ~init:(fun () -> (Simulator.make fpva, meters_of ()))
      ~body:(fun (h, meters) ~lo:g ~width:_ ->
        let rem = g mod per_level in
        [| run_noisy_trial policy meters.(g / per_level) h vectors
             ~classes:base.classes
             ~fault_count:counts.(rem / trials)
             (Rng.derive base.seed rem)
             (Rng.derive (base.seed lxor meter_salt) rem) |])
      ()
  in
  let rows, truncated =
    rows_and_truncated row_keys grid.Shards.rows
      ~row_of:(fun (noise, fault_count) ->
        noise_row_of_outcomes ~noise ~fault_count)
  in
  let wall = Timer.elapsed t0 in
  if Trace.is_enabled () then begin
    let scored = grid.Shards.scored in
    Trace.add noisy_trials_c scored;
    if scored > 0 && wall > 0.0 then
      Trace.set_gauge noisy_tps_g (float_of_int scored /. wall);
    Trace.emit_span "campaign.run_noisy" ~dur:wall
      ~tags:[ ("trials", string_of_int scored); ("jobs", string_of_int jobs) ]
  end;
  { noise_rows = rows; n_truncated = truncated; repeats = config.repeats;
    n_wall_seconds = wall }

let pp_noise_row ppf row =
  Format.fprintf ppf
    "noise=%.3f faults=%d detected=%d/%d (%.4f), false alarms %d/%d \
     (%.4f), mean reads/vector %.2f"
    row.noise row.n_fault_count row.n_detected (noisy_effective_trials row)
    (noisy_detection_rate row) row.false_alarms (noisy_effective_trials row)
    (false_alarm_rate row) (mean_reads row);
  if row.n_short_draws > 0 then
    Format.fprintf ppf " [%d short draw(s), %d empty]" row.n_short_draws
      row.n_void_draws

let pp_noise_result ppf r =
  List.iter
    (fun row -> Format.fprintf ppf "%a@." pp_noise_row row)
    r.noise_rows;
  if r.n_truncated <> [] then
    Format.fprintf ppf
      "truncated: %d row(s) not run (budget exhausted)@."
      (List.length r.n_truncated);
  Format.fprintf ppf "repeats<=%d per vector, wall=%.1fs@." r.repeats
    r.n_wall_seconds
