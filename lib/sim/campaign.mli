(** Random fault-injection campaigns (paper Section IV).

    The paper's closing experiment: "for each valve array … we randomly
    introduced one, two, three, four and five faults, respectively, and
    applied the generated test vectors.  We repeated this process 10 000
    times.  In these test cases, the test vectors captured all the faults."

    A campaign repeats: draw [k] distinct random faults, run the whole
    vector suite on the faulty chip, record whether any vector's observation
    differs from golden.

    {2 Per-trial RNG streams and parallel execution}

    The fault set injected by trial [i] of a row is a pure function of
    [(seed, global trial index)] — each trial owns the counter-based
    stream [Fpva_util.Rng.derive seed index].  That makes the trials
    embarrassingly parallel {e without} changing their results: both
    engines are one call of {!Checkpoint.Shards.run}, which spreads the
    trials across [jobs] domains (each worker holding its own simulator
    handle, whose scratch buffers must never be shared) and returns rows
    {e bit-identical} for every [jobs] value, [1] included. *)

type config = {
  trials : int;  (** repetitions per fault count (paper: 10 000) *)
  fault_counts : int list;  (** paper: [1; 2; 3; 4; 5] *)
  seed : int;
  classes : Fault.fault_class list;
      (** fault classes to draw from; the paper's experiment uses stuck-at
          faults ([`Stuck_at_0; `Stuck_at_1]) *)
}

val default_config : config
(** 10 000 trials, counts 1–5, stuck-at classes, seed 42. *)

val draw_faults :
  Fpva_util.Rng.t ->
  Fpva_grid.Fpva.t ->
  classes:Fault.fault_class list ->
  count:int ->
  Fault.t list
(** Distinct faults for one trial (no valve reuse across the drawn set).
    Stuck-at-only class lists use the paper's distinct-valve draw; mixed
    lists draw class-first with rejection.  Either result may be {e short}
    (fewer than [count]) when the layout has too few valves for the
    request, and a mixed draw may be empty.
    Exposed for workloads that build their own per-chip fault populations
    ({!Lifetime}). *)

type row = {
  fault_count : int;  (** faults {e requested} per trial *)
  trials : int;
  detected : int;
  escapes : Fault.t list list;  (** the undetected fault sets, if any *)
  short_draws : int;
      (** trials where the rejection sampler injected fewer than
          [fault_count] faults (layout too small for that many disjoint
          faults) — those trials still ran against the faults actually
          drawn *)
  void_draws : int;
      (** trials where {e no} fault could be drawn at all; excluded from
          both [detected] and [escapes] (and from {!detection_rate}'s
          denominator), so rates are never computed against phantom
          faults *)
  mean_latency : float;
      (** average 1-based index of the first detecting vector over the
          detected trials (how far into the session the tester learns the
          chip is bad) — [nan] when nothing was detected *)
}

type result = {
  rows : row list;
  truncated : int list;
      (** fault counts whose rows were {e not} run (or were dropped whole)
          because the wall-clock budget ran out first — the degradation
          marker of a budgeted campaign.  Always a suffix of
          [config.fault_counts]; empty on an unbudgeted run. *)
  wall_seconds : float;
}

val run :
  ?config:config ->
  ?jobs:int ->
  ?budget:Fpva_testgen.Budget.t ->
  ?checkpoint:Checkpoint.t ->
  Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list ->
  result
(** [jobs] (default 1) is the number of domains trials are sharded across;
    rows are bit-identical for every [jobs] value.

    Trials are simulated bit-parallel: up to {!Simulator.batch_width}
    consecutive trials of a row are packed into the bits of one [int] and
    scored with a single masked CSR sweep per vector, and each lane's
    outcome equals a plain per-trial scan of its own draw.  The batch is
    also the unit of scheduling (one pool item and one budget check per
    batch), and batches never straddle a row or a checkpoint shard.

    [budget] (default {!Fpva_testgen.Budget.unlimited}) caps wall clock:
    once it is exhausted no further trial is scored, the row being
    computed is dropped {e whole} (a partially-scored row would silently
    change detection rates), and the dropped fault counts land in
    {!result.truncated}.  The surviving rows are always a prefix of — and
    bit-identical to — the rows of an unbudgeted run with the same
    config, so budgeted partial results never disagree with full ones.

    [checkpoint] makes the campaign resumable:
    completed shards of trials are journaled through the given
    {!Checkpoint} store as they finish, shards already in the store are
    replayed instead of recomputed (even under an exhausted budget), and
    the journal is flushed before returning.  Because each trial is a
    pure function of [(seed, global index)], a resumed run's rows are
    {e bit-identical} to a cold run's — open the store with
    {!checkpoint_key} so layout/config/suite drift is refused up front.
    A checkpoint write failure mid-run disables checkpointing (see
    {!Checkpoint.failure}) and the campaign completes normally.

    With tracing on, [campaign.trials], [campaign.trials_per_sec] and
    [campaign.batch_occupancy] count only the trials a worker scored in
    this call: neither budget-skipped nor journal-replayed ones.
    @raise Invalid_argument if [jobs < 1], [config.trials < 0] or a fault
    count is negative (a count of 0 voids every trial of its row). *)

val checkpoint_key : config -> Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list -> string
(** The identity of a {!run}: canonical layout render digest, suite-text
    digest, trials, seed, fault counts and classes.  Two runs share a
    checkpoint file iff their keys are equal.  [jobs] is deliberately
    excluded — rows are jobs-invariant, so a campaign may be resumed
    with a different worker count. *)

val effective_trials : row -> int
(** [trials - void_draws]: the trials that actually injected something. *)

val detection_rate : row -> float
(** [detected / effective_trials] ([0.] when no trial injected anything). *)

val mean_latency_string : row -> string
(** [mean_latency] formatted to one decimal, or ["-"] when the row has no
    detections (the latency is undefined, not zero). *)

val pp_result : Format.formatter -> result -> unit

(** {1 Noise sweep}

    The same experiment under imperfect observation: every vector is read
    through a {!Measurement} error model and retested under an adaptive
    majority-vote policy ({!Fpva_testgen.Retest}).  Each non-void trial
    also runs a healthy-chip control session, so rows report a {e
    false-alarm} rate alongside detection, plus the measurement cost (mean
    reads per vector). *)

type noise_config = {
  base : config;  (** trials, fault counts, seed and classes, as for
                      {!run} *)
  noise_levels : float list;
      (** per-meter error rates; each level is applied as both the
          false-pass and the false-fail rate *)
  repeats : int;  (** per-vector read budget for the majority vote *)
}

val default_noise_config : noise_config
(** 1 000 trials, noise levels 0 / 1% / 2% / 5%, up to 3 reads. *)

type noise_row = {
  noise : float;
  n_fault_count : int;
  n_trials : int;
  n_detected : int;  (** faulty-chip sessions with a failed verdict *)
  false_alarms : int;  (** healthy-chip sessions with a failed verdict *)
  n_short_draws : int;
  n_void_draws : int;
      (** trials that could draw no fault; these run {e no} session at all
          (neither faulty nor control) and are excluded from both rates'
          denominators *)
  total_reads : int;  (** vector applications across all sessions *)
  vector_slots : int;  (** vector positions evaluated (a session stops at
                           its first failed verdict) *)
}

type noise_result = {
  noise_rows : noise_row list;  (** keyed by noise level x fault count *)
  n_truncated : (float * int) list;
      (** (noise level, fault count) rows dropped for budget exhaustion —
          a suffix of the run-order row keys; empty when unbudgeted *)
  repeats : int;
  n_wall_seconds : float;
}

val run_noisy :
  ?config:noise_config ->
  ?jobs:int ->
  ?budget:Fpva_testgen.Budget.t ->
  ?checkpoint:Checkpoint.t ->
  Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list ->
  noise_result
(** Fault draws are keyed exactly as in {!run}, by [(base.seed, fault
    count x trial)], so every noise level — and the ideal campaign —
    scores identical injected fault sets; meter noise draws from an
    independent stream derived from [base.seed lxor 0x5f3759df].  With
    noise 0 and repeats 1 the detected counts equal {!run}'s bit-for-bit,
    and equal seeds reproduce rows byte-for-byte for every [jobs] value.
    Meter noise is per read, so lanes would diverge: trials are scored
    one at a time, each its own unit of scheduling and budget checks.
    [budget] and [checkpoint] behave exactly as in {!run} (key the store
    with {!noisy_checkpoint_key}); the traced [campaign.noisy_trials] and
    [campaign.noisy_trials_per_sec] likewise count scored trials only.
    @raise Invalid_argument if [repeats < 1], a level is outside [0,1],
    [jobs < 1], [base.trials < 0] or a fault count is negative. *)

val noisy_checkpoint_key : noise_config -> Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list -> string
(** {!checkpoint_key} for noise sweeps: additionally pins the noise
    levels (by exact IEEE bits) and the retest repeat budget. *)

val noisy_detection_rate : noise_row -> float

val false_alarm_rate : noise_row -> float
(** [false_alarms / (n_trials - n_void_draws)]: the control session runs once
    per {e non-void} trial, so both rates share one denominator. *)

val mean_reads : noise_row -> float
(** Average vector applications per evaluated vector position. *)

val pp_noise_row : Format.formatter -> noise_row -> unit

val pp_noise_result : Format.formatter -> noise_result -> unit
