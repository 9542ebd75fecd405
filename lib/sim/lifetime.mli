(** Chip-lifetime wear campaigns: aging, in-field retest, fleet rows.

    The paper's campaign tests each chip once, at manufacture.  The
    fault-tolerance design-flow direction (arXiv:1912.08353, PAPERS.md)
    asks what happens {e in the field}: membranes loosen and actuation
    margins drift, so a latent defect manifests sporadically at first and
    more often as the chip wears.  This module models a fleet of chips,
    each carrying latent faults whose {!Fault.Intermittent} activation
    probability grows across injected wear steps
    ([p_t = min(1, p0 * growth^t)]), and a periodic in-field retest
    schedule: every [retest_every] wear steps the suite is replayed
    through the noisy {!Measurement} path under a majority-vote
    {!Fpva_testgen.Retest} policy, and a chip whose session flags a
    failure is pulled from the fleet at that epoch.

    Determinism: each chip's latent-fault draw and meter stream come from
    counter-derived RNG streams keyed by the chip id
    ({!Fpva_util.Rng.derive}), so results are bit-identical for every
    [jobs] value — the same contract as {!Campaign.run}. *)

type config = {
  chips : int;  (** fleet size *)
  wear_steps : int;  (** aging steps each chip lives through *)
  retest_every : int;  (** wear steps between in-field retests *)
  fault_count : int;
      (** latent faults per chip; 0 makes the whole fleet healthy (any
          detection is then a false alarm — a noise-floor control) *)
  classes : Fault.fault_class list;
  p0 : float;  (** activation probability after one wear step's worth *)
  growth : float;  (** multiplicative wear per step; > 1 ages the chip *)
  noise : float;  (** meter false-pass = false-fail rate *)
  repeats : int;  (** per-vector majority-vote read budget *)
  seed : int;
}

val default_config : config
(** 100 chips, 20 wear steps retested every 5, one stuck-at latent fault,
    p0 0.01, growth 1.6, ideal meters, single reads, seed 42. *)

type chip = {
  id : int;
  latent : Fault.t list;  (** may be short or empty on cramped layouts *)
  detected_at : int option;  (** 1-based retest epoch, if ever flagged *)
  reads_per_epoch : int array;
      (** reads spent in each epoch the chip was still fielded *)
}

type epoch_row = {
  epoch : int;  (** 1-based *)
  wear_step : int;
  activation : float;  (** the fleet-wide [p_t] at this epoch *)
  fleet : int;  (** chips still fielded (not yet flagged) this epoch *)
  flagged : int;  (** chips newly flagged this epoch *)
  cumulative : int;
  mean_reads : float;  (** reads per fielded chip this epoch *)
}

type result = {
  rows : epoch_row list;
  chips : chip list;  (** in id order *)
  epochs : int;
  faulty : int;  (** chips with a non-empty latent set *)
  detected : int;  (** faulty chips flagged at some epoch *)
  escapes : int;  (** faulty chips never flagged *)
  false_alarms : int;  (** healthy chips flagged (meter noise) *)
  mean_epochs_to_detection : float;  (** over detected chips; 0 if none *)
  total_reads : int;
  wall_seconds : float;
}

val run :
  ?jobs:int ->
  ?config:config ->
  Fpva_grid.Fpva.t ->
  vectors:Fpva_testgen.Test_vector.t list ->
  result
(** Field the fleet.  Chips are independent, so [jobs] (default 1) shards
    them across that many domains; the result is bit-identical for every
    [jobs] value.
    @raise Invalid_argument if [jobs < 1] or the config is out of range
    (non-positive counts, [p0] outside [0,1], [growth < 0], [noise]
    outside [0,1), [repeats < 1], or no retest fitting in [wear_steps]). *)

val detection_rate : result -> float
(** Detected over faulty (0 when the fleet is healthy). *)

val pp_result : Format.formatter -> result -> unit
