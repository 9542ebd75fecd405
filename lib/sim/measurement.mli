(** Imperfect observation of test responses.

    The paper assumes a pressure meter reads exactly what the fluid network
    delivers.  Real readouts are noisy: a meter occasionally reports the
    expected (golden) value although the chip misbehaved, masking a failure
    ({e false pass}), or reports a discrepancy although the chip behaved,
    raising a spurious alarm ({e false fail}).  This module composes a
    seeded per-meter error model over {!Simulator.response_h} without
    touching the ideal path: the physical response is computed exactly,
    then each meter's reading is perturbed independently.

    Intermittent faults ({!Fault.Intermittent}) are resolved here on a
    draw-per-application basis via {!Fault.resolve} — each read re-draws
    which sporadic faults are active.

    All randomness comes from an explicit {!Fpva_util.Rng.t}, and zero-rate
    meters consume no draws, so an ideal model applied to permanent faults
    is bit-identical to the plain simulator and leaves the stream
    untouched (the reproducibility guarantee campaigns rely on). *)

open Fpva_grid

type t

val ideal : Fpva.t -> t
(** Perfect meters: both error rates 0 at every port. *)

val uniform : Fpva.t -> false_pass:float -> false_fail:float -> t
(** The same error rates at every port.
    @raise Invalid_argument if a rate is outside [0,1]. *)

val is_ideal : t -> bool

val observe :
  t -> Fpva_util.Rng.t -> golden:bool array -> actual:bool array ->
  bool array
(** One noisy readout: each port where [actual] agrees with [golden] is
    flipped with its false-fail rate; each discrepant port is flipped back
    to golden with its false-pass rate. *)

val apply_vector_h :
  t -> Fpva_util.Rng.t -> Simulator.handle -> faults:Fault.t list ->
  Fpva_testgen.Test_vector.t -> bool array
(** Noisy observed response: resolve intermittent faults for this
    application, simulate the physical response on the handle, then
    {!observe} it. *)

val detects_h :
  t -> Fpva_util.Rng.t -> Simulator.handle -> faults:Fault.t list ->
  Fpva_testgen.Test_vector.t -> bool
(** Does the {e noisy} observation differ from the vector's golden
    response?  Unlike {!Simulator.detects_h} this can err in both
    directions.  Draws exactly the stream {!apply_vector_h} draws, but
    reads the meters in place over {!Simulator.response_h}: a read whose
    fault list has no [Intermittent] wrapper and moves no valve off its
    commanded state allocates nothing. *)

val vector_false_fail : t -> float
(** Probability that a vector whose physical response matches golden is
    observed as failing: [1 - prod_i (1 - false_fail_i)]. *)

val vector_false_pass : t -> float
(** Approximate probability that a genuinely failing vector is observed as
    passing, assuming a single discrepant port (the common case for a
    single fault): mean false-pass rate times the probability that no
    agreeing meter misfires.  Used as the syndrome-bit flip probability by
    {!Diagnosis.rank}. *)
