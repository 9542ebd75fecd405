(** Pressure-propagation simulator.

    Models test application on a (possibly faulty) chip: sources drive air
    pressure, a test vector holds valves open or closed, and pressure
    spreads through every passable connection.  A pressure meter reads
    [true] iff its port is connected to some source — the steady-state
    behaviour the paper's test method observes.

    Faults perturb the effective valve states: a stuck-at-0 valve is always
    closed, a stuck-at-1 valve always open, and a control leak closes the
    victim whenever the vector actuates the aggressor.  Intermittent
    wrappers are treated as permanently active here (the deterministic
    worst case); the draw-per-application behaviour lives in
    {!Measurement}. *)

open Fpva_grid

val effective_states :
  Fpva.t -> faults:Fault.t list -> open_valves:bool array -> bool array
(** The valve states that physically result from commanding [open_valves]
    on a chip afflicted by [faults].  Fault precedence: control leaks apply
    first (victim forced closed when aggressor commanded closed), then
    stuck-at-1 forces open, then stuck-at-0 forces closed; a valve that is
    both SA0 and SA1 reads as SA0 (it cannot be opened). *)

(** {2 Compiled simulation handle}

    A [handle] binds the chip's compiled CSR adjacency
    ({!Fpva_grid.Compiled}) to reusable scratch and result buffers.
    Build one per run (campaign, dictionary, sweep) and thread it through
    every vector application: each application is then a single
    allocation-free BFS.  The per-call functions below are wrappers that
    make a throwaway handle — identical observable behaviour, just
    without buffer reuse across calls. *)

type handle

val make : Fpva.t -> handle
(** Compile (or fetch the cached compilation of) [fpva] and allocate the
    handle's private buffers.  Cheap when the compilation is cached; a
    handle must not be shared between interleaved simulations. *)

val handle_fpva : handle -> Fpva.t

val response_h :
  handle -> faults:Fault.t list -> Fpva_testgen.Test_vector.t -> bool array
(** The observed response of one test vector, {e borrowed}: when no
    fault's victim leaves its commanded state, the chip drives the
    fault-free valve states, and the result is [v.golden] itself with no
    pressure sweep (the invariant documented on
    {!Fpva_testgen.Test_vector.t}); otherwise it is the handle's
    observation buffer, overwritten by the next application on the same
    handle.  Never mutate the result; copy it to keep it.  The read that
    {!apply_vector_h}, {!detects_h} and {!Measurement} share.
    Allocation-free. *)

val apply_vector_h :
  handle -> faults:Fault.t list -> Fpva_testgen.Test_vector.t -> bool array
(** A fresh copy of {!response_h}. *)

val detects_h :
  handle -> faults:Fault.t list -> Fpva_testgen.Test_vector.t -> bool
(** Does {!response_h} differ from the vector's golden response?
    Allocation-free. *)

(** {2 Bit-parallel batch handle}

    A [batch] scores up to {!batch_width} independent fault-injection
    trials per vector application: lane [l] of every mask word carries
    trial [l]'s effective valve states through one
    {!Fpva_grid.Compiled.pressurized_batch_into} sweep.  Load each
    trial's fault list into a lane, then call {!batch_detects} per
    vector with the set of still-undetected lanes; per lane the verdict
    is bit-identical to {!detects_h} with the same faults (the
    differential qcheck in [test/suite_parallel.ml] pins this). *)

type batch

val batch_width : int
(** Trials per batch: {!Fpva_grid.Compiled.batch_width} (63). *)

val make_batch : Fpva_grid.Fpva.t -> batch
(** Compile (or fetch) the layout and allocate the batch's private lane
    buffers.  Like {!make}, a batch must not be shared between
    interleaved simulations. *)

val batch_fpva : batch -> Fpva_grid.Fpva.t

val batch_reset : batch -> unit
(** Clear every lane's faults — call before loading the next batch. *)

val batch_set_lane : batch -> int -> faults:Fault.t list -> unit
(** Load one trial's fault list into lane [l] (0-based).  Fault
    precedence matches {!effective_states}: leaks close victims first,
    stuck-at-1 forces open, stuck-at-0 forces closed; intermittent
    wrappers are their deterministic worst case.
    @raise Invalid_argument if the lane is outside [0, batch_width). *)

val batch_detects : batch -> alive:int -> Fpva_testgen.Test_vector.t -> int
(** [batch_detects b ~alive v] applies [v] to every lane in the [alive]
    set at once and returns the lanes whose observed response differs
    from [v]'s golden response.  Bits outside [alive] come back 0.
    Allocation-free. *)

(** {2 Per-call API} *)

val response :
  Fpva.t -> faults:Fault.t list -> open_valves:bool array -> bool array
(** Port pressures (indexed like [Fpva.ports]) under the effective states. *)

val apply_vector :
  Fpva.t -> faults:Fault.t list -> Fpva_testgen.Test_vector.t -> bool array
(** Observed response of one test vector on the faulty chip. *)

val detects :
  Fpva.t -> faults:Fault.t list -> Fpva_testgen.Test_vector.t -> bool
(** Does the observed response differ from the vector's golden response? *)

val detected_by_suite :
  Fpva.t -> faults:Fault.t list -> Fpva_testgen.Test_vector.t list -> bool
(** Is the fault list exposed by at least one vector of the suite? *)

val first_detecting :
  Fpva.t ->
  faults:Fault.t list ->
  Fpva_testgen.Test_vector.t list ->
  Fpva_testgen.Test_vector.t option

val detectable :
  Fpva.t -> faults:Fault.t list -> bool
(** Is the fault list detectable by {e any} valve-state assignment at all?
    Decided exactly for single faults (and conservatively for multiple
    faults) by comparing golden and faulty responses over the vectors of a
    canonical probing set: each single valve opened on a shortest live path
    and closed in a separating assignment.  Used to classify escapes as
    "undetectable by pressure testing" vs "missed by the suite". *)
