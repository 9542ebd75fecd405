(** Fault model for FPVAs (paper Section II).

    Component-level faults over the valve array:

    - [Stuck_at_0 v] — valve [v] can never be opened (broken flow channel,
      or a broken control channel on a normally-closed actuation scheme);
    - [Stuck_at_1 v] — valve [v] can never be closed (leaking flow channel);
    - [Control_leak (a, b)] — pressure leaks between the control channels of
      [a] and [b]: whenever [a] is actuated (closed), [b] closes too;
    - [Intermittent (f, p)] — fault [f] manifests only sporadically: each
      application of a test vector draws its activity with probability [p]
      (loose membrane, marginal actuation pressure).  The ideal
      {!Simulator} treats an intermittent fault as permanently active (the
      deterministic worst case); the noisy {!Measurement} path re-draws it
      per application via {!resolve}.

    Valves are identified by their dense id ([Fpva.valve_id]). *)

open Fpva_grid

type t =
  | Stuck_at_0 of int
  | Stuck_at_1 of int
  | Control_leak of int * int
  | Intermittent of t * float

type fault_class = [ `Stuck_at_0 | `Stuck_at_1 | `Control_leak ]
(** The classes a campaign draws faults from. *)

val class_name : fault_class -> string
(** ["sa0"], ["sa1"] or ["leak"]: the one spelling the CLI, the wire
    protocol and checkpoint keys use. *)

val class_of_name : string -> fault_class option
(** Inverse of {!class_name}. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val valves_involved : t -> int list

val is_valid : Fpva.t -> t -> bool
(** Ids in range; [Control_leak] pair distinct {e and} sharing a fluid
    cell (the only pairs the leak model is defined over — see
    {!adjacent_pairs}); [Intermittent] probability in [0,1] and wrapped
    fault valid. *)

val validate : Fpva.t -> t -> (unit, string) result
(** Like {!is_valid}, with a human-readable reason on rejection (for CLI
    [--inject] diagnostics). *)

val underlying : t -> t
(** The permanent fault beneath any [Intermittent] wrappers (identity on
    permanent faults). *)

val intermittent : probability:float -> t -> t
(** [intermittent ~probability f] wraps [f] as sporadically active.
    @raise Invalid_argument if [probability] is outside [0,1]. *)

val resolve : Fpva_util.Rng.t -> t list -> t list
(** One application's worth of active faults: permanent faults pass
    through; each [Intermittent (f, p)] is included (as [f], recursively
    resolved) with probability [p].  Draws exactly one random number per
    intermittent wrapper, and none for permanent faults, so ideal fault
    lists do not perturb the stream.  A list without [Intermittent]
    wrappers is returned as it is, allocating nothing. *)

val random : Fpva_util.Rng.t -> Fpva.t -> t
(** A uniformly random fault: polarity fair coin over stuck-at faults; use
    {!random_of_classes} to include control leaks. *)

val adjacent_pairs : Fpva.t -> (int * int) array
(** Ordered pairs of distinct valves sharing a fluid cell — the universe
    [Control_leak] instances are drawn from and validated against — in
    draw order: [Control.leak_pairs fpva Fluid_adjacency] reversed. *)

val feasible_classes : Fpva.t -> fault_class list -> fault_class list
(** The subset of [classes] this layout can instantiate: stuck-at classes
    need at least one valve, [`Control_leak] at least one adjacent valve
    pair (order preserved, duplicates kept). *)

val random_of_classes :
  Fpva_util.Rng.t -> Fpva.t -> classes:fault_class list -> t
(** Random fault drawn from the {e feasible} subset of the given classes
    (class first, then instance) — an infeasible class (e.g.
    [`Control_leak] on a layout with no adjacent valve pair) is excluded
    from the draw rather than silently substituted with a stuck-at fault.
    [Control_leak] instances are drawn over adjacent valve pairs.
    @raise Invalid_argument if [classes] is empty or none of them is
    feasible. *)

val random_multi : Fpva_util.Rng.t -> Fpva.t -> count:int -> t list
(** [count] distinct random stuck-at faults at distinct valves — matching
    the paper's multiple-fault injection experiment. *)
