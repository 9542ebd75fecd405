(** Wall-clock and node budgets for graceful degradation.

    A budget carries an absolute deadline (plus an optional per-solve node
    cap) through {!Pipeline.run} into every stage — {!Hierarchy},
    {!Flow_path}, {!Cut_set}, {!Leakage} — and down to
    {!Fpva_milp.Branch_bound.solve}.  Stages stop starting new solver work
    once the deadline passes and report what they left uncovered instead of
    hanging; see {!Pipeline.degradation}. *)

type t

val unlimited : t
(** No deadline, no node cap — every stage runs to completion exactly as if
    no budget were threaded at all. *)

val create : ?seconds:float -> ?nodes:int -> unit -> t
(** [create ~seconds ()] starts a budget whose deadline is [seconds] of wall
    clock from now.  [nodes] caps the branch-and-bound node count of every
    {e individual} solver call made under the budget (see {!clamp_bb}).
    Omitting both yields {!unlimited}. *)

val of_seconds : float -> t
(** [of_seconds s] = [create ~seconds:s ()]. *)

val is_unlimited : t -> bool

val remaining : t -> float
(** Seconds of wall clock left; [infinity] when unlimited, never negative. *)

val allotted : t -> float
(** Seconds this budget was created (or {!share}d) with. *)

val exhausted : t -> bool
(** [remaining t = 0.] — stages poll this between solver calls. *)

val share : t -> float -> t
(** [share t f] is a sub-budget holding fraction [f] of [t]'s remaining
    time, starting now.  Its deadline never exceeds the parent's, and the
    node cap is inherited.  {!Pipeline.run} uses this to give each stage its
    slice while letting an early finisher's unused time roll over to the
    stages after it.  A share of {!unlimited} is unlimited. *)

val clamp_bb :
  t -> Fpva_milp.Branch_bound.options -> Fpva_milp.Branch_bound.options
(** Tighten solver options to the budget: [time_limit] becomes at most
    {!remaining} and [max_nodes] at most the [nodes] cap of {!create}.  The
    identity on {!unlimited}. *)
