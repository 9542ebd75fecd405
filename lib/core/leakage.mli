(** Control-layer leakage test generation.

    The paper's fourth fault class: pressure leaking between two control
    channels makes two valves actuate together — when the aggressor valve
    [a] is closed (actuated), the victim valve [b] closes as well.  The
    paper states the defect is covered "by adapting the valve coverage
    problem" without giving the construction; the reconstruction here is:

    an ordered adjacent pair [(a, b)] (valves sharing a fluid cell, whose
    control channels are therefore routed next to each other) is
    {e exercised} by a vector in which [b] is open on a live source-to-sink
    path while [a] is closed.  If the leak exists, actuating [a] also
    closes [b], the path is interrupted, and the missing sink pressure
    exposes the fault.

    Flow-path vectors already exercise every pair whose victim lies on a
    path that avoids the aggressor; the generator below adds vectors only
    for the residual pairs, producing the paper's [nl] counts (same order
    of magnitude as [np]). *)

open Fpva_grid

val exercised_by : Fpva.t -> Flow_path.t -> (int * int) -> bool
(** Is the pair (aggressor, victim) exercised by this path's vector? *)

val dead_end : Fpva.t -> (int * int) -> bool
(** Can no flow path carry the pair (aggressor, victim)?  With the
    aggressor held closed, the victim has no edge in the flow-path
    instance, or its edge is on a dead end ({!Problem.dead_end}) — at a
    corner cell, say, whose only other valve is the aggressor.
    {!generate} rejects such pairs without a search and counts them in
    the trace counter [leakage.dead_end_pairs]. *)

val residual_pairs :
  Fpva.t -> existing:Flow_path.t list -> (int * int) list
(** Fluid-adjacency pairs ({!Fpva_grid.Control.leak_pairs}) not exercised
    by any of the given flow paths. *)

val generate :
  ?engine:Cover.engine ->
  ?pairs:(int * int) array ->
  ?budget:Budget.t ->
  ?stats:Cover.stats ->
  Fpva.t ->
  existing:Flow_path.t list ->
  Flow_path.t list * (int * int) list
(** Additional leakage paths covering the residual pairs, plus the pairs
    that cannot be exercised at all (victim unreachable once its aggressor
    is held closed).  [pairs] overrides the pair model (default
    {!Fpva_grid.Control.leak_pairs} under [Fluid_adjacency]); pass another
    routing's pairs for a routed control-layer architecture.  Engine calls
    go through {!Cover.find_robust}; when [budget] runs out, the
    not-yet-attempted residual pairs are reported in the second component
    unless a generated vector happens to exercise them. *)
