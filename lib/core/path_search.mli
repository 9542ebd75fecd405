(** Combinatorial single-path engine.

    Budgeted depth-first search for a simple start-to-end path maximising
    the total weight of the (distinct) edges it traverses.  Weights encode
    "how many still-uncovered valves does this step pay for", so the
    covering loop ({!Cover}) calls this repeatedly with shrinking weights.

    The search honours all side conditions of the {!Problem} instance:
    terminal nodes only at path extremities and the anti-masking rule on
    pair-constrained edges.  Neighbour ordering prefers heavy edges, then
    tightly-packed moves (fewest unvisited neighbours), which drives the
    search toward long serpentine paths; a deterministic RNG adds
    tie-breaking jitter across restarts. *)

type params = {
  step_budget : int;
      (** total expansions across all dives; dives restart until spent *)
  seed : int;  (** RNG seed; equal seeds give identical results *)
}

val default_params : params
(** 200 000 expansions, seed 0x5eed. *)

val find :
  ?params:params -> Problem.t -> weight:float array -> Problem.path option
(** [find problem ~weight] is the best path found within budget, or [None]
    if no admissible path exists at all (in particular when the instance
    has no start or no end).  [weight] is indexed by edge id and must be
    non-negative.  A returned path always satisfies [Problem.path_ok].
    Each call adds to the Trace counters [path_search.calls],
    [path_search.steps] (expansions spent) and [path_search.dives].
    @raise Invalid_argument on a size mismatch, a negative or a NaN
    weight, or an instance whose adjacency arrays no longer satisfy the
    invariants {!Problem.build} established (the search indexes them
    unchecked). *)
