(** Exact MILP solving by LP-based branch and bound.

    Depth-first search over variable-bound dichotomies; each node solves the
    LP relaxation with {!Simplex}, prunes on bound, and harvests incumbents
    both from integral LP optima and from a cheap rounding heuristic.  This
    is the engine behind the paper's ILP models when solved exactly.

    One {!solve} prepares its model once ({!Simplex.prepare}) and every node
    resets that one workspace in place with its own bounds, so the pivots
    allocate nothing; what a node allocates is its bound arrays, its LP
    solution and its rounding candidate.  A node LP starts from the slack
    basis, exactly as a fresh {!Simplex.solve} would, so the pivots, nodes
    and incumbents do not depend on the reuse.  The prepared form lives
    and dies with the call. *)

type options = {
  max_nodes : int;  (** node budget; the search stops cleanly when hit *)
  time_limit : float;
      (** seconds of wall clock; [infinity] disables.  It is checked
          before each node and, every 16 simplex iterations, inside the
          node LP, so one long relaxation cannot overrun it; a node LP the
          deadline stops counts as unexplored, like one that hits
          [lp_iteration_limit]. *)
  presolve : bool;  (** run {!Presolve.bounds} on the root node *)
  lp_iteration_limit : int option;
      (** simplex pivot cap per node LP ([None] = solver default); a node
          hitting it is treated as unexplored, so the result degrades to
          [Feasible]/[Unknown] instead of becoming wrong *)
}
(** A value within [1e-6] of an integer counts as integral; each
    improved incumbent ticks the [bb.incumbents] Trace counter. *)

val default_options : options
(** 200 000 nodes, no time limit, presolve on, no LP pivot cap. *)

type outcome =
  | Optimal of Simplex.solution  (** proven optimal *)
  | Feasible of Simplex.solution
      (** search truncated by a budget, best incumbent returned *)
  | Infeasible
  | Unbounded
  | Unknown  (** budget exhausted with no incumbent found *)

val solve : ?options:options -> Lp.t -> outcome
