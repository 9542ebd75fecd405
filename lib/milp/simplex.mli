(** LP solver: bounded-variable primal simplex.

    Solves the continuous relaxation of an {!Lp.t} (integrality of variables
    is ignored).  The implementation is a dense revised simplex with an
    explicitly maintained basis inverse and a composite (infeasibility-sum)
    phase 1, plus Bland's rule as an anti-cycling fallback — adequate for the
    subblock-sized models the hierarchical method of the paper produces.

    {b Prepared model.}  {!prepare} freezes a model once into its
    computational form: the constraint columns in compressed sparse column
    (CSC) order, one slack per row, the phase-2 costs and the slack bounds.
    The {!prepared} value also owns the solver's workspace: the dense m×m
    basis inverse, the basic values, the basis bookkeeping, the bound arrays
    and the ftran/btran/pricing buffers.

    {b Workspace lifetime.}  Every {!solve_prepared} resets that workspace
    in place and may be called any number of times with different bounds,
    as branch and bound does once per node.  A [prepared] reflects its model
    as it was when prepared: prepare again after adding constraints or
    changing the objective.  It is mutable state, so two solves must not
    use one [prepared] at the same time (for instance from two domains).

    {b Allocation.}  A pivot allocates nothing: pricing, reduced costs and
    the ratio test return their results through the workspace.  A solve
    allocates only its {!solution}, and a clock read every few iterations
    when it has a deadline. *)

type solution = {
  objective : float;  (** objective value in the model's own sense *)
  values : float array;  (** structural variable values, by {!Lp.var_index} *)
}

type status =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The iteration cap or the deadline was hit before optimality was
          proven. *)

type prepared
(** A frozen model with its workspace. *)

val prepare : Lp.t -> prepared

val solve_prepared :
  ?max_iters:int ->
  ?deadline:float ->
  prepared ->
  lower:float array ->
  upper:float array ->
  status
(** [solve_prepared p ~lower ~upper] optimises the relaxation under the
    variable bounds [lower]/[upper] (indexed by {!Lp.var_index}; only read).
    [max_iters] defaults to [20_000 + 50 * (vars + constraints)].
    [deadline] is a {!Fpva_util.Timer.now} reading (default: none),
    checked every 16 iterations; a solve found past it returns
    [Iteration_limit].  Until then its pivots are those of a solve without
    a deadline. *)

val solve :
  ?max_iters:int ->
  ?lower_override:float array ->
  ?upper_override:float array ->
  Lp.t ->
  status
(** [solve lp] prepares [lp] and solves it once: {!solve_prepared} under
    the model's bounds, or under [lower_override]/[upper_override] when
    given. *)
